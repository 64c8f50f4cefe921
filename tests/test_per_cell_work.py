"""Work a forced cell repeats but no one reads: parsing and the run's RunConfig.

Each configuration is parsed once (``ProtocolSpec.runner_kwargs`` memoises
the parse), and a run builds its ``RunConfig`` only when something reads it.
The counters wrap ``ProtocolSpec.parse`` and ``RunConfig.__init__``.
"""

from __future__ import annotations

import contextlib
import io
import re
from collections import Counter
from dataclasses import replace

import pytest

from bellproto import cli
from bellproto.attacks import CATALOG, enumeration_cells, run_cell, run_strategy, view_distance
from bellproto.protocols import (
    _QSS_PROBE,
    SPECS,
    ConfigError,
    _encode_qubit,
    _mode_string,
    spec_for,
)
from bellproto.transcript import RunConfig
from test_golden import FORCED_CONFIGS, REPORT_CONFIGS


@pytest.fixture
def parses(monkeypatch):
    """Parse calls per configuration, through a counting copy of every spec."""
    counts = Counter()

    def counting(parse):
        def counted(config, forced):
            counts[config] += 1
            return parse(config, forced)
        return counted

    for name, spec in SPECS.items():
        monkeypatch.setitem(SPECS, name, replace(spec, parse=counting(spec.parse)))
    return counts


@pytest.fixture
def builds(monkeypatch):
    """RunConfigs built so far, as a one-element list."""
    count = [0]
    init = RunConfig.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RunConfig, "__init__", counted)
    return count


def test_enumerate_strategy_parses_its_configuration_once(parses):
    for protocol, name in sorted(CATALOG):
        run_strategy(REPORT_CONFIGS[protocol], name)
    assert set(parses) == set(REPORT_CONFIGS.values())
    assert set(parses.values()) == {1}


def test_honest_cell_loop_parses_each_configuration_once(parses):
    for config in FORCED_CONFIGS:  # as the benchmark's honest tables do
        for cell in enumeration_cells(config):
            assert run_cell(config, dict(cell), None, None).verdict.accepted
    assert parses == Counter(FORCED_CONFIGS)


def test_view_distance_and_cli_enumeration_parse_once(parses):
    view_distance("tpsc", "alice", vary="inputs", values=("10,00", "10,10"),
                  fixed={"secret": 1})
    assert sorted(parses.values()) == [1, 1]
    parses.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--protocol", "mpsc", "--secret", "1", "--inputs", "10,01,--",
                         "--seed", "1", "--mode", "enumerate"]) == cli.EXIT_OK
    assert list(parses.values()) == [1]


def test_detection_only_enumeration_builds_no_run_config(builds):
    for protocol, name in sorted(CATALOG):
        run_strategy(REPORT_CONFIGS[protocol], name)
    for config in FORCED_CONFIGS:
        for cell in enumeration_cells(config):
            assert run_cell(config, dict(cell), None, None).verdict.accepted
    assert builds == [0]


def _eager_config(config: RunConfig, cell: dict) -> RunConfig:
    """The configuration a forced cell's run records, field by field."""
    forced = cell["forced"]
    _aa, cc = forced[0] if isinstance(forced, list) else forced
    inputs = config.inputs or spec_for(config.protocol).default_inputs
    if config.protocol == "ot":  # the receiver pair is the forced cc
        inputs = str(cc)
    if config.protocol == "mpsc":  # so is the relay's
        inputs = f"{inputs.rsplit(',', 1)[0]},{cc}"
    secret = _encode_qubit(_QSS_PROBE) if config.secret == "q" else config.secret
    return RunConfig(config.protocol, mu=config.mu, nu=config.nu, secret=secret,
                     inputs=inputs, k=config.k, seed=0,
                     mode=_mode_string(forced, cell.get("masks")))


@pytest.mark.parametrize("config", FORCED_CONFIGS,
                         ids=[f"{c.protocol}-mu{c.mu}-nu{c.nu}-{c.secret}-{c.inputs or '-'}"
                              for c in FORCED_CONFIGS])
def test_reading_record_config_builds_it_once(config, builds):
    for cell in enumeration_cells(config):
        record = run_cell(config, dict(cell), None, None)
        expected = _eager_config(config, cell)
        before = builds[0]
        assert record.config == expected
        assert record.config is record.transcript.config
        assert builds[0] == before + 1


_BAD_CONFIGS = (
    (RunConfig("bc", secret="2", mode="enumerate"), "bc needs --secret 0 or 1"),
    (RunConfig("tpsc", secret="1", inputs="10", mode="enumerate"), "tpsc needs --inputs"),
    (RunConfig("qds", secret="101", k=2, mode="enumerate"), "qds runs k=3 chains"),
    (RunConfig("bc", secret="1", mode="forced:00"), "'00' is not of the form aa:cc"),
)


@pytest.mark.parametrize("config,message", _BAD_CONFIGS,
                         ids=("secret", "inputs", "k", "mode"))
def test_bad_configuration_raises_on_every_call(config, message):
    spec = spec_for(config.protocol)
    for _ in range(3):
        with pytest.raises(ConfigError, match=re.escape(message)):
            spec.runner_kwargs(config)
        with pytest.raises(ConfigError, match=re.escape(message)):
            list(enumeration_cells(config))
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_cell(config, {}, None, None)


@pytest.mark.parametrize("config", FORCED_CONFIGS,
                         ids=[f"{c.protocol}-{c.secret}-{c.inputs or '-'}"
                              for c in FORCED_CONFIGS])
def test_shared_parse_is_read_only(config):
    kwargs = spec_for(config.protocol).runner_kwargs(config)
    assert kwargs is spec_for(config.protocol).runner_kwargs(config)
    with pytest.raises(TypeError):
        kwargs["mu"] = 0
    hash(tuple(kwargs.items()))  # every value is immutable
