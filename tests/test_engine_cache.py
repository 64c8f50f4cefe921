"""The package's caches change nothing a caller can see.

The runtime engine memoises no state; what is cached is the parse of a
configuration (``ProtocolSpec.runner_kwargs``) and the dense engine's
wire-gather index.  A run made with warm caches must give the bits a run
with cold caches gives: the same transcript, values, verdict and held
frames.  A failed check must raise on every call, and every cache
must stay within its bound.
"""

import pytest

from bellproto import states
from bellproto.attacks import enumeration_cells, run_cell
from bellproto.dense import (
    MeasurementError,
    basis_state,
    bell_state,
    bsm,
    extract_qubit,
    measure_qubit,
)
from bellproto.protocols import ProtocolSpec, run_from_config
from conftest import clear_package_caches, package_caches
from test_golden import FORCED_CONFIGS, _sampled

SAMPLED = [("qss", {"secret": "q"}), ("qss", {"secret": "1"}), ("bc", {}), ("ct", {}),
           ("ot", {}), ("tpsc", {}), ("mpsc", {}), ("qds", {"k": 3})]


def _assert_bit_identical(cold, warm):
    assert len(cold) == len(warm)
    for c, w in zip(cold, warm):
        assert c.transcript.to_text() == w.transcript.to_text()
        assert (repr(c.values), c.verdict) == (repr(w.values), w.verdict)
        assert c.held == w.held


def _cold_then_warm(run):
    clear_package_caches()
    cold = run()
    hits = sum(cache.cache_info().hits for cache in package_caches())
    warm = run()
    assert sum(cache.cache_info().hits for cache in package_caches()) > hits
    return cold, warm


@pytest.mark.parametrize("config", FORCED_CONFIGS,
                         ids=[f"{c.protocol}-mu{c.mu}-nu{c.nu}-{c.secret}-{c.inputs or '-'}"
                              for c in FORCED_CONFIGS])
def test_forced_cells_are_bit_identical_with_warm_caches(config):
    cold, warm = _cold_then_warm(
        lambda: [run_cell(config, dict(cell), None, None) for cell in enumeration_cells(config)])
    _assert_bit_identical(cold, warm)


# StateVectors a warm forced cell still builds per chain: only qss reads
# amplitudes, the moved qubit's for its fidelity.  Payloads, probes and
# twin qubits are Pauli frames or constants.
WARM_BUILDS_PER_CHAIN = {"bc": 0, "ct": 0, "ot": 0, "tpsc": 0, "qss": 1, "qds": 0, "mpsc": 0}


@pytest.mark.parametrize("config", FORCED_CONFIGS,
                         ids=[f"{c.protocol}-mu{c.mu}-nu{c.nu}-{c.secret}-{c.inputs or '-'}"
                              for c in FORCED_CONFIGS])
def test_warm_forced_cells_rebuild_no_constant_state(config, monkeypatch):
    cells = list(enumeration_cells(config))
    for cell in cells:
        run_cell(config, dict(cell), None, None)
    build = states.StateVector.__init__
    builds = []

    def counted(self, amplitudes):
        builds.append(None)
        build(self, amplitudes)

    monkeypatch.setattr(states.StateVector, "__init__", counted)
    for cell in cells:
        run_cell(config, dict(cell), None, None)
    assert len(builds) == len(cells) * config.k * WARM_BUILDS_PER_CHAIN[config.protocol]


@pytest.mark.parametrize("protocol,extra", SAMPLED,
                         ids=[f"{p}-{'-'.join(map(str, e.values())) or 'default'}"
                              for p, e in SAMPLED])
def test_sampled_runs_are_bit_identical_with_warm_caches(protocol, extra):
    cold, warm = _cold_then_warm(
        lambda: [run_from_config(_sampled(protocol, s, **extra)) for s in range(12)])
    _assert_bit_identical(cold, warm)


def test_failed_checks_raise_on_every_call():
    zero = basis_state("00")
    for _ in range(2):
        with pytest.raises(MeasurementError):
            measure_qubit(zero, 0, force=1)  # probability zero
        with pytest.raises(MeasurementError):
            bsm(zero, (0, 1), force=5)  # not an outcome
        with pytest.raises(ValueError):
            extract_qubit(bell_state(0), 0)  # entangled
        with pytest.raises(IndexError):
            measure_qubit(zero, 2)  # no such wire: not cached as valid


def test_every_cache_stays_within_its_bound():
    clear_package_caches()
    bound = ProtocolSpec.runner_kwargs.cache_info().maxsize
    for s in range(bound + 20):  # each seed is a configuration of its own
        run_from_config(_sampled("qss", s, secret="q"))
    infos = [cache.cache_info() for cache in package_caches()]
    assert all(info.currsize <= info.maxsize for info in infos)
    assert ProtocolSpec.runner_kwargs.cache_info().currsize == bound
