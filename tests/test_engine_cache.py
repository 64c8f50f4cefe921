"""The dense engine's memo caches change nothing a caller can see.

A run made with warm caches must give the bits a run with cold caches
gives: the same transcript, values, verdict and held amplitudes.  Shared
results must be read-only, and every cache must stay within its bound.
"""

import numpy as np
import pytest

from bellproto import states
from bellproto.attacks import enumeration_cells, run_cell
from bellproto.protocols import run_from_config
from bellproto.states import (
    MeasurementError,
    apply_pauli,
    basis_state,
    bell_state,
    bsm,
    bsm_probabilities,
    chain_register,
    extract_qubit,
    measure_qubit,
    qubit,
)
from conftest import clear_engine_caches, engine_caches
from test_golden import FORCED_CONFIGS, _sampled

SAMPLED = [("qss", {"secret": "q"}), ("qss", {"secret": "1"}), ("bc", {}), ("ct", {}),
           ("ot", {}), ("tpsc", {}), ("mpsc", {}), ("qds", {"k": 3})]


def _assert_bit_identical(cold, warm):
    assert len(cold) == len(warm)
    for c, w in zip(cold, warm):
        assert c.transcript.to_text() == w.transcript.to_text()
        assert (repr(c.values), c.verdict) == (repr(w.values), w.verdict)
        assert c.held.keys() == w.held.keys()
        assert all(np.array_equal(c.held[k], w.held[k]) for k in c.held)


def _cold_then_warm(run):
    clear_engine_caches()
    cold = run()
    hits = sum(cache.cache_info().hits for cache in engine_caches())
    warm = run()
    assert sum(cache.cache_info().hits for cache in engine_caches()) > hits
    return cold, warm


@pytest.mark.parametrize("config", FORCED_CONFIGS,
                         ids=[f"{c.protocol}-mu{c.mu}-nu{c.nu}-{c.secret}-{c.inputs or '-'}"
                              for c in FORCED_CONFIGS])
def test_forced_cells_are_bit_identical_with_warm_caches(config):
    cold, warm = _cold_then_warm(
        lambda: [run_cell(config, dict(cell), None, None) for cell in enumeration_cells(config)])
    _assert_bit_identical(cold, warm)


# StateVectors a warm forced cell still builds per chain: the sender's twin
# qubit (bc, tpsc, qds), whose operator product is taken afresh in each run.
# Payloads, probes and every engine transition come from a cache or a constant.
WARM_BUILDS_PER_CHAIN = {"bc": 1, "ct": 0, "ot": 0, "tpsc": 1, "qss": 0, "qds": 1, "mpsc": 0}


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


def test_cached_results_are_shared_and_read_only():
    state = chain_register(1, 2, qubit(0.6, 0.8j))
    assert chain_register(1, 2, qubit(0.6, 0.8j)) is state
    results = [state, apply_pauli(state, 3, 0), bsm(state, (2, 3), force=1)[1],
               extract_qubit(bsm(bsm(state, (2, 3), force=1)[1], (0, 1), force=2)[1], 4)]
    for arr in [r.amplitudes for r in results] + [bsm_probabilities(state, (0, 1))]:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_failed_checks_raise_on_every_call():
    zero = basis_state("00")
    for _ in range(2):
        with pytest.raises(MeasurementError):
            measure_qubit(zero, 0, force=1)  # probability zero
        with pytest.raises(MeasurementError):
            bsm(zero, (0, 1), force=5)  # not an outcome
        with pytest.raises(ValueError):
            extract_qubit(bell_state(0), 0)  # entangled


def test_every_cache_stays_within_its_bound():
    clear_engine_caches()
    bound = states._chain_register.cache_info().maxsize
    for s in range(bound + 20):  # each seed draws its own qss payload
        run_from_config(_sampled("qss", s, secret="q"))
    infos = [cache.cache_info() for cache in engine_caches()]
    assert all(info.currsize <= info.maxsize for info in infos)
    assert states._chain_register.cache_info().currsize == bound
