"""The benchmark's calls into bellproto still work.

``bench/workloads.py`` drives the package through names the rest of the
suite does not pin (``attacks._view_config``, ``enumeration_cells``,
``run_cell``, the CLI flags it builds), so a change that breaks one of
them would otherwise show only as a failed benchmark run.  Each workload
runs one tiny pass here and must report no failed check.
"""

from pathlib import Path

import pytest

from conftest import child_env, clear_package_caches

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", ("enumerate-sweep", "sample-replay"))
def test_in_process_workload_pass_has_no_failed_check(workloads, name, tmp_path):
    ops = workloads.Ops()
    result = workloads.make(name, 1, True, tmp_path, child_env()).run_pass(0, ops)
    assert result.units > 0
    assert ops.attempted > 0 and ops.failed == 0


def test_cli_mix_commands_pass_in_process_for_every_protocol(workloads, tmp_path):
    mix = workloads.make("cli-mix", 1, True, tmp_path, child_env())
    ops = workloads.Ops()
    for index in range(mix.cycle):  # one pass per protocol
        mix.trace_pass(index, ops)
    assert ops.attempted > 0 and ops.failed == 0


ENGINE_NAMES = ("states.bsm", "states.measure_qubit", "states.apply_pauli",
                "states.extract_qubit", "states.StateVector.__init__")

# engine calls of one tiny traced pass at seed 1, from cold caches: a faster
# engine makes the same Bell measurements and derives the same streams.  The
# Pauli frame builds a StateVector, and takes one Pauli matrix for it, only
# where a runner reads amplitudes: qss's moved qubit, for its fidelity.  Held
# qubits no longer build amplitudes: the views read their frames' Bloch
# vectors.  Cheaper bookkeeping logs the same events.
ENGINE_WORK = {
    "enumerate-sweep": {"states.StateVector.__init__.calls": 32, "states.bsm.calls": 1796,
                        "states.Rng.__init__.calls": 1704,
                        "transcript.Transcript.append.calls": 12736,
                        "algebra.pauli_matrix.calls": 32},
    "sample-replay": {"states.StateVector.__init__.calls": 3, "states.bsm.calls": 84,
                      "states.Rng.__init__.calls": 87,
                      "transcript.Transcript.append.calls": 441,
                      "algebra.pauli_matrix.calls": 3},
}


@pytest.mark.parametrize("name", ("enumerate-sweep", "sample-replay"))
def test_traced_pass_reaches_every_required_engine_name(workloads, name, tmp_path):
    """The per-layer counters wrap these names; a runtime that stops calling
    one of them would make ``bench/run.py --trace 1`` read zero for it, and
    one that calls them more or less often does different work."""
    import tracer

    ops = workloads.Ops()
    workload = workloads.make(name, 1, True, tmp_path, child_env())
    clear_package_caches()
    with tracer.Tracer() as traced:
        workload.trace_pass(0, ops)
    counts = traced.counts()
    assert ops.failed == 0
    assert [key for key in ENGINE_NAMES if not counts.get(f"{key}.calls")] == []
    assert {key: counts.get(key) for key in ENGINE_WORK[name]} == ENGINE_WORK[name]


def test_tracer_patch_points_name_what_exists(monkeypatch):
    """``bench/tracer.py`` skips a name its module or class lacks, so a
    rename would silently stop tracing it.  The stale entries known today:
    ``states.apply_matrix``, and the dense register builders and density
    oracles that moved to ``bellproto.dense``, which the runtime never calls
    (``trace_distance`` among them: the attack views use a closed form)."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    missing = [f"{module.__name__.split('.')[-1]}.{name}"
               for _layer, module, names in tracer.FUNCTIONS
               for name in names if not hasattr(module, name)]
    missing += [f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{name}"
                for _layer, cls, names in tracer.METHODS
                for name in names if not hasattr(cls, name)]
    assert missing == ["states.basis_state", "states.bell_state", "states.make_register",
                       "states.chain_register", "states.apply_matrix", "states.reduced_density",
                       "states.mixture_density", "states.trace_distance"]


@pytest.mark.parametrize("name", ("enumerate-sweep", "sample-replay"))
def test_traced_cycles_repeat_every_counter(workloads, name, tmp_path):
    """``bench/run.py --trace 1`` requires every traced cycle to reproduce the
    first one's counters exactly; engine caches whose contents drifted from
    one cycle to the next would make the counts differ."""
    import tracer

    ops = workloads.Ops()
    workload = workloads.make(name, 1, True, tmp_path, child_env())
    cycle = range(workload.cycle)
    for index in cycle:  # untraced warm-up
        workload.trace_pass(index, ops)
    counts = []
    for _ in range(2):
        with tracer.Tracer() as traced:
            for index in cycle:
                traced.new_pass()
                workload.trace_pass(index, ops)
        counts.append(traced.counts())
    assert ops.failed == 0
    assert counts[0] == counts[1]
    assert [key for key in ENGINE_NAMES if not counts[0].get(f"{key}.calls")] == []


# REQUIRED_NONZERO names that child-process probes or the untraced timing
# fill in, not the tracer
_PROBE_METRICS = ("import.", "identities.", "cli.main_ms.", "tracing.overhead")


@pytest.mark.parametrize("name", ("enumerate-sweep", "sample-replay"))
def test_traced_cycle_moves_every_required_layer_metric(workloads, name, tmp_path):
    """``bench/run.py --trace 1`` exits non-zero when a ``REQUIRED_NONZERO``
    metric reads zero, so every one the tracer produces must move in one
    tiny traced cycle: an engine that stops calling a traced name (a Pauli
    matrix, a state build, a stream draw, a runner) fails here first."""
    import run as bench_run
    import tracer

    ops = workloads.Ops()
    workload = workloads.make(name, 1, True, tmp_path, child_env())
    with tracer.Tracer() as traced:
        for index in range(workload.cycle):
            traced.new_pass()
            workload.trace_pass(index, ops)
    metrics = traced.layer_metrics(passes=workload.cycle)
    required = [key for key in bench_run.REQUIRED_NONZERO[name]
                if not key.startswith(_PROBE_METRICS)]
    assert ops.failed == 0
    assert "algebra.pauli_matrix.calls_per_run" in required
    assert [key for key in required if not metrics.get(key)] == []
