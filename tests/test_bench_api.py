"""The benchmark's calls into bellproto still work.

``bench/workloads.py`` drives the package through names the rest of the
suite does not pin (``attacks._view_config``, ``enumeration_cells``,
``run_cell``, the CLI flags it builds), so a change that breaks one of
them would otherwise show only as a failed benchmark run.  Each workload
runs one tiny pass here and must report no failed check.
"""

from pathlib import Path

import pytest

from conftest import child_env, clear_engine_caches

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

# engine calls of one tiny traced pass at seed 1, from cold engine caches: a
# faster engine makes the same Bell measurements and derives the same streams.
# It builds a StateVector only for what its caches have not yet computed and
# for each run's twin qubits; |0> and |1> payloads are built once per process,
# and after the sender's Bell measurement a run's transitions act on one qubit
ENGINE_WORK = {
    "enumerate-sweep": {"states.StateVector.__init__.calls": 776, "states.bsm.calls": 1796,
                        "states.Rng.__init__.calls": 1704},
    "sample-replay": {"states.StateVector.__init__.calls": 140, "states.bsm.calls": 84,
                      "states.Rng.__init__.calls": 87},
}


@pytest.mark.parametrize("name", ("enumerate-sweep", "sample-replay"))
def test_traced_pass_reaches_every_required_engine_name(workloads, name, tmp_path):
    """The per-layer counters wrap these names; a runtime that stops calling
    one of them would make ``bench/run.py --trace 1`` read zero for it, and
    one that calls them more or less often does different work."""
    import tracer

    ops = workloads.Ops()
    workload = workloads.make(name, 1, True, tmp_path, child_env())
    clear_engine_caches()
    with tracer.Tracer() as traced:
        workload.trace_pass(0, ops)
    counts = traced.counts()
    assert ops.failed == 0
    assert [key for key in ENGINE_NAMES if not counts.get(f"{key}.calls")] == []
    assert {key: counts.get(key) for key in ENGINE_WORK[name]} == ENGINE_WORK[name]


def test_tracer_patch_points_name_what_exists(monkeypatch):
    """``bench/tracer.py`` skips a name its module or class lacks, so a
    rename would silently stop tracing it; ``states.apply_matrix`` is the one
    stale entry known today."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    missing = [f"{module.__name__.split('.')[-1]}.{name}"
               for _layer, module, names in tracer.FUNCTIONS
               for name in names if not hasattr(module, name)]
    missing += [f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{name}"
                for _layer, cls, names in tracer.METHODS
                for name in names if not hasattr(cls, name)]
    assert missing == ["states.apply_matrix"]


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
