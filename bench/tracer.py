"""Per-layer tracing of bellproto from outside the package.

The tracer replaces public functions and methods of the bellproto modules
with timing and counting wrappers, and puts the originals back on exit.
A function is replaced in every module namespace that binds it, because
``protocols``, ``attacks`` and ``cli`` import names with ``from .states
import ...``: patching ``bellproto.states.bsm`` alone would record nothing
from the protocols.  Methods are patched on their class, which every
namespace shares.

Spans are kept per layer.  A call made while the innermost open span
belongs to the same layer is counted but not timed on its own, so a
layer's self time is the time spent in its outermost calls minus the time
spent in calls into other traced layers.  ``states.rng`` (the ``Rng``
streams) is a layer of its own so that draws made inside ``bsm`` are not
charged to ``bsm``.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict

import bellproto
from bellproto import algebra, attacks, cli, identities, protocols, states, transcript

MODULES = (bellproto, algebra, states, protocols, attacks, identities, transcript, cli)

RUNNERS = ("bc", "ct", "ot", "tpsc", "qss", "qds", "mpsc")

# (layer, module, function names): module-level functions to wrap
FUNCTIONS = (
    ("algebra", algebra, ("pauli_matrix", "label_from_zx", "x_bit", "bell_vector")),
    ("states", states, (
        "basis_state", "qubit", "bell_state", "make_register", "chain_register",
        "apply_matrix", "apply_pauli", "fidelity", "bsm", "measure_qubit",
        "extract_qubit", "reduced_density", "infer_tau", "mixture_density",
        "trace_distance")),
    ("protocols", protocols, tuple(f"{p}_run" for p in RUNNERS)),
    ("transcript", transcript, ("parse_transcript", "first_divergence")),
    ("attacks", attacks, ("run_cell", "run_strategy", "view_distance", "expected_bound_met")),
)

# (layer, class, method names): methods to wrap on the class itself
METHODS = (
    ("states", states.StateVector, ("__init__",)),
    ("states", states.DensityMatrix, ("__init__",)),
    ("states.rng", states.Rng, ("__init__", "derive", "choose", "bit", "unit_qubit")),
    ("transcript", transcript.Transcript, ("append", "to_text")),
)

_RNG_DRAWS = ("choose", "bit", "unit_qubit")
_RUNNER_KEYS = tuple(f"protocols.{p}_run" for p in RUNNERS)


class Stat:
    __slots__ = ("calls", "spans", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.spans = 0
        self.self_s = 0.0
        self.total_s = 0.0


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class Tracer:
    """Context manager: while active, every wrapped call is counted and timed."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stack: list[list] = []
        self.used_streams = weakref.WeakSet()
        self.streams_used = 0
        self.text_bytes = 0
        self.cell_repeats = 0
        self._seen_cells: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- bookkeeping --------------------------------------------------------

    def new_pass(self) -> None:
        """Start a new pass: cell repeats are counted within one pass."""
        self._seen_cells = set()

    def counts(self) -> dict:
        """Every integer counter; two traced runs of the same work must agree."""
        out = {f"{key}.calls": st.calls for key, st in self.stats.items()}
        out.update({f"{key}.spans": st.spans for key, st in self.stats.items()})
        out.update(streams_used=self.streams_used, text_bytes=self.text_bytes,
                   cell_repeats=self.cell_repeats)
        return dict(sorted(out.items()))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str, before=None, after=None):
        st = self.stats[key]
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st.calls += 1
            if before is not None:
                before(args, kwargs)
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    st.spans += 1
                    st.self_s += dt - frame[1]
                    st.total_s += dt
                    if stack:
                        stack[-1][1] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def _mark_drawn(self, args, kwargs) -> None:
        rng = args[0]
        if rng not in self.used_streams:
            self.used_streams.add(rng)
            self.streams_used += 1

    def _count_bytes(self, text: str) -> None:
        self.text_bytes += len(text.encode())

    def _note_cell(self, args, kwargs) -> None:
        config, cell, cheat, rng = (list(args) + [None] * 4)[:4]
        cell = kwargs.get("cell", cell)
        cheat = kwargs.get("cheat", cheat)
        rng = kwargs.get("rng", rng)
        # a strategy with no hooks (the catalog's `null`) is the honest run
        hooks = _freeze(dict(cheat.hooks)) if cheat is not None else ()
        stream = None if rng is None else (rng.seed, getattr(rng, "_spawn_key", id(rng)))
        key = (config, _freeze(cell), hooks, stream)
        if key in self._seen_cells:
            self.cell_repeats += 1
        else:
            self._seen_cells.add(key)

    def __enter__(self) -> "Tracer":
        for layer, module, names in FUNCTIONS:
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                before = self._note_cell if name == "run_cell" else None
                wrapper = self._wrap(original, f"{module.__name__.split('.')[-1]}.{name}",
                                     layer, before)
                for ns in MODULES:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._undo.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        for layer, cls, names in METHODS:
            for name in names:
                original = cls.__dict__.get(name)
                if original is None:
                    continue
                before = self._mark_drawn if name in _RNG_DRAWS else None
                after = self._count_bytes if cls is transcript.Transcript and name == "to_text" \
                    else None
                key = f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{name}"
                self._undo.append((cls, name, original))
                setattr(cls, name, self._wrap(original, key, layer, before, after))
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    # -- derived metrics ----------------------------------------------------

    def _stat(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()

    def _self_us(self, *keys: str) -> float:
        spans = sum(self._stat(k).spans for k in keys)
        return 1e6 * sum(self._stat(k).self_s for k in keys) / spans if spans else 0.0

    def _runs(self) -> int:
        return sum(self._stat(k).spans for k in _RUNNER_KEYS)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-run, per-call and per-pass figures for the traced work."""
        runs = self._runs()

        def per_run(key: str) -> float:
            return self._stat(key).calls / runs if runs else 0.0

        rng_keys = [f"states.Rng.{m}" for m in ("__init__", "derive") + _RNG_DRAWS]
        built = self._stat("states.Rng.__init__").calls
        to_text = self._stat("transcript.Transcript.to_text")
        run_cell = self._stat("attacks.run_cell")
        runner_total = sum(self._stat(k).total_s for k in _RUNNER_KEYS)
        m = {
            "states.rng.streams_per_run": per_run("states.Rng.__init__"),
            "states.rng.used_share": self.streams_used / built if built else 0.0,
            "states.statevector.builds_per_run": per_run("states.StateVector.__init__"),
            "states.bsm.calls_per_run": per_run("states.bsm"),
            "states.bsm.self_us": self._self_us("states.bsm"),
            "states.measure_qubit.self_us": self._self_us("states.measure_qubit"),
            "states.apply_pauli.self_us": self._self_us("states.apply_pauli"),
            "states.extract_qubit.self_us": self._self_us("states.extract_qubit"),
            "states.rng.self_us": self._self_us(*rng_keys),
        }
        for p in RUNNERS:
            m[f"protocols.{p}.run_us"] = self._self_us(f"protocols.{p}_run")
        m["protocols.self_share"] = (
            sum(self._stat(k).self_s for k in _RUNNER_KEYS) / runner_total
            if runner_total else 0.0)
        m.update({
            "transcript.events_per_run": per_run("transcript.Transcript.append"),
            "transcript.bytes_per_run": self.text_bytes / to_text.calls if to_text.calls else 0.0,
            "transcript.append.self_us": self._self_us("transcript.Transcript.append"),
            "transcript.to_text_us": self._self_us("transcript.Transcript.to_text"),
            "transcript.parse_us": self._self_us("transcript.parse_transcript"),
            "attacks.run_cell.calls": run_cell.calls / passes,
            "attacks.run_cell.repeat_share": (
                self.cell_repeats / run_cell.calls if run_cell.calls else 0.0),
            "attacks.run_strategy.self_ms": 1e3 * self._stat("attacks.run_strategy").self_s / passes,
            "attacks.view_distance.self_ms": 1e3 * self._stat("attacks.view_distance").self_s / passes,
            "algebra.pauli_matrix.calls_per_run": per_run("algebra.pauli_matrix"),
        })
        return m

    def summary(self) -> dict:
        """Base counts behind the ratios, printed beside the metrics."""
        return {
            "runs": self._runs(),
            "rng_streams_built": self._stat("states.Rng.__init__").calls,
            "rng_streams_used": self.streams_used,
            "run_cell_calls": self._stat("attacks.run_cell").calls,
            "run_cell_repeats": self.cell_repeats,
            "transcripts_serialised": self._stat("transcript.Transcript.to_text").calls,
        }
