"""Cheating-strategy catalog and exhaustive security evaluation.

Strategies are concrete per-step deviations: substitute an operator label,
flip a classical bit, skip a measurement, withhold a message.  The
evaluator either enumerates every Bell-outcome cell and strategy-internal
choice (all outcomes have probability exactly 1/4, so cell weights are
exact rationals) or Monte-Carlo samples with a seed.  For qds, which runs
one chain per message bit, enumeration forces the same (aa, cc) on all k
chains: its 16 cells are the diagonal of the 16^k product.  Every report
states explicitly that its bounds cover this enumerable family only;
adversaries with entangled ancillas or cross-run quantum memory are out of
scope.

Two measurable quantities back the security claims:

* detection probability of a deviating party, as an exact fraction of
  enumerated cells, and
* trace distance between an observer's complete views under two secret
  values, where a view is the weight and Bloch vector of what the
  observer sees (classical observations, held qubits' Pauli frames)
  accumulated over the hidden randomness; :func:`_distance` is its 2x2
  closed form, for the capture check (a captured qubit against I/2) too.

One physical caveat is first-class here: the Z half of an announced bit
pair acts as a global phase on basis states, so no measured-bit check can
see it.  Strategies that lie only in that unobservable coordinate are kept
in the catalog with expected detection zero, reported as the known gap
rather than silently excluded.  A second gap is not listed yet: bc's checks
test one parity, so a sender who flips the revealed bit and the X bit of
its outcome pair together, the reveal shift 0b101, opens the other bit in
every cell.  bc does not bind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .algebra import LABELS, PAIRS
from .states import Rng
from .protocols import (
    PROTOCOLS,
    CheatStrategy,
    ConfigError,
    Deviation,
    Run,
    parse_mode,
    spec_for,
)
from .transcript import RunConfig

SCOPE_NOTE = (
    "bounds cover the enumerated deviation family only "
    "(per-step operator substitutions, classical bit flips, skips, withholds); "
    "adversaries with entangled ancillas or cross-run memory are out of scope"
)


@dataclass(frozen=True)
class SecurityReport:
    """Outcome of evaluating one strategy against one protocol: the count of
    ``rejected`` runs of ``cells``, from which the properties derive the
    exact or sampled detection, or a captured qubit's ``state_distance``."""

    strategy: str
    protocol: str
    mode: str  # enumerate | sample:<trials>
    cells: int
    rejected: int | None = None
    state_distance: float | None = None
    note: str = SCOPE_NOTE

    @property
    def detection(self) -> Fraction | None:
        """The exact detection fraction of an enumeration, else None."""
        enumerated = self.rejected is not None and self.mode == "enumerate"
        return Fraction(self.rejected, self.cells) if enumerated else None

    @property
    def estimate(self) -> float | None:
        """The sampled detection rate, else None (a capture report enumerates)."""
        return None if self.mode == "enumerate" else self.rejected / self.cells

    @property
    def interval(self) -> float | None:
        """Three standard errors of the sampled rate, else None."""
        p = self.estimate
        return None if p is None else 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / self.cells)

    def to_text(self) -> str:
        lines = [
            "PWV1 report",
            f"strategy {self.strategy}",
            f"protocol {self.protocol}",
            f"mode {self.mode}",
            f"cells {self.cells}",
        ]
        if self.detection is not None:
            lines.append(f"rejected {self.rejected}")
            lines.append(f"detection {self.rejected}/{self.cells} = {float(self.detection):.6f}")
        if self.estimate is not None:
            lines.append(f"estimate {self.estimate:.6f} +- {self.interval:.6f}")
        if self.state_distance is not None:
            lines.append(f"state_distance {self.state_distance:.3e}")
        lines.append(f"scope {self.note}")
        return "\n".join(lines) + "\n"


# The enumerated adversary family, one row per attack: protocol, name, cheating
# party, hook step, deviation kind, variant values (None for one variant,
# "position" for the shift 1 << i on each qds message bit i; masks as on
# protocols.Deviation), the report's bound (an exact detection fraction, or a
# ceiling on a captured qubit's distance from I/2: 0.0, a Pauli twirl) and a note.
_FAMILY = (
    ("bc", "reveal-flip", "alice", "reveal", "shift", (0b100,), Fraction(1),
     "reveal a flipped commitment, outcome pair announced honestly"),
    # every substitution that changes the announced X bit; the Z-only mask
    # is a separate entry because it is physically unobservable
    ("bc", "aa-substitute", "alice", "reveal", "shift", (0b001, 0b011), Fraction(1),
     "announce an outcome pair with a substituted X bit"),
    ("bc", "aa-phase-substitute", "alice", "reveal", "shift", (0b010,), Fraction(0),
     "Z-only substitution; a global phase on the commitment qubit, "
     "undetectable by any measurement and logged as phase_unverified"),
    ("bc", "withhold-reveal", "alice", "reveal", "withhold", None, Fraction(1),
     "never reveal; rejected as an incomplete transcript"),
    ("ct", "fixed-qubit", "bob", "transform", "fresh_qubit", (0, 1), Fraction(1, 2),
     "announce a fixed basis state instead of the re-keyed payload; "
     "per cell exactly one of the two sender inputs rejects"),
    ("ct", "wrong-rekey", "bob", "transform", "substitute_label", LABELS, Fraction(1, 2),
     "apply a fixed operator instead of the relay-outcome key; caught "
     "exactly when its X exponent disagrees (Z-only errors are phase)"),
    ("qds", "message-flip", "bob", "forward", "shift", "position", Fraction(1),
     "receiver flips one message bit before forwarding"),
    ("qds", "reveal-flip", "alice", "reveal", "shift", "position", Fraction(1),
     "sender reveals a different message than committed"),
    ("qss", "charlie-skip-bsm", "charlie", "relay_bsm", "skip", None, 0.0,
     "relay withholds its measurement to capture the payload; without "
     "the sender share its captured state averages to the maximally "
     "mixed state"),
    *((proto, "null", "-", None, None, None, Fraction(0),
       "no deviation; must reproduce the honest run exactly") for proto in PROTOCOLS),
)


@dataclass(frozen=True)
class CatalogEntry:
    """A named attack, its variants, and the bound the report must meet."""

    protocol: str
    name: str
    target: str
    step: str | None
    kind: str | None
    values: tuple | str | None
    expected: object  # Fraction for detection, float ceiling for mixedness
    note: str

    @property
    def metric(self) -> str:
        return "mixedness" if isinstance(self.expected, float) else "detection"

    def variants(self, config: RunConfig) -> list[CheatStrategy]:
        """One strategy per variant value (per message position for qds)."""
        if self.values is None:
            hooks = {} if self.step is None else {self.step: Deviation(self.kind)}
            return [CheatStrategy(self.name, self.target, hooks)]
        position = self.values == "position"  # qds: the mask 1 << i, named [i]
        values = range(max(1, len(config.secret))) if position else self.values
        return [CheatStrategy(f"{self.name}[{v}]", self.target, {self.step: Deviation(
            self.kind, 1 << v if position else v)}) for v in values]


CATALOG: dict[tuple[str, str], CatalogEntry] = {
    (row[0], row[1]): CatalogEntry(*row) for row in _FAMILY
}


def strategies_for(protocol: str) -> list[str]:
    return sorted(name for (proto, name) in CATALOG if proto == protocol)


def enumeration_cells(config: RunConfig) -> Iterator[dict]:
    """Every forced-outcome / mask cell of ``config``, parsed once, as the
    runner's complete keyword arguments (besides rng and cheat)."""
    spec = spec_for(config.protocol)
    return spec.cells(spec.runner_kwargs(config))


def run_cell(config: RunConfig, cell: dict, cheat: CheatStrategy | None,
             rng: Rng | None) -> Run:
    """Run ``config``'s protocol on ``cell``, the runner's complete keyword
    arguments (besides rng and cheat); ``cell`` holds the parse."""
    return spec_for(config.protocol).runner(**cell, rng=rng, cheat=cheat)


def run_strategy(config: RunConfig, name: str,
                 mode: str = "enumerate", trials: int = 10_000,
                 seed: int = 0) -> SecurityReport:
    """Evaluate one catalog strategy.

    ``enumerate`` iterates every Bell-outcome cell and every strategy
    variant and reports the exact detection fraction (or, for capture
    strategies, the trace distance of the captured average state from the
    maximally mixed state).  ``sample`` Monte-Carlo estimates the same
    detection probability with a seeded generator over ``trials`` runs; a
    capture strategy has no sampled form and raises :class:`ConfigError`
    there.  ``trials`` below 1 raises :class:`ConfigError` in either mode,
    because the CLI passes ``--samples`` in both, and so does a ``mode``
    that fixes cells or masks, whose report would not name what it left out.
    """
    key = (config.protocol, name)
    if key not in CATALOG:
        raise KeyError(f"no strategy {name!r} for protocol {config.protocol!r}")
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"mode must be enumerate or sample, got {mode!r}")
    if trials < 1:
        raise ConfigError(f"trials (--samples) must be >= 1, got {trials}")
    if parse_mode(config.mode) != (None, None):
        raise ConfigError(f"mode {config.mode!r} fixes cells or masks, which a report leaves free")
    entry = CATALOG[key]
    variants = entry.variants(config)

    if entry.metric == "mixedness":
        if mode != "enumerate":
            raise ConfigError(f"{name} is a capture strategy and runs in enumerate mode only")
        return _evaluate_capture(config, entry, variants[0])

    # one (cheat, cell, stream) per run: every variant on each forced cell, or
    # trials cycling through the variants on a stream each, over one parse
    if mode == "enumerate":
        runs = ((cheat, cell, None) for cell in enumeration_cells(config) for cheat in variants)
    else:
        cell = spec_for(config.protocol).runner_kwargs(config)
        mode, rng = f"sample:{trials}", Rng(seed)
        runs = ((variants[t % len(variants)], cell, rng.derive(t)) for t in range(trials))
    cells = rejected = 0
    for cheat, cell, stream in runs:
        cells += 1
        rejected += not run_cell(config, cell, cheat, stream).verdict.accepted
    return SecurityReport(strategy=name, protocol=config.protocol, mode=mode,
                          cells=cells, rejected=rejected, note=_note(entry))


def _note(entry: CatalogEntry) -> str:
    return f"{entry.note}; {SCOPE_NOTE}"


def _evaluate_capture(config: RunConfig, entry: CatalogEntry,
                      cheat: CheatStrategy) -> SecurityReport:
    """Average the cheater's captured qubit over the sender outcomes it
    cannot see, and measure its distance from the maximally mixed state."""
    kwargs = spec_for(config.protocol).runner_kwargs(config)
    records = [run_cell(config, {**kwargs, "forced": (aa, None)}, cheat, None) for aa in PAIRS]
    if any(cheat.target not in rec.held for rec in records):
        raise RuntimeError("capture strategy did not leave a captured qubit")
    views = _views(records, cheat.target, 1 / len(records))
    if len(views) != 1:
        raise RuntimeError(f"capture cells gave the cheater {len(views)} views, not one")
    [avg] = views.values()
    return SecurityReport(
        strategy=cheat.name, protocol=config.protocol, mode="enumerate",
        cells=len(records), state_distance=_distance(avg, _MIXED), note=_note(entry),
    )


def expected_bound_met(report: SecurityReport, entry: CatalogEntry) -> bool:
    if entry.metric == "mixedness":
        return report.state_distance is not None and report.state_distance <= entry.expected
    if report.detection is not None:
        return report.detection == entry.expected
    return abs(report.estimate - float(entry.expected)) <= max(report.interval, 1e-9)


# --- observer views and hiding ----------------------------------------------


_EMPTY, _MIXED = (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)  # no view; I/2


def _views(records: Iterable[Run], observer: str, weight: float,
           cut_step: str | None = None) -> dict[tuple, tuple]:
    """Each distinct view of ``observer`` as (w, x, y, z), the state
    (w I + x X + y Y + z Z) / 2.  A held pauli(label) negates the payload
    (a, b)'s Bloch vector (2 Re a*b, 2 Im a*b, |a|^2 - |b|^2) in x and y by
    its Z bit, in y and z by its X bit; holding none adds the weight alone."""
    out: dict[tuple, tuple] = {}
    for rec in records:
        view = rec.view(observer, cut_step=cut_step)
        w, *v = out.get(view, _EMPTY)
        if (frame := rec.held.get(observer)) is not None:
            (a, b), z_bit, x_bit = frame.payload, frame.label >> 1, frame.label & 1
            ab = 2 * a.conjugate() * b
            bloch = ((-1) ** z_bit * ab.real, (-1) ** (z_bit ^ x_bit) * ab.imag,
                     (-1) ** x_bit * (abs(a) ** 2 - abs(b) ** 2))
            v = [total + weight * r for total, r in zip(v, bloch)]
        out[view] = (w + weight, *v)
    return out


def _distance(a: tuple, b: tuple) -> float:
    """Trace distance of two views: (dw I + dv.sigma) / 2 has eigenvalues (dw +- |dv|) / 2."""
    dw, *dv = (p - q for p, q in zip(a, b))
    return 0.5 * max(abs(dw), math.hypot(*dv))


def view_distance(protocol: str, observer: str, *, vary: str,
                  values: tuple, fixed: dict | None = None,
                  cut_step: str | None = None) -> float:
    """Trace distance between an observer's complete views under two secrets.

    The view under one secret value is the classical distribution of the
    observer's visible transcript (over all hidden Bell outcomes and
    masks, each cell exactly weighted) tensored with any quantum state the
    observer holds; classical observations enter as orthogonal sectors, so
    the result is a single number in [0, 1] and 0 means the observer's
    whole world is independent of the secret.  Values that are not a pair,
    a key :func:`_view_config` does not take, an observer who holds no
    station, so sees no event, or a ``cut_step`` that no enumerated run
    carries, so cuts nothing, raise ValueError.
    """
    if len(values) != 2:
        raise ValueError(f"view_distance compares two values, got {len(values)}: {values!r}")
    if observer not in (controllers := spec_for(protocol).controllers):
        raise ValueError(f"observer {observer!r} holds no station of {protocol}; "
                         f"its controllers are {', '.join(controllers)}")
    fixed = dict(fixed or {})
    runner_kwargs = fixed.pop("runner_kwargs", {})
    sides, steps = [], {}
    for value in values:
        config = _view_config(protocol, {**fixed, vary: value})
        cells = list(enumeration_cells(config))
        records = (run_cell(config, {**cell, **runner_kwargs}, None, None) for cell in cells)
        if cut_step is not None:
            records = _noting_steps(records, steps)
        sides.append(_views(records, observer, 1.0 / len(cells), cut_step))
    if cut_step is not None and cut_step not in steps:
        raise ValueError(f"cut_step {cut_step!r} is a step no {protocol} run carries; "
                         f"its runs carry {', '.join(steps)}")
    a, b = sides
    return sum(_distance(a.get(view, _EMPTY), b.get(view, _EMPTY))
               for view in set(a) | set(b))


def _noting_steps(records: Iterable[Run], steps: dict) -> Iterator[Run]:
    """``records`` one at a time, each step they carry noted in ``steps``
    in order of first appearance."""
    for rec in records:
        steps.update(dict.fromkeys(ev.step for ev in rec.transcript.events))
        yield rec


def _view_config(protocol: str, kwargs: dict) -> RunConfig:
    """Build the enumeration config for view comparisons from ``secret``,
    ``inputs``, ``mu`` and ``nu``; any other key raises ValueError."""
    if unknown := sorted(set(kwargs) - {"secret", "inputs", "mu", "nu"}):
        raise ValueError("views vary or fix only secret, inputs, mu and nu (fixed also "
                         f"runner_kwargs), got {', '.join(map(repr, unknown))}")
    return spec_for(protocol).config(
        secret=str(kwargs.get("secret", 0)), inputs=kwargs.get("inputs", ""),
        mu=kwargs.get("mu", 0), nu=kwargs.get("nu", 0), mode="enumerate")
