"""The protocol runtime's engine: a Pauli frame over one Bell chain.

Every protocol state is payload (x) Bell(mu) (x) Bell(nu) under the real
Pauli operators {I, X, Z, ZX}, Bell measurements and Z measurements.  The
identity suite proves what that leaves to track: every Bell outcome has
probability exactly 1/4, and the wire a Bell measurement frees carries
pauli(tau) applied to the payload up to a global sign, with ``tau`` the
XOR of the chain's labels and outcomes.  So a chain state is a
:class:`Frame`: the payload 2-vector, the Pauli label that moves it and
the Bell pairs it has still to cross.  This is Pauli-frame simulation
(Aaronson & Gottesman 2004; Knill 2005) specialised to one chain.

The frame's steps keep the names of the operations they stand for, so a
counter on them counts the same work: :func:`bsm` (a Bell measurement),
:func:`apply_pauli`, :func:`measure_qubit` (a Z measurement) and
:func:`extract_qubit` (a freed wire).  Amplitudes are built only where
something reads them (:meth:`Frame.state`).  The dense state-vector engine
the frame replaced is kept as the reference oracle in
:mod:`bellproto.dense`.

This module also holds what both engines share: the seeded streams
(:class:`Rng`), one-qubit :class:`StateVector` helpers, the correction
lookup and the trace distance of density matrices.  Tolerances are fixed
package-wide: state equality and trace checks at 1e-12,
positive-semidefiniteness slack at 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import LABELS, TwoBits, pauli_matrix

TOL_EQ = 1e-12
TOL_PSD = 1e-10
_PROB_FLOOR = 1e-12


class MeasurementError(ValueError):
    """Raised when a forced outcome is not an outcome of the measurement or
    has (numerically) zero probability."""


class Rng:
    """Deterministic random stream: PCG64 keyed by a 64-bit seed.

    Identical seeds give identical draw sequences on every platform.
    Derived streams (:meth:`derive`) are independent and reproducible,
    keyed by (seed, index); concurrent trials should each own one.  The
    generator is built at the first draw, so a stream that is derived but
    never drawn from costs no generator.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        if self.seed < 0 or any(key < 0 for key in _spawn_key):
            raise ValueError("expected non-negative integer")

    @cached_property
    def _gen(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_key)
        return np.random.Generator(np.random.PCG64(seq))

    def derive(self, index: int) -> "Rng":
        return Rng(self.seed, self._spawn_key + (int(index),))

    def choose(self, probabilities: Sequence[float]) -> int:
        """Sample an index from an explicit distribution.

        Reproduces ``Generator.choice(len(p), p=p)`` draw for draw: one
        uniform draw located in the normalised cumulative distribution.
        """
        p = np.asarray(probabilities, dtype=float)
        with np.errstate(over="ignore"):
            total = p.sum()
        if total == math.inf and p.max() < math.inf:
            # finite weights whose sum overflows: scale them down first
            p = p / p.max()
            total = p.sum()
        # checked before dividing: nan fails >= 0; inf and empty or all-zero
        # input fail the bounds on the sum
        if p.ndim != 1 or not (p >= 0).all() or not 0 < total < math.inf:
            raise ValueError(f"not a probability distribution: {probabilities!r}")
        p = p / total
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self._gen.random(), side="right"))

    def bit(self) -> int:
        return int(self._gen.integers(0, 2))

    def unit_qubit(self) -> "StateVector":
        raw = self._gen.normal(size=2) + 1j * self._gen.normal(size=2)
        return StateVector(raw / np.linalg.norm(raw))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalised amplitudes of an n-qubit register (complex, length 2**n),
    read-only.  Equality is identity: compare states with
    :func:`equal_up_to_phase`."""

    amplitudes: np.ndarray

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)  # always a copy
        n = amps.size.bit_length() - 1
        if amps.size < 2 or amps.size != 1 << n:
            raise ValueError(f"amplitude count must be a power of two >= 2, got {amps.size}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-9:  # also rejects nan amplitudes
            raise ValueError(f"state is not normalised (norm {norm})")
        amps /= norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


def qubit(alpha: complex, beta: complex) -> StateVector:
    return StateVector(np.array([alpha, beta], dtype=np.complex128))


def overlap(a: StateVector, b: StateVector) -> complex:
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    return float(abs(overlap(a, b)) ** 2)


def equal_up_to_phase(a: StateVector, b: StateVector) -> bool:
    """State equality modulo a global phase: | <a|b> | == 1 within TOL_EQ."""
    if a.n_qubits != b.n_qubits:
        return False
    return bool(abs(abs(overlap(a, b)) - 1.0) <= TOL_EQ)


def infer_tau(aa: TwoBits, cc: TwoBits, mu: int, nu: int) -> int:
    """Correction label relating the receiver's qubit to the payload.

    After the relay outcome ``cc`` and the sender outcome ``aa`` over the
    chain (mu, nu), the receiver holds pauli(tau) applied to the payload up
    to sign, with ``tau`` the XOR of the four labels.  The identity suite's
    correction-table check confirms the rule by forcing every outcome
    combination through the simulator.
    """
    return aa.label ^ cc.label ^ mu ^ nu


# --- the Pauli frame ----------------------------------------------------------

# the Bell-outcome distribution of every chain measurement, exactly
_QUARTERS = (0.25, 0.25, 0.25, 0.25)
# the |0> and |1> payloads
BASIS = ((1.0, 0.0), (0.0, 1.0))


class Frame(NamedTuple):
    """A chain state: pauli(``label``) applied to the ``payload`` 2-vector,
    up to a global sign, on the wire that will carry it once the payload
    has crossed its ``pairs`` remaining Bell pairs.

    A chain over (mu, nu) starts as ``Frame(payload, mu ^ nu, 2)``; the
    relay's Bell measurement swaps the two pairs into one and the sender's
    teleports the payload across it, and each XORs its outcome into the
    label.  A pre-applied operator XORs into the label too: the real Pauli
    operators compose by XOR of labels up to a sign.
    """

    payload: tuple[complex, complex]
    label: int
    pairs: int = 0

    def state(self) -> StateVector:
        """The carried qubit's amplitudes: pauli(label) applied to the payload."""
        if self.pairs:
            raise ValueError("the payload has not crossed the chain: no qubit to read")
        return StateVector(pauli_matrix(self.label).dot(self.payload))


# where a Z measurement leaves a qubit
_COLLAPSED = (Frame(BASIS[0], 0), Frame(BASIS[1], 0))


def bsm(frame: Frame, rng: Rng | None = None,
        force: int | TwoBits | None = None) -> tuple[TwoBits, Frame]:
    """Bell measurement of the next pair on the payload's way.

    The outcome is ``force`` or a draw from ``rng`` over four exact
    quarters; forcing a value that is not an outcome raises
    :class:`MeasurementError`.  The frame absorbs the outcome and has one
    pair fewer to cross.
    """
    if not frame.pairs:
        raise ValueError("no Bell pair is left to measure")
    if isinstance(force, TwoBits):
        outcome = force
    elif force is not None:
        if int(force) not in LABELS:
            raise MeasurementError(f"outcome {force} is not an outcome of this measurement")
        outcome = TwoBits.from_label(int(force))
    elif rng is None:
        raise ValueError("either rng or force is required")
    else:
        outcome = TwoBits.from_label(rng.choose(_QUARTERS))
    return outcome, Frame(frame.payload, frame.label ^ outcome.label, frame.pairs - 1)


def apply_pauli(frame: Frame, label: int) -> Frame:
    """Apply the labelled operator to the payload."""
    if label not in LABELS:
        raise ValueError(f"label must be in 0..3, got {label!r}")
    return Frame(frame.payload, frame.label ^ label, frame.pairs)


def extract_qubit(frame: Frame) -> Frame:
    """The qubit on the wire the last Bell measurement freed; raises while
    a pair is left, because that wire is still entangled."""
    if frame.pairs:
        raise ValueError(f"the carrying wire is entangled ({frame.pairs} Bell pair(s) left)")
    return frame


def measure_qubit(frame: Frame, rng: Rng | None = None,
                  force: int | None = None) -> tuple[int, Frame]:
    """Z measurement of the carried qubit.

    Bit b has probability |payload[b ^ x]|^2, with x the label's X bit.
    The outcome is ``force`` (which must be possible), else the certain
    bit (always, for a basis payload: no randomness is consumed), else a
    Born draw from ``rng``.  The qubit collapses onto |bit>.
    """
    if frame.pairs:
        raise ValueError("the payload has not crossed the chain: no qubit to measure")
    x = frame.label & 1
    probs = (abs(frame.payload[x]) ** 2, abs(frame.payload[x ^ 1]) ** 2)
    if force is not None:
        bit = int(force)
        if bit not in (0, 1):
            raise MeasurementError(f"bit {bit} is not an outcome of this measurement")
        if probs[bit] < _PROB_FLOOR:
            raise MeasurementError(f"bit {bit} has probability {probs[bit]:.3e}")
    elif max(probs) > 1.0 - _PROB_FLOOR:
        bit = int(probs[1] > probs[0])
    elif rng is None:
        raise ValueError("either rng or force is required")
    else:
        bit = rng.choose(probs)
    return bit, _COLLAPSED[bit]


# --- density matrices ------------------------------------------------------


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of an n-qubit state."""

    matrix: np.ndarray

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.complex128).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        n = m.shape[0].bit_length() - 1
        if m.shape[0] != 1 << n:
            raise ValueError("dimension must be a power of two")
        if not np.allclose(m, m.conj().T, atol=TOL_EQ):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise ValueError(f"trace must be 1, got {np.trace(m)}")
        if float(np.linalg.eigvalsh(m).min()) < -TOL_PSD:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def trace_distance(a, b) -> float:
    """Half the trace norm of ``a - b``, two Hermitian matrices; either side
    may be 0 (a missing view).  0 means indistinguishable."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


