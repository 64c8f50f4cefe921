"""Dense state-vector reference engine: the oracle the runtime is checked against.

The protocol runtime tracks a Pauli frame (:mod:`bellproto.states`); this
module keeps the full amplitude registers it replaced and the eigenvalue
:func:`trace_distance`, which the demos and the tests run on.  It is a
leaf: no module of the package imports it.  Nothing is cached: each call
computes from its input.

Wire convention: qubit 0 is the most significant bit of the basis index,
so ``amplitudes[0b101]`` of a 3-qubit register is the |101> amplitude with
qubit 0 in state |1>; only :func:`wires_first` and :func:`wires_back` apply
it, each as one ``np.moveaxis`` over the register's ``(2,) * n`` view.

The five-wire chain register is laid out as

    wire 0  payload qubit at the sender
    wire 1  sender half of the sender-relay Bell pair
    wire 2  relay half of the sender-relay Bell pair
    wire 3  relay half of the relay-receiver Bell pair
    wire 4  receiver half of the relay-receiver Bell pair

so the relay measures the adjacent pair (2, 3) and the sender measures
(0, 1).  Both are the one Bell measurement :func:`bsm`: at the relay it
swaps the entanglement onto the outer wires, at the sender it teleports
the payload to the receiver.

All comparisons between states are made up to a global +/-1 phase (the
only phases this algebra produces); the Bell-sector decompositions take
their exact signs from the literal tables in :mod:`bellproto.algebra`,
which the tests check against direct projector computation and the
identity suite checks by rebuilding every register in integer arithmetic.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    _OMEGA_INT,
    LABELS,
    TwoBits,
    _chain_terms,
    _swap_terms,
    _teleport_terms,
    bell_vector,
    pauli_matrix,
)
from .states import TOL_EQ, DensityMatrix, Rng, StateVector

_PROB_FLOOR = 1e-12


class MeasurementError(ValueError):
    """Raised when a forced outcome is not an outcome of the measurement or
    has (numerically) zero probability."""


def basis_state(bits: str | Sequence[int]) -> StateVector:
    """Computational basis state, e.g. ``basis_state("010")``."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    bits = list(bits)
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be a non-empty 0/1 sequence")
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps[index] = 1.0
    return StateVector(amps)


def bell_state(label: int) -> StateVector:
    return StateVector(bell_vector(label))


def _product(amps: Sequence[np.ndarray]) -> StateVector:
    out = amps[0]
    for a in amps[1:]:
        out = np.multiply.outer(out, a).reshape(-1)
    return StateVector(out)


def make_register(parts: Iterable[StateVector]) -> StateVector:
    """Tensor product of normalised parts, in listed order (wire 0 first)."""
    parts = list(parts)
    if not parts:
        raise ValueError("cannot build a register from an empty part list")
    return _product([p.amplitudes for p in parts])


def chain_register(mu: int, nu: int, payload: StateVector) -> StateVector:
    """Five-wire register: payload, Bell pair mu on (1,2), Bell pair nu on (3,4)."""
    if payload.n_qubits != 1:
        raise ValueError("payload must be a single qubit")
    return _product([payload.amplitudes, bell_state(mu).amplitudes, bell_state(nu).amplitudes])


def _qubit_axes(values: np.ndarray, wires: Sequence[int]) -> np.ndarray:
    """``values`` with one axis per wire; a bad wire in ``wires`` raises IndexError."""
    n = values.size.bit_length() - 1
    if len(set(wires)) != len(wires) or any(not 0 <= w < n for w in wires):
        raise IndexError(f"wires {list(wires)} invalid for a {n}-qubit register")
    return values.reshape((2,) * n)


def wires_first(amps: np.ndarray, wires: Sequence[int]) -> np.ndarray:
    """Amplitudes as a (2**k, rest) matrix: row index over the k listed wires
    in the listed order, column index over the other wires in wire order.

    Raises IndexError for a repeated or out-of-range wire.
    """
    moved = np.moveaxis(_qubit_axes(amps, wires), wires, range(len(wires)))
    return moved.reshape(1 << len(wires), -1)


def wires_back(mat: np.ndarray, wires: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`wires_first`: the flat amplitude vector in wire order."""
    return np.moveaxis(_qubit_axes(mat, wires), range(len(wires)), wires).reshape(-1)


def apply_pauli(state: StateVector, label: int, wire: int) -> StateVector:
    """Apply the labelled single-qubit operator to one wire."""
    moved = pauli_matrix(label) @ wires_first(state.amplitudes, [wire])
    return StateVector(wires_back(moved, [wire]))


# bras of the measurement bases, one row per outcome; both are real
_ROWS = {"bell": np.stack([bell_vector(m) for m in LABELS]), "z": np.eye(2)}


def _components(state: StateVector, wires: Sequence[int], basis: str):
    """Each outcome's unnormalised component row and the Born probabilities
    (the squared norm of each row)."""
    comp = _ROWS[basis] @ wires_first(state.amplitudes, wires)
    return comp, np.einsum("ij,ij->i", comp, comp.conj()).real


def bsm_probabilities(state: StateVector, pair: tuple[int, int]) -> np.ndarray:
    """Analytic Bell-outcome distribution for a pair, no sampling involved."""
    return _components(state, pair, "bell")[1]


def _measure(state: StateVector, wires: Sequence[int], basis: str,
             rng: Rng | None, force: int | TwoBits | None,
             what: str) -> tuple[int, StateVector]:
    """Projective measurement of ``wires`` in the real basis named ``basis``
    (a key of ``_ROWS``).  The outcome is the forced one (which must be
    possible), else the certain one, else a Born draw from ``rng``; the
    measured wires collapse onto the outcome's basis state."""
    comp, probs = _components(state, wires, basis)
    top = int(probs.argmax())
    if force is not None:
        index = force.label if isinstance(force, TwoBits) else int(force)
        if index not in range(len(probs)):
            raise MeasurementError(f"{what} {index} is not an outcome of this measurement")
        if probs[index] < _PROB_FLOOR:
            raise MeasurementError(f"{what} {index} has probability {float(probs[index]):.3e}")
    elif probs[top] > 1.0 - _PROB_FLOOR:
        # deterministic outcome: no randomness consumed, keeps streams stable
        index = top
    elif rng is None:
        raise ValueError("either rng or force is required")
    else:
        index = rng.choose(probs)
    post = np.multiply.outer(_ROWS[basis][index], comp[index] / np.sqrt(probs[index]))
    return index, StateVector(wires_back(post, wires))


def bsm(
    state: StateVector,
    pair: tuple[int, int],
    rng: Rng | None = None,
    force: int | TwoBits | None = None,
) -> tuple[TwoBits, StateVector]:
    """Bell-basis measurement of a wire pair.

    Samples the outcome from the Born distribution using ``rng``, or
    post-selects it when ``force`` is given (used by the exhaustive
    verification drivers); forcing an outcome of zero probability raises
    :class:`MeasurementError`.  The returned register has the measured
    pair collapsed onto the outcome Bell state.

    At the relay's pair, with Bell pairs mu on (sender, relay) and nu on
    (relay, receiver), this is entanglement swapping: the outer pair
    collapses to Bell ``mu ^ nu ^ outcome``.  At (source, near half of a
    channel Bell(c)) it is teleportation: the far half becomes
    pauli(outcome ^ c) applied to the source state, up to a global sign.
    """
    label, post = _measure(state, pair, "bell", rng, force, "outcome")
    return TwoBits.from_label(label), post


def measure_qubit(
    state: StateVector,
    wire: int,
    rng: Rng | None = None,
    force: int | None = None,
) -> tuple[int, StateVector]:
    """Computational-basis measurement of one wire."""
    return _measure(state, (wire,), "z", rng, force, "bit")


def extract_qubit(state: StateVector, wire: int) -> StateVector:
    """Pure state of one wire; requires the wire to be unentangled.

    The global phase of the result is fixed deterministically (largest
    component made real positive), which is harmless because all state
    comparisons in this package are up to phase.
    """
    t = wires_first(state.amplitudes, [wire])
    vals, vecs = np.linalg.eigh(t @ t.conj().T)  # the wire's reduced density matrix
    if vals[-1] < 1.0 - 1e-9:
        raise ValueError(f"wire {wire} is entangled (purity eigenvalue {vals[-1]:.6f})")
    vec = vecs[:, -1]
    k = int(np.argmax(np.abs(vec)))
    vec = vec * (np.conj(vec[k]) / abs(vec[k]))
    return StateVector(vec)


# --- Bell-sector decompositions, from the integer terms of algebra ---------


def decompose_teleport(channel: int, payload: StateVector) -> list[tuple[int, StateVector]]:
    """Exact four-term decomposition of payload (x) Bell(channel).

    Term tau lives on wires (0,1)=Bell sector, wire 2 = moved payload; the
    terms, each weighted 1/2, sum to the input product state.
    """
    return [(tau, StateVector(vec / math.sqrt(2)))
            for tau, vec in _teleport_terms(channel, payload.amplitudes, _OMEGA_INT)]


def decompose_swap(mu: int, nu: int) -> list[tuple[int, StateVector]]:
    """Exact four-term decomposition of Bell(mu) (x) Bell(nu).

    Wires: 0 sender, 1-2 relay, 3 receiver.  Term rho places the relay pair
    in omega(rho) Bell(nu) and the outer pair in omega(rho) Bell(mu); terms
    weighted 1/2 sum to the input.
    """
    return [(rho, StateVector(vec / 2)) for rho, vec in _swap_terms(mu, nu, _OMEGA_INT)]


def decompose_chain(mu: int, nu: int, payload: StateVector) -> list[tuple[int, int, StateVector]]:
    """Exact sixteen-term decomposition of the five-wire chain register.

    Returns (tau, rho, term) triples; the terms, each weighted 1/4, sum to
    payload (x) Bell(mu) (x) Bell(nu).  Term (tau, rho) has the sender pair
    in sector ``tau ^ rho ^ mu``, the relay pair in ``rho ^ nu`` and the
    receiver wire carrying pauli(tau) applied to the payload.
    """
    return [(tau, rho, StateVector(vec / 2))
            for tau, rho, vec in _chain_terms(mu, nu, payload.amplitudes, _OMEGA_INT)]


# --- density-matrix oracles ----------------------------------------------


def projector(state: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))


def mixture_density(states: Sequence[StateVector], probs: Sequence[float]) -> DensityMatrix:
    """Convex mixture sum_i p_i |s_i><s_i|."""
    states = list(states)
    probs = [float(p) for p in probs]
    if len(states) != len(probs):
        raise ValueError("states and probabilities must have equal length")
    if abs(sum(probs) - 1.0) > TOL_EQ:
        raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
    dims = {s.amplitudes.size for s in states}
    if len(dims) != 1:
        raise ValueError("mixture components must have equal dimension")
    dim = dims.pop()
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for s, p in zip(states, probs):
        acc += p * np.outer(s.amplitudes, s.amplitudes.conj())
    return DensityMatrix(acc)


def is_maximally_mixed(dm: DensityMatrix) -> bool:
    """True when the matrix is entrywise within TOL_EQ of I / 2**n."""
    dim = dm.matrix.shape[0]
    return bool(np.max(np.abs(dm.matrix - np.eye(dim) / dim)) <= TOL_EQ)


def reduced_density(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace keeping the listed wires (in the listed order)."""
    t = wires_first(state.amplitudes, keep)
    return DensityMatrix(t @ t.conj().T)


def trace_distance(a, b) -> float:
    """Half the trace norm of ``a - b``, two Hermitian matrices; either side
    may be 0 (a missing view).  0 means indistinguishable."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())
