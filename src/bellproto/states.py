"""Dense state-vector engine for small qubit registers.

Wire convention: qubit 0 is the most significant bit of the basis index,
so ``amplitudes[0b101]`` of a 3-qubit register is the |101> amplitude with
qubit 0 in state |1>; only :func:`wires_first` and :func:`wires_back` apply
it, each as one gather through a flat index that is built and validated
once per (register size, wire tuple) and then cached.  Registers are
read-only value objects that hash and compare by their exact amplitude
bytes, so a register is its own cache key.  An operation's result may be a
shared one: the pure part of every transition (:func:`chain_register`,
:func:`apply_pauli`, :func:`extract_qubit` and the outcome table and
collapse of :func:`bsm` and :func:`measure_qubit`) is memoised, because
forced enumeration keeps reaching the same few registers.

The five-wire chain register used by the protocol layer is laid out as

    wire 0  payload qubit at the sender
    wire 1  sender half of the sender-relay Bell pair
    wire 2  relay half of the sender-relay Bell pair
    wire 3  relay half of the relay-receiver Bell pair
    wire 4  receiver half of the relay-receiver Bell pair

so the relay measures the adjacent pair (2, 3) and the sender measures
(0, 1).  Both are the one Bell measurement :func:`bsm`: at the relay it
swaps the entanglement onto the outer wires, at the sender it teleports
the payload to the receiver.

Tolerances are fixed package-wide: state equality and trace checks at
1e-12, positive-semidefiniteness slack at 1e-10.  All comparisons between
states are made up to a global +/-1 phase (the only phases this algebra
produces); the exact signs of the Bell-sector decompositions are frozen as
literal tables, which the tests check against direct projector computation
and the identity suite checks by rebuilding every register in integer
arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .algebra import (
    LABELS,
    TwoBits,
    apply_omega_to_bell,
    bell_vector,
    bell_vector_int,
    omega_matrix_int,
    pauli_matrix,
    pauli_matrix_int,
)

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


@dataclass(frozen=True)
class StateVector:
    """Normalised amplitudes of an n-qubit register (complex, length 2**n).

    The amplitudes are a read-only view of the bytes in ``_key``.  Equality
    and the hash compare those bytes, so a register keys the engine's caches
    itself; unlike ``np.array_equal``, bytes tell -0.0 from +0.0, and a
    cached result computed from one must not be handed back for the other.
    """

    amplitudes: np.ndarray

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)  # always a copy
        n = amps.size.bit_length() - 1
        if amps.size < 2 or amps.size != 1 << n:
            raise ValueError(f"amplitude count must be a power of two >= 2, got {amps.size}")
        re, im = amps.real, amps.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's formula
        if not abs(norm - 1.0) <= 1e-9:  # also rejects nan amplitudes
            raise ValueError(f"state is not normalised (norm {norm})")
        amps /= norm
        key = amps.tobytes()
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "amplitudes", np.frombuffer(key, dtype=np.complex128))

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def __eq__(self, other) -> bool:  # exact equality; use equal_up_to_phase for states
        return isinstance(other, StateVector) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


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


def qubit(alpha: complex, beta: complex) -> StateVector:
    return StateVector(np.array([alpha, beta], dtype=np.complex128))


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


# --- memoised transitions ---------------------------------------------------
#
# The rule: a memoised function is a pure function of its arguments, the
# input register among them, and returns read-only values (StateVectors,
# outcome tables of read-only arrays and tuples), so a hit hands back
# exactly the bits a miss computes.  An input that raises is not cached
# and raises again next time.  At 512 entries a cache sped the bench's
# enumerate-sweep by about 1% more than at 256, but the sample-replay peak
# RSS grew by 1.9 MB where 256 entries grow it by 0.6 MB.
_MEMO_SIZE = 256


@lru_cache(maxsize=_MEMO_SIZE)
def chain_register(mu: int, nu: int, payload: StateVector) -> StateVector:
    """Five-wire register: payload, Bell pair mu on (1,2), Bell pair nu on (3,4)."""
    if payload.n_qubits != 1:
        raise ValueError("payload must be a single qubit")
    return _product([payload.amplitudes, bell_state(mu).amplitudes, bell_state(nu).amplitudes])


@lru_cache(maxsize=256)
def _gather(n: int, wires: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat index that moves ``wires`` of an n-qubit register to the front,
    and its inverse.  An invalid wire tuple raises, so it is never cached."""
    if len(set(wires)) != len(wires) or any(not 0 <= w < n for w in wires):
        raise IndexError(f"wires {list(wires)} invalid for a {n}-qubit register")
    order = [*wires, *(w for w in range(n) if w not in wires)]
    index = np.arange(1 << n).reshape((2,) * n).transpose(order).reshape(-1)
    inverse = np.argsort(index)
    index.setflags(write=False)
    inverse.setflags(write=False)
    return index, inverse


def wires_first(amps: np.ndarray, wires: Sequence[int]) -> np.ndarray:
    """Amplitudes as a (2**k, rest) matrix: row index over the k listed wires
    in the listed order, column index over the other wires in wire order.

    Raises IndexError for a repeated or out-of-range wire.
    """
    index, _ = _gather(amps.size.bit_length() - 1, tuple(wires))
    return amps.reshape(index.size)[index].reshape(1 << len(wires), -1)


def wires_back(mat: np.ndarray, wires: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`wires_first`: the flat amplitude vector in wire order."""
    _, inverse = _gather(mat.size.bit_length() - 1, tuple(wires))
    return mat.reshape(inverse.size)[inverse]


@lru_cache(maxsize=_MEMO_SIZE)
def apply_pauli(state: StateVector, label: int, wire: int) -> StateVector:
    """Apply the labelled single-qubit operator to one wire."""
    moved = pauli_matrix(label) @ wires_first(state.amplitudes, [wire])
    return StateVector(wires_back(moved, [wire]))


def overlap(a: StateVector, b: StateVector) -> complex:
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    return float(abs(overlap(a, b)) ** 2)


def equal_up_to_phase(a: StateVector, b: StateVector) -> bool:
    """State equality modulo a global phase: | <a|b> | == 1 within TOL_EQ."""
    if a.n_qubits != b.n_qubits:
        return False
    return bool(abs(abs(overlap(a, b)) - 1.0) <= TOL_EQ)


# bras of the measurement bases, one row per outcome; both are real
_ROWS = {"bell": np.stack([bell_vector(m) for m in LABELS]), "z": np.eye(2)}


def _born(comp: np.ndarray) -> np.ndarray:
    """Outcome probabilities: the squared norm of each component row."""
    return np.einsum("ij,ij->i", comp, comp.conj()).real


def bsm_probabilities(state: StateVector, pair: tuple[int, int]) -> np.ndarray:
    """Analytic Bell-outcome distribution for a pair, no sampling involved
    (a shared read-only array)."""
    return _probabilities(state, tuple(pair), "bell").probs


class _Outcomes(NamedTuple):
    """A measurement's outcome table: the Born probabilities as a read-only
    array (what ``Rng.choose`` draws from), the same values as Python floats
    and the index of the certain outcome (None when no outcome is certain)."""

    probs: np.ndarray
    table: tuple[float, ...]
    certain: int | None


@lru_cache(maxsize=_MEMO_SIZE)
def _probabilities(state: StateVector, wires: tuple[int, ...], basis: str) -> _Outcomes:
    probs = _born(_ROWS[basis] @ wires_first(state.amplitudes, wires))
    probs.setflags(write=False)
    top = int(probs.argmax())
    return _Outcomes(probs, tuple(probs.tolist()),
                     top if probs[top] > 1.0 - _PROB_FLOOR else None)


def _measure(state: StateVector, wires: Sequence[int], basis: str,
             rng: Rng | None, force: int | TwoBits | None,
             what: str) -> tuple[int, StateVector]:
    """Projective measurement of ``wires`` in the real basis named ``basis``
    (a key of ``_ROWS``).  The outcome is the forced one (which must be
    possible), else the certain one, else a Born draw from ``rng``; the
    measured wires collapse onto the outcome's basis state."""
    wires = tuple(wires)
    outcomes = _probabilities(state, wires, basis)
    if force is not None:
        table = outcomes.table
        index = force.label if isinstance(force, TwoBits) else int(force)
        if index not in range(len(table)):
            raise MeasurementError(f"{what} {index} is not an outcome of this measurement")
        if table[index] < _PROB_FLOOR:
            raise MeasurementError(f"{what} {index} has probability {table[index]:.3e}")
    elif outcomes.certain is not None:
        # deterministic outcome: no randomness consumed, keeps streams stable
        index = outcomes.certain
    elif rng is None:
        raise ValueError("either rng or force is required")
    else:
        index = rng.choose(outcomes.probs)
    return index, _collapse(state, wires, basis, index)


@lru_cache(maxsize=_MEMO_SIZE)
def _collapse(state: StateVector, wires: tuple[int, ...], basis: str, index: int) -> StateVector:
    rows = _ROWS[basis]
    comp = rows @ wires_first(state.amplitudes, wires)
    prob = _probabilities(state, wires, basis).probs[index]
    post = np.multiply.outer(rows[index], comp[index] / np.sqrt(prob))
    return StateVector(wires_back(post, wires))


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


def infer_tau(aa: TwoBits, cc: TwoBits, mu: int, nu: int) -> int:
    """Correction label relating the receiver's qubit to the payload.

    After the relay outcome ``cc`` and the sender outcome ``aa`` over the
    chain (mu, nu), the receiver holds pauli(tau) applied to the payload up
    to sign, with ``tau`` the XOR of the four labels.  The identity suite's
    correction-table check confirms the rule by forcing every outcome
    combination through the simulator.
    """
    return aa.label ^ cc.label ^ mu ^ nu


# --- Bell-sector decompositions -------------------------------------------
#
# The product states used by the protocols decompose exactly into one
# product term per Bell-measurement sector.  The term labels follow the
# XOR rule; the term signs do not follow from composing the operator
# action tables factor by factor, so they are frozen here from a direct
# projector computation, and the naive factorwise signs are recorded as
# `convention_sign_gaps` for anyone comparing against the operator-ordered
# way of writing these expansions.  The decomposition tests and identity
# checks rebuild every register from these terms, so a wrong sign fails
# there.

# payload (x) Bell(channel), sender outcome aa: index 4*channel + aa
_TELEPORT_SIGNS = "+++-++-++++---+-"
# Bell(mu) (x) Bell(nu), relay outcome cc: index 16*mu + 4*nu + cc
_SWAP_SIGNS = "+++++++++-+-+-+-++--++---++--++-+++++++++-+-+-+-++--++---++--++-"


def _teleport_sign(channel: int, aa: int) -> int:
    return 1 if _TELEPORT_SIGNS[4 * channel + aa] == "+" else -1


def _swap_sign(mu: int, nu: int, cc: int) -> int:
    return 1 if _SWAP_SIGNS[16 * mu + 4 * nu + cc] == "+" else -1


def _chain_sign(mu: int, nu: int, aa: int, cc: int) -> int:
    """The relay swap leaves the outer pair in Bell(mu ^ nu ^ cc), then the
    sender teleports over it, so the chain sign is the product of the two."""
    return _swap_sign(mu, nu, cc) * _teleport_sign(mu ^ nu ^ cc, aa)


def _place_pairs(blocks: Sequence[tuple[Sequence[int], np.ndarray]]) -> np.ndarray:
    """Tensor 1- and 2-wire blocks that cover every wire, each at its wires;
    integer blocks give an integer vector."""
    vec = np.ones(1, dtype=np.int64)
    order: list[int] = []
    for wires, block in blocks:
        vec = np.multiply.outer(vec, block).reshape(-1)
        order.extend(wires)
    return wires_back(vec, order)


# The term generators work on the integer tables (``omegas`` is the integer
# pair-operator table, or the identity suite's faulted copy), so their terms
# are exact and integer for integer payloads; the public decompositions
# divide the scale back out.


def _teleport_terms(channel: int, payload: np.ndarray, omegas):
    """(tau, sqrt(2) * term) of payload (x) Bell(channel); the scaled terms
    sum to 2 * payload (x) bell_vector_int(channel)."""
    for tau in LABELS:
        sign = _teleport_sign(channel, tau ^ channel) * apply_omega_to_bell(tau, channel).phase
        bell_part = sign * (omegas[tau] @ bell_vector_int(channel))
        moved = pauli_matrix_int(tau) @ payload
        yield tau, _place_pairs([((0, 1), bell_part), ((2,), moved)])


def _swap_terms(mu: int, nu: int, omegas):
    """(rho, 2 * term) of Bell(mu) (x) Bell(nu); the scaled terms sum to
    2 * bell_vector_int(mu) (x) bell_vector_int(nu)."""
    for rho in LABELS:
        sign = (
            _swap_sign(mu, nu, rho ^ nu)
            * apply_omega_to_bell(rho, mu).phase
            * apply_omega_to_bell(rho, nu).phase
        )
        outer = sign * (omegas[rho] @ bell_vector_int(mu))
        relay = omegas[rho] @ bell_vector_int(nu)
        yield rho, _place_pairs([((0, 3), outer), ((1, 2), relay)])


def _chain_terms(mu: int, nu: int, payload: np.ndarray, omegas):
    """(tau, rho, 2 * term) of payload (x) Bell(mu) (x) Bell(nu); the scaled
    terms sum to 4 * payload (x) bell_vector_int(mu) (x) bell_vector_int(nu)."""
    for tau, rho in itertools.product(LABELS, repeat=2):
        step1 = apply_omega_to_bell(rho, mu)
        step2 = apply_omega_to_bell(tau, step1.label)
        sign = (
            _chain_sign(mu, nu, tau ^ rho ^ mu, rho ^ nu)
            * step1.phase
            * step2.phase
            * apply_omega_to_bell(rho, nu).phase
        )
        sender = sign * (omegas[tau] @ omegas[rho] @ bell_vector_int(mu))
        relay = omegas[rho] @ bell_vector_int(nu)
        moved = pauli_matrix_int(tau) @ payload
        yield tau, rho, _place_pairs([((0, 1), sender), ((2, 3), relay), ((4,), moved)])


_OMEGA_INT = tuple(omega_matrix_int(t) for t in LABELS)


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


def convention_sign_gaps() -> dict[str, tuple]:
    """Sectors whose exact sign differs from the factorwise operator phases.

    Composing the operator action tables factor by factor predicts a sign
    for every sector term; the prediction is wrong on the cells listed
    here, which is why the decompositions above carry explicit sign
    tables.  Returned purely as a record of the convention mismatch.
    """
    tele = tuple(
        (chan, aa)
        for chan, aa in itertools.product(LABELS, repeat=2)
        if _teleport_sign(chan, aa) != apply_omega_to_bell(aa ^ chan, chan).phase
    )
    swap = []
    for mu, nu, cc in itertools.product(LABELS, repeat=3):
        rho = cc ^ nu
        predicted = apply_omega_to_bell(rho, mu).phase * apply_omega_to_bell(rho, nu).phase
        if _swap_sign(mu, nu, cc) != predicted:
            swap.append((mu, nu, cc))
    chain = []
    for mu, nu, aa, cc in itertools.product(LABELS, repeat=4):
        rho = cc ^ nu
        tau = aa ^ rho ^ mu
        step1 = apply_omega_to_bell(rho, mu)
        predicted = (
            step1.phase
            * apply_omega_to_bell(tau, step1.label).phase
            * apply_omega_to_bell(rho, nu).phase
        )
        if _chain_sign(mu, nu, aa, cc) != predicted:
            chain.append((mu, nu, aa, cc))
    return {"teleport": tele, "swap": tuple(swap), "chain": tuple(chain)}


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


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference; 0 means indistinguishable."""
    diff = a.matrix - b.matrix
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def reduced_density(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace keeping the listed wires (in the listed order)."""
    t = wires_first(state.amplitudes, keep)
    return DensityMatrix(t @ t.conj().T)


@lru_cache(maxsize=_MEMO_SIZE)
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
