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
counter on them counts the same work: :func:`bsm` (a Bell measurement,
forced to a pair or drawn over four exact quarters), :func:`apply_pauli`,
:func:`measure_qubit` (a Z measurement of a basis payload, whose bit the
frame fixes, so it draws nothing) and :func:`extract_qubit` (a freed
wire).  Amplitudes are built only where something reads them (qss's
fidelity, by :meth:`Frame.state`); a held qubit stays a frame.  The dense
state-vector engine the frame replaced, with its Born draws and general
forcing, is the reference oracle in :mod:`bellproto.dense`.

Besides the frame, this module holds the seeded streams (:class:`Rng`:
numpy's SeedSequence and PCG64 redone in Python bit for bit, so no numpy
version can change a draw but the Gaussians of :meth:`Rng.unit_qubit`),
what the runners read (:func:`qubit`, :func:`fidelity`, :func:`infer_tau`)
and the two amplitude types, :class:`StateVector` and
:class:`DensityMatrix`.  Only the dense engine builds the latter, but both
stay here because the benchmark's tracer wraps their constructors under
these names.  Tolerances are fixed package-wide: state equality and trace
checks at 1e-12 (``TOL_EQ``), positive-semidefiniteness slack at 1e-10
(``TOL_PSD``, which :class:`DensityMatrix` applies).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import LABELS, PAIRS, TwoBits, pauli_matrix

TOL_EQ = 1e-12
TOL_PSD = 1e-10

# --- seeded streams -----------------------------------------------------------
# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 (128-bit LCG,
# XSL-RR output), with their constants
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 2.0**-53


def _words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words, at least one."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _mix_word(pool: tuple[int, ...], h: int, word: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's step for an entropy word past the pool: the word is
    hashed once per pool word (``hashmix``, which advances the hash
    constant ``h``) and mixed into it (``mix``)."""
    out = []
    for dst in pool:
        value = word ^ h
        h = h * _MULT_A & _M32
        value = value * h & _M32
        value ^= value >> 16
        r = (_MIX_L * dst - _MIX_R * value) & _M32
        out.append(r ^ r >> 16)
    return tuple(out), h


def _mix_entropy(words: list[int]) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool and hash constant after the run entropy ``words``:
    the first four are hashed into the pool (a shorter entropy as if
    zero-padded), every pool word is mixed into every other, and any
    further word takes :func:`_mix_word`."""
    h = _INIT_A
    pool = []
    for i in range(4):
        value = (words[i] if i < len(words) else 0) ^ h
        h = h * _MULT_A & _M32
        value = value * h & _M32
        pool.append(value ^ value >> 16)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value = pool[src] ^ h
                h = h * _MULT_A & _M32
                value = value * h & _M32
                value ^= value >> 16
                r = (_MIX_L * pool[dst] - _MIX_R * value) & _M32
                pool[dst] = r ^ r >> 16
    pool = tuple(pool)
    for word in words[4:]:
        pool, h = _mix_word(pool, h, word)
    return pool, h


def _pcg64_seed(pool: tuple[int, ...]) -> tuple[int, int]:
    """PCG64's (state, inc) from the pool: ``generate_state(4, uint64)``
    read as the 128-bit seed and sequence."""
    h = _INIT_B
    half = []
    for word in pool + pool:
        value = word ^ h
        h = h * _MULT_B & _M32
        value = value * h & _M32
        half.append(value ^ value >> 16)
    # the 32-bit words are little-endian halves of 64-bit words, high word first
    seed = half[1] << 96 | half[0] << 64 | half[3] << 32 | half[2]
    inc = (half[5] << 97 | half[4] << 65 | half[7] << 33 | half[6] << 1 | 1) & _M128
    state = (inc + seed) & _M128  # one step from 0 is inc
    return (state * _PCG_MULT + inc) & _M128, inc


class Rng:
    """Deterministic random stream keyed by a seed and a spawn key.

    The draws are this module's own code, bit for bit those of
    ``numpy.random.Generator(PCG64(SeedSequence(seed, spawn_key)))``: the
    seed sequence's hash and mix (numpy's design), PCG64 with XSL-RR output
    (O'Neill 2014), ``random()`` as the top 53 bits of a 64-bit word,
    ``integers(0, 2)`` as numpy's buffered 32-bit Lemire draw (Lemire
    2019), and ``choice(len(p), p=p)`` for up to seven outcomes as one
    uniform located in the normalised cumulative distribution.  So
    identical seeds give identical draws on every platform and under every
    numpy version.  The one draw left to numpy is :meth:`unit_qubit`'s
    Gaussian pair, made by handing the stream's state to a
    ``numpy.random.PCG64`` and taking it back.

    Derived streams (:meth:`derive`) are independent and reproducible,
    keyed by (seed, index); concurrent trials should each own one.  A
    stream is seeded at its first draw, and the runtime derives one only
    where it draws from it: a forced run derives none for its Bell
    outcomes.  The seed is mixed once, on the stream it was given to;
    each stream derived from it continues that mixed pool with its own
    index only, so a stream that is only derived from, like the seed-0
    stream of runs without a generator, is mixed once and never seeded.
    """

    __slots__ = ("seed", "_spawn_key", "_parent", "_pool", "_state", "_inc",
                 "_has32", "_u32", "__weakref__")

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        if self.seed < 0 or any(key < 0 for key in _spawn_key):
            raise ValueError("expected non-negative integer")
        self._parent: Rng | None = None
        self._pool: tuple[tuple[int, ...], int] | None = None
        self._state: int | None = None
        self._has32 = False  # numpy's half-word buffer for 32-bit draws
        self._u32 = 0

    def derive(self, index: int) -> "Rng":
        child = Rng(self.seed, self._spawn_key + (int(index),))
        child._parent = self
        return child

    def _mixed(self) -> tuple[tuple[int, ...], int]:
        """The seed sequence's pool and hash constant after this stream's
        entropy: the seed, then each spawn-key word."""
        if self._pool is None:
            if self._parent is None:
                pool, h = _mix_entropy(_words(self.seed))
                key = self._spawn_key
            else:
                pool, h = self._parent._mixed()
                key = self._spawn_key[-1:]
                self._parent = None
            for index in key:
                for word in _words(index):
                    pool, h = _mix_word(pool, h, word)
            self._pool = pool, h
        return self._pool

    def _seed(self) -> None:
        self._state, self._inc = _pcg64_seed(self._mixed()[0])

    def _next64(self) -> int:
        if self._state is None:
            self._seed()
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def choose(self, probabilities: Sequence[float]) -> int:
        """Sample an index from an explicit distribution of at most seven
        outcomes, as ``Generator.choice(len(p), p=p)`` draws it, with
        numpy's float operations in its order.  numpy sums fewer than eight
        terms by a left fold and more pairwise, so eight or more weights
        are rejected like any other non-distribution."""
        try:
            p = list(map(float, probabilities))
        except (TypeError, ValueError):
            p = [math.nan]  # not a flat sequence of numbers: rejected below
        total = 0.0
        for w in p:
            total += w
        # a nan or an inf weight, a sum that overflows, empty or all-zero
        # input and eight or more weights are not a distribution here
        if not 0 < total < math.inf or min(p) < 0 or len(p) > 7:
            raise ValueError(f"not a probability distribution: {probabilities!r}")
        cdf = list(accumulate([w / total for w in p]))
        last = cdf[-1]
        u = (self._next64() >> 11) * _DOUBLE_UNIT  # numpy's random()
        return bisect_right([c / last for c in cdf], u)

    def bit(self) -> int:
        """numpy's ``integers(0, 2)``: a 32-bit Lemire draw whose rejection
        threshold is 0 for this range, so the top bit of the next 32-bit
        word.  A 64-bit word gives its low half and keeps its high half for
        the next 32-bit draw."""
        if self._has32:
            self._has32 = False
            return self._u32 >> 31
        x = self._next64()
        self._has32 = True
        self._u32 = x >> 32
        return (x >> 31) & 1

    def unit_qubit(self) -> "StateVector":
        """A random qubit: two complex Gaussians (numpy's ``normal``, drawn
        from this stream's state), normalised."""
        if self._state is None:
            self._seed()
        bits = np.random.PCG64(0)
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": self._state, "inc": self._inc},
                      "has_uint32": int(self._has32), "uinteger": self._u32}
        gen = np.random.Generator(bits)
        raw = gen.normal(size=2) + 1j * gen.normal(size=2)
        after = bits.state
        self._state = after["state"]["state"]
        self._has32, self._u32 = bool(after["has_uint32"]), after["uinteger"]
        return StateVector(raw / np.linalg.norm(raw))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalised amplitudes of an n-qubit register (complex, length 2**n),
    read-only.  Equality is identity: compare states by their overlap."""

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


def fidelity(a: StateVector, b: StateVector) -> float:
    return float(abs(complex(np.vdot(a.amplitudes, b.amplitudes))) ** 2)


def infer_tau(aa: TwoBits, cc: TwoBits, mu: int, nu: int) -> int:
    """Correction label relating the receiver's qubit to the payload.

    After the relay outcome ``cc`` and the sender outcome ``aa`` over the
    chain (mu, nu), the receiver holds pauli(tau) applied to the payload up
    to sign, with ``tau`` the XOR of the four labels.  The identity suite's
    correction-table check confirms the rule on the exact chain terms, one
    per outcome combination.
    """
    return aa.label ^ cc.label ^ mu ^ nu


# --- the Pauli frame ----------------------------------------------------------

# the Bell-outcome distribution of every chain measurement, exactly
_QUARTERS = (0.25, 0.25, 0.25, 0.25)
# the |0> and |1> payloads
BASIS = _ZERO, _ONE = ((1.0, 0.0), (0.0, 1.0))


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


# builds a Frame from its three fields without NamedTuple's Python-level __new__
_frame = tuple.__new__
# where a Z measurement leaves a qubit
_COLLAPSED = (Frame(BASIS[0], 0), Frame(BASIS[1], 0))


def bsm(frame: Frame, rng: Rng | None, force: TwoBits | None = None) -> tuple[TwoBits, Frame]:
    """Bell measurement of the next pair on the payload's way.

    The outcome is the forced pair ``force``, else one draw from ``rng``
    over four exact quarters (a forced measurement needs no stream).  The
    frame absorbs the outcome and has one pair fewer to cross.
    """
    payload, label, pairs = frame
    if not pairs:
        raise ValueError("no Bell pair is left to measure")
    outcome = PAIRS[rng.choose(_QUARTERS)] if force is None else force
    return outcome, _frame(Frame, (payload, label ^ outcome.label, pairs - 1))


def apply_pauli(frame: Frame, label: int) -> Frame:
    """Apply the labelled operator to the payload."""
    if label not in LABELS:
        raise ValueError(f"label must be in 0..3, got {label!r}")
    payload, old, pairs = frame
    return _frame(Frame, (payload, old ^ label, pairs))


def extract_qubit(frame: Frame) -> Frame:
    """The qubit on the wire the last Bell measurement freed; raises while
    a pair is left, because that wire is still entangled."""
    if frame.pairs:
        raise ValueError(f"the carrying wire is entangled ({frame.pairs} Bell pair(s) left)")
    return frame


def measure_qubit(frame: Frame) -> tuple[int, Frame]:
    """Z measurement of the carried qubit, a read of the frame.

    The payload is a basis state (every qubit the protocols Z-measure
    carries a classical bit), so the bit is certain: the payload's bit
    flipped by the label's X bit.  The qubit collapses onto |bit>.
    """
    payload, label, pairs = frame
    if pairs:
        raise ValueError("the payload has not crossed the chain: no qubit to measure")
    if payload == _ZERO:
        bit = label & 1
    elif payload == _ONE:
        bit = (label & 1) ^ 1
    else:
        raise ValueError(f"only a basis payload is Z-measured, got {payload!r}")
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

