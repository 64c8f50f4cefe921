"""Exact operator and Bell-state tables for the all-real single-qubit set.

Conventions fixed here and used everywhere else in the package:

* Operator labels 0..3 mean I, X, Z, ZX in that order.  All four matrices
  are real; label 3 is the product Z @ X = [[0, 1], [-1, 0]] rather than the
  complex Y, so the whole algebra closes over {-1, 0, 1} entries.
* Bell labels 0..3 mean (|00>+|11>), (|01>+|10>), (|00>-|11>), (|01>-|10>),
  each scaled by 1/sqrt(2).
* A label decodes to the exponent pair (z, x) with ``label = 2*z + x`` and
  the matrix with label (z, x) is exactly Z^z @ X^x with phase +1.
* Labels compose by XOR of exponent pairs.  The only phases that ever
  appear are +/-1; they are tracked explicitly as :class:`SignedLabel`
  because label 3 is not symmetric (its transpose is its negative) and
  dropping the signs silently corrupts every downstream oracle.
* Pair operators ("omega") act on the second qubit of a two-qubit system:
  omega(label) = I (x) pauli(label).  They form an orthonormal basis of a
  4-dimensional space under the trace inner product Tr(A @ B.T), with
  squared norm 4.

The signs of the Bell action and of label composition are frozen as
literal tables; the identity suite (bell-action-table, compose-table) and
the tests re-derive every entry from the matrices themselves.  The signs
of the Bell-sector decompositions (teleport and swap) are frozen here too,
with the integer sector-term generators that the identity suite and the
dense engine's decompositions share, so all four sign tables have one
home.  Everything in this module is immutable after import and safe to
share across threads.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

LABELS = (0, 1, 2, 3)


class TwoBits(NamedTuple):
    """A classical bit pair (hi, lo); the currency of every pair outcome."""

    hi: int
    lo: int

    @property
    def label(self) -> int:
        """Operator label of the pair: 00->I, 01->X, 10->Z, 11->ZX."""
        return 2 * self.hi + self.lo

    @classmethod
    def from_label(cls, label: int) -> "TwoBits":
        _check_label(label)
        return PAIRS[label]

    @classmethod
    def parse(cls, text: str) -> "TwoBits":
        if len(text) != 2 or any(c not in "01" for c in text):
            raise ValueError(f"expected a 2-bit string like '01', got {text!r}")
        return cls(int(text[0]), int(text[1]))

    def __xor__(self, other: "TwoBits") -> "TwoBits":
        return PAIRS[2 * (self.hi ^ other.hi) + (self.lo ^ other.lo)]

    def __str__(self) -> str:
        return _TEXT[2 * self.hi + self.lo]

    def __format__(self, spec: str) -> str:
        # an f-string reads the table; a format spec raises, as for any tuple
        return _TEXT[2 * self.hi + self.lo] if not spec else object.__format__(self, spec)


PAIRS = tuple(TwoBits(label >> 1, label & 1) for label in LABELS)  # indexed by label
_TEXT = tuple(f"{label >> 1}{label & 1}" for label in LABELS)  # str of PAIRS[label]


class SignedLabel(NamedTuple):
    """An operator or Bell label together with its +/-1 phase."""

    label: int
    phase: int


def _check_label(label: int) -> None:
    if label not in (0, 1, 2, 3):
        raise ValueError(f"label must be in 0..3, got {label!r}")


def _check_bit(bit: int) -> None:
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Integer master copies; float views are derived from these.
_PAULI_INT = tuple(
    _frozen(np.array(m, dtype=np.int64))
    for m in (
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[1, 0], [0, -1]],
        [[0, 1], [-1, 0]],
    )
)
_OMEGA_INT = tuple(_frozen(np.kron(_PAULI_INT[0], p)) for p in _PAULI_INT)
# Bell amplitudes scaled by sqrt(2) so the table stays integer-exact.
_BELL_INT = tuple(
    _frozen(np.array(v, dtype=np.int64))
    for v in ([1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0])
)

_SQRT2 = np.sqrt(2.0)
_PAULI_FLOAT = tuple(_frozen(m.astype(np.float64)) for m in _PAULI_INT)
_BELL_FLOAT = tuple(_frozen(v.astype(np.float64) / _SQRT2) for v in _BELL_INT)


def pauli_matrix(label: int) -> np.ndarray:
    """The 2x2 real matrix for a label; read-only view, do not mutate."""
    _check_label(label)
    return _PAULI_FLOAT[label]


def pauli_matrix_int(label: int) -> np.ndarray:
    _check_label(label)
    return _PAULI_INT[label]


def omega_matrix_int(label: int) -> np.ndarray:
    """The 4x4 pair operator I (x) pauli(label) in integers; read-only view."""
    _check_label(label)
    return _OMEGA_INT[label]


def bell_vector(label: int) -> np.ndarray:
    """Unit amplitude vector of a Bell state; read-only view."""
    _check_label(label)
    return _BELL_FLOAT[label]


def bell_vector_int(label: int) -> np.ndarray:
    """Bell amplitudes scaled by sqrt(2), exact over {-1, 0, 1}."""
    _check_label(label)
    return _BELL_INT[label]


def omega_inner(a: int, b: int) -> int:
    """Trace inner product Tr(omega_a @ omega_b.T), computed exactly.

    Equals 4 when a == b and 0 otherwise: the four pair operators are an
    orthonormal basis up to the common normalisation 4.
    """
    _check_label(a)
    _check_label(b)
    return int(np.trace(_OMEGA_INT[a] @ _OMEGA_INT[b].T))


def x_bit(label: int) -> int:
    """X exponent of a label (its low bit)."""
    if label not in (0, 1, 2, 3):
        _check_label(label)  # raises
    return label & 1


def label_from_zx(z: int, x: int) -> int:
    """Label of the product Z^z @ X^x (phase exactly +1).

    Under the message/signature reading of a bit pair, ``z`` carries the
    message bit and ``x`` the signature bit: both values of z map to the
    same x-column, so announcing x reveals nothing about z.
    """
    if z not in (0, 1) or x not in (0, 1):
        _check_bit(z)  # one of the two raises
        _check_bit(x)
    return 2 * z + x


# Signs of the two label products; the label part is always the XOR.
# omega(rho) @ Bell(mu) = sign * Bell(rho ^ mu): index 4*rho + mu
_ACTION_SIGNS = "+++++++++-+--+-+"
# pauli(a) @ pauli(b) = sign * pauli(a ^ b): index 4*a + b
_COMPOSE_SIGNS = "++++++--++++++--"


def _signed_xor(signs: str, a: int, b: int) -> SignedLabel:
    _check_label(a)
    _check_label(b)
    return SignedLabel(a ^ b, 1 if signs[4 * a + b] == "+" else -1)


def apply_omega_to_bell(rho: int, mu: int) -> SignedLabel:
    """Signed Bell label of omega(rho) applied to Bell state mu.

    The label part is always ``rho ^ mu``; in particular the action
    collapses every diagonal pair (rho == mu) onto Bell label 0 with
    phase +1.  Off-diagonal phases are not all +1 and are tabulated here
    exactly.
    """
    return _signed_xor(_ACTION_SIGNS, rho, mu)


def pauli_compose(a: int, b: int) -> SignedLabel:
    """Signed label of the matrix product pauli(a) @ pauli(b)."""
    return _signed_xor(_COMPOSE_SIGNS, a, b)


def pauli_compose_sequence(labels) -> SignedLabel:
    """Fold :func:`pauli_compose` over a sequence, left to right."""
    out = SignedLabel(0, 1)
    for lab in labels:
        step = pauli_compose(out.label, lab)
        out = SignedLabel(step.label, out.phase * step.phase)
    return out


# --- Bell-sector decompositions -------------------------------------------
#
# The product states used by the protocols decompose exactly into one
# product term per Bell-measurement sector.  The term labels follow the
# XOR rule.  The exact term signs are frozen below from a direct projector
# computation.  Each split has one +/-1 fix: the exact sign is the phase
# from composing the operator action tables factor by factor, times the
# fix.  The chain's fix is the swap's times the teleport's, and a gap in
# `convention_sign_gaps` is a fix of -1.  The term generators work on the
# integer tables (``omegas`` is the pair-operator table, or the identity
# suite's faulted copy), so their terms are exact; the identity suite
# rebuilds every register from them, so a wrong sign fails there, and the
# dense engine's decompositions divide the scale back out.

# payload (x) Bell(channel), sender outcome aa: index 4*channel + aa
_TELEPORT_SIGNS = "+++-++-++++---+-"
# Bell(mu) (x) Bell(nu), relay outcome cc: index 16*mu + 4*nu + cc
_SWAP_SIGNS = "+++++++++-+-+-+-++--++---++--++-+++++++++-+-+-+-++--++---++--++-"


def _teleport_fix(channel: int, aa: int) -> int:
    exact = 1 if _TELEPORT_SIGNS[4 * channel + aa] == "+" else -1
    return exact * apply_omega_to_bell(aa ^ channel, channel).phase


def _swap_fix(mu: int, nu: int, cc: int) -> int:
    exact = 1 if _SWAP_SIGNS[16 * mu + 4 * nu + cc] == "+" else -1
    rho = cc ^ nu
    return exact * apply_omega_to_bell(rho, mu).phase * apply_omega_to_bell(rho, nu).phase


def _chain_fix(mu: int, nu: int, aa: int, cc: int) -> int:
    """The relay swap leaves the outer pair in Bell(mu ^ nu ^ cc), then the
    sender teleports over it."""
    return _swap_fix(mu, nu, cc) * _teleport_fix(mu ^ nu ^ cc, aa)


def convention_sign_gaps() -> dict[str, tuple]:
    """Sector cells whose sign fix is -1, in ``itertools.product`` order.

    A sector's exact sign is its factor-by-factor operator phase times the
    fix of its split, and the chain's fix is the swap's times the
    teleport's; on the cells listed here the factor-by-factor phase alone
    has the wrong sign.  Returned purely as a record of the convention
    mismatch.
    """
    return {
        "teleport": tuple(c for c in itertools.product(LABELS, repeat=2) if _teleport_fix(*c) < 0),
        "swap": tuple(c for c in itertools.product(LABELS, repeat=3) if _swap_fix(*c) < 0),
        "chain": tuple(c for c in itertools.product(LABELS, repeat=4) if _chain_fix(*c) < 0),
    }


def _teleport_terms(channel: int, payload: np.ndarray, omegas):
    """(tau, sqrt(2) * term) of payload (x) Bell(channel); the scaled terms
    sum to 2 * payload (x) bell_vector_int(channel)."""
    for tau in LABELS:
        fix = _teleport_fix(channel, tau ^ channel)
        bell_part = fix * (omegas[tau] @ bell_vector_int(channel))
        yield tau, np.multiply.outer(bell_part, pauli_matrix_int(tau) @ payload).reshape(-1)


def _swap_terms(mu: int, nu: int, omegas):
    """(rho, 2 * term) of Bell(mu) (x) Bell(nu); the scaled terms sum to
    2 * bell_vector_int(mu) (x) bell_vector_int(nu)."""
    for rho in LABELS:
        outer = _swap_fix(mu, nu, rho ^ nu) * (omegas[rho] @ bell_vector_int(mu))
        relay = omegas[rho] @ bell_vector_int(nu)
        # the outer pair sits on wires (0, 3) and the relay pair on (1, 2)
        term = np.multiply.outer(outer, relay).reshape(2, 2, 2, 2).transpose(0, 2, 3, 1)
        yield rho, term.reshape(-1)


def _chain_factors(mu: int, nu: int, omegas):
    """(tau, rho, sender, relay) of each chain term: its signed sender-pair
    and relay-pair factors, each scaled by sqrt(2)."""
    for tau, rho in itertools.product(LABELS, repeat=2):
        fix = _chain_fix(mu, nu, tau ^ rho ^ mu, rho ^ nu)
        yield (tau, rho, fix * (omegas[tau] @ omegas[rho] @ bell_vector_int(mu)),
               omegas[rho] @ bell_vector_int(nu))


def _chain_terms(mu: int, nu: int, payload: np.ndarray, omegas):
    """(tau, rho, 2 * term) of payload (x) Bell(mu) (x) Bell(nu); the scaled
    terms sum to 4 * payload (x) bell_vector_int(mu) (x) bell_vector_int(nu).
    Term (tau, rho) is its two pair factors, then pauli(tau) @ payload."""
    for tau, rho, sender, relay in _chain_factors(mu, nu, omegas):
        term = np.multiply.outer(np.multiply.outer(sender, relay), pauli_matrix_int(tau) @ payload)
        yield tau, rho, term.reshape(-1)
