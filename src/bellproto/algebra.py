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
the tests re-derive every entry from the matrices themselves.  Everything
in this module is immutable after import and safe to share across threads.
"""

from __future__ import annotations

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
        return TwoBits(self.hi ^ other.hi, self.lo ^ other.lo)

    def __str__(self) -> str:
        return f"{self.hi}{self.lo}"


PAIRS = tuple(TwoBits(label >> 1, label & 1) for label in LABELS)  # indexed by label


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
    _check_label(label)
    return label & 1


def label_from_zx(z: int, x: int) -> int:
    """Label of the product Z^z @ X^x (phase exactly +1).

    Under the message/signature reading of a bit pair, ``z`` carries the
    message bit and ``x`` the signature bit: both values of z map to the
    same x-column, so announcing x reveals nothing about z.
    """
    _check_bit(z)
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
