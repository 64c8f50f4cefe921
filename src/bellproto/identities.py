"""Algebraic identity suite: every structural claim checked in one sweep.

Each check reports its worst residual.  Every check computes on the
integer tables of :mod:`bellproto.algebra`, in integers and exact
fractions, so its residual is an exact integer, rational or count and it
passes only at exactly zero.  Where a claim holds for every payload,
linearity reduces it to a finite exact set: the Bell-sector decompositions
are linear in the payload amplitudes, so the basis payloads prove them,
and outcome uniformity and mixedness are linear in the payload's density
matrix, so a tomographically complete set proves them.  The suite is what
the command-line ``identities`` subcommand runs.  A deliberate fault can
be injected into a copy of the operator tables to demonstrate that the
reconstruction checks actually bite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import (
    _OMEGA_INT,
    _PAULI_INT,
    LABELS,
    TwoBits,
    _chain_factors,
    _chain_terms,
    _swap_terms,
    _teleport_terms,
    apply_omega_to_bell,
    bell_vector_int,
    omega_inner,
    omega_matrix_int,
    pauli_compose,
    pauli_compose_sequence,
    pauli_matrix_int,
)
from .states import TOL_EQ, infer_tau

_BASIS = (np.array([1, 0]), np.array([0, 1]))
# |0>, |1>, sqrt(2)|+> and sqrt(2)|+i> as Gaussian integers, each with its
# squared norm: their projectors span every single-qubit density matrix
# (Ambainis, Mosca, Tapp & de Wolf 2000)
_TOMOGRAPHIC = ((_BASIS[0], 1), (_BASIS[1], 1), (np.array([1, 1]), 2), (np.array([1, 1j]), 2))
_UNIFORM = (Fraction(1, 4),) * 4


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: int | Fraction
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual == 0


def _faulted_operators(fault: str | None):
    """The integer omega table, with the named fault injected."""
    omegas = [omega_matrix_int(t).copy() for t in LABELS]
    if fault == "omega-sign":
        omegas[3][1, 0] = -omegas[3][1, 0]
    elif fault is not None:
        raise ValueError(f"unknown fault {fault!r} (try omega-sign)")
    return omegas


def check_pauli_unitarity() -> IdentityCheck:
    worst = max(int(np.abs(m @ m.T - np.eye(2, dtype=np.int64)).max())
                for m in map(pauli_matrix_int, LABELS))
    return IdentityCheck("pauli-unitarity", worst)


def check_operator_orthonormality() -> IdentityCheck:
    worst = max(abs(omega_inner(a, b) - (4 if a == b else 0))
                for a, b in itertools.product(LABELS, repeat=2))
    return IdentityCheck("operator-orthonormality", worst)


def check_operator_completeness() -> IdentityCheck:
    total = sum(omega_matrix_int(t) @ omega_matrix_int(t).T for t in LABELS)
    worst = int(np.abs(total - 4 * np.eye(4, dtype=np.int64)).max())
    return IdentityCheck("operator-completeness", worst)


def check_bell_orthonormality() -> IdentityCheck:
    worst = max(abs(int(bell_vector_int(a) @ bell_vector_int(b)) - (2 if a == b else 0))
                for a, b in itertools.product(LABELS, repeat=2))  # scaled by 2
    return IdentityCheck("bell-orthonormality", worst)


def check_bell_collapse() -> IdentityCheck:
    bad = sum(1 for t in LABELS if apply_omega_to_bell(t, t) != (0, 1))
    return IdentityCheck("bell-collapse", bad,
                         note="diagonal action lands on label 0 with phase +1")


def check_bell_action_table() -> IdentityCheck:
    worst = 0
    for rho, mu in itertools.product(LABELS, repeat=2):
        label, phase = apply_omega_to_bell(rho, mu)
        lhs = omega_matrix_int(rho) @ bell_vector_int(mu)
        worst = max(worst, int(np.abs(lhs - phase * bell_vector_int(label)).max()))
    return IdentityCheck("bell-action-table", worst)


def check_compose_table() -> IdentityCheck:
    worst = 0
    for a, b in itertools.product(LABELS, repeat=2):
        label, phase = pauli_compose(a, b)
        lhs = pauli_matrix_int(a) @ pauli_matrix_int(b)
        worst = max(worst, int(np.abs(lhs - phase * pauli_matrix_int(label)).max()))
    return IdentityCheck("compose-table", worst)


def _rebuild_residual(terms, reference: np.ndarray) -> int:
    """Worst entry of the summed scaled terms minus the scaled reference."""
    return int(np.abs(sum(term[-1] for term in terms) - reference).max())


def check_chain_decomposition(fault: str | None = None) -> IdentityCheck:
    omegas = _faulted_operators(fault)
    worst = max(
        _rebuild_residual(_chain_terms(mu, nu, payload, omegas), 4 * np.kron(
            payload, np.kron(bell_vector_int(mu), bell_vector_int(nu))))
        for mu, nu in itertools.product(LABELS, repeat=2) for payload in _BASIS)
    return IdentityCheck("chain-decomposition", worst,
                         note="16 sector terms rebuild the five-wire register")


def check_swap_decomposition(fault: str | None = None) -> IdentityCheck:
    omegas = _faulted_operators(fault)
    worst = max(
        _rebuild_residual(_swap_terms(mu, nu, omegas),
                          2 * np.kron(bell_vector_int(mu), bell_vector_int(nu)))
        for mu, nu in itertools.product(LABELS, repeat=2))
    return IdentityCheck("swap-decomposition", worst)


def check_teleport_decomposition(fault: str | None = None) -> IdentityCheck:
    omegas = _faulted_operators(fault)
    worst = max(
        _rebuild_residual(_teleport_terms(channel, payload, omegas),
                          2 * np.kron(payload, bell_vector_int(channel)))
        for channel in LABELS for payload in _BASIS)
    return IdentityCheck("teleport-decomposition", worst)


def exact_bell_distribution(int_amplitudes: np.ndarray, norm_sq: int,
                            pair: tuple[int, int]) -> tuple[Fraction, ...]:
    """Bell-outcome distribution by integer arithmetic, as exact fractions.

    ``int_amplitudes`` are the state amplitudes multiplied by
    sqrt(norm_sq) so that they are integers or Gaussian integers; every
    Bell projection then has a dyadic rational probability computed
    without rounding.  Wire 0 is the most significant bit of the index.
    """
    n = int_amplitudes.size.bit_length() - 1
    pair_first = np.moveaxis(int_amplitudes.reshape((2,) * n), pair, (0, 1)).reshape(4, -1)
    rows = np.stack([bell_vector_int(m) for m in LABELS])
    comp = rows @ pair_first  # scaled by sqrt(2) * sqrt(norm_sq)
    return tuple(Fraction(int(np.vdot(c, c).real), 2 * norm_sq) for c in comp)


def check_swap_uniformity() -> IdentityCheck:
    bad = 0
    for mu, nu in itertools.product(LABELS, repeat=2):
        ints = np.kron(bell_vector_int(mu), bell_vector_int(nu))
        bad += sum(p != Fraction(1, 4) for p in exact_bell_distribution(ints, 4, (1, 2)))
    return IdentityCheck("swap-uniformity", bad,
                         note="relay outcome distribution is 1/4 as an exact rational, "
                              "all 16 channel pairs")


def check_teleport_uniformity() -> IdentityCheck:
    bad = 0
    for channel in LABELS:
        for payload, norm_sq in _TOMOGRAPHIC:
            ints = np.kron(payload, bell_vector_int(channel))
            probs = exact_bell_distribution(ints, 2 * norm_sq, (0, 1))
            bad += sum(p != Fraction(1, 4) for p in probs)
    return IdentityCheck("teleport-uniformity", bad,
                         note="1/4 as an exact rational on a tomographically complete "
                              "payload set, so for every payload")


def _twirl_residual(vectors, operators, weights) -> Fraction:
    """Worst entry of dim * sum_t w_t (O_t v)(O_t v)^dagger - |v|^2 I over the
    integer-scaled (v, |v|^2), as an exact rational: zero exactly when the
    mixture of the operators O_t with weights w_t sends every v to the
    maximally mixed state."""
    scale = math.lcm(*(w.denominator for w in weights))
    counts = np.array([w.numerator * (scale // w.denominator) for w in weights], dtype=object)
    worst = 0
    for v, norm_sq in vectors:
        moved = np.stack([op @ v for op in operators])
        outers = (moved[:, :, None] * moved[:, None, :].conj()).reshape(len(moved), -1)
        # Gaussian-integer entries: weigh the real and imaginary parts apart,
        # in Python ints, so no weight is rounded
        gap = v.size * counts.dot(np.hstack([outers.real, outers.imag]).astype(np.int64))
        gap[:v.size * v.size:v.size + 1] -= scale * norm_sq
        worst = max(worst, *map(abs, gap))
    return Fraction(worst, scale)


def check_swap_mixedness() -> IdentityCheck:
    bells = [(bell_vector_int(mu), 2) for mu in LABELS]
    return IdentityCheck("swap-mixedness", _twirl_residual(bells, _OMEGA_INT, _UNIFORM),
                         note="outcome-averaged pair state is I/4")


def check_teleport_mixedness() -> IdentityCheck:
    return IdentityCheck("teleport-mixedness",
                         _twirl_residual(_TOMOGRAPHIC, _PAULI_INT, _UNIFORM),
                         note="outcome-averaged moved qubit is I/2")


def otp_certify(labels: Sequence[int], probs: Sequence[float | Fraction]) -> bool:
    """Whether a weighted operator set is a perfect single-qubit pad.

    The private-quantum-channel criterion (Ambainis, Mosca, Tapp & de Wolf
    2000): the induced mixture sends a tomographically complete input set
    to the maximally mixed state.  The complex-axis probe matters: {I, ZX}
    passes every real-amplitude input and fails only there.  The
    probabilities must be non-negative and sum to 1 within 1e-12; each then
    counts at its exact value, so a float that is off a pad by rounding
    does not certify.
    """
    if len(labels) != len(probs) or not labels:
        raise ValueError("labels and probs must be equal-length and non-empty")
    weights = [Fraction(p) for p in probs]
    if any(w < 0 for w in weights):
        raise ValueError(f"probabilities must be non-negative, got {list(probs)}")
    if abs(sum(weights) - 1) > TOL_EQ:
        raise ValueError(f"probabilities sum to {float(sum(weights))}, not 1")
    return _twirl_residual(_TOMOGRAPHIC, [pauli_matrix_int(lab) for lab in labels], weights) == 0


def check_pad_certification() -> IdentityCheck:
    wrong = sum(otp_certify(subset, [Fraction(1, r)] * r) != (r == 4)
                for r in range(1, 5) for subset in itertools.combinations(LABELS, r))
    return IdentityCheck("pad-certification", wrong,
                         note="exactly the uniform four-operator set certifies")


def check_correction_identity() -> IdentityCheck:
    bad = negatives = 0
    for aa, cc in itertools.product(LABELS, repeat=2):
        tau = infer_tau(TwoBits.from_label(aa), TwoBits.from_label(cc), 0, 0)
        label, phase = pauli_compose_sequence([aa, cc, tau])
        bad += label != 0
        negatives += phase < 0
    return IdentityCheck("correction-identity", bad,
                         note=f"product collapses to identity; {negatives}/16 cells "
                              "carry phase -1")


def _equal_up_to_sign(vector: np.ndarray, target: np.ndarray) -> bool:
    return np.array_equal(vector, target) or np.array_equal(vector, -target)


def check_correction_table() -> IdentityCheck:
    """Chain term (tau, rho) has its sender pair in Bell(aa) and its relay pair
    in Bell(cc), up to sign, and carries pauli(tau) @ payload, so forcing
    (aa, cc) leaves the receiver pauli(tau) @ payload: the lookup must give
    that tau.  The residual counts the cells where it does not."""
    bad = 0
    for mu, nu in itertools.product(LABELS, repeat=2):
        for tau, rho, sender, relay in _chain_factors(mu, nu, _OMEGA_INT):
            aa, cc = tau ^ rho ^ mu, rho ^ nu
            lookup = infer_tau(TwoBits.from_label(aa), TwoBits.from_label(cc), mu, nu)
            bad += not (_equal_up_to_sign(sender, bell_vector_int(aa))
                        and _equal_up_to_sign(relay, bell_vector_int(cc)) and lookup == tau)
    return IdentityCheck("correction-table", bad,
                         note="each chain term's sender and relay pairs are Bell(aa) and "
                              "Bell(cc) up to sign and the lookup gives its tau, in "
                              "integers, for all 256 terms")


def run_identity_suite(fault: str | None = None) -> list[IdentityCheck]:
    return [
        check_pauli_unitarity(),
        check_operator_orthonormality(),
        check_operator_completeness(),
        check_bell_orthonormality(),
        check_bell_collapse(),
        check_bell_action_table(),
        check_compose_table(),
        check_chain_decomposition(fault),
        check_swap_decomposition(fault),
        check_teleport_decomposition(fault),
        check_swap_uniformity(),
        check_teleport_uniformity(),
        check_swap_mixedness(),
        check_teleport_mixedness(),
        check_pad_certification(),
        check_correction_identity(),
        check_correction_table(),
    ]


def format_suite(results: list[IdentityCheck]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {status}  max-residual {float(r.residual):.3e}"
        if r.note:
            line += f"  ({r.note})"
        lines.append(line)
    return "\n".join(lines)
