"""Algebraic identity suite: every structural claim checked in one sweep.

Each check reports its worst residual.  Every algebraic check computes on
the integer tables of :mod:`bellproto.algebra`, so its residual is an exact
integer or count and must be exactly zero; only correction-table, which
checks the dense reference engine against the correction lookup, allows
1e-12.  Where a claim holds for every payload, linearity reduces it to a
finite exact set: the Bell-sector decompositions are linear in the payload
amplitudes, so the basis payloads prove them, and outcome uniformity and
mixedness are linear in the payload's density matrix, so a tomographically
complete set proves them.  The suite is what the command-line
``identities`` subcommand runs.  A deliberate fault can be injected into a
copy of the operator tables to demonstrate that the reconstruction checks
actually bite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import (
    LABELS,
    TwoBits,
    apply_omega_to_bell,
    bell_vector_int,
    omega_inner,
    omega_matrix_int,
    pauli_compose,
    pauli_compose_sequence,
    pauli_matrix,
    pauli_matrix_int,
)
from .dense import (
    _chain_terms,
    _swap_terms,
    _teleport_terms,
    bsm,
    chain_register,
    extract_qubit,
    is_maximally_mixed,
    mixture_density,
    wires_first,
)
from .states import TOL_EQ, StateVector, infer_tau, qubit

_BASIS = (np.array([1, 0]), np.array([0, 1]))
# |0>, |1>, sqrt(2)|+> and sqrt(2)|+i> as Gaussian integers, each with its
# squared norm: their projectors span every single-qubit density matrix
# (Ambainis, Mosca, Tapp & de Wolf 2000)
_TOMOGRAPHIC = ((_BASIS[0], 1), (_BASIS[1], 1), (np.array([1, 1]), 2), (np.array([1, 1j]), 2))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _faulted_operators(fault: str | None):
    """The integer omega table, with the named fault injected."""
    omegas = [omega_matrix_int(t).copy() for t in LABELS]
    if fault is None:
        return omegas
    if fault == "omega-sign":
        omegas[3][1, 0] = -omegas[3][1, 0]
        return omegas
    raise ValueError(f"unknown fault {fault!r} (try omega-sign)")


def check_pauli_unitarity() -> IdentityCheck:
    worst = 0
    eye = np.eye(2, dtype=np.int64)
    for lab in LABELS:
        m = pauli_matrix_int(lab)
        worst = max(worst, int(np.abs(m @ m.T - eye).max()))
    return IdentityCheck("pauli-unitarity", float(worst), 0.0)


def check_operator_orthonormality() -> IdentityCheck:
    worst = 0
    for a, b in itertools.product(LABELS, repeat=2):
        target = 4 if a == b else 0
        worst = max(worst, abs(omega_inner(a, b) - target))
    return IdentityCheck("operator-orthonormality", float(worst), 0.0)


def check_operator_completeness() -> IdentityCheck:
    total = sum(omega_matrix_int(t) @ omega_matrix_int(t).T for t in LABELS)
    worst = int(np.abs(total - 4 * np.eye(4, dtype=np.int64)).max())
    return IdentityCheck("operator-completeness", float(worst), 0.0)


def check_bell_orthonormality() -> IdentityCheck:
    worst = 0
    for a, b in itertools.product(LABELS, repeat=2):
        inner = int(bell_vector_int(a) @ bell_vector_int(b))  # scaled by 2
        worst = max(worst, abs(inner - (2 if a == b else 0)))
    return IdentityCheck("bell-orthonormality", float(worst), 0.0)


def check_bell_collapse() -> IdentityCheck:
    bad = sum(1 for t in LABELS if apply_omega_to_bell(t, t) != (0, 1))
    return IdentityCheck("bell-collapse", float(bad), 0.0,
                         note="diagonal action lands on label 0 with phase +1")


def check_bell_action_table() -> IdentityCheck:
    worst = 0
    for rho, mu in itertools.product(LABELS, repeat=2):
        label, phase = apply_omega_to_bell(rho, mu)
        lhs = omega_matrix_int(rho) @ bell_vector_int(mu)
        worst = max(worst, int(np.abs(lhs - phase * bell_vector_int(label)).max()))
    return IdentityCheck("bell-action-table", float(worst), 0.0)


def check_compose_table() -> IdentityCheck:
    worst = 0
    for a, b in itertools.product(LABELS, repeat=2):
        label, phase = pauli_compose(a, b)
        lhs = pauli_matrix_int(a) @ pauli_matrix_int(b)
        worst = max(worst, int(np.abs(lhs - phase * pauli_matrix_int(label)).max()))
    return IdentityCheck("compose-table", float(worst), 0.0)


def _rebuild_residual(terms, reference: np.ndarray) -> int:
    """Worst entry of the summed scaled terms minus the scaled reference."""
    return int(np.abs(sum(term[-1] for term in terms) - reference).max())


def check_chain_decomposition(fault: str | None = None) -> IdentityCheck:
    omegas = _faulted_operators(fault)
    worst = max(
        _rebuild_residual(_chain_terms(mu, nu, payload, omegas), 4 * np.kron(
            payload, np.kron(bell_vector_int(mu), bell_vector_int(nu))))
        for mu, nu in itertools.product(LABELS, repeat=2) for payload in _BASIS)
    return IdentityCheck("chain-decomposition", float(worst), 0.0,
                         note="16 sector terms rebuild the five-wire register")


def check_swap_decomposition(fault: str | None = None) -> IdentityCheck:
    omegas = _faulted_operators(fault)
    worst = max(
        _rebuild_residual(_swap_terms(mu, nu, omegas),
                          2 * np.kron(bell_vector_int(mu), bell_vector_int(nu)))
        for mu, nu in itertools.product(LABELS, repeat=2))
    return IdentityCheck("swap-decomposition", float(worst), 0.0)


def check_teleport_decomposition(fault: str | None = None) -> IdentityCheck:
    omegas = _faulted_operators(fault)
    worst = max(
        _rebuild_residual(_teleport_terms(channel, payload, omegas),
                          2 * np.kron(payload, bell_vector_int(channel)))
        for channel in LABELS for payload in _BASIS)
    return IdentityCheck("teleport-decomposition", float(worst), 0.0)


def exact_bell_distribution(int_amplitudes: np.ndarray, norm_sq: int,
                            pair: tuple[int, int]) -> tuple[Fraction, ...]:
    """Bell-outcome distribution by integer arithmetic, as exact fractions.

    ``int_amplitudes`` are the state amplitudes multiplied by
    sqrt(norm_sq) so that they are integers or Gaussian integers; every
    Bell projection then has a dyadic rational probability computed
    without rounding.
    """
    rows = np.stack([bell_vector_int(m) for m in LABELS])
    comp = rows @ wires_first(int_amplitudes, pair)  # scaled by sqrt(2) * sqrt(norm_sq)
    return tuple(Fraction(int(np.vdot(c, c).real), 2 * norm_sq) for c in comp)


def check_swap_uniformity() -> IdentityCheck:
    quarter = Fraction(1, 4)
    bad = 0
    for mu, nu in itertools.product(LABELS, repeat=2):
        ints = np.kron(bell_vector_int(mu), bell_vector_int(nu))
        probs = exact_bell_distribution(ints, 4, (1, 2))
        bad += sum(1 for p in probs if p != quarter)
    return IdentityCheck("swap-uniformity", float(bad), 0.0,
                         note="relay outcome distribution is 1/4 as an exact rational, "
                              "all 16 channel pairs")


def check_teleport_uniformity() -> IdentityCheck:
    quarter = Fraction(1, 4)
    bad = 0
    for channel in LABELS:
        for payload, norm_sq in _TOMOGRAPHIC:
            ints = np.kron(payload, bell_vector_int(channel))
            probs = exact_bell_distribution(ints, 2 * norm_sq, (0, 1))
            bad += sum(1 for p in probs if p != quarter)
    return IdentityCheck("teleport-uniformity", float(bad), 0.0,
                         note="1/4 as an exact rational on a tomographically complete "
                              "payload set, so for every payload")


def _twirl_residual(vectors, operator) -> float:
    """Worst entry of dim * sum_t (op_t v)(op_t v)^dagger - 4 |v|^2 I over the
    integer-scaled (v, |v|^2), op_t = operator(t) for the four labels t: zero
    exactly when the uniform mixture sends every v to the maximally mixed state."""
    worst = 0.0
    for v, norm_sq in vectors:
        moved = [operator(t) @ v for t in LABELS]
        total = sum(np.outer(m, m.conj()) for m in moved)
        worst = max(worst, float(np.abs(v.size * total - 4 * norm_sq * np.eye(v.size)).max()))
    return worst


def check_swap_mixedness() -> IdentityCheck:
    bells = [(bell_vector_int(mu), 2) for mu in LABELS]
    return IdentityCheck("swap-mixedness", _twirl_residual(bells, omega_matrix_int), 0.0,
                         note="outcome-averaged pair state is I/4")


def check_teleport_mixedness() -> IdentityCheck:
    return IdentityCheck("teleport-mixedness", _twirl_residual(_TOMOGRAPHIC, pauli_matrix_int),
                         0.0, note="outcome-averaged moved qubit is I/2")


def otp_certify(labels: Sequence[int], probs: Sequence[float]) -> bool:
    """Whether a weighted operator set is a perfect single-qubit pad.

    The private-quantum-channel criterion (Ambainis, Mosca, Tapp & de Wolf
    2000): the induced mixture sends a tomographically complete input set
    to the maximally mixed state.  The complex-axis probe matters: {I, ZX}
    passes every real-amplitude input and fails only there.
    """
    if len(labels) != len(probs) or not labels:
        raise ValueError("labels and probs must be equal-length and non-empty")
    return all(
        is_maximally_mixed(mixture_density(
            [StateVector(pauli_matrix(lab) @ v / np.sqrt(norm_sq)) for lab in labels], probs))
        for v, norm_sq in _TOMOGRAPHIC)


def check_pad_certification() -> IdentityCheck:
    wrong = 0
    for r in range(1, 5):
        for subset in itertools.combinations(LABELS, r):
            cert = otp_certify(subset, [1.0 / len(subset)] * len(subset))
            should = set(subset) == set(LABELS)
            wrong += int(cert != should)
    return IdentityCheck("pad-certification", float(wrong), 0.0,
                         note="exactly the uniform four-operator set certifies")


def check_correction_identity() -> IdentityCheck:
    bad = 0
    phases = []
    for aa, cc in itertools.product(LABELS, repeat=2):
        tau = infer_tau(TwoBits.from_label(aa), TwoBits.from_label(cc), 0, 0)
        label, phase = pauli_compose_sequence([aa, cc, tau])
        phases.append(phase)
        bad += int(label != 0)
    negatives = sum(1 for p in phases if p < 0)
    return IdentityCheck("correction-identity", float(bad), 0.0,
                         note=f"product collapses to identity; {negatives}/16 cells "
                              "carry phase -1")


def check_correction_table() -> IdentityCheck:
    probe = qubit(0.48, complex(0.6, 0.64))
    worst = 0.0
    for mu, nu in itertools.product(LABELS, repeat=2):
        chain = chain_register(mu, nu, probe)
        for cc in LABELS:  # one relay measurement serves every sender outcome
            _, swapped = bsm(chain, (2, 3), force=cc)
            for aa in LABELS:
                _, state = bsm(swapped, (0, 1), force=aa)
                moved = extract_qubit(state, 4)
                tau = infer_tau(TwoBits.from_label(aa), TwoBits.from_label(cc), mu, nu)
                expected = pauli_matrix(tau) @ probe.amplitudes
                overlap = abs(np.vdot(expected, moved.amplitudes))
                worst = max(worst, abs(1.0 - overlap))
    return IdentityCheck("correction-table", worst, TOL_EQ,
                         note="forced-outcome simulation matches the lookup "
                              "for all 256 label combinations")


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
        line = f"{r.name:<{width}}  {status}  max-residual {r.residual:.3e}"
        if r.note:
            line += f"  ({r.note})"
        lines.append(line)
    return "\n".join(lines)
