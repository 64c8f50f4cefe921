"""Algebraic identity suite: every structural claim checked in one sweep.

Each check reports its worst residual; integer-backed checks must come out
exactly zero, floating-point reconstructions must stay below 1e-12.  The
suite is what the command-line ``identities`` subcommand runs and what the
acceptance tests assert on.  A deliberate fault can be injected into a
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
    omega_matrix,
    omega_matrix_int,
    pauli_compose,
    pauli_compose_sequence,
    pauli_matrix,
    pauli_matrix_int,
)
from .states import (
    Rng,
    StateVector,
    TOL_EQ,
    bell_state,
    bsm,
    bsm_probabilities,
    chain_register,
    decompose_chain,
    decompose_swap,
    decompose_teleport,
    extract_qubit,
    infer_tau,
    is_maximally_mixed,
    make_register,
    mixture_density,
    qubit,
    wires_first,
)

_PROBE_SEED = 20240917


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _probes(count: int = 6) -> list[StateVector]:
    rng = Rng(_PROBE_SEED)
    probes = [qubit(1, 0), qubit(0, 1), qubit(1 / np.sqrt(2), 1 / np.sqrt(2))]
    probes.extend(rng.unit_qubit() for _ in range(count))
    return probes


def _faulted_operators(fault: str | None):
    """The omega table, with the named fault injected."""
    omegas = [omega_matrix(t).copy() for t in LABELS]
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


def check_chain_decomposition(fault: str | None = None) -> IdentityCheck:
    omegas = _faulted_operators(fault)
    worst = 0.0
    for mu, nu in itertools.product(LABELS, repeat=2):
        for probe in _probes(3):
            ref = chain_register(mu, nu, probe).amplitudes
            total = np.zeros_like(ref)
            for _tau, _rho, term in decompose_chain(mu, nu, probe, omegas=omegas):
                total += term.amplitudes
            worst = max(worst, float(np.abs(total / 4.0 - ref).max()))
    return IdentityCheck("chain-decomposition", worst, TOL_EQ,
                         note="16 sector terms rebuild the five-wire register")


def check_swap_decomposition(fault: str | None = None) -> IdentityCheck:
    omegas = _faulted_operators(fault)
    worst = 0.0
    for mu, nu in itertools.product(LABELS, repeat=2):
        ref = make_register([bell_state(mu), bell_state(nu)]).amplitudes
        total = np.zeros_like(ref)
        for _rho, term in decompose_swap(mu, nu, omegas=omegas):
            total += term.amplitudes
        worst = max(worst, float(np.abs(total / 2.0 - ref).max()))
    return IdentityCheck("swap-decomposition", worst, TOL_EQ)


def check_teleport_decomposition(fault: str | None = None) -> IdentityCheck:
    omegas = _faulted_operators(fault)
    worst = 0.0
    for channel in LABELS:
        for probe in _probes(3):
            ref = make_register([probe, bell_state(channel)]).amplitudes
            total = np.zeros_like(ref)
            for _tau, term in decompose_teleport(channel, probe, omegas=omegas):
                total += term.amplitudes
            worst = max(worst, float(np.abs(total / 2.0 - ref).max()))
    return IdentityCheck("teleport-decomposition", worst, TOL_EQ)


def exact_bell_distribution(int_amplitudes: np.ndarray, norm_sq: int,
                            pair: tuple[int, int]) -> tuple[Fraction, ...]:
    """Bell-outcome distribution by integer arithmetic, as exact fractions.

    ``int_amplitudes`` are the state amplitudes multiplied by
    sqrt(norm_sq) so that they are integers; every Bell projection then
    has a dyadic rational probability computed without rounding.
    """
    rows = np.stack([bell_vector_int(m) for m in LABELS])
    comp = rows @ wires_first(int_amplitudes, pair)  # scaled by sqrt(2) * sqrt(norm_sq)
    return tuple(
        Fraction(int((comp[m].astype(object) ** 2).sum()), 2 * norm_sq)
        for m in LABELS
    )


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
        for bit in (0, 1):
            payload = np.array([1 - bit, bit], dtype=np.int64)
            ints = np.kron(payload, bell_vector_int(channel))
            probs = exact_bell_distribution(ints, 2, (0, 1))
            bad += sum(1 for p in probs if p != quarter)
    worst_random = 0.0
    for channel in LABELS:
        for probe in _probes(4):
            state = make_register([probe, bell_state(channel)])
            probs = bsm_probabilities(state, (0, 1))
            worst_random = max(worst_random, float(np.abs(probs - 0.25).max()))
    residual = float(bad) + (worst_random if worst_random > TOL_EQ else 0.0)
    return IdentityCheck("teleport-uniformity", residual, 0.0,
                         note="1/4 as an exact rational for basis payloads, "
                              "within 1e-12 for generic ones")


def check_swap_mixedness() -> IdentityCheck:
    worst = 0.0
    eye4 = np.eye(4) / 4.0
    for mu in LABELS:
        parts = [StateVector(omega_matrix(rho) @ bell_state(mu).amplitudes)
                 for rho in LABELS]
        dm = mixture_density(parts, [0.25] * 4)
        worst = max(worst, float(np.abs(dm.matrix - eye4).max()))
    return IdentityCheck("swap-mixedness", worst, TOL_EQ,
                         note="outcome-averaged pair state is I/4")


def check_teleport_mixedness() -> IdentityCheck:
    worst = 0.0
    eye2 = np.eye(2) / 2.0
    for probe in _probes(8):
        parts = [StateVector(pauli_matrix(t) @ probe.amplitudes) for t in LABELS]
        dm = mixture_density(parts, [0.25] * 4)
        worst = max(worst, float(np.abs(dm.matrix - eye2).max()))
    return IdentityCheck("teleport-mixedness", worst, TOL_EQ,
                         note="outcome-averaged moved qubit is I/2")


_TOMOGRAPHIC_INPUTS = (
    qubit(1, 0),
    qubit(0, 1),
    qubit(1 / np.sqrt(2), 1 / np.sqrt(2)),
    qubit(1 / np.sqrt(2), 1j / np.sqrt(2)),
)


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
            [StateVector(pauli_matrix(lab) @ probe.amplitudes) for lab in labels], probs))
        for probe in _TOMOGRAPHIC_INPUTS)


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
    for mu, nu, aa, cc in itertools.product(LABELS, repeat=4):
        state = chain_register(mu, nu, probe)
        _, state = bsm(state, (2, 3), force=cc)
        _, state = bsm(state, (0, 1), force=aa)
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
