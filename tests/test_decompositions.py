"""Bell-sector decompositions checked against independent references.

The references here are deliberately primitive: raw tensor products and
sequential Bell projections computed inline, so the decomposition code is
never trusted to test itself.
"""

import itertools

import numpy as np
import pytest

from bellproto import dense
from bellproto.algebra import LABELS, apply_omega_to_bell, bell_vector, pauli_matrix
from bellproto.dense import (
    bell_state,
    basis_state,
    chain_register,
    convention_sign_gaps,
    decompose_chain,
    decompose_swap,
    decompose_teleport,
    make_register,
)
from bellproto.states import Rng

TOL = 1e-12


def payloads(count=20, seed=2718):
    rng = Rng(seed)
    out = [basis_state("0"), basis_state("1")]
    out.extend(rng.unit_qubit() for _ in range(count - 2))
    return out


def project_pair(amps, n, pair, label):
    """Inline Bell projection, independent of the engine implementation."""
    t = amps.reshape((2,) * n)
    t = np.moveaxis(t, pair, (0, 1)).reshape(4, -1)
    coeff = bell_vector(label) @ t
    full = np.outer(bell_vector(label), coeff).reshape((2, 2) + (2,) * (n - 2))
    return np.moveaxis(full, (0, 1), pair).reshape(-1)


@pytest.mark.parametrize("mu,nu", list(itertools.product(LABELS, repeat=2)))
def test_chain_terms_rebuild_register(mu, nu):
    for probe in payloads(20):
        ref = chain_register(mu, nu, probe).amplitudes
        total = np.zeros_like(ref)
        for _tau, _rho, term in decompose_chain(mu, nu, probe):
            total += term.amplitudes
        assert np.max(np.abs(total / 4.0 - ref)) < TOL


def test_chain_identity_sector_is_plain_product():
    terms = {(tau, rho): term for tau, rho, term in decompose_chain(0, 0, basis_state("0"))}
    expected = np.kron(
        np.kron(bell_vector(0), bell_vector(0)), basis_state("0").amplitudes
    )
    assert np.allclose(terms[(0, 0)].amplitudes, expected, atol=1e-15)


def test_chain_terms_match_sequential_projections():
    probe = payloads(3, seed=5)[2]
    for mu, nu in itertools.product(LABELS, repeat=2):
        state = chain_register(mu, nu, probe)
        for tau, rho, term in decompose_chain(mu, nu, probe):
            aa = tau ^ rho ^ mu
            cc = rho ^ nu
            projected = project_pair(state.amplitudes, 5, (2, 3), cc)
            projected = 4.0 * project_pair(projected, 5, (0, 1), aa)
            assert np.max(np.abs(projected - term.amplitudes)) < TOL


def test_chain_terms_are_mutually_orthogonal():
    probe = payloads(3, seed=8)[2]
    terms = [t.amplitudes for _, _, t in decompose_chain(1, 2, probe)]
    for i in range(16):
        for j in range(i + 1, 16):
            assert abs(np.vdot(terms[i], terms[j])) < TOL


@pytest.mark.parametrize("mu,nu", list(itertools.product(LABELS, repeat=2)))
def test_swap_terms_rebuild_pair_product(mu, nu):
    ref = make_register([bell_state(mu), bell_state(nu)]).amplitudes
    total = np.zeros_like(ref)
    for _rho, term in decompose_swap(mu, nu):
        total += term.amplitudes
    assert np.max(np.abs(total / 2.0 - ref)) < TOL


@pytest.mark.parametrize("channel", LABELS)
def test_teleport_terms_rebuild_product(channel):
    for probe in payloads(20, seed=31415):
        ref = make_register([probe, bell_state(channel)]).amplitudes
        total = np.zeros_like(ref)
        for _tau, term in decompose_teleport(channel, probe):
            total += term.amplitudes
        assert np.max(np.abs(total / 2.0 - ref)) < TOL


def test_teleport_term_labels_follow_xor():
    probe = payloads(3, seed=2)[2]
    for channel in LABELS:
        for tau, term in decompose_teleport(channel, probe):
            # the moved factor carries pauli(tau) applied to the payload
            t = term.amplitudes.reshape(4, 2)
            moved = t[np.argmax(np.abs(t).sum(axis=1))]
            moved = moved / np.linalg.norm(moved)
            expected = pauli_matrix(tau) @ probe.amplitudes
            assert abs(abs(np.vdot(moved, expected)) - 1.0) < 1e-9


def test_factorwise_operator_phases_disagree_on_recorded_cells():
    """The naive operator-ordered signs are wrong on a fixed cell set.

    Composing the action tables factor by factor predicts term signs that
    disagree with the exact projector signs on 6/16 teleport sectors,
    24/64 swap sectors and 120/256 chain sectors.  This is recorded, not
    repaired: the decompositions carry explicit sign tables instead.
    """
    gaps = convention_sign_gaps()
    assert len(gaps["teleport"]) == 6
    assert len(gaps["swap"]) == 24
    assert len(gaps["chain"]) == 120
    # spot fact behind the pattern: the action of label 3 on label 0 is odd
    assert apply_omega_to_bell(3, 0).phase == -1


def test_diagonal_chain_cells_are_gap_free():
    gaps = set(convention_sign_gaps()["chain"])
    for aa, cc in itertools.product(LABELS, repeat=2):
        if aa == 0 and cc == 0:
            assert (0, 0, aa, cc) not in gaps


def _phase(rho, mu):
    return apply_omega_to_bell(rho, mu).phase


def _exact_teleport(channel, aa):
    return 1 if dense._TELEPORT_SIGNS[4 * channel + aa] == "+" else -1


def _exact_swap(mu, nu, cc):
    return 1 if dense._SWAP_SIGNS[16 * mu + 4 * nu + cc] == "+" else -1


def test_gap_record_matches_its_factorwise_definition():
    """Each recorded cell is one where the literal exact sign differs from
    the product of action-table phases, composed one factor at a time."""
    tele = tuple((chan, aa) for chan, aa in itertools.product(LABELS, repeat=2)
                 if _exact_teleport(chan, aa) != _phase(aa ^ chan, chan))
    swap = tuple((mu, nu, cc) for mu, nu, cc in itertools.product(LABELS, repeat=3)
                 if _exact_swap(mu, nu, cc) != _phase(cc ^ nu, mu) * _phase(cc ^ nu, nu))
    chain = []
    for mu, nu, aa, cc in itertools.product(LABELS, repeat=4):
        rho = cc ^ nu
        tau = aa ^ rho ^ mu
        step1 = apply_omega_to_bell(rho, mu)
        predicted = step1.phase * _phase(tau, step1.label) * _phase(rho, nu)
        exact = _exact_swap(mu, nu, cc) * _exact_teleport(mu ^ nu ^ cc, aa)
        if exact != predicted:
            chain.append((mu, nu, aa, cc))
    assert convention_sign_gaps() == {"teleport": tele, "swap": swap, "chain": tuple(chain)}


def test_chain_gap_is_exactly_one_split_gap():
    """A chain cell is a gap when its swap cell or its teleport cell over
    the swapped pair is one, but not both."""
    gaps = convention_sign_gaps()
    tele, swap = set(gaps["teleport"]), set(gaps["swap"])
    expected = tuple(
        (mu, nu, aa, cc) for mu, nu, aa, cc in itertools.product(LABELS, repeat=4)
        if ((mu, nu, cc) in swap) != ((mu ^ nu ^ cc, aa) in tele)
    )
    assert gaps["chain"] == expected
