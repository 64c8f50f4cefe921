import itertools

import numpy as np
import pytest

from bellproto.algebra import (
    LABELS,
    SignedLabel,
    TwoBits,
    apply_omega_to_bell,
    bell_vector,
    bell_vector_int,
    label_from_zx,
    omega_inner,
    omega_matrix_int,
    pauli_compose,
    pauli_compose_sequence,
    pauli_matrix,
    pauli_matrix_int,
    x_bit,
)

# frozen operator displays; the identity, X, Z and their real product ZX
EXPECTED_PAULI = {
    0: [[1, 0], [0, 1]],
    1: [[0, 1], [1, 0]],
    2: [[1, 0], [0, -1]],
    3: [[0, 1], [-1, 0]],
}
EXPECTED_OMEGA_1 = [
    [0, 1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
]
EXPECTED_OMEGA_3 = [
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, -1, 0],
]


@pytest.mark.parametrize("label", LABELS)
def test_pauli_matrices_match_frozen_displays(label):
    assert pauli_matrix_int(label).tolist() == EXPECTED_PAULI[label]


def test_label_three_is_z_times_x():
    assert np.array_equal(
        pauli_matrix_int(3), pauli_matrix_int(2) @ pauli_matrix_int(1)
    )


@pytest.mark.parametrize("label", LABELS)
def test_pauli_unitarity(label):
    m = pauli_matrix(label)
    assert np.array_equal(m @ m.T, np.eye(2))


def test_omega_displays():
    assert np.array_equal(omega_matrix_int(0), np.eye(4, dtype=np.int64))
    assert omega_matrix_int(1).tolist() == EXPECTED_OMEGA_1
    assert np.array_equal(omega_matrix_int(2), np.diag([1, -1, 1, -1]))
    assert omega_matrix_int(3).tolist() == EXPECTED_OMEGA_3


@pytest.mark.parametrize("label", LABELS)
def test_omega_is_kron_of_identity_and_pauli(label):
    assert np.array_equal(
        omega_matrix_int(label), np.kron(np.eye(2, dtype=np.int64), pauli_matrix_int(label))
    )


def test_omega_traces():
    assert np.trace(omega_matrix_int(0)) == 4
    for label in (1, 2, 3):
        assert np.trace(omega_matrix_int(label)) == 0


@pytest.mark.parametrize("a,b", list(itertools.product(LABELS, repeat=2)))
def test_omega_inner_is_four_delta(a, b):
    assert omega_inner(a, b) == (4 if a == b else 0)


def test_omega_completeness_sum():
    total = sum(omega_matrix_int(t) @ omega_matrix_int(t).T for t in LABELS)
    assert np.array_equal(total, 4 * np.eye(4, dtype=np.int64))


@pytest.mark.parametrize("mu,nu", list(itertools.product(LABELS, repeat=2)))
def test_bell_orthonormality(mu, nu):
    inner = float(bell_vector(mu) @ bell_vector(nu))
    assert inner == pytest.approx(1.0 if mu == nu else 0.0, abs=1e-15)


def test_bell_amplitudes_are_scaled_integers():
    for label in LABELS:
        ints = bell_vector_int(label)
        assert set(np.unique(ints)).issubset({-1, 0, 1})
        assert np.allclose(bell_vector(label) * np.sqrt(2), ints)


@pytest.mark.parametrize("rho", LABELS)
def test_diagonal_action_collapses_to_label_zero(rho):
    assert apply_omega_to_bell(rho, rho) == SignedLabel(0, 1)


@pytest.mark.parametrize("rho,mu", list(itertools.product(LABELS, repeat=2)))
def test_bell_action_table_against_matrix_oracle(rho, mu):
    label, phase = apply_omega_to_bell(rho, mu)
    assert label == rho ^ mu
    lhs = omega_matrix_int(rho) @ bell_vector_int(mu)
    assert np.array_equal(lhs, phase * bell_vector_int(label))


def test_bell_action_pinned_cases():
    assert apply_omega_to_bell(1, 1) == (0, 1)
    assert apply_omega_to_bell(0, 2) == (2, 1)
    assert apply_omega_to_bell(3, 0) == (3, -1)


@pytest.mark.parametrize("a,b", list(itertools.product(LABELS, repeat=2)))
def test_compose_table_against_matrix_oracle(a, b):
    label, phase = pauli_compose(a, b)
    assert label == a ^ b
    lhs = pauli_matrix_int(a) @ pauli_matrix_int(b)
    assert np.array_equal(lhs, phase * pauli_matrix_int(label))


def test_compose_pinned_cases():
    assert pauli_compose(1, 1) == (0, 1)
    assert pauli_compose(1, 2) == (3, -1)
    assert pauli_compose(2, 1) == (3, 1)


def test_compose_associativity_with_phases():
    for a, b, c in itertools.product(LABELS, repeat=3):
        ab = pauli_compose(a, b)
        left = pauli_compose(ab.label, c)
        left = SignedLabel(left.label, left.phase * ab.phase)
        bc = pauli_compose(b, c)
        right = pauli_compose(a, bc.label)
        right = SignedLabel(right.label, right.phase * bc.phase)
        assert left == right


def test_compose_sequence_folds():
    assert pauli_compose_sequence([]) == (0, 1)
    assert pauli_compose_sequence([1, 2]) == (3, -1)
    # matrix oracle: (pauli(1) @ pauli(2)) @ pauli(3) is exactly +I
    product = pauli_matrix_int(1) @ pauli_matrix_int(2) @ pauli_matrix_int(3)
    assert np.array_equal(product, np.eye(2, dtype=np.int64))
    assert pauli_compose_sequence([1, 2, 3]) == (0, 1)


def test_two_bit_encoding_round_trip():
    for hi, lo in itertools.product((0, 1), repeat=2):
        bits = TwoBits(hi, lo)
        assert TwoBits.from_label(bits.label) == bits
    assert TwoBits(0, 0).label == 0
    assert TwoBits(1, 1).label == 3


def test_zx_encoding_matches_matrix_products():
    for z, x in itertools.product((0, 1), repeat=2):
        product = (
            np.linalg.matrix_power(pauli_matrix_int(2), z)
            @ np.linalg.matrix_power(pauli_matrix_int(1), x)
        )
        assert np.array_equal(product, pauli_matrix_int(label_from_zx(z, x)))
    assert label_from_zx(0, 0) == 0
    assert label_from_zx(1, 0) == 2
    assert label_from_zx(1, 1) == 3
    assert label_from_zx(0, 1) == 1


def test_signature_column_partition():
    # both values of the message exponent share an x column
    assert {label_from_zx(0, 0), label_from_zx(1, 0)} == {0, 2}
    assert {label_from_zx(0, 1), label_from_zx(1, 1)} == {1, 3}


def test_label_helpers_reject_what_is_not_a_label_or_bit():
    with pytest.raises(ValueError, match=r"^label must be in 0\.\.3, got 4$"):
        x_bit(4)
    with pytest.raises(ValueError, match="^bit must be 0 or 1, got 2$"):
        label_from_zx(2, 0)
    with pytest.raises(ValueError, match="^bit must be 0 or 1, got 2$"):
        label_from_zx(0, 2)


def test_bit_accessors():
    assert [x_bit(t) for t in LABELS] == [0, 1, 0, 1]
    assert [TwoBits.from_label(t).hi for t in LABELS] == [0, 0, 1, 1]


def test_transpose_phase():
    for label in LABELS:
        expected = -1 if label == 3 else 1
        assert np.array_equal(
            pauli_matrix_int(label).T, expected * pauli_matrix_int(label)
        )


def test_two_bits_reject_a_format_spec():
    with pytest.raises(TypeError, match="unsupported format string passed to TwoBits.__format__"):
        format(TwoBits.parse("01"), "x")
    assert format(TwoBits.parse("01"), "") == "01"


def test_two_bits_parse_and_format():
    assert TwoBits.parse("10") == TwoBits(1, 0)
    assert str(TwoBits(0, 1)) == "01"
    assert TwoBits(1, 0) ^ TwoBits(1, 1) == TwoBits(0, 1)
    with pytest.raises(ValueError):
        TwoBits.parse("2x")


def test_label_validation():
    with pytest.raises(ValueError):
        pauli_matrix(4)
    with pytest.raises(ValueError):
        apply_omega_to_bell(0, -1)
