import itertools

import numpy as np
import pytest

from bellproto.algebra import LABELS, TwoBits, pauli_matrix
from bellproto.protocols import bc_run
from bellproto.dense import (
    apply_pauli,
    basis_state,
    bell_state,
    bsm,
    bsm_probabilities,
    chain_register,
    extract_qubit,
    is_maximally_mixed,
    make_register,
    measure_qubit,
    mixture_density,
    projector,
    reduced_density,
    wires_back,
    wires_first,
)
from bellproto.states import (
    DensityMatrix,
    MeasurementError,
    Rng,
    StateVector,
    equal_up_to_phase,
    fidelity,
    infer_tau,
    qubit,
    trace_distance,
)

INV_SQRT2 = 1 / np.sqrt(2)


def random_qubits(seed, count):
    rng = Rng(seed)
    return [rng.unit_qubit() for _ in range(count)]


# --- construction -----------------------------------------------------------


def test_basis_state_ordering_qubit0_is_most_significant():
    s = basis_state("10")
    assert np.argmax(np.abs(s.amplitudes)) == 0b10


def test_state_vector_divides_by_the_norm_and_copies_its_input():
    gen = np.random.default_rng(61)
    for n in (1, 3, 5):
        unit = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
        unit /= np.linalg.norm(unit)
        for raw in (unit, unit * (1 + 3e-10), unit.reshape(2, -1)):
            raw = raw.copy()
            state = StateVector(raw)
            expected = raw.reshape(-1) / np.linalg.norm(raw)
            assert np.array_equal(state.amplitudes, expected)  # bit for bit
            raw[...] = 0.0
            assert np.array_equal(state.amplitudes, expected)  # no aliasing
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0  # read-only


def test_state_vector_rejects_unnormalised_and_bad_sizes():
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        StateVector([1.0])


def test_make_register_zero_with_pair():
    reg = make_register([basis_state("0"), bell_state(0)])
    expected = np.zeros(8)
    expected[0b000] = INV_SQRT2
    expected[0b011] = INV_SQRT2
    assert np.allclose(reg.amplitudes, expected, atol=1e-15)


def test_make_register_two_pairs():
    reg = make_register([bell_state(0), bell_state(0)])
    expected = {0b0000: 0.5, 0b0011: 0.5, 0b1100: 0.5, 0b1111: 0.5}
    for idx in range(16):
        assert reg.amplitudes[idx] == pytest.approx(expected.get(idx, 0.0), abs=1e-15)


def test_make_register_empty_is_an_error():
    with pytest.raises(ValueError):
        make_register([])


@pytest.mark.parametrize("probe", random_qubits(11, 20))
def test_chain_register_norm(probe):
    reg = chain_register(2, 3, probe)
    assert reg.n_qubits == 5
    assert np.linalg.norm(reg.amplitudes) == pytest.approx(1.0, abs=1e-12)


# --- single-qubit application ------------------------------------------------


def test_apply_x_flips_basis():
    assert np.allclose(apply_pauli(basis_state("0"), 1, 0).amplitudes, [0, 1])


def test_apply_label3_gives_signed_flip():
    out = apply_pauli(basis_state("0"), 3, 0)
    assert np.allclose(out.amplitudes, [0, -1])


def test_apply_on_second_pair_qubit_changes_bell_label():
    out = apply_pauli(bell_state(0), 2, 1)
    assert np.allclose(out.amplitudes, bell_state(2).amplitudes)


def test_apply_pauli_preserves_norm_and_checks_range():
    probe = random_qubits(5, 1)[0]
    reg = chain_register(1, 2, probe)
    for wire in range(5):
        out = apply_pauli(reg, 3, wire)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(IndexError):
        apply_pauli(reg, 1, 5)


# --- Bell measurement ---------------------------------------------------------


def test_bsm_on_eigenstate_is_deterministic():
    out, post = bsm(bell_state(0), (0, 1))  # no rng needed: probability 1
    assert out == TwoBits(0, 0)
    assert np.allclose(post.amplitudes, bell_state(0).amplitudes)


def test_bsm_on_product_zero_zero():
    probs = bsm_probabilities(basis_state("00"), (0, 1))
    # direct inner products: overlaps with labels 0 and 2 are 1/sqrt(2)
    assert probs[0] == pytest.approx(0.5, abs=1e-15)
    assert probs[2] == pytest.approx(0.5, abs=1e-15)
    assert probs[1] == probs[3] == 0.0
    for label in (0, 2):
        out, post = bsm(basis_state("00"), (0, 1), force=label)
        assert out.label == label
        assert equal_up_to_phase(post, bell_state(label))


def test_bsm_forcing_zero_probability_raises():
    with pytest.raises(MeasurementError):
        bsm(basis_state("00"), (0, 1), force=1)


def test_bsm_sampling_is_seed_deterministic():
    def draw(seed):
        rng = Rng(seed)
        state = make_register([bell_state(0), bell_state(0)])
        outcomes = []
        for _ in range(20):
            out, _ = bsm(state, (1, 2), rng)
            outcomes.append(out.label)
        return outcomes

    assert draw(123) == draw(123)
    assert draw(123) != draw(124)


def test_bsm_post_state_collapses_pair():
    probe = random_qubits(9, 1)[0]
    state = chain_register(1, 3, probe)
    out, post = bsm(state, (2, 3), force=2)
    pair = reduced_density(post, [2, 3])
    expected = projector(bell_state(2))
    assert trace_distance(pair.matrix, expected.matrix) <= 1e-12


# --- wire order -------------------------------------------------------------------


def kron_operator(block, wires, n):
    """``block`` on ``wires`` (the first listed wire is the block's most
    significant index bit), identity elsewhere, as a 2**n matrix summed from
    np.kron products of single-wire matrix units in wire order."""
    k = len(wires)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for row, col in itertools.product(range(1 << k), repeat=2):
        factors = [np.eye(2)] * n
        for pos, wire in enumerate(wires):
            unit = np.zeros((2, 2))
            unit[(row >> (k - 1 - pos)) & 1, (col >> (k - 1 - pos)) & 1] = 1.0
            factors[wire] = unit
        term = factors[0]
        for factor in factors[1:]:
            term = np.kron(term, factor)
        full += block[row, col] * term
    return full


def random_register(seed, n=5):
    gen = np.random.default_rng(seed)
    raw = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    return StateVector(raw / np.linalg.norm(raw))


def test_reversed_non_adjacent_bsm_matches_kron_projectors():
    state = random_register(41)
    psi = state.amplitudes
    probs = bsm_probabilities(state, (3, 1))
    for label in LABELS:
        bell = bell_state(label).amplitudes
        proj = kron_operator(np.outer(bell, bell.conj()), (3, 1), 5)
        expected_p = float(np.vdot(psi, proj @ psi).real)
        assert probs[label] == pytest.approx(expected_p, abs=1e-12)
        out, post = bsm(state, (3, 1), force=label)
        assert out == TwoBits.from_label(label)
        assert np.allclose(post.amplitudes, proj @ psi / np.sqrt(expected_p), atol=1e-12)


def test_measure_last_wire_matches_kron_projectors():
    state = random_register(43)
    psi = state.amplitudes
    for bit in (0, 1):
        proj = kron_operator(np.diag([1.0 - bit, bit]), (4,), 5)
        expected_p = float(np.vdot(psi, proj @ psi).real)
        got, post = measure_qubit(state, 4, force=bit)
        assert got == bit
        assert np.allclose(post.amplitudes, proj @ psi / np.sqrt(expected_p), atol=1e-12)


def test_reduced_density_keeps_listed_wire_order():
    state = random_register(47)
    psi = state.amplitudes
    rho = reduced_density(state, [4, 0]).matrix
    for i, j in itertools.product(range(4), repeat=2):
        unit = np.zeros((4, 4))
        unit[j, i] = 1.0  # rho[i, j] = <psi| (|j><i| on wires 4, 0) |psi>
        expected = np.vdot(psi, kron_operator(unit, (4, 0), 5) @ psi)
        assert rho[i, j] == pytest.approx(expected, abs=1e-12)


def test_wire_gather_equals_the_transpose_definition():
    for n in range(1, 6):
        amps = random_register(67 + n, n).amplitudes
        for k in range(1, min(n, 3) + 1):
            for wires in itertools.permutations(range(n), k):
                order = [*wires, *(w for w in range(n) if w not in wires)]
                expected = amps.reshape((2,) * n).transpose(order).reshape(1 << k, -1)
                moved = wires_first(amps, wires)
                assert np.array_equal(moved, expected)
                assert np.array_equal(wires_back(moved, list(wires)), amps)


def test_apply_pauli_on_every_wire_matches_kron_operator():
    state = random_register(53)
    for wire, label in itertools.product(range(5), LABELS):
        expected = kron_operator(pauli_matrix(label), (wire,), 5) @ state.amplitudes
        assert np.allclose(apply_pauli(state, label, wire).amplitudes, expected, atol=1e-12)


@pytest.mark.parametrize("call", [
    lambda s: bsm(s, (2, 2), force=0),
    lambda s: bsm(s, (1, 5), force=0),
    lambda s: bsm_probabilities(s, (-1, 0)),
    lambda s: measure_qubit(s, 5, force=0),
    lambda s: measure_qubit(s, -1, force=0),
    lambda s: reduced_density(s, [4, 4]),
    lambda s: reduced_density(s, [0, 7]),
    lambda s: apply_pauli(s, 1, -1),
])
def test_repeated_or_out_of_range_wire_raises_index_error(call):
    for _ in range(2):  # a rejected wire tuple is not cached as valid
        with pytest.raises(IndexError):
            call(random_register(59))


# --- swap and teleport ---------------------------------------------------------


@pytest.mark.parametrize("mu,nu", list(itertools.product(LABELS, repeat=2)))
def test_swap_outcome_distribution_and_label_rule(mu, nu):
    state = make_register([bell_state(mu), bell_state(nu)])
    probs = bsm_probabilities(state, (1, 2))
    assert np.allclose(probs, 0.25, atol=1e-15)
    for outcome in LABELS:
        out, post = bsm(state, (1, 2), force=outcome)
        outer = reduced_density(post, [0, 3])
        assert trace_distance(outer.matrix, projector(bell_state(mu ^ nu ^ outcome)).matrix) <= 1e-12


def test_swap_identity_channels_outcome_zero_gives_label_zero():
    state = make_register([bell_state(0), bell_state(0)])
    out, post = bsm(state, (1, 2), force=0)
    assert trace_distance(reduced_density(post, [0, 3]).matrix,
                          projector(bell_state(0)).matrix) <= 1e-12


def test_teleport_zero_over_identity_channel():
    state = make_register([basis_state("0"), bell_state(0)])
    out, post = bsm(state, (0, 1), force=0)
    assert out == TwoBits(0, 0)
    far = extract_qubit(post, 2)
    assert equal_up_to_phase(far, basis_state("0"))


@pytest.mark.parametrize("channel", LABELS)
def test_teleport_moves_payload_with_labelled_correction(channel):
    for probe in random_qubits(17, 3):
        state = make_register([probe, bell_state(channel)])
        for outcome in LABELS:
            _, post = bsm(state, (0, 1), force=outcome)
            far = extract_qubit(post, 2)
            expected = StateVector(pauli_matrix(outcome ^ channel) @ probe.amplitudes)
            assert equal_up_to_phase(far, expected)


def test_teleport_outcome_average_is_maximally_mixed():
    for probe in random_qubits(23, 5):
        state = make_register([probe, bell_state(0)])
        far_states = []
        for outcome in LABELS:
            _, post = bsm(state, (0, 1), force=outcome)
            far_states.append(extract_qubit(post, 2))
        dm = mixture_density(far_states, [0.25] * 4)
        assert is_maximally_mixed(dm)


# --- the correction lookup ------------------------------------------------------


def test_infer_tau_pinned_cases():
    assert infer_tau(TwoBits(0, 0), TwoBits(0, 0), 0, 0) == 0
    assert infer_tau(TwoBits(0, 1), TwoBits(0, 0), 0, 0) == 1
    assert infer_tau(TwoBits(1, 0), TwoBits(0, 1), 0, 0) == 3


@pytest.mark.parametrize("mu,nu", list(itertools.product(LABELS, repeat=2)))
def test_infer_tau_matches_forced_simulation(mu, nu):
    probe = random_qubits(31, 1)[0]
    for aa, cc in itertools.product(LABELS, repeat=2):
        state = chain_register(mu, nu, probe)
        _, state = bsm(state, (2, 3), force=cc)
        _, state = bsm(state, (0, 1), force=aa)
        moved = extract_qubit(state, 4)
        tau = infer_tau(TwoBits.from_label(aa), TwoBits.from_label(cc), mu, nu)
        assert equal_up_to_phase(
            moved, StateVector(pauli_matrix(tau) @ probe.amplitudes)
        )


# --- density matrices ------------------------------------------------------------


def test_mixture_of_four_moved_basis_states_is_identity_over_two():
    parts = [StateVector(pauli_matrix(t) @ basis_state("0").amplitudes) for t in LABELS]
    dm = mixture_density(parts, [0.25] * 4)
    assert np.allclose(dm.matrix, np.eye(2) / 2, atol=1e-15)


def test_mixture_single_state_is_projector():
    probe = random_qubits(3, 1)[0]
    dm = mixture_density([probe], [1.0])
    assert np.allclose(dm.matrix, projector(probe).matrix, atol=1e-15)


@pytest.mark.parametrize("mu", LABELS)
def test_mixture_of_acted_pairs_is_identity_over_four(mu):
    parts = [
        StateVector(np.kron(np.eye(2), pauli_matrix(t)) @ bell_state(mu).amplitudes)
        for t in LABELS
    ]
    dm = mixture_density(parts, [0.25] * 4)
    assert np.max(np.abs(dm.matrix - np.eye(4) / 4)) <= 1e-12


def test_mixture_argument_validation():
    probe = qubit(1, 0)
    with pytest.raises(ValueError):
        mixture_density([probe], [0.5])
    with pytest.raises(ValueError):
        mixture_density([probe, bell_state(0)], [0.5, 0.5])


def test_is_maximally_mixed():
    assert is_maximally_mixed(DensityMatrix(np.eye(2) / 2))
    assert not is_maximally_mixed(projector(basis_state("0")))
    for probe in random_qubits(41, 5):
        parts = [StateVector(pauli_matrix(t) @ probe.amplitudes) for t in LABELS]
        assert is_maximally_mixed(mixture_density(parts, [0.25] * 4))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_trace_distance_basics():
    a = projector(basis_state("0")).matrix
    b = projector(basis_state("1")).matrix
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(a, a) == 0.0
    assert trace_distance(a, 0) == trace_distance(0, a) == pytest.approx(0.5, abs=1e-12)


def test_reduced_density_and_extract_qubit():
    probe = random_qubits(7, 1)[0]
    reg = make_register([probe, bell_state(0)])
    assert equal_up_to_phase(extract_qubit(reg, 0), probe)
    with pytest.raises(ValueError):
        extract_qubit(reg, 1)  # entangled wire
    half = reduced_density(reg, [1])
    assert is_maximally_mixed(half)


def test_fidelity_of_identical_and_orthogonal():
    probe = random_qubits(13, 1)[0]
    assert fidelity(probe, probe) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(basis_state("0"), basis_state("1")) == 0.0


# --- rng ------------------------------------------------------------------------


def test_rng_determinism_and_derivation():
    a = [Rng(99).bit() for _ in range(20)]
    b = [Rng(99).bit() for _ in range(20)]
    assert a == b
    base = Rng(99)
    d1 = base.derive(1)
    d2 = base.derive(2)
    assert [d1.bit() for _ in range(10)] != [d2.bit() for _ in range(10)]
    again = Rng(99).derive(1)
    assert [Rng(99).derive(1).bit() for _ in range(10)] == [
        Rng(99).derive(1).bit() for _ in range(10)
    ]


def test_choose_draws_at_and_ulps_around_a_cdf_boundary_match_choice():
    # [u, 1 - u] puts the first boundary on the stream's first uniform u; the
    # nudged pairs move it, and the cumulative sum's last entry, by a few ulps
    on_boundary = 0
    for seed in range(20):
        u = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).random()
        for k, j in itertools.product(range(-4, 5), range(-12, 13)):
            probs = [u + k * np.spacing(u), (1.0 - u) * (1 + j * 2.0**-52)]
            p = np.asarray(probs) / np.sum(probs)
            on_boundary += (k, j) == (0, 0) and (p.cumsum() / p.cumsum()[-1])[0] == u
            eager = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            assert Rng(seed).choose(probs) == int(eager.choice(2, p=p))
    assert on_boundary >= 10


@pytest.mark.parametrize("probs", [[0.5, -0.1, 0.6], [0.5, float("nan")], [0.0, 0.0], [],
                                   [[0.5, 0.5]], [float("inf"), 1.0]])
def test_choose_rejects_what_is_not_a_distribution(probs):
    with pytest.raises(ValueError):
        Rng(1).choose(probs)


def test_rng_rejects_negative_seed_at_construction():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(0).derive(-1)


def test_forced_cell_builds_no_generator(monkeypatch):
    # a fully forced bc cell draws nothing: its base and Born streams stay unbuilt
    built = []
    real = np.random.Generator
    monkeypatch.setattr(np.random, "Generator", lambda bits: built.append(bits) or real(bits))
    bc_run(1, None, forced=(TwoBits(0, 1), TwoBits(1, 0)))
    assert built == []
    Rng(3).bit()
    assert len(built) == 1


def _choice_distributions(seed, count):
    """Exact quarters, Born-style quarters a few ulps off, skewed and
    zero-holding distributions, in turn."""
    gen = np.random.default_rng(seed)
    ulp = np.spacing(0.25)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            yield [0.25] * 4
        elif kind == 1:
            yield list(0.25 + gen.integers(-3, 4, size=4) * ulp)
        elif kind == 2:
            yield list(gen.random(int(gen.integers(2, 9))) ** 6)
        else:
            p = gen.random(4)
            p[gen.integers(0, 4, size=int(gen.integers(1, 4)))] = 0.0
            yield list(p)


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 7])
def test_lazy_stream_draws_equal_an_eager_generator(seed):
    probs = [0.1, 0.2, 0.3, 0.4]
    for key in [(), (0,), (9,), (5, 3)]:
        eager = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=key)))
        rng = Rng(seed, key)
        for dist in _choice_distributions(seed, 300):  # the direct draw is choice's
            p = np.asarray(dist) / np.sum(dist)
            assert rng.choose(dist) == int(eager.choice(len(p), p=p))
        for _ in range(3):
            assert rng.choose(probs) == int(eager.choice(4, p=np.asarray(probs) / sum(probs)))
            assert rng.bit() == int(eager.integers(0, 2))
            raw = eager.normal(size=2) + 1j * eager.normal(size=2)
            assert np.array_equal(rng.unit_qubit().amplitudes,
                                  StateVector(raw / np.linalg.norm(raw)).amplitudes)


def test_measure_qubit_forced_and_deterministic():
    bit, post = measure_qubit(basis_state("1"), 0)
    assert bit == 1
    plus = qubit(INV_SQRT2, INV_SQRT2)
    bit, post = measure_qubit(plus, 0, force=1)
    assert bit == 1
    assert np.allclose(post.amplitudes, [0, 1])
    with pytest.raises(MeasurementError):
        measure_qubit(basis_state("0"), 0, force=1)
    for impossible in (-1, 2):  # no such outcome; -1 must not wrap to the last one
        with pytest.raises(MeasurementError, match=f"bit {impossible} is not an outcome"):
            measure_qubit(basis_state("1"), 0, force=impossible)
    with pytest.raises(ValueError):
        measure_qubit(plus, 0)  # genuinely random, rng required


def test_choose_scales_finite_weights_whose_sum_overflows():
    # powers of two scale exactly, so each draw must equal the small twin's
    big = 2.0**1023
    for seed in range(20):
        assert Rng(seed).choose([big, big]) == Rng(seed).choose([1.0, 1.0])
        assert Rng(seed).choose([big, 0.0, big / 2]) == Rng(seed).choose([1.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        Rng(1).choose([big, big, -1.0])
    with pytest.raises(ValueError):
        Rng(1).choose([big, big, float("inf")])
