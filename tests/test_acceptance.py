"""Acceptance gate: one test per release criterion, with its tolerance.

Every criterion prints a single PASS line (visible with ``pytest -s``); a
failure raises inside the owning test.  Tolerances are fixed here and
match the package-wide constants: integer identities exact, state algebra
1e-12, sampled statistics at three sigma.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np

from bellproto.algebra import (
    LABELS,
    TwoBits,
    apply_omega_to_bell,
    bell_vector_int,
    omega_inner,
    omega_matrix_int,
    pauli_compose_sequence,
    pauli_matrix,
)
from bellproto.attacks import run_strategy, view_distance
from bellproto.identities import exact_bell_distribution, otp_certify
from bellproto.protocols import (
    bc_run,
    ct_run,
    mpsc_run,
    ot_run,
    qds_run,
    qss_run,
    run_from_config,
    tpsc_run,
)
from bellproto.dense import (
    basis_state,
    bell_state,
    bsm_probabilities,
    chain_register,
    decompose_chain,
    decompose_swap,
    decompose_teleport,
    is_maximally_mixed,
    make_register,
    mixture_density,
)
from bellproto.states import Rng, StateVector, infer_tau
from bellproto.transcript import RunConfig, parse_transcript

TOL = 1e-12
ALL_PAIRS = [TwoBits.from_label(t) for t in LABELS]
ALL_CELLS = list(itertools.product(ALL_PAIRS, repeat=2))


def seeded_payloads(count=20, seed=90210):
    rng = Rng(seed)
    return [rng.unit_qubit() for _ in range(count)]


def report(line):
    print(f"[acceptance] {line}: PASS")


def test_c1_operator_algebra_exact():
    for a, b in itertools.product(LABELS, repeat=2):
        assert omega_inner(a, b) == (4 if a == b else 0)
    total = sum(omega_matrix_int(t) @ omega_matrix_int(t).T for t in LABELS)
    assert np.array_equal(total, 4 * np.eye(4, dtype=np.int64))
    report("C1 operator orthonormality and completeness, integer exact")


def test_c2_collapse_table_entry_exact():
    for rho in LABELS:
        assert apply_omega_to_bell(rho, rho) == (0, 1)
    for rho, mu in itertools.product(LABELS, repeat=2):
        label, phase = apply_omega_to_bell(rho, mu)
        lhs = omega_matrix_int(rho) @ bell_vector_int(mu)
        assert np.array_equal(lhs, phase * bell_vector_int(label))
    report("C2 collapse table, all sixteen entries against the matrix oracle")


def test_c3_decompositions_reconstruct():
    payloads = seeded_payloads(20)
    worst = 0.0
    for mu, nu in itertools.product(LABELS, repeat=2):
        for probe in payloads:
            ref = chain_register(mu, nu, probe).amplitudes
            total = np.zeros_like(ref)
            for _t, _r, term in decompose_chain(mu, nu, probe):
                total += term.amplitudes
            worst = max(worst, float(np.abs(total / 4 - ref).max()))
    for mu, nu in itertools.product(LABELS, repeat=2):
        ref = make_register([bell_state(mu), bell_state(nu)]).amplitudes
        total = np.zeros_like(ref)
        for _r, term in decompose_swap(mu, nu):
            total += term.amplitudes
        worst = max(worst, float(np.abs(total / 2 - ref).max()))
    for channel in LABELS:
        for probe in payloads:
            ref = make_register([probe, bell_state(channel)]).amplitudes
            total = np.zeros_like(ref)
            for _t, term in decompose_teleport(channel, probe):
                total += term.amplitudes
            worst = max(worst, float(np.abs(total / 2 - ref).max()))
    assert worst < TOL
    report(f"C3 sector decompositions reconstruct, max residual {worst:.2e} < 1e-12")


def test_c4_uniformity_mixedness_and_pad():
    quarter = Fraction(1, 4)
    for mu, nu in itertools.product(LABELS, repeat=2):
        ints = np.kron(bell_vector_int(mu), bell_vector_int(nu))
        assert all(p == quarter for p in exact_bell_distribution(ints, 4, (1, 2)))
    for channel in LABELS:
        for bit in (0, 1):
            ints = np.kron(np.array([1 - bit, bit], dtype=np.int64),
                           bell_vector_int(channel))
            assert all(p == quarter for p in exact_bell_distribution(ints, 2, (0, 1)))
    for probe in seeded_payloads(20, seed=11):
        for channel in LABELS:
            probs = bsm_probabilities(make_register([probe, bell_state(channel)]), (0, 1))
            assert np.abs(probs - 0.25).max() <= TOL

    for mu in LABELS:
        pair_parts = [
            StateVector(omega_matrix_int(r).astype(float) @ bell_state(mu).amplitudes)
            for r in LABELS
        ]
        dm = mixture_density(pair_parts, [0.25] * 4)
        assert np.abs(dm.matrix - np.eye(4) / 4).max() <= TOL
    for probe in seeded_payloads(20, seed=13):
        parts = [StateVector(pauli_matrix(t) @ probe.amplitudes) for t in LABELS]
        assert is_maximally_mixed(mixture_density(parts, [0.25] * 4))

    certified = [
        subset
        for r in range(1, 5)
        for subset in itertools.combinations(LABELS, r)
        if otp_certify(subset, [1.0 / len(subset)] * len(subset))
    ]
    assert certified == [(0, 1, 2, 3)]
    report("C4 outcome uniformity exact, mixtures I/4 and I/2, pad set unique")


def test_c5_honest_completeness_exhaustive():
    runs = 0
    for secret in (0, 1):
        for aa, cc in ALL_CELLS:
            assert bc_run(secret, None, forced=(aa, cc)).verdict.accepted
            assert ct_run(secret, None, forced=(aa, cc)).verdict.accepted
            assert ot_run(secret, None, forced=(aa, cc)).verdict.accepted
            assert qss_run(secret, None, forced=(aa, cc)).verdict.accepted
            runs += 4
    for public in (0, 1):
        for a_lab, b_lab in itertools.product(LABELS, repeat=2):
            for aa, cc in ALL_CELLS:
                for masks in itertools.product((0, 1), repeat=2):
                    rec = tpsc_run(TwoBits.from_label(a_lab), TwoBits.from_label(b_lab),
                                   public, None, forced=(aa, cc), masks=masks)
                    assert rec.verdict.accepted
                    runs += 1
    for cell in ALL_CELLS:
        rec = qds_run([1, 0, 1, 1], None, forced=[cell] * 4)
        assert rec.verdict.accepted
        assert rec.values["bob"].accepted and rec.values["charlie"].accepted
        runs += 1
    for public in (0, 1):
        for a_lab, b_lab, c_lab in itertools.product(LABELS, repeat=3):
            for aa in ALL_PAIRS:
                rec = mpsc_run(TwoBits.from_label(a_lab), TwoBits.from_label(b_lab),
                               public, None, forced=(aa, TwoBits.from_label(c_lab)),
                               masks=(0, 1, 1))
                assert rec.verdict.accepted
                runs += 1
    report(f"C5 honest completeness on 100% of {runs} enumerated runs")


def test_c6_correction_identity_and_coin_uniformity():
    phases = []
    for aa, cc in ALL_CELLS:
        tau = infer_tau(aa, cc, 0, 0)
        label, phase = pauli_compose_sequence([aa.label, cc.label, tau])
        assert label == 0
        phases.append(phase)
    assert set(phases) <= {1, -1}

    coins = []
    for secret in (0, 1):
        for aa, cc in ALL_CELLS:
            rec = ct_run(secret, None, forced=(aa, cc))
            assert rec.values["coin"] == secret ^ aa.lo
            coins.append(rec.values["coin"])
    assert coins.count(0) == coins.count(1)

    trials = 10_000
    rng = Rng(20200808)
    ones = sum(ct_run(1, rng.derive(t)).values["coin"] for t in range(trials))
    assert abs(ones / trials - 0.5) <= 3 * 0.5 / np.sqrt(trials)
    negatives = phases.count(-1)
    report(
        "C6 correction identity collapses with recorded phases "
        f"({negatives}/16 negative); coin exactly uniform, sampled within 3-sigma"
    )


def test_c7_hiding_suite():
    checks = {
        "bc receiver pre-reveal": view_distance(
            "bc", "bob", vary="secret", values=(0, 1), cut_step="reveal"),
        "ot receiver": view_distance("ot", "bob", vary="secret", values=(0, 1)),
        "tpsc sender on receiver message": view_distance(
            "tpsc", "alice", vary="inputs", values=("10,00", "10,10"),
            fixed={"secret": 1}),
        "tpsc receiver on sender message": view_distance(
            "tpsc", "bob", vary="inputs", values=("00,01", "10,01"),
            fixed={"secret": 1}),
        "qss receiver share alone": view_distance(
            "qss", "bob", vary="secret", values=(0, 1),
            fixed={"runner_kwargs": {"reconstruct": False}}),
        "qss relay share alone": view_distance(
            "qss", "charlie", vary="secret", values=(0, 1),
            fixed={"runner_kwargs": {"reconstruct": False}}),
        "mpsc sender on receiver message": view_distance(
            "mpsc", "alice", vary="inputs", values=("10,01,11", "10,11,11"),
            fixed={"secret": 1}),
        "mpsc receiver on sender message": view_distance(
            "mpsc", "bob", vary="inputs", values=("00,01,11", "10,01,11"),
            fixed={"secret": 1}),
        "mpsc sender on relay message": view_distance(
            "mpsc", "alice", vary="inputs", values=("10,01,01", "10,01,11"),
            fixed={"secret": 1}),
        "mpsc relay on sender message": view_distance(
            "mpsc", "charlie", vary="inputs", values=("00,01,11", "10,01,11"),
            fixed={"secret": 1}),
        "mpsc relay on receiver message": view_distance(
            "mpsc", "charlie", vary="inputs", values=("10,01,11", "10,11,11"),
            fixed={"secret": 1}),
    }
    for name, dist in checks.items():
        assert dist <= TOL, (name, dist)
    worst = max(checks.values())
    report(f"C7 hiding suite, {len(checks)} observer views, max distance {worst:.2e}")


def test_c8_binding_suite():
    flip = run_strategy(RunConfig(protocol="bc", secret="0", mode="enumerate"),
                        "reveal-flip")
    assert flip.detection == Fraction(1)
    sub = run_strategy(RunConfig(protocol="bc", secret="1", mode="enumerate"),
                       "aa-substitute")
    assert sub.detection == Fraction(1)
    forge = run_strategy(RunConfig(protocol="qds", secret="1011", k=4,
                                   mode="enumerate"), "message-flip")
    assert forge.detection == Fraction(1)
    capture = run_strategy(RunConfig(protocol="qss", secret="q", mode="enumerate"),
                           "charlie-skip-bsm")
    assert capture.state_distance <= TOL
    report(
        "C8 binding: reveal-flip 16/16, x-bit substitution 32/32, forgery 64/64, "
        f"capture distance {capture.state_distance:.2e}"
    )


def test_c9_computation_agreement_with_oracle():
    def oracle_bit(operator_labels, payload_bit):
        vec = basis_state([payload_bit]).amplitudes
        for label in reversed(operator_labels):
            vec = pauli_matrix(label) @ vec
        return int(abs(vec[1]) > 0.5)

    cells = 0
    for public in (0, 1):
        for a_lab, b_lab in itertools.product(LABELS, repeat=2):
            a_in, b_in = TwoBits.from_label(a_lab), TwoBits.from_label(b_lab)
            for aa, cc in ALL_CELLS:
                rec = tpsc_run(a_in, b_in, public, None, forced=(aa, cc), masks=(1, 0))
                tau = infer_tau(aa, cc, 0, 0)
                expected = oracle_bit(
                    [aa.label, cc.label, 2 * b_in.hi + b_in.lo,
                     tau, 2 * (a_in.hi ^ 1) + a_in.lo], public)
                assert rec.values["f_alice"] == rec.values["f_bob"] == expected
                cells += 1
    for public in (0, 1):
        for a_lab, b_lab, c_lab in itertools.product(LABELS, repeat=3):
            a_in = TwoBits.from_label(a_lab)
            b_in = TwoBits.from_label(b_lab)
            c_in = TwoBits.from_label(c_lab)
            for aa in ALL_PAIRS:
                rec = mpsc_run(a_in, b_in, public, None, forced=(aa, c_in),
                               masks=(1, 1, 0))
                tau = infer_tau(aa, c_in, 0, 0)
                expected = oracle_bit(
                    [2 * c_in.hi + c_in.lo, 2 * (b_in.hi ^ 1) + b_in.lo,
                     tau, 2 * (a_in.hi ^ 1) + a_in.lo], public)
                assert int(rec.verdict.value) == expected
                cells += 1
    report(f"C9 announced outputs equal the operator-product oracle on {cells} cells")


def test_c10_determinism_and_replay():
    configs = [
        RunConfig(protocol="bc", secret="1", seed=7, mode="sample:1"),
        RunConfig(protocol="ct", secret="0", seed=11, mode="sample:1"),
        RunConfig(protocol="ot", secret="1", seed=13, mode="sample:1"),
        RunConfig(protocol="tpsc", secret="1", inputs="10,01", seed=17, mode="sample:1"),
        RunConfig(protocol="qss", secret="0", seed=19, mode="sample:1"),
        RunConfig(protocol="qds", secret="1011", k=4, seed=23, mode="sample:1"),
        RunConfig(protocol="mpsc", secret="0", inputs="10,01,--", seed=29, mode="sample:1"),
    ]
    for config in configs:
        first = run_from_config(config).transcript.to_text()
        second = run_from_config(config).transcript.to_text()
        assert first == second
        parsed, events = parse_transcript(first)
        assert parsed == config
        replayed = run_from_config(parsed).transcript.to_text()
        assert replayed == first
        assert dataclasses.replace(config, seed=config.seed + 1000) != config
    report("C10 replay byte-identical across the full protocol set")
