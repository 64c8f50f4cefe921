import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from bellproto import protocols, states
from bellproto.algebra import LABELS, TwoBits, pauli_matrix, x_bit
from bellproto.attacks import enumeration_cells, run_cell, run_strategy
from bellproto.protocols import (
    CheatStrategy,
    ConfigError,
    Deviation,
    Run,
    Verdict,
    bc_run,
    ct_run,
    mpsc_run,
    ot_run,
    qds_run,
    qss_run,
    run_from_config,
    spec_for,
    tpsc_run,
)
from bellproto.dense import basis_state
from bellproto.states import Rng, StateVector, infer_tau
from bellproto.transcript import RunConfig
from conftest import equal_up_to_phase
from test_golden import FORCED_CONFIGS

ALL_PAIRS = [TwoBits.from_label(t) for t in LABELS]
ALL_CELLS = list(itertools.product(ALL_PAIRS, repeat=2))


def oracle_bit(operator_labels, payload_bit):
    """Measured bit of a labelled-operator product applied to a basis state.

    Independent route: multiply the 2x2 matrices and look at which
    computational amplitude survives.
    """
    vec = basis_state([payload_bit]).amplitudes
    for label in reversed(operator_labels):  # rightmost acts first
        vec = pauli_matrix(label) @ vec
    return int(abs(vec[1]) > 0.5)


# --- shared opening steps -----------------------------------------------------


def common_steps(mu, nu, payload, rng, measure_b=True, *, forced=None):
    """The opening steps every protocol shares, run on their own (three-party cast).

    Returns (aa, cc, moved_bit); moved_bit is None unless ``measure_b``."""
    run = Run("qss", rng, mu=mu, nu=nu)
    aa, cc = run.open_chain(mu, nu, payload, forced=forced)
    return aa, cc, run.measure_moved() if measure_b else None


def test_runners_reach_the_engine_only_through_run():
    # the chain steps call ``states.<name>`` at call time, so a wrapper on
    # the module attribute (bench/tracer.py) sees every transition
    bound = set(vars(protocols)) & {"bsm", "apply_pauli", "measure_qubit", "extract_qubit",
                                    "chain_register"}
    assert not bound


def test_common_steps_identity_cell_keeps_bit():
    aa, cc, moved_bit = common_steps(0, 0, 0, None, True, forced=(TwoBits(0, 0), TwoBits(0, 0)))
    assert moved_bit == 0
    assert aa == TwoBits(0, 0) and cc == TwoBits(0, 0)


@pytest.mark.parametrize("payload_bit", (0, 1))
def test_common_steps_moved_bit_is_x_parity(payload_bit):
    for aa, cc in ALL_CELLS:
        _aa, _cc, moved_bit = common_steps(0, 0, payload_bit, None, True, forced=(aa, cc))
        tau = infer_tau(aa, cc, 0, 0)
        assert moved_bit == payload_bit ^ x_bit(tau)


def test_common_steps_quantum_payload_all_cells():
    probe = Rng(77).unit_qubit()
    for aa, cc in ALL_CELLS:
        run = Run("qss", None, mu=1, nu=2)
        assert run.open_chain(1, 2, probe, forced=(aa, cc)) == (aa, cc)
        tau = infer_tau(aa, cc, 1, 2)
        assert equal_up_to_phase(run.moved_state(),
                                 StateVector(pauli_matrix(tau) @ probe.amplitudes))


def test_no_runtime_step_receives_or_builds_a_multi_qubit_state(monkeypatch):
    """The runtime tracks a Pauli frame, not a register: no engine step is
    handed a StateVector of more than one qubit, and none is built, while
    qss still builds the one-qubit states its fidelity reads (a held qubit
    stays a frame)."""
    built, handed = [], []
    init = StateVector.__init__

    def counted_init(self, amplitudes):
        init(self, amplitudes)
        built.append(self.n_qubits)

    def traced(step):
        def call(*args, **kwargs):
            handed.extend(a.n_qubits for a in args if isinstance(a, StateVector))
            return step(*args, **kwargs)
        return call

    monkeypatch.setattr(StateVector, "__init__", counted_init)
    for name in ("bsm", "apply_pauli", "measure_qubit", "extract_qubit"):
        monkeypatch.setattr(states, name, traced(getattr(states, name)))
    for config in FORCED_CONFIGS:  # every protocol, sampled and over its forced cells
        run_from_config(replace(config, seed=7, mode="sample:1"))
        for cell in enumeration_cells(config):
            run_cell(config, dict(cell), None, None)
    # the skipped relay measurement leaves the moved qubit on the relay's wire
    run_strategy(RunConfig("qss", secret="q", mode="enumerate"), "charlie-skip-bsm")

    assert set(built) == {1}
    assert handed == []


# --- bit commitment -------------------------------------------------------------


@pytest.mark.parametrize("secret", (0, 1))
@pytest.mark.parametrize("nu", LABELS)
def test_bc_honest_accepts_every_cell(secret, nu):
    for aa, cc in ALL_CELLS:
        rec = bc_run(secret, None, mu=0, nu=nu, forced=(aa, cc))
        assert rec.verdict.accepted
        assert rec.verdict.value == str(secret)


def test_bc_reveal_flip_rejected_in_every_cell():
    cheat = CheatStrategy("reveal-flip", "alice", {"reveal": Deviation("shift", 0b100)})
    for secret in (0, 1):
        for aa, cc in ALL_CELLS:
            rec = bc_run(secret, None, forced=(aa, cc), cheat=cheat)
            assert not rec.verdict.accepted
            assert rec.verdict.reason == "commit_mismatch"


@pytest.mark.xfail(strict=True, reason=(
    "bc does not bind: both checks test one parity, reveal_bit ^ reveal_aa.lo, so a sender "
    "who flips the revealed bit and the X bit of aa together opens the other bit"))
def test_bc_rejects_a_joint_bit_and_x_flip():
    """A sender that reveals the other bit and flips the X bit of its outcome
    pair with it: the reveal shift 0b101."""
    cheat = CheatStrategy("bit-and-x-flip", "alice", {"reveal": Deviation("shift", 0b101)})
    opened = []
    for mu, nu, secret in itertools.product(LABELS, LABELS, (0, 1)):
        for aa, cc in ALL_CELLS:
            rec = bc_run(secret, None, mu=mu, nu=nu, forced=(aa, cc), cheat=cheat)
            if rec.verdict.accepted:
                opened.append((mu, nu, secret, str(aa), str(cc), rec.verdict.value))
    assert opened == []


def test_bc_withhold_is_incomplete_transcript():
    cheat = CheatStrategy("withhold", "alice", {"reveal": Deviation("withhold")})
    rec = bc_run(1, None, forced=(TwoBits(0, 1), TwoBits(1, 0)), cheat=cheat)
    assert rec.verdict.reason == "transcript_incomplete"


def test_bc_phase_note_logged():
    rec = bc_run(0, None, forced=(TwoBits(1, 0), TwoBits(0, 0)))
    actions = [ev.action for ev in rec.transcript.events]
    assert "phase_unverified" in actions


def test_bc_receiver_never_sees_sender_outcome_before_reveal():
    rec = bc_run(1, None, forced=(TwoBits(1, 1), TwoBits(0, 1)))
    pre_reveal = rec.view("bob", cut_step="reveal")
    assert not any("aa=" in payload for _, _, _, payload in pre_reveal)


# --- coin tossing ---------------------------------------------------------------


@pytest.mark.parametrize("secret", (0, 1))
def test_ct_coin_equals_secret_xor_sender_x_bit(secret):
    coins = []
    for aa, cc in ALL_CELLS:
        rec = ct_run(secret, None, forced=(aa, cc))
        assert rec.verdict.accepted
        assert rec.values["coin"] == secret ^ aa.lo
        coins.append(rec.values["coin"])
    assert coins.count(0) == coins.count(1)  # exactly uniform over cells


def test_ct_sampled_coin_within_three_sigma_of_half():
    trials = 10_000
    rng = Rng(424242)
    ones = 0
    for t in range(trials):
        rec = ct_run(0, rng.derive(t))
        assert rec.verdict.accepted
        ones += rec.values["coin"]
    freq = ones / trials
    assert abs(freq - 0.5) <= 3 * 0.5 / np.sqrt(trials)


def test_ct_fixed_qubit_substitution_fails_exactly_one_secret_per_cell():
    for b in (0, 1):
        cheat = CheatStrategy("fixed", "bob", {"transform": Deviation("fresh_qubit", b)})
        for aa, cc in ALL_CELLS:
            outcomes = [
                ct_run(secret, None, forced=(aa, cc), cheat=cheat).verdict.accepted
                for secret in (0, 1)
            ]
            assert outcomes.count(False) == 1


def test_ct_wrong_rekey_caught_exactly_on_x_mismatch():
    for m in LABELS:
        cheat = CheatStrategy("wrong", "bob", {"transform": Deviation("substitute_label", m)})
        for aa, cc in ALL_CELLS:
            rec = ct_run(0, None, forced=(aa, cc), cheat=cheat)
            assert rec.verdict.accepted == (x_bit(m) == cc.lo)


# --- oblivious transfer -----------------------------------------------------------


@pytest.mark.parametrize("secret", (0, 1))
def test_ot_honest_accepts_and_recovers(secret):
    for aa, cc in ALL_CELLS:
        rec = ot_run(secret, None, forced=(aa, cc))
        assert rec.verdict.accepted
        assert rec.values["recovered"] == secret
        assert rec.values["bob_message"] == cc.hi
        assert rec.values["bob_signature"] == cc.lo


def test_ot_verdict_does_not_broadcast_recovered_bit():
    rec = ot_run(1, None, forced=(TwoBits(0, 1), TwoBits(1, 0)))
    bob_view = rec.view("bob")
    joined = " ".join(payload for _, _, _, payload in bob_view)
    assert "value=received" in joined or "outcome=accept" in joined
    assert "bit=1" not in [p for _, _, a, p in bob_view if a == "unkey_and_measure"]


def test_ot_sender_view_is_identical_across_receiver_messages():
    # fix the sender outcome; the four receiver pairs give the same view
    for secret in (0, 1):
        for aa in ALL_PAIRS:
            views = set()
            for cc in ALL_PAIRS:
                rec = ot_run(secret, None, forced=(aa, cc))
                views.add(rec.view("alice"))
            assert len(views) == 1


# --- two-party computation ---------------------------------------------------------


def test_tpsc_all_identity_inputs_give_public_bit():
    for mask_a, mask_b in itertools.product((0, 1), repeat=2):
        rec = tpsc_run(TwoBits(0, 0), TwoBits(0, 0), 1, None,
                       forced=(TwoBits(0, 0), TwoBits(0, 0)), masks=(mask_a, mask_b))
        assert rec.verdict.accepted
        assert rec.verdict.value == "1"


def test_tpsc_outcome_matches_operator_product_oracle():
    for a_lab, b_lab in itertools.product(LABELS, repeat=2):
        a_in, b_in = TwoBits.from_label(a_lab), TwoBits.from_label(b_lab)
        for aa, cc in ALL_CELLS:
            for masks in itertools.product((0, 1), repeat=2):
                rec = tpsc_run(a_in, b_in, 1, None, forced=(aa, cc), masks=masks)
                assert rec.verdict.accepted
                applied_a = 2 * (a_in.hi ^ masks[0]) + a_in.lo
                applied_b = 2 * (b_in.hi ^ masks[1]) + b_in.lo
                tau = infer_tau(aa, cc, 0, 0)
                expected = oracle_bit(
                    [aa.label, cc.label, applied_b, tau, applied_a], 1
                )
                assert int(rec.verdict.value) == expected


def test_tpsc_parties_agree_and_output_depends_only_on_signatures():
    baseline = {}
    for a_lab, b_lab in itertools.product(LABELS, repeat=2):
        rec = tpsc_run(TwoBits.from_label(a_lab), TwoBits.from_label(b_lab), 0, None,
                       forced=(TwoBits(1, 0), TwoBits(0, 1)), masks=(0, 0))
        assert rec.values["f_alice"] == rec.values["f_bob"]
        key = (a_lab & 1, b_lab & 1)
        baseline.setdefault(key, rec.values["f_alice"])
        assert baseline[key] == rec.values["f_alice"]


def test_tpsc_each_party_learns_the_other_signature_bit():
    a_in, b_in = TwoBits(1, 1), TwoBits(0, 1)
    rec = tpsc_run(a_in, b_in, 0, None, forced=(TwoBits(0, 1), TwoBits(1, 1)), masks=(1, 0))
    assert rec.values["alice_sig_seen_by_bob"] == a_in.lo
    assert rec.values["bob_sig_seen_by_alice"] == b_in.lo


# --- secret sharing -----------------------------------------------------------------


@pytest.mark.parametrize("secret", (0, 1))
def test_qss_classical_reconstruction_every_cell(secret):
    for aa, cc in ALL_CELLS:
        rec = qss_run(secret, None, forced=(aa, cc))
        assert rec.verdict.accepted
        assert rec.values["bit"] == secret
        assert rec.values["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_qss_quantum_secret_reconstruction():
    rng = Rng(1234)
    for trial in range(20):
        probe = rng.unit_qubit()
        mu, nu = trial % 4, (trial // 4) % 4
        rec = qss_run(probe, None, mu=mu, nu=nu,
                      forced=(ALL_PAIRS[trial % 4], ALL_PAIRS[(trial + 1) % 4]))
        assert rec.values["fidelity"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", (0, 1, 6, 23))
def test_qss_run_draws_q_from_its_generator(seed):
    direct = qss_run("q", Rng(seed))
    replayed = run_from_config(RunConfig(protocol="qss", secret="q", seed=seed,
                                         mode="sample:1"))
    assert direct.transcript.events == replayed.transcript.events
    assert direct.held.keys() == replayed.held.keys() == {"bob"}
    assert direct.held["bob"] == replayed.held["bob"]
    # the runner records the drawn amplitudes, the replay the config it ran
    assert direct.config.secret.startswith("q:") and replayed.config.secret == "q"


def test_qss_run_without_a_generator_takes_the_probe_for_q():
    for aa, cc in ALL_CELLS:
        rec = qss_run("q", None, forced=(aa, cc))
        probe = qss_run(protocols._QSS_PROBE, None, forced=(aa, cc))
        assert rec.transcript.to_text() == probe.transcript.to_text()
        assert rec.held["bob"] == probe.held["bob"]


def test_qss_single_share_is_rejected():
    rec = qss_run(1, None, forced=(TwoBits(0, 1), TwoBits(1, 1)), reconstruct=False)
    assert not rec.verdict.accepted
    assert rec.verdict.reason == "insufficient_shares"
    announced = ("verdict", "bob", "verdict", "outcome=reject value= reason=insufficient_shares")
    for party in ("bob", "charlie"):
        assert rec.view(party)[-1] == announced
    assert list(rec.held) == ["bob"] and rec.held["bob"].state().n_qubits == 1


def test_qss_receiver_share_alone_is_maximally_mixed():
    from bellproto.dense import is_maximally_mixed, mixture_density

    probe = Rng(31).unit_qubit()
    for aa in ALL_PAIRS:
        holdings = []
        for cc in ALL_PAIRS:
            rec = qss_run(probe, None, forced=(aa, cc), reconstruct=False)
            holdings.append(rec.held["bob"].state())
        dm = mixture_density(holdings, [0.25] * 4)
        assert is_maximally_mixed(dm)


def test_qss_sender_share_goes_to_receiver_only():
    rec = qss_run(0, None, forced=(TwoBits(1, 0), TwoBits(0, 1)))
    charlie_view = rec.view("charlie")
    assert not any("aa=" in payload for _, _, _, payload in charlie_view)


def test_qss_ack_precedes_share_release():
    rec = qss_run(0, None, forced=(TwoBits(0, 0), TwoBits(0, 0)))
    actions = [ev.action for ev in rec.transcript.events]
    assert actions.index("ack_holding_qubit") < actions.index("send_sender_share")


# --- digital signatures ----------------------------------------------------------------


def qds_cells(k):
    return [(ALL_PAIRS[i % 4], ALL_PAIRS[(i * 2 + 1) % 4]) for i in range(k)]


def test_qds_honest_four_bits_accepts_for_both_recipients():
    for cell in ALL_CELLS:  # same forced cell at every position, all 16 cells
        rec = qds_run([1, 0, 1, 1], None, forced=[cell] * 4)
        assert rec.verdict.accepted
        assert rec.values["bob"].accepted and rec.values["charlie"].accepted
        assert rec.verdict.value == "1011"


def test_qds_receiver_forgery_detected_at_each_position():
    for position in range(4):
        cheat = CheatStrategy("flip", "bob", {"forward": Deviation("shift", 1 << position)})
        rec = qds_run([0, 1, 1, 0], None, forced=qds_cells(4), cheat=cheat)
        assert rec.verdict.reason == "forgery"
        assert rec.values["charlie_failed_positions"] == [position]


def test_qds_sender_repudiation_rejected_by_receiver():
    for position in range(4):
        cheat = CheatStrategy("reveal-flip", "alice",
                              {"reveal": Deviation("shift", 1 << position)})
        rec = qds_run([1, 1, 0, 0], None, forced=qds_cells(4), cheat=cheat)
        assert rec.verdict.reason == "repudiation"
        assert rec.values["bob_failed_positions"] == [position]


def test_qds_joint_shifts_flip_every_masked_position():
    forger = CheatStrategy("flip", "bob", {"forward": Deviation("shift", 0b0101)})
    rec = qds_run([0, 1, 1, 0], None, forced=qds_cells(4), cheat=forger)
    assert rec.verdict.reason == "forgery"
    assert rec.values["charlie_failed_positions"] == [0, 2]
    repudiator = CheatStrategy("reveal-flip", "alice", {"reveal": Deviation("shift", 0b0101)})
    rec = qds_run([1, 1, 0, 0], None, forced=qds_cells(4), cheat=repudiator)
    assert rec.verdict.reason == "repudiation"
    assert rec.values["bob_failed_positions"] == [0, 2]


@pytest.mark.parametrize("message", ([1], [1, 0], [0, 1, 1]), ids=len)
def test_qds_closes_on_one_verdict(message):
    """Bob concludes a repudiation, charlie every other run: an accepted run's
    verdict is both recipients', over every diagonal cell and shift mask.
    Each recipient fails exactly the positions its shift flipped."""
    k = len(message)
    flipped = lambda mask: [i for i in range(k) if mask >> i & 1]
    for cell, reveal, forward in itertools.product(ALL_CELLS, range(1 << k), range(1 << k)):
        cheat = CheatStrategy("shift", "-", {"reveal": Deviation("shift", reveal),
                                             "forward": Deviation("shift", forward)})
        rec = qds_run(message, None, forced=[cell] * k, cheat=cheat)
        bob, charlie = rec.values["bob"], rec.values["charlie"]
        assert rec.values["bob_failed_positions"] == flipped(reveal)
        if not reveal:
            assert rec.values["charlie_failed_positions"] == flipped(forward)
        if reveal:
            assert rec.verdict == bob == Verdict("reject", reason="repudiation")
            assert charlie == Verdict("reject", reason="not_reached")
        elif forward:
            assert bob.accepted and rec.verdict == charlie
            assert rec.verdict.reason == "forgery"
        else:
            assert rec.verdict == bob == charlie
            assert rec.verdict.accepted


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_direct_qds_run_config_replays(k):
    """The configuration a direct call records, sampled or forced, re-runs
    to the same transcript."""
    message = [i % 2 for i in range(k)]
    forced = qds_cells(k)
    runs = [(qds_run(message, Rng(seed)), "sample:1") for seed in (1, 2, 3)]
    runs.append((qds_run(message, None, forced=forced),
                 "forced:" + ",".join(f"{aa}:{cc}" for aa, cc in forced)))
    for rec, mode in runs:
        assert rec.config.mode == mode
        again = run_from_config(rec.config)
        assert again.transcript.to_text() == rec.transcript.to_text()


def test_qds_split_exchange_hidden_from_sender():
    rec = qds_run([1, 0, 1, 1], Rng(5), forced=qds_cells(4))
    alice_view = rec.view("alice")
    joined = " ".join(p for _, _, _, p in alice_view)
    assert "positions=" not in joined  # the split ordering never reaches the sender
    bob_view = rec.view("bob")
    assert any("share_relay_pairs" == a for _, _, a, _ in bob_view)


def test_qds_sampled_run_accepts():
    rec = qds_run([1, 0, 0, 1], Rng(88))
    assert rec.verdict.accepted


# --- multiparty computation ---------------------------------------------------------------


def test_mpsc_announced_outcome_matches_operator_oracle_all_inputs():
    for a_lab, b_lab, c_lab in itertools.product(LABELS, repeat=3):
        a_in = TwoBits.from_label(a_lab)
        b_in = TwoBits.from_label(b_lab)
        c_in = TwoBits.from_label(c_lab)
        for aa in ALL_PAIRS:
            rec = mpsc_run(a_in, b_in, 1, None, forced=(aa, c_in), masks=(0, 1, 0))
            assert rec.verdict.accepted
            applied_a = 2 * (a_in.hi ^ 0) + a_in.lo
            applied_b = 2 * (b_in.hi ^ 1) + b_in.lo
            applied_c = 2 * (c_in.hi ^ 0) + c_in.lo
            tau = infer_tau(aa, c_in, 0, 0)
            expected = oracle_bit([applied_c, applied_b, tau, applied_a], 1)
            assert int(rec.verdict.value) == expected


def test_mpsc_masks_do_not_change_the_outcome():
    outcomes = set()
    for masks in itertools.product((0, 1), repeat=3):
        rec = mpsc_run(TwoBits(1, 0), TwoBits(0, 1), 0, None,
                       forced=(TwoBits(0, 1), TwoBits(1, 1)), masks=masks)
        outcomes.add(rec.verdict.value)
    assert len(outcomes) == 1


def test_mpsc_nonzero_channels():
    for mu, nu in ((1, 2), (3, 1), (2, 2)):
        rec = mpsc_run(TwoBits(0, 1), TwoBits(1, 1), 1, None,
                       mu=mu, nu=nu, forced=(TwoBits(1, 1), TwoBits(0, 0)), masks=(1, 0, 1))
        assert rec.verdict.accepted


def test_mpsc_signature_announcements_only():
    rec = mpsc_run(TwoBits(1, 0), TwoBits(1, 1), 0, None,
                   forced=(TwoBits(0, 0), TwoBits(0, 1)), masks=(0, 0, 0))
    announcements = [
        p for _, _, a, p in rec.view("alice") if a == "announce_signature"
    ]
    assert announcements == ["sig=0", "sig=1", "sig=1"]  # x bits only, no messages


def test_mpsc_sampled_charlie_input_comes_from_measurement():
    rec = mpsc_run(TwoBits(0, 0), TwoBits(0, 0), 0, Rng(9))
    assert rec.verdict.accepted
    assert rec.values["relay_pair"] in {"00", "01", "10", "11"}


# --- casting and dispatch -------------------------------------------------------------------


def test_two_party_runs_never_show_relay_pair_to_sender():
    recs = [
        bc_run(1, None, forced=(TwoBits(0, 1), TwoBits(1, 1))),
        ct_run(0, None, forced=(TwoBits(1, 0), TwoBits(0, 1))),
        ot_run(1, None, forced=(TwoBits(0, 0), TwoBits(1, 1))),
        tpsc_run(TwoBits(0, 1), TwoBits(1, 0), 1, None,
                 forced=(TwoBits(1, 1), TwoBits(0, 1)), masks=(0, 1)),
    ]
    for rec in recs:
        alice_view = rec.view("alice")
        assert not any("cc=" in payload for _, _, _, payload in alice_view)
        # stations B and C are one controller in these runs
        actors = {ev.actor for ev in rec.transcript.events}
        assert actors <= {"alice", "bob"}


@pytest.mark.parametrize("config", [
    pytest.param(RunConfig(protocol="ct", secret="1", seed=17, mode="sample:1"), id="ct"),
    # the runner's own encoding of these differs: the drawn amplitudes, a
    # forced mode for the input pair, the default inputs
    pytest.param(RunConfig(protocol="qss", secret="q", seed=17, mode="sample:1"), id="qss-q"),
    pytest.param(RunConfig(protocol="ot", secret="1", inputs="01", seed=17, mode="sample:1"),
                 id="ot-input-pair"),
    pytest.param(RunConfig(protocol="mpsc", secret="1", inputs="10,01,11", seed=17,
                           mode="sample:1"), id="mpsc-input-pair"),
    pytest.param(RunConfig(protocol="tpsc", secret="1", seed=17, mode="sample:1"),
                 id="tpsc-empty-inputs"),
    pytest.param(RunConfig(protocol="mpsc", secret="1", seed=17, mode="sample:1"),
                 id="mpsc-empty-inputs"),
])
def test_run_from_config_round_trip(config):
    rec = run_from_config(config)
    assert rec.verdict.accepted
    assert rec.config == config
    again = run_from_config(config)
    assert rec.transcript.to_text() == again.transcript.to_text()


def test_run_from_config_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        run_from_config(RunConfig(protocol="nope", secret="1"))


@pytest.mark.parametrize("config, message", [
    (RunConfig(protocol="ot", secret="0", inputs="--"), "ot takes --inputs as the receiver pair"),
    (RunConfig(protocol="tpsc", secret="1", inputs="10"), "tpsc needs --inputs like 10,01"),
    (RunConfig(protocol="mpsc", secret="1", inputs="10,--,11"), "mpsc needs --inputs like"),
    (RunConfig(protocol="qds", secret="12"), "qds needs --secret as a bit string"),
    (RunConfig(protocol="bc", secret="q"), "bc needs --secret 0 or 1"),
    (RunConfig(protocol="qss", secret="x"), "qss needs --secret 0, 1, q"),
    (RunConfig(protocol="qss", secret="q:1,0,0,1"), "not normalised"),
    (RunConfig(protocol="bc", secret="0", nu=4), "channel labels must be in 0..3"),
    (RunConfig(protocol="ct", secret="0", seed=-2), "seed must be >= 0"),
    (RunConfig(protocol="qds", secret="101", k=9), "qds runs k=3 chains for secret '101'"),
    (RunConfig(protocol="ct", secret="1", k=2), "ct runs k=1 chains for secret '1', got k=2"),
    *((RunConfig(protocol=p, secret="1", inputs=inputs, mode="forced:00:01,11:10"),
       f"{p} runs one chain and takes one forced cell, got 2")
      for p, inputs in [("bc", ""), ("ct", ""), ("ot", ""), ("tpsc", "10,01"), ("qss", ""),
                        ("mpsc", "10,01,11")]),
    (RunConfig(protocol="bc", secret="1", mode="forced:00"), "'00' is not of the form aa:cc"),
    (RunConfig(protocol="qds", secret="1", mode="forced:01:10:11"),
     "'01:10:11' is not of the form aa:cc"),
    (RunConfig(protocol="tpsc", secret="1", mode="forced:00:01;masks:1"),
     "tpsc takes 2 mask bits, got 1"),
    (RunConfig(protocol="mpsc", secret="1", mode="forced:00:01;masks:0110"),
     "mpsc takes 3 mask bits, got 4"),
    (RunConfig(protocol="bc", secret="1", mode="forced:00:01;masks:0"),
     "bc takes 0 mask bits, got 1"),
    (RunConfig(protocol="tpsc", secret="1", mode="forced:00:01;masks:12"), "masks '12'"),
    (RunConfig(protocol="tpsc", secret="1", mode="sample:1;masks:"), "masks ''"),
    (RunConfig(protocol="qds", secret="10", k=2, mode="forced:00:00"),
     "qds runs 2 chains and takes 2 forced cells, got 1 in mode 'forced:00:00'"),
    (RunConfig(protocol="ot", secret="1", inputs="01", mode="forced:00:10"),
     "mode 'forced:00:10' forces the ot input pair cc=10, but --inputs gives 01"),
    (RunConfig(protocol="mpsc", secret="1", inputs="00,00,01", mode="forced:00:10"),
     "mode 'forced:00:10' forces the mpsc input pair cc=10, but --inputs gives 01"),
])
def test_spec_parse_names_the_bad_value(config, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        spec_for(config.protocol).runner_kwargs(config)


_CELL = (ALL_PAIRS[0], ALL_PAIRS[0])


@pytest.mark.parametrize("call, message", [
    (lambda: qds_run([1, 0], None, forced=[_CELL]), "list of one cell per message bit"),
    (lambda: qds_run([1], None, forced=[_CELL] * 2), "list of one cell per message bit"),
    (lambda: qds_run([1, 0], None, forced=(_CELL,) * 2), "list of one cell per message bit"),
    (lambda: qds_run([], None), "message must be a non-empty bit sequence"),
    (lambda: qds_run([1, 2], None), "message must be a non-empty bit sequence"),
    (lambda: qss_run(StateVector([1, 0, 0, 0])), "payload must be a single qubit"),
    (lambda: qss_run(2), "secret must be a bit or a 1-qubit state, got 2"),
    (lambda: bc_run(2), "secret must be a bit or a 1-qubit state, got 2"),
], ids=["qds-short-forced", "qds-long-forced", "qds-tuple-forced", "qds-empty", "qds-non-bit",
        "qss-two-qubits", "qss-non-bit", "bc-non-bit"])
def test_runner_rejects_a_bad_library_argument(call, message):
    """Library callers reach the runners without a configuration: each checks
    its own arguments, as a plain ValueError rather than a ConfigError."""
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        call()
    assert type(raised.value) is ValueError


@pytest.mark.parametrize("config", [
    RunConfig(protocol="mpsc", secret="1", inputs="00,00,--", mode="forced:00:10"),
    RunConfig(protocol="ot", secret="1", mode="forced:00:10"),
    RunConfig(protocol="ot", secret="1", inputs="10", mode="forced:00:--"),
], ids=["mpsc-open-inputs", "ot-no-inputs", "ot-open-mode"])
def test_relay_input_pair_comes_from_whichever_of_mode_and_inputs_gives_it(config):
    """ot's receiver pair and mpsc's relay pair ride the relay outcome cc: a
    cc the mode forces or an input pair given runs as cc=10, never drawn."""
    rec = run_from_config(config)
    assert any(ev.payload == "cc=10" for ev in rec.transcript.events)


@pytest.mark.parametrize("protocol, default", [("tpsc", "00,00"), ("mpsc", "00,00,--")])
def test_empty_inputs_run_as_the_default_inputs(protocol, default):
    def events(inputs):
        rec = run_from_config(RunConfig(protocol=protocol, secret="1", inputs=inputs,
                                        seed=9, mode="sample:1"))
        return rec.verdict, [(e.step, e.actor, e.action, e.payload) for e in rec.transcript.events]

    assert events("") == events(default)
