import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from bellproto.algebra import LABELS, PAIRS, TwoBits
from bellproto.attacks import (
    CATALOG,
    SecurityReport,
    _view_config,
    enumeration_cells,
    expected_bound_met,
    run_cell,
    run_strategy,
    strategies_for,
    view_distance,
)
from bellproto.dense import trace_distance
from bellproto.identities import otp_certify
from bellproto.protocols import ConfigError, _encode_qubit, bc_run, spec_for
from bellproto.states import Rng
from bellproto.transcript import RunConfig
from test_golden import VIEWS


def config_for(protocol, **overrides):
    base = dict(protocol=protocol, secret="0", inputs="", seed=0, mode="enumerate")
    if protocol == "tpsc":
        base["inputs"] = "10,01"
        base["secret"] = "1"
    if protocol == "mpsc":
        base["inputs"] = "10,01,11"
    if protocol == "qds":
        base["secret"] = "1011"
        base["k"] = 4
    base.update(overrides)
    return RunConfig(**base)


# --- binding suite ------------------------------------------------------------


def test_bc_reveal_flip_detected_always():
    for secret in ("0", "1"):
        report = run_strategy(config_for("bc", secret=secret), "reveal-flip")
        assert report.detection == Fraction(1)
        assert report.cells == 16 and report.rejected == 16


def test_bc_aa_substitution_detected_always():
    report = run_strategy(config_for("bc"), "aa-substitute")
    assert report.detection == Fraction(1)
    assert report.cells == 32  # two observable masks, sixteen cells each


def test_bc_phase_only_substitution_is_the_documented_gap():
    report = run_strategy(config_for("bc"), "aa-phase-substitute")
    assert report.detection == Fraction(0)
    assert "phase" in report.note


def test_qds_forgery_detected_always():
    report = run_strategy(config_for("qds"), "message-flip")
    assert report.detection == Fraction(1)
    assert report.cells == 4 * 16  # one variant per position


def test_qds_reveal_flip_detected_always():
    report = run_strategy(config_for("qds"), "reveal-flip")
    assert report.detection == Fraction(1)


def test_ct_substitution_rates_are_exact():
    fixed = run_strategy(config_for("ct"), "fixed-qubit")
    assert fixed.detection == Fraction(1, 2)
    wrong = run_strategy(config_for("ct"), "wrong-rekey")
    assert wrong.detection == Fraction(1, 2)


def test_null_strategy_reproduces_honest_runs():
    for protocol in ("bc", "ct", "ot", "tpsc", "qss", "qds", "mpsc"):
        report = run_strategy(config_for(protocol), "null")
        assert report.detection == Fraction(0), protocol


def test_detection_is_exact_rational_with_expected_denominator():
    report = run_strategy(config_for("ct"), "wrong-rekey")
    assert isinstance(report.detection, Fraction)
    assert (Fraction(report.rejected, report.cells)) == report.detection
    assert report.cells == 64  # 4 substituted labels x 16 outcome cells


def test_sampled_mode_agrees_with_enumeration_at_three_sigma():
    exact = run_strategy(config_for("ct"), "fixed-qubit")
    sampled = run_strategy(config_for("ct"), "fixed-qubit", mode="sample",
                           trials=10_000, seed=31337)
    assert abs(sampled.estimate - float(exact.detection)) <= sampled.interval
    assert type(sampled.interval) is float  # so the report's repr shows no np.float64


def test_expected_bounds_gate():
    entry = CATALOG[("bc", "reveal-flip")]
    good = run_strategy(config_for("bc"), "reveal-flip")
    assert expected_bound_met(good, entry)
    fake = SecurityReport(strategy="reveal-flip", protocol="bc", mode="enumerate",
                          cells=16, rejected=15)
    assert not expected_bound_met(fake, entry)


def test_unknown_strategy_raises():
    with pytest.raises(KeyError):
        run_strategy(config_for("bc"), "does-not-exist")


@pytest.mark.parametrize("mode", ["enumerate", "sample"])
@pytest.mark.parametrize("trials", [0, -3])
def test_run_strategy_rejects_fewer_than_one_trial(mode, trials):
    # the CLI passes --samples in both modes, so both check it
    with pytest.raises(ConfigError, match=r"trials \(--samples\) must be >= 1"):
        run_strategy(config_for("bc"), "null", mode=mode, trials=trials, seed=1)


def _events(record):
    return [(ev.step, ev.actor, ev.action, ev.payload) for ev in record.transcript.events]


def test_every_catalog_variant_reaches_its_hook():
    # a variant whose hook step or deviation kind no runner reads leaves every
    # cell honest; for aa-phase-substitute (expected detection 0) only this
    # test would notice
    for (protocol, name), entry in sorted(CATALOG.items()):
        if name == "null":
            continue
        config = config_for(protocol)
        cells = list(enumeration_cells(config))
        honest = [_events(run_cell(config, dict(cell), None, None)) for cell in cells]
        for cheat in entry.variants(config):
            changed = sum(
                _events(run_cell(config, dict(cell), cheat, None)) != events
                for cell, events in zip(cells, honest)
            )
            assert changed > 0, cheat.name


def test_every_report_carries_the_scope_note():
    for name in strategies_for("bc"):
        report = run_strategy(config_for("bc"), name)
        assert "enumerated deviation family" in report.note


def test_capture_strategy_runs_in_enumerate_mode_only():
    config = config_for("qss")
    with pytest.raises(ConfigError, match="enumerate mode only"):
        run_strategy(config, "charlie-skip-bsm", mode="sample", trials=4, seed=3)
    for name in ("charlie-skip-bsm", "null"):
        with pytest.raises(ValueError, match="mode must be enumerate or sample"):
            run_strategy(config, name, mode="exhaustive")


# --- hiding suite -------------------------------------------------------------


def test_bc_receiver_prereveal_view_is_secret_independent():
    dist = view_distance("bc", "bob", vary="secret", values=(0, 1),
                         cut_step="reveal")
    assert dist <= 1e-12


def test_bc_receiver_full_view_distinguishes_after_reveal():
    dist = view_distance("bc", "bob", vary="secret", values=(0, 1))
    assert dist == pytest.approx(1.0, abs=1e-12)


def test_ot_receiver_view_is_secret_independent():
    dist = view_distance("ot", "bob", vary="secret", values=(0, 1))
    assert dist <= 1e-12


def test_tpsc_sender_cannot_see_receiver_message_bit():
    dist = view_distance("tpsc", "alice", vary="inputs",
                         values=("10,00", "10,10"),  # flip the receiver message bit
                         fixed={"secret": 1})
    assert dist <= 1e-12


def test_tpsc_receiver_cannot_see_sender_message_bit():
    dist = view_distance("tpsc", "bob", vary="inputs",
                         values=("00,01", "10,01"),  # flip the sender message bit
                         fixed={"secret": 1})
    assert dist <= 1e-12


def test_tpsc_signature_bits_are_visible():
    dist = view_distance("tpsc", "bob", vary="inputs",
                         values=("00,01", "01,01"),  # flip the sender signature bit
                         fixed={"secret": 1})
    assert dist == pytest.approx(1.0, abs=1e-12)


def test_qss_single_shareholders_learn_nothing():
    for observer in ("bob", "charlie"):
        dist = view_distance("qss", observer, vary="secret", values=(0, 1),
                             fixed={"runner_kwargs": {"reconstruct": False}})
        assert dist <= 1e-12, observer


def test_mpsc_message_bits_stay_hidden_given_signatures():
    # sender's view of the receiver message bit
    dist = view_distance("mpsc", "alice", vary="inputs",
                         values=("10,01,11", "10,11,11"), fixed={"secret": 1})
    assert dist <= 1e-12
    # receiver's view of the sender message bit
    dist = view_distance("mpsc", "bob", vary="inputs",
                         values=("00,01,11", "10,01,11"), fixed={"secret": 1})
    assert dist <= 1e-12
    # sender's view of the relay message bit (its outcome-pair Z bit)
    dist = view_distance("mpsc", "alice", vary="inputs",
                         values=("10,01,01", "10,01,11"), fixed={"secret": 1})
    assert dist <= 1e-12
    # relay's view of the other parties' message bits
    dist = view_distance("mpsc", "charlie", vary="inputs",
                         values=("00,01,11", "10,01,11"), fixed={"secret": 1})
    assert dist <= 1e-12
    dist = view_distance("mpsc", "charlie", vary="inputs",
                         values=("10,01,11", "10,11,11"), fixed={"secret": 1})
    assert dist <= 1e-12


@pytest.mark.parametrize("protocol, mode", [
    ("bc", "forced:00:01"), ("bc", "forced:--:--"), ("tpsc", "enumerate;masks:01")])
def test_run_strategy_rejects_a_mode_that_fixes_cells_or_masks(protocol, mode):
    # a pinned cc used to cover a quarter of the cells under "mode enumerate",
    # and a forced sample ran its one cell every trial
    config = config_for(protocol, mode=mode)
    for report_mode in ("enumerate", "sample"):
        with pytest.raises(ConfigError, match=re.escape(f"mode {mode!r} fixes cells or masks")):
            run_strategy(config, "null", mode=report_mode, trials=4, seed=1)


def test_observer_on_own_secret_sees_everything():
    dist = view_distance("bc", "alice", vary="secret", values=(0, 1))
    assert dist == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kwargs, offender", [
    (dict(vary="sekret", values=(0, 1)), "'sekret'"),
    (dict(vary="secret", values=(0, 1), fixed={"cut_step": "reveal"}), "'cut_step'"),
    (dict(vary="secret", values=(0, 1), fixed={"runner_kwarg": {}}), "'runner_kwarg'"),
    (dict(vary="secret", values=(0, 1, 1)), "two values, got 3"),
], ids=["vary", "fixed", "runner_kwarg", "three-values"])
def test_view_distance_rejects_what_it_cannot_compare(kwargs, offender):
    # a misspelt key used to be ignored, and a distance of 0.0 reads as hiding
    with pytest.raises(ValueError, match=re.escape(offender)):
        view_distance("bc", "bob", **kwargs)


@pytest.mark.parametrize("observer", ["charlie", "eve"])
def test_view_distance_rejects_an_observer_who_holds_no_station(observer):
    # such an observer sees no event, so its empty views used to read 0.0: hiding
    with pytest.raises(ValueError, match=re.escape(
            f"observer {observer!r} holds no station of bc; its controllers are alice, bob")):
        view_distance("bc", observer, vary="secret", values=(0, 1))


# --- the closed-form views against the eigenvalue oracle ------------------------


def _matrix_views(records, observer, weight, cut_step=None):
    """Each view as a matrix: the weighted projectors of the qubit the observer
    holds, summed, or its weight as a 1x1 matrix when it holds none."""
    out = {}
    for rec in records:
        view = rec.view(observer, cut_step=cut_step)
        frame = rec.held.get(observer)
        amps = None if frame is None else frame.state().amplitudes
        state = weight * (np.ones((1, 1)) if amps is None else np.outer(amps, amps.conj()))
        out[view] = out[view] + state if view in out else state
    return out


def _oracle_view_distance(protocol, observer, *, vary, values, fixed=None, cut_step=None):
    fixed = dict(fixed or {})
    runner_kwargs = fixed.pop("runner_kwargs", {})
    sides = []
    for value in values:
        config = _view_config(protocol, {**fixed, vary: value})
        cells = list(enumeration_cells(config))
        records = [run_cell(config, {**cell, **runner_kwargs}, None, None) for cell in cells]
        sides.append(_matrix_views(records, observer, 1.0 / len(cells), cut_step))
    a, b = sides
    return sum(trace_distance(a.get(view, 0.0), b.get(view, 0.0)) for view in set(a) | set(b))


@pytest.mark.parametrize("protocol, observer, kwargs", VIEWS,
                         ids=[f"{p}-{o}-{i}" for i, (p, o, _k) in enumerate(VIEWS)])
def test_view_distance_matches_the_eigenvalue_oracle(protocol, observer, kwargs):
    """Every golden view row: the Bloch closed form against the trace norm of
    the summed projectors."""
    got = view_distance(protocol, observer, **kwargs)
    assert abs(got - _oracle_view_distance(protocol, observer, **kwargs)) <= 1e-15


# basis, the forced probe, real and complex explicit payloads, seeded random qubits
_CAPTURE_SECRETS = ("0", "1", "q", "q:0.6,0,0.8,0", "q:0,0.6,0,-0.8", "q:0.5,0.5,0.5,-0.5",
                    *(_encode_qubit(Rng(seed).unit_qubit()) for seed in (1, 7, 31)))


def test_qss_relay_capture_leaves_maximally_mixed_state():
    """Averaging over the four sender outcomes is a Pauli twirl: the captured
    Bloch vector sums to exactly zero for every payload on every chain, so the
    catalog's capture ceiling is 0.0.  The eigenvalue oracle agrees to rounding."""
    cheat = CATALOG[("qss", "charlie-skip-bsm")].variants(config_for("qss"))[0]
    for secret, mu, nu in itertools.product(_CAPTURE_SECRETS, LABELS, LABELS):
        config = config_for("qss", secret=secret, mu=mu, nu=nu)
        assert run_strategy(config, "charlie-skip-bsm").state_distance == 0.0
        records = [run_cell(config, {"forced": (aa, None)}, cheat, None) for aa in PAIRS]
        [avg] = _matrix_views(records, "charlie", 0.25).values()
        assert trace_distance(avg, np.eye(2) / 2) <= 1e-15


# --- one-time-pad certification --------------------------------------------------


def test_pad_full_uniform_set_certifies():
    assert otp_certify(LABELS, [0.25] * 4)


def test_pad_pairs_fail():
    assert not otp_certify([0, 1], [0.5, 0.5])
    assert not otp_certify([0, 3], [0.5, 0.5])  # passes real probes, fails complex one
    assert not otp_certify([0], [1.0])


def test_pad_exactly_one_of_fifteen_uniform_subsets():
    certified = []
    for r in range(1, 5):
        for subset in itertools.combinations(LABELS, r):
            if otp_certify(subset, [1.0 / len(subset)] * len(subset)):
                certified.append(subset)
    assert certified == [(0, 1, 2, 3)]


def test_pad_nonuniform_full_set_fails():
    assert not otp_certify(LABELS, [0.4, 0.2, 0.2, 0.2])


def test_pad_validates_arguments():
    with pytest.raises(ValueError):
        otp_certify([], [])
    with pytest.raises(ValueError):
        otp_certify([0, 1], [0.7, 0.7])


# --- enumeration plumbing ----------------------------------------------------------


CELL_CASES = (  # protocol, inputs, the cc its inputs pin (or None), cell count
    ("bc", "", None, 16),
    ("ct", "", None, 16),
    ("ot", "", None, 16),
    ("ot", "10", "10", 4),
    ("tpsc", "10,01", None, 64),
    ("qss", "", None, 16),
    ("qds", "", None, 16),
    ("mpsc", "10,01,11", "11", 32),
    ("mpsc", "10,01,--", None, 128),
)


def test_enumeration_cell_counts():
    for protocol, inputs, pinned, count in CELL_CASES:
        spec = spec_for(protocol)
        cells = list(enumeration_cells(config_for(protocol, inputs=inputs)))
        assert len(cells) == count, protocol
        keys = set()
        for cell in cells:
            forced = cell["forced"]
            pairs = forced if isinstance(forced, list) else [forced]
            assert len(set(pairs)) == 1  # qds forces the same pair on every chain
            aa, cc = pairs[0]
            assert aa is not None and cc is not None
            if pinned is not None:
                assert cc == TwoBits.parse(pinned)
            masks = cell.get("masks", ())
            assert len(masks) == spec.masks
            keys.add((aa, cc, masks))
        assert len(keys) == count, f"{protocol} repeats a cell"


def test_run_cell_matches_direct_call():
    cell = {"forced": (TwoBits(1, 0), TwoBits(0, 1))}
    via_cell = run_cell(config_for("bc", secret="1"), dict(cell), None, None)
    direct = bc_run(1, None, forced=(TwoBits(1, 0), TwoBits(0, 1)))
    assert via_cell.verdict == direct.verdict


def test_forced_qss_cells_run_the_requested_payload(monkeypatch):
    from bellproto import attacks
    from bellproto.algebra import pauli_matrix
    from bellproto.cli import EXIT_OK, main
    from bellproto.dense import basis_state
    from bellproto.states import StateVector, infer_tau
    from conftest import equal_up_to_phase

    secret = "q:0,0,1,0"  # |1>
    one = basis_state("1").amplitudes
    config = RunConfig(protocol="qss", mu=1, nu=2, secret=secret, mode="enumerate")
    for cell in enumeration_cells(config):
        rec = run_cell(config, {**cell, "reconstruct": False}, None, None)
        assert rec.config.secret == secret
        aa, cc = cell["forced"]
        moved = StateVector(pauli_matrix(infer_tau(aa, cc, 1, 2)) @ one)
        assert equal_up_to_phase(rec.held["bob"].state(), moved)

    records = []

    def recording_run_cell(*args):
        records.append(run_cell(*args))
        return records[-1]

    monkeypatch.setattr(attacks, "run_cell", recording_run_cell)
    argv = ["attack", "--protocol", "qss", "--strategy", "null", "--secret", secret]
    assert main(argv) == EXIT_OK
    assert len(records) == 16
    for rec in records:
        assert rec.config.secret == secret
        assert equal_up_to_phase(rec.held["bob"].state(), basis_state("1"))
