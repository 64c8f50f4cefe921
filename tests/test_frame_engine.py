"""The Pauli-frame runtime against the dense reference engine.

``DenseRun`` keeps the dense bodies of the run's engine steps
(``open_chain``, ``apply``, ``measure`` and ``twin_bit``) on the five-wire
register of :mod:`bellproto.dense`.  Every runner is driven through both
engines over every forced cell of the golden configurations, every catalog
variant's cells and sampled seeds of every protocol, and must give the same
transcript bytes, verdicts and values, the same fidelity within ``TOL_EQ``
and the same held qubits up to phase.  The frame's steps are also checked
one by one against the dense ones.
"""

from __future__ import annotations

import itertools
import re
from functools import reduce

import numpy as np
import pytest

from bellproto import dense, protocols, states
from bellproto.algebra import LABELS, PAIRS, TwoBits, pauli_matrix
from bellproto.attacks import CATALOG, enumeration_cells, run_cell
from bellproto.protocols import Run, _payload_state, run_from_config, spec_for
from bellproto.states import (
    TOL_EQ,
    Frame,
    Rng,
    StateVector,
    infer_tau,
    qubit,
)
from conftest import equal_up_to_phase
from test_golden import FORCED_CONFIGS, REPORT_CONFIGS, _sampled


class DenseRun(Run):
    """A run whose chain is the dense five-wire register."""

    def twin_bit(self, bit: int, *labels: int) -> int:
        amps = reduce(np.matmul, map(pauli_matrix, labels)) @ _payload_state(bit).amplitudes
        return dense.measure_qubit(StateVector(amps), 0, self.born)[0]

    def open_chain(self, secret, *, forced=None, nu_secret_of=None,
                   sender_pre_label=None, skip_relay=False):
        mu, nu, relay = self.mu, self.nu, self.relay
        forced_aa, forced_cc = forced or (None, None)
        register = dense.chain_register(mu, nu, _payload_state(secret))
        self.announce("setup", "alice", "channel_sender_relay", f"mu={mu}")
        if nu_secret_of is None:
            self.announce("setup", relay, "channel_relay_receiver", f"nu={nu}")
        else:
            self.local("setup", nu_secret_of, "channel_relay_receiver", f"nu={nu}")

        cc = None
        if skip_relay:
            self.local("1", relay, "relay_bsm_skipped", "withheld")
        else:
            cc, register = dense.bsm(register, (2, 3), self.born, force=forced_cc)
            self.local("1", relay, "relay_bsm", f"cc={cc}")

        if sender_pre_label is not None:
            register = dense.apply_pauli(register, sender_pre_label, 0)
            self.local("2", "alice", "apply_input", "label=private")
        aa, register = dense.bsm(register, (0, 1), self.born, force=forced_aa)
        self.local("2", "alice", "sender_bsm", f"aa={aa}")
        # raises if the freed wire were still entangled
        self.moved = dense.extract_qubit(register, 2 if skip_relay else 4)
        return aa, cc

    def apply(self, label: int) -> None:
        self.moved = dense.apply_pauli(self.moved, label, 0)

    def measure(self) -> int:
        bit, self.moved = dense.measure_qubit(self.moved, 0, self.born)
        return bit

    def moved_state(self) -> StateVector:
        return self.moved


@pytest.fixture
def both_engines(monkeypatch):
    """Run a driver under the frame engine, then under the dense one."""

    def run(driver):
        frame = driver()
        with monkeypatch.context() as patch:
            patch.setattr(protocols, "Run", DenseRun)
            reference = driver()
        return frame, reference

    return run


def _assert_same_runs(frame_records, dense_records):
    assert len(frame_records) == len(dense_records) > 0
    for got, want in zip(frame_records, dense_records):
        assert got.transcript.to_text() == want.transcript.to_text()
        assert got.verdict == want.verdict
        values, expected = dict(got.values), dict(want.values)
        assert abs(values.pop("fidelity", 0.0) - expected.pop("fidelity", 0.0)) <= TOL_EQ
        assert values == expected
        assert got.held.keys() == want.held.keys()
        for party, frame in got.held.items():
            assert equal_up_to_phase(frame.state(), want.held[party])


def test_the_reference_runs_build_the_dense_register(both_engines, monkeypatch):
    """Guards the fixture: the runners build the run class it patches in."""
    built = []
    chain_register = dense.chain_register
    monkeypatch.setattr(dense, "chain_register",
                        lambda *args: built.append(None) or chain_register(*args))
    config = FORCED_CONFIGS[0]
    cells = list(enumeration_cells(config))

    def driver():
        built.clear()
        for cell in cells:
            run_cell(config, dict(cell), None, None)
        return len(built)

    assert both_engines(driver) == (0, len(cells))


@pytest.mark.parametrize("config", FORCED_CONFIGS,
                         ids=[f"{c.protocol}-mu{c.mu}-nu{c.nu}-{c.secret}-{c.inputs or '-'}"
                              for c in FORCED_CONFIGS])
def test_every_forced_cell_matches_the_dense_engine(both_engines, config):
    _assert_same_runs(*both_engines(lambda: [
        run_cell(config, dict(cell), None, None) for cell in enumeration_cells(config)]))


def _variant_cells(protocol, name):
    config = REPORT_CONFIGS[protocol]
    entry = CATALOG[(protocol, name)]
    cells = [dict(cell) for cell in enumeration_cells(config)]
    if entry.metric == "mixedness":  # the capture cells leave the relay's pair to the Born rule
        kwargs = spec_for(protocol).runner_kwargs(config)
        cells += [{**kwargs, "forced": (aa, None)} for aa in PAIRS]
    return [run_cell(config, dict(cell), cheat, None)
            for cheat in entry.variants(config) for cell in cells]


@pytest.mark.parametrize("protocol,name", sorted(CATALOG),
                         ids=[f"{p}-{n}" for p, n in sorted(CATALOG)])
def test_every_catalog_variant_matches_the_dense_engine(both_engines, protocol, name):
    _assert_same_runs(*both_engines(lambda: _variant_cells(protocol, name)))


SAMPLED = [(p, {}) for p in ("bc", "ct", "ot", "tpsc", "mpsc")]
SAMPLED += [("qss", {"secret": s}) for s in ("0", "1", "q")] + [("qds", {"k": 3})]


@pytest.mark.parametrize("protocol,extra", SAMPLED,
                         ids=[f"{p}-{'-'.join(map(str, e.values())) or 'default'}"
                              for p, e in SAMPLED])
def test_sampled_seeds_match_the_dense_engine(both_engines, protocol, extra):
    _assert_same_runs(*both_engines(lambda: [
        run_from_config(_sampled(protocol, s, **extra)) for s in range(20)]))


def test_forced_runs_derive_a_stream_only_where_they_draw(monkeypatch):
    """A forced run draws no Bell outcome and no mask, so it derives no
    stream; qds derives its shared stream, which orders the split shares,
    once per run.  The seed-0 stream that runs without a generator derive
    from is never drawn from, so it is never seeded."""
    built, init = [], Rng.__init__
    monkeypatch.setattr(Rng, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))

    def runs_and_streams(run_all):
        built.clear()
        return len(run_all()), len(built)

    for config in FORCED_CONFIGS:
        runs, streams = runs_and_streams(lambda: [
            run_cell(config, dict(cell), None, None) for cell in enumeration_cells(config)])
        assert streams == (runs if config.protocol == "qds" else 0), config
    for protocol, name in sorted(CATALOG):
        runs, streams = runs_and_streams(lambda: _variant_cells(protocol, name))
        assert streams == (runs if protocol == "qds" else 0), (protocol, name)
    assert protocols._SEED_0._state is None


# --- the frame's steps, one by one ----------------------------------------------


def _probes():
    rng = Rng(5)
    return [qubit(1, 0), qubit(0, 1), qubit(0.6, 0.8j), *(rng.unit_qubit() for _ in range(4))]


def _frame(state: StateVector, label: int = 0, pairs: int = 0) -> Frame:
    return Frame(tuple(state.amplitudes.tolist()), label, pairs)


def test_chain_frame_carries_the_dense_moved_qubit():
    """For every chain, cell and pre-applied operator, and with the relay
    skipped, the frame's qubit is the dense engine's up to phase."""
    for probe in _probes()[2:4]:
        for mu, nu, aa, cc, pre in itertools.product(LABELS, repeat=5):
            register = dense.apply_pauli(dense.chain_register(mu, nu, probe), pre, 0)
            _, register = dense.bsm(register, (2, 3), force=cc)
            _, register = dense.bsm(register, (0, 1), force=aa)
            frame = states.apply_pauli(_frame(probe, mu ^ nu, 2), pre)
            # no stream: a forced pair draws nothing
            out_cc, frame = states.bsm(frame, None, force=PAIRS[cc])
            out_aa, frame = states.bsm(frame, None, force=PAIRS[aa])
            assert (out_aa.label, out_cc.label) == (aa, cc)
            assert equal_up_to_phase(states.extract_qubit(frame).state(),
                                     dense.extract_qubit(register, 4))
            assert frame.label == infer_tau(out_aa, out_cc, mu, nu) ^ pre
        for mu, aa in itertools.product(LABELS, repeat=2):
            _, register = dense.bsm(dense.chain_register(mu, 0, probe), (0, 1), force=aa)
            _, frame = states.bsm(_frame(probe, mu, 1), None, force=PAIRS[aa])
            assert equal_up_to_phase(frame.state(), dense.extract_qubit(register, 2))


def test_sampled_bell_outcomes_draw_exact_quarters_from_the_stream():
    for seed in range(40):
        rng = Rng(seed)
        frame = _frame(qubit(1, 0), 0, 2)
        cc, frame = states.bsm(frame, rng)
        aa, frame = states.bsm(frame, rng)
        twin = Rng(seed)
        assert [cc.label, aa.label] == [twin.choose([0.25] * 4) for _ in range(2)]
        dense_probs = dense.bsm_probabilities(dense.chain_register(0, 0, qubit(1, 0)), (2, 3))
        assert np.abs(dense_probs - 0.25).max() <= TOL_EQ


def test_z_measurement_matches_the_dense_born_rule():
    """Where the moved qubit is a basis state the frame reads the dense
    engine's certain bit; any other payload is not Z-measured."""
    for probe, label in itertools.product(_probes(), LABELS):
        moved = StateVector(pauli_matrix(label) @ probe.amplitudes)
        if np.abs(moved.amplitudes).max() < 1 - 1e-12:
            with pytest.raises(ValueError, match="only a basis payload"):
                states.measure_qubit(_frame(probe, label))
            continue
        got, after = states.measure_qubit(_frame(probe, label))
        assert got == dense.measure_qubit(moved, 0)[0]
        assert equal_up_to_phase(after.state(), qubit(1 - got, got))


def test_frame_steps_reject_what_the_dense_steps_reject():
    chain = _frame(qubit(1, 0), 0, 2)
    with pytest.raises(ValueError, match="label must be in 0..3"):
        states.apply_pauli(chain, 4)
    for pairs in (1, 2):  # the carrying wire is entangled until both pairs are crossed
        with pytest.raises(ValueError, match="entangled"):
            states.extract_qubit(chain._replace(pairs=pairs))
        with pytest.raises(ValueError, match="no qubit"):
            states.measure_qubit(chain._replace(pairs=pairs))
        with pytest.raises(ValueError, match="no qubit"):
            chain._replace(pairs=pairs).state()
    with pytest.raises(ValueError, match="no Bell pair"):
        states.bsm(chain._replace(pairs=0), Rng(0))
    # a parsed pair is not one of PAIRS; its xor is a pair, still not a label
    pair = TwoBits.parse("10") ^ PAIRS[1]
    assert pair == PAIRS[3] and str(pair) == f"{pair}" == "11"
    rejected = re.escape(f"label must be in 0..3, got {pair!r}")
    with pytest.raises(ValueError, match=rejected):
        states.apply_pauli(chain, pair)
    with pytest.raises(ValueError, match=rejected):
        dense.apply_pauli(qubit(1, 0), pair, 0)
