"""Multiparty protocol runtime over one Bell chain, tracked as a Pauli frame.

Seven protocols share the same backbone: a relay Bell measurement that
swaps entanglement onto the outer stations, a sender Bell measurement that
moves the payload to the receiver, and classical verification built on the
correction label ``tau = aa ^ cc ^ mu ^ nu``.  In every protocol alice
holds station A, the sender, and bob station B, the receiver; only the
relay at station C varies: bob again in the two-party protocols, charlie
in the multiparty ones.

Every run is driven either by sampled Bell outcomes (seeded, reproducible)
or by forced outcomes (post-selection; every Bell outcome here has
probability exactly 1/4, so forcing is sound and lets the verification
suites enumerate the full outcome space instead of sampling it).  Every
runner forces a cell the same way, ``forced=(aa, cc)``: the sender's and
the relay's outcome pairs, either of which may be None (drawn).  For ot
and mpsc ``cc`` is the receiver's or the relay's input pair; qds takes a
list of one cell per chain, and tpsc and mpsc also take their private
``masks``.  A run records its cells and masks in its configuration's
``mode`` (``forced:10:01;masks:01``), which ``parse_mode`` reads back;
every protocol's forced mode carries exactly one cell per chain.  All
classical and quantum traffic is logged to a transcript with per-event
visibility, from which each party's view is reconstructed for the
information-hiding checks.  The steps the runners repeat are written once
on :class:`Run`.  The engine is the Pauli frame of :mod:`bellproto.states`:
``open_chain`` runs the Bell measurements and keeps the freed wire's
qubit, the payload under a Pauli label, on which ``apply``, ``measure``
and ``measure_moved`` act.  ``twin_bit`` measures a sender's twin qubit,
``masks`` and ``mask`` give and apply private input masks, and
``conclude``, the one way a run ends, announces a verdict and returns the
run, its own record.  Amplitudes are built only where a runner reads them
(qss's fidelity); a held qubit stays its frame.  What does not change
from run to run is built once: the forced qss probe qubit and each
protocol's sorted controllers.

Measured-bit verification can see only the X part of a claimed bit pair:
the Z exponent of a correction acts as a global phase on basis states, so
verifiers log ``phase_unverified`` for the Z bit instead of pretending to
check it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor
from typing import Callable, Iterator, Mapping, Sequence

from . import states
from .algebra import LABELS, PAIRS, TwoBits, label_from_zx, x_bit
from .states import BASIS, Frame, Rng, StateVector, fidelity, infer_tau, qubit
from .transcript import RunConfig, Transcript

# the stream a run without a generator derives from: seed 0, as its
# configuration records; never drawn from, so its pool is mixed once
_SEED_0 = Rng(0)
# fixed derived-stream indices so replays are stable
_STREAM_BORN = 0
_STREAM_PARTY = {"alice": 1, "bob": 2, "charlie": 3}
_STREAM_SHARED = 9
_STREAM_SECRET = 99


class ConfigError(ValueError):
    """A configuration value no run can take; the message is meant for the user."""


@dataclass(frozen=True)
class Deviation:
    """One scripted departure from honest behaviour at a hook point.

    A ``shift`` XORs an int mask into the bits a step sends.  bc's reveal sends
    ``bit << 2 | aa.label``: 0b100 flips the bit, 0b001 aa's X bit, 0b010 its Z
    bit, 0b101 both (the joint break).  For qds, bit i flips message bit i.
    """

    kind: str  # shift | withhold | substitute_label | fresh_qubit | skip
    value: object = None


@dataclass(frozen=True)
class CheatStrategy:
    """A named adversary: honest everywhere except at its hooks."""

    name: str
    target: str
    hooks: Mapping[str, Deviation]


@dataclass(frozen=True, slots=True)
class Verdict:
    outcome: str  # accept | reject
    value: str = ""
    reason: str = ""

    @property
    def accepted(self) -> bool:
        return self.outcome == "accept"

    def line(self, extra: str = "") -> str:
        """CLI rendering: ``verdict=.. [value=..]{extra} [reason=..]``."""
        return (f"verdict={self.outcome}" + (f" value={self.value}" if self.value else "")
                + extra + (f" reason={self.reason}" if self.reason else ""))


class Run:
    """One execution: the steps the runners repeat, and its own record.

    A concluded run is its own record: its ``verdict``, ``transcript``, the
    runner's named ``values`` and ``held``, the qubit each party still holds
    at the end (party to its ``Frame``; no key for a party holding none).
    It keeps the chain labels ``mu`` and ``nu`` its chains run over, any
    masks it was given, and its spec's ``relay`` (station C) and
    ``controllers``.  Its configuration, kept only on its transcript, comes
    from ``spec.config`` over the runner's arguments: the generator's seed
    (0 without one), the forced cells and any given masks as ``mode`` and
    the cheater's name as ``strategy``.  The transcript builds it, ``mode``
    string included, the first time something reads it, so a run read for
    its verdict builds none.  Without a generator (forced-outcome runs) its
    streams derive from one module-level seed-0 stream, the seed the
    configuration records, which is only derived from, never drawn from.
    A stream is derived where it is first drawn from: the Born stream
    ``born``, which feeds the sampled Bell outcomes (the engine's only
    draws; a Z measurement reads its bit off the frame), at the run's first
    drawn outcome.  So a fully forced run derives no stream.

    After the sender's Bell measurement the run holds one qubit, ``moved``:
    a :class:`~bellproto.states.Frame`, the payload under its correction,
    on the receiver's wire or, after a skipped relay measurement, the
    relay's.  Every later step acts on it alone, a party left with it holds
    the frame, and ``moved_state`` builds its amplitudes for a reader (the
    tests' dense reference engine reads its register there instead).  The
    steps call ``states.<name>`` at call time, so a wrapper on the module
    attribute sees every transition.  A run ends only through ``conclude``,
    which announces one party's verdict and returns the run.
    """

    verdict: Verdict  # set by conclude

    def __init__(self, protocol: str, rng: Rng | None, cheat: CheatStrategy | None = None, *,
                 secret="", inputs: str = "", mu: int = 0, nu: int = 0, forced=None,
                 masks: tuple[int, ...] | None = None):
        spec = SPECS[protocol]
        self.relay, self.controllers = spec.relay, spec.controllers
        self.mu, self.nu, self._masks = mu, nu, masks
        self.transcript = Transcript(lambda: spec.config(
            secret=str(secret), inputs=inputs, mu=mu, nu=nu,
            seed=rng.seed if rng is not None else 0, mode=_mode_string(forced, masks),
            strategy=cheat.name if cheat else ""))
        # bound once: every logged event is one call of it
        self._append = self.transcript.append
        self.cheat = cheat
        self.base = rng if rng is not None else _SEED_0
        self._born: Rng | None = None
        self.held: dict[str, Frame] = {}
        self.values: dict[str, object] = {}

    @property
    def born(self) -> Rng:
        """The stream of the sampled Bell outcomes, derived at the first one."""
        if self._born is None:
            self._born = self.base.derive(_STREAM_BORN)
        return self._born

    @property
    def config(self) -> RunConfig:
        return self.transcript.config

    def view(self, controller: str, cut_step: str | None = None) -> tuple:
        """Ordered observations of one controller, optionally truncated.

        ``cut_step`` excludes the first event carrying that step tag and
        everything after it (used for pre-reveal views).
        """
        events = self.transcript.events
        if cut_step is not None:
            for i, ev in enumerate(events):
                if ev.step == cut_step:
                    events = events[:i]
                    break
        # (step, actor, action, payload) of each event the controller sees
        return tuple([ev[:4] for ev in events if controller in ev.visible])

    def deviation(self, step: str, kind: str) -> Deviation | None:
        """The cheater's deviation at ``step`` when it is of ``kind``, else None."""
        dev = self.cheat.hooks.get(step) if self.cheat else None
        return dev if dev is not None and dev.kind == kind else None

    def shift(self, step: str) -> int:
        """The cheater's shift mask at ``step``, 0 when there is none."""
        return getattr(self.deviation(step, "shift"), "value", 0)

    def local(self, step, actor, action, payload) -> None:
        self._append(step, actor, action, payload, "local", (actor,))

    def announce(self, step, actor, action, payload) -> None:
        self._append(step, actor, action, payload, "classical", self.controllers)

    def tell(self, step, frm, to, action, payload) -> None:
        # a message between two parties is visible to both, in sorted order
        self._append(step, frm, action, payload, "classical", (frm, to) if frm < to else (to, frm))

    def send_qubit(self, step, frm, to, action, payload="qubit") -> None:
        self._append(step, frm, action, payload, "quantum", (frm, to) if frm < to else (to, frm))

    def masks(self, parties: Sequence[str]) -> tuple[int, ...]:
        """The mask bits the run was given, else one per party from its own stream."""
        return self._masks if self._masks is not None else tuple(
            self.base.derive(_STREAM_PARTY[party]).bit() for party in parties)

    def mask(self, step: str, party: str, pair: TwoBits, mask: int) -> int:
        """The label of ``pair`` with its message (Z) bit hidden under ``mask``."""
        self.local(step, party, "mask_choice", f"mask={mask}")
        return label_from_zx(pair.hi ^ mask, pair.lo)

    def twin_bit(self, bit: int, *labels: int) -> int:
        """Measured bit of the basis state ``bit`` keyed by the labelled
        operators: a sender's twin qubit."""
        return states.measure_qubit(tuple.__new__(Frame, (BASIS[bit], reduce(xor, labels), 0)))[0]

    def open_chain(self, secret, *, forced=None, nu_secret_of: str | None = None,
                   sender_pre_label: int | None = None,
                   skip_relay: bool = False) -> tuple[TwoBits, TwoBits | None]:
        """Open a chain over the run's (mu, nu) carrying ``secret`` (a bit or
        a 1-qubit state): the relay Bell-measures its pair (2, 3), then the
        sender, after applying ``sender_pre_label`` to the payload when
        given, Bell-measures (0, 1) and so moves the payload to the
        receiver's wire 4, which the run keeps as ``moved``.

        Returns (aa, cc); cc is None when the relay skipped.  ``forced`` is
        the (aa, cc) cell to force; it, or either half, may be None (drawn from
        the Born rule).  ``nu_secret_of`` restricts who sees the receiver-side
        channel label.  ``skip_relay`` models a relay that withholds its
        measurement: the payload then moves onto the relay's wire 2.
        """
        mu, nu, relay = self.mu, self.nu, self.relay
        forced_aa, forced_cc = forced or (None, None)
        # the payload has both Bell pairs to cross, or only the sender's
        # when the relay withholds its measurement
        payload = (BASIS[secret] if secret in (0, 1)
                   else tuple(_payload_state(secret).amplitudes.tolist()))
        frame = tuple.__new__(Frame, (payload, mu, 1) if skip_relay else (payload, mu ^ nu, 2))
        self.announce("setup", "alice", "channel_sender_relay", f"mu={mu}")
        if nu_secret_of is None:
            self.announce("setup", relay, "channel_relay_receiver", f"nu={nu}")
        else:
            self.local("setup", nu_secret_of, "channel_relay_receiver", f"nu={nu}")

        cc = None
        if skip_relay:
            self.local("1", relay, "relay_bsm_skipped", "withheld")
        else:
            # a forced half draws nothing, so it is handed no stream
            cc, frame = states.bsm(frame, self.born if forced_cc is None else None,
                                   force=forced_cc)
            self.local("1", relay, "relay_bsm", f"cc={cc}")

        if sender_pre_label is not None:
            frame = states.apply_pauli(frame, sender_pre_label)
            self.local("2", "alice", "apply_input", "label=private")
        aa, frame = states.bsm(frame, self.born if forced_aa is None else None,
                               force=forced_aa)
        self.local("2", "alice", "sender_bsm", f"aa={aa}")
        self.moved = states.extract_qubit(frame)
        return aa, cc

    def apply(self, label: int) -> None:
        """Apply the labelled operator to the moved qubit."""
        self.moved = states.apply_pauli(self.moved, label)

    def measure(self) -> int:
        """Z-measure the moved qubit: its bit is read off the frame."""
        bit, self.moved = states.measure_qubit(self.moved)
        return bit

    def moved_state(self) -> StateVector:
        """The moved qubit's amplitudes, built for a reader."""
        return self.moved.state()

    def measure_moved(self) -> int:
        """Step 3: the receiver measures the moved qubit and logs the bit."""
        bit = self.measure()
        self.local("3", "bob", "measure_moved", f"bit={bit}")
        return bit

    def conclude(self, party: str, ok: bool, value: str, reason: str) -> Run:
        """Announce ``party``'s verdict, accept with ``value`` or reject with
        ``reason``, and close the run on it: the only way a run ends."""
        if ok:
            self.verdict = Verdict("accept", value=value)
            payload = f"outcome=accept value={value} reason="
        else:
            self.verdict = Verdict("reject", reason=reason)
            payload = f"outcome=reject value= reason={reason}"
        self._append("verdict", party, "verdict", payload, "classical", self.controllers)
        return self


# |0> and |1> as states, built once: a classical qss secret's fidelity reads them
_BASIS_STATES = (qubit(1, 0), qubit(0, 1))


def _payload_state(secret) -> StateVector:
    if isinstance(secret, StateVector):
        if secret.n_qubits != 1:
            raise ValueError("payload must be a single qubit")
        return secret
    if secret in (0, 1):
        return _BASIS_STATES[secret]
    raise ValueError(f"secret must be a bit or a 1-qubit state, got {secret!r}")


_MASKS = ";masks:"
# the modes a run or a report writes before any masks, besides forced cells
_MODES = ("sample", "sample:1", "enumerate")


def _mode_string(forced, masks=None) -> str:
    """Config ``mode`` of a run: ``sample:1`` or its forced cells (``--`` for a
    drawn half or qds cell), then any fixed mask bits: ``forced:10:01;masks:01``."""
    cells = [c or (None, None) for c in forced] if isinstance(forced, list) else [forced]
    mode = "sample:1" if forced is None else "forced:" + ",".join(
        ":".join("--" if half is None else str(half) for half in cell) for cell in cells)
    return mode if masks is None else mode + _MASKS + "".join(map(str, masks))


def parse_mode(mode: str) -> tuple[list | None, tuple[int, ...] | None]:
    """Inverse of :func:`_mode_string`: a config ``mode`` as its forced cells,
    a list of (aa, cc) whose halves may be None (drawn), and the mask bits it
    fixes.  Either is None when the mode names none: a sampled run or an
    enumeration, and masks the run draws.  Any other mode raises ConfigError."""
    head, fixed, bits = mode.partition(_MASKS)
    if fixed and (not bits or bits.strip("01")):
        raise ConfigError(f"masks {bits!r} in mode {mode!r} are not a bit string")
    masks = tuple(map(int, bits)) if fixed else None
    if head in _MODES:
        return None, masks
    if not head.startswith("forced:"):
        raise ConfigError(f"mode {mode!r} is not sample, sample:1, enumerate "
                          "or forced:<cells>")
    cells = []
    for part in head[len("forced:"):].split(","):
        try:
            aa, cc = [None if half == "--" else TwoBits.parse(half) for half in part.split(":")]
        except ValueError:
            raise ConfigError(f"forced cell {part!r} is not of the form aa:cc "
                              "(each a bit pair like 01, or --)") from None
        cells.append((aa, cc))
    return cells, masks


def cell_label(cell: dict) -> str:
    """Enumeration-table label of a forced cell: ``aa=.. cc=.. masks=..``."""
    forced = cell["forced"]
    aa, cc = forced[0] if isinstance(forced, list) else forced
    parts = [f"aa={aa}"] + ([f"cc={cc}"] if cc is not None else [])
    if "masks" in cell:
        parts.append("masks=" + "".join(map(str, cell["masks"])))
    return " ".join(parts)


# --- two-party protocols ----------------------------------------------------


def bc_run(secret: int, rng: Rng | None = None, *, mu: int = 0, nu: int = 0,
           forced=None, cheat: CheatStrategy | None = None) -> Run:
    """Bit commitment: the sender commits one bit, later reveals it.

    The receiver controls both the relay and receiver stations; the
    receiver-side channel label is the receiver's secret.  Verification
    checks the two X-parity relations the receiver's measured bits impose
    on the revealed (bit, outcome-pair) claim; the Z bit of the claim is a
    global phase on the commitment qubit and is logged as unverifiable.
    """
    run = Run("bc", rng, cheat, secret=secret, mu=mu, nu=nu, forced=forced)
    run.local("setup", "alice", "payload", f"bit={secret}")
    aa, cc = run.open_chain(secret, forced=forced, nu_secret_of="bob")
    moved_bit = run.measure_moved()
    # commitment twin: the payload bit masked by the sender's outcome pair
    run.send_qubit("4", "alice", "bob", "send_commit_twin")
    twin_bit = run.twin_bit(secret, aa.label)
    run.local("5", "bob", "measure_commit_twin", f"bit={twin_bit}")

    if run.deviation("reveal", "withhold"):
        run.local("reveal", "alice", "reveal_withheld", "no message")
        return run.conclude("bob", False, "", "transcript_incomplete")
    shift = run.shift("reveal")
    reveal_bit, reveal_aa = secret ^ shift >> 2, aa ^ PAIRS[shift & 3]
    run.tell("reveal", "alice", "bob", "reveal", f"bit={reveal_bit} aa={reveal_aa}")

    tau = infer_tau(reveal_aa, cc, mu, nu)
    check_twin = twin_bit == (reveal_bit ^ reveal_aa.lo)
    check_moved = moved_bit == (reveal_bit ^ x_bit(tau))
    run.local("verify", "bob", "phase_unverified", f"z_claim={reveal_aa.hi}")
    return run.conclude("bob", check_twin and check_moved, str(reveal_bit), "commit_mismatch")


def ct_run(secret: int, rng: Rng | None = None, *, forced=None,
           cheat: CheatStrategy | None = None) -> Run:
    """Asynchronous coin toss over the publicly fixed chain (0, 0).

    The receiver re-keys the moved payload with its own relay outcome and
    announces the result; the sender strips her own outcome and checks she
    recovers her input.  Both corrections compose to the sender's outcome
    pair alone, so the coin equals ``secret XOR a'`` and is uniform over
    the measurement randomness.
    """
    run = Run("ct", rng, cheat, secret=secret, forced=forced)
    run.local("setup", "alice", "payload", f"bit={secret}")
    aa, cc = run.open_chain(secret, forced=forced)
    moved_bit = run.measure_moved()
    fresh = run.deviation("transform", "fresh_qubit")
    if fresh:
        # receiver discards the moved qubit and injects a fixed basis state
        run.apply(label_from_zx(0, moved_bit ^ int(fresh.value)))
        run.local("4", "bob", "substitute_qubit", f"bit={int(fresh.value)}")
    else:
        substitute = run.deviation("transform", "substitute_label")
        run.apply(int(substitute.value) if substitute else cc.label)
        run.local("4", "bob", "rekey", "label=private")
    coin = run.measure()
    run.announce("4", "bob", "announce_coin", f"coin={coin}")
    run.send_qubit("4", "bob", "alice", "send_coin_state")

    run.apply(aa.label)
    recovered = run.measure()
    run.local("verify", "alice", "unkey_and_measure", f"bit={recovered}")
    run.values.update(coin=coin, recovered=recovered)
    return run.conclude("alice", recovered == secret, str(coin), "invalid")


def ot_run(secret: int, rng: Rng | None = None, *, forced=None,
           cheat: CheatStrategy | None = None) -> Run:
    """Oblivious transfer flavour of the coin-toss dataflow.

    The announced state travels privately to the sender.  The receiver's
    (message, signature) pair is realised by its relay outcome ``cc``
    (``forced[1]``; forcing it selects the receiver's input) and rides the
    Z exponent of the re-keying operator, so the sender's verified view is
    identical for both message values and the sender learns the message
    with probability no better than a blind guess.
    """
    inputs = str(forced[1]) if forced and forced[1] is not None else ""
    run = Run("ot", rng, cheat, secret=secret, inputs=inputs, forced=forced)
    run.local("setup", "alice", "payload", f"bit={secret}")
    aa, cc = run.open_chain(secret, forced=forced)
    run.measure_moved()
    run.apply(cc.label)
    run.local("4", "bob", "rekey", "label=private")
    run.send_qubit("4", "bob", "alice", "send_function_state")

    run.apply(aa.label)
    recovered = run.measure()
    run.local("verify", "alice", "unkey_and_measure", f"bit={recovered}")
    run.values.update(recovered=recovered, bob_message=cc.hi, bob_signature=cc.lo)
    # the sender announces only pass/fail; what she recovered stays local
    return run.conclude("alice", recovered == secret, "received", "challenge")


def tpsc_run(alice_input: TwoBits, bob_input: TwoBits, public_bit: int,
             rng: Rng | None = None, *, mu: int = 0, nu: int = 0,
             forced=None, masks: tuple[int, int] | None = None,
             cheat: CheatStrategy | None = None) -> Run:
    """Two-party computation of one output bit from both (message, signature) inputs.

    Each party applies an operator whose X exponent is its signature bit
    and whose Z exponent is its message bit under a private uniform mask,
    so the announced output depends only on the signature bits while the
    message bits stay hidden behind the masks.  Both parties reconstruct
    the output locally and must agree.
    """
    inputs = f"{alice_input},{bob_input}"
    run = Run("tpsc", rng, cheat, secret=public_bit, inputs=inputs, mu=mu, nu=nu,
              forced=forced, masks=masks)
    mask_a, mask_b = run.masks(("alice", "bob"))
    run.announce("setup", "alice", "public_payload", f"bit={public_bit}")

    label_a = run.mask("2", "alice", alice_input, mask_a)
    aa, cc = run.open_chain(public_bit, forced=forced, sender_pre_label=label_a)
    # the sender's outcome-keyed copy of her masked input, sent alongside
    run.send_qubit("2", "alice", "bob", "send_input_twin")

    moved_bit = run.measure_moved()
    twin_bit = run.twin_bit(public_bit, aa.label, label_a)
    run.local("3", "bob", "measure_input_twin", f"bit={twin_bit}")
    run.apply(run.mask("3", "bob", bob_input, mask_b))
    run.apply(cc.label)
    run.local("3", "bob", "apply_input_and_rekey", "labels=private")
    run.send_qubit("3", "bob", "alice", "return_state")

    run.apply(aa.label)
    f_alice = run.measure()
    run.announce("4", "alice", "announce_outcome", f"aa={aa} f={f_alice}")

    xmn = x_bit(mu) ^ x_bit(nu)
    f_bob = moved_bit ^ bob_input.lo ^ cc.lo ^ aa.lo
    # receiver-side binding: the twin must agree with the moved bit given
    # the announced outcome pair (X parities only, Z is phase)
    derived_a_sig = moved_bit ^ public_bit ^ aa.lo ^ cc.lo ^ xmn
    check_twin = twin_bit == (public_bit ^ derived_a_sig ^ aa.lo)
    run.local("verify", "bob", "derive_sender_signature", f"bit={derived_a_sig}")
    run.values.update(
        f_alice=f_alice, f_bob=f_bob,
        alice_sig_seen_by_bob=derived_a_sig,
        bob_sig_seen_by_alice=f_alice ^ public_bit ^ alice_input.lo ^ xmn,
        masks=(mask_a, mask_b),
    )
    return run.conclude("bob", f_alice == f_bob and check_twin, str(f_alice), "inconsistent_views")


# --- multiparty protocols ---------------------------------------------------


def qss_run(secret, rng: Rng | None = None, *, mu: int = 0, nu: int = 0,
            forced=None, cheat: CheatStrategy | None = None,
            reconstruct: bool = True) -> Run:
    """(2, 2) secret sharing of a bit or qubit across receiver and relay.

    ``secret`` is a bit, a 1-qubit state or ``"q"``: a random qubit from the
    generator's secret stream, or ``_QSS_PROBE`` without a generator; the
    configuration records its amplitudes.  The receiver ends up holding the
    payload under an unknown correction; the sender's outcome pair goes to
    the receiver only, after the receiver confirms it holds a qubit, and
    the relay's outcome pair is the second share.  Either share alone
    leaves the payload maximally mixed; both together invert the correction
    exactly.  With ``reconstruct=False`` the relay keeps its share: the
    receiver holds its qubit and rejects.

    The run's ``held`` keeps the frame of the qubit a party is left with:
    the receiver's, when it keeps the uncorrected one (``reconstruct=False``)
    or recovers a quantum secret, and the relay's, when it skips its
    measurement (the ``relay_bsm`` skip) and captures the payload.
    """
    if secret == "q":
        secret = rng.derive(_STREAM_SECRET).unit_qubit() if rng is not None else _QSS_PROBE
    payload = _payload_state(secret)
    classical = not isinstance(secret, StateVector)
    secret_text = str(secret) if classical else _encode_qubit(payload)
    run = Run("qss", rng, cheat, secret=secret_text, mu=mu, nu=nu, forced=forced)
    run.local("setup", "alice", "payload", f"value={secret_text}")

    skip = run.deviation("relay_bsm", "skip") is not None
    aa, cc = run.open_chain(payload, forced=forced, skip_relay=skip)
    run.tell("auth", "bob", "alice", "ack_holding_qubit", "token")
    run.tell("share", "alice", "bob", "send_sender_share", f"aa={aa}")

    if skip or not reconstruct:  # after a skip, the relay holds the moved qubit
        run.held["charlie" if skip else "bob"] = run.moved
        return run.conclude("bob", False, "", "insufficient_shares")

    run.tell("collaborate", "charlie", "bob", "send_relay_share", f"cc={cc}")
    run.apply(infer_tau(aa, cc, mu, nu))  # self-inverse up to a global sign
    run.local("reconstruct", "bob", "invert_correction", "label=private")
    run.values["fidelity"] = fidelity(payload, run.moved_state())
    if classical:
        value = run.values["bit"] = run.measure()
    else:
        run.held["bob"] = run.moved
        value = "qubit"
    return run.conclude("bob", True, str(value), "")


def qds_run(message: Sequence[int], rng: Rng | None = None, *, mu: int = 0, nu: int = 0,
            forced=None, cheat: CheatStrategy | None = None) -> Run:
    """Digital signature of a bit string, one chain instance per bit.

    Each chain's two measured bits attest the message bit it carried: the
    receiver's moved bit under the X bit of ``infer_tau(aa, cc, mu, nu)``,
    and the sender's twin, measured by the relay, under the X bit of ``aa``.
    Receiver and relay swap split halves of these records over a channel the
    sender cannot read, completing them during verification.  The receiver
    fails each position whose moved bit attests other than the revealed
    bit, the relay each where either bit attests other than the forwarded
    one.  ``forced`` is a list of one (aa, cc) cell per message bit.
    """
    message = [int(b) for b in message]
    if any(b not in (0, 1) for b in message) or not message:
        raise ValueError("message must be a non-empty bit sequence")
    k = len(message)
    forced_cells = forced if forced is not None else [None] * k
    # its mode tells a cell list from one cell by its type
    if not isinstance(forced_cells, list) or len(forced_cells) != k:
        raise ValueError("forced must be a list of one cell per message bit")
    run = Run("qds", rng, cheat, secret="".join(map(str, message)), mu=mu, nu=nu, forced=forced)

    # per chain: aa and cc as printed, the moved bit and the two attested bits
    chains = []
    for i, (bit, cell) in enumerate(zip(message, forced_cells)):
        aa, cc = run.open_chain(bit, forced=cell)
        moved = run.measure_moved()
        run.send_qubit("4", "alice", "charlie", "send_signature_twin", f"index={i}")
        twin = run.twin_bit(bit, aa.label)
        run.local("5", "charlie", "measure_signature_twin", f"index={i} bit={twin}")
        chains.append((str(aa), str(cc), moved,
                       (moved ^ x_bit(infer_tau(aa, cc, mu, nu)), twin ^ aa.lo)))
    aas, ccs, moved_bits, attested = zip(*chains)

    # split exchange of the two signature shares, ordering hidden from the sender
    shared = run.base.derive(_STREAM_SHARED)
    to_relay = [i for i in range(k) if shared.bit() == 1]
    to_receiver = [i for i in range(k) if shared.bit() == 1]
    run.tell("6", "bob", "charlie", "share_moved_bits", _at(to_relay, "bits", moved_bits))
    run.tell("6", "charlie", "bob", "share_relay_pairs", _at(to_receiver, "pairs", ccs))

    reveal = _flip(message, run.shift("reveal"))
    run.tell("reveal", "alice", "bob", "reveal_message", f"bits={reveal} aa={list(aas)}")
    if rest := [i for i in range(k) if i not in to_receiver]:
        run.tell("verify", "charlie", "bob", "complete_relay_pairs", _at(rest, "pairs", ccs))
    bob_bad = [i for i, b in enumerate(reveal) if attested[i][0] != b]
    run.values["bob_failed_positions"] = bob_bad
    if bob_bad:
        run.conclude("bob", False, "", "repudiation")
        run.values.update(bob=run.verdict, charlie=Verdict("reject", reason="not_reached"))
        return run
    run.values["bob"] = Verdict("accept", value="".join(map(str, reveal)))

    forward = _flip(reveal, run.shift("forward"))
    run.tell("forward", "bob", "charlie", "forward_message", f"bits={forward} aa={list(aas)}")
    if rest := [i for i in range(k) if i not in to_relay]:
        run.tell("verify", "bob", "charlie", "complete_moved_bits", _at(rest, "bits", moved_bits))
    charlie_bad = [i for i, b in enumerate(forward) if attested[i] != (b, b)]
    run.values["charlie_failed_positions"] = charlie_bad
    # charlie accepts only the message bob accepted, so its verdict is the run's
    run.conclude("charlie", not charlie_bad, "".join(map(str, forward)), "forgery")
    run.values["charlie"] = run.verdict
    return run


def _flip(bits: Sequence[int], shift: int) -> list[int]:
    """``bits`` with each position that ``shift`` sets flipped (bit i, position i)."""
    return [b ^ (shift >> i & 1) for i, b in enumerate(bits)]


def _at(positions: list[int], key: str, values: Sequence) -> str:
    """A share or completion payload: ``positions=[..] <key>=[..]``."""
    return f"positions={positions} {key}={[values[i] for i in positions]}"


def mpsc_run(alice_input: TwoBits, bob_input: TwoBits, public_bit: int,
             rng: Rng | None = None, *, mu: int = 0, nu: int = 0,
             forced=None, masks: tuple[int, int, int] | None = None,
             cheat: CheatStrategy | None = None) -> Run:
    """Three-party computation over a public payload bit.

    The relay's (message, signature) input is realised by its own Bell
    outcome ``cc`` (``forced[1]``; forcing it selects the relay's input).
    The sender announces her outcome pair immediately; the output bit is
    announced by the relay, everyone announces signature bits and every
    party verifies the announced output against the X-parity relation it
    implies.
    """
    charlie_input = forced[1] if forced else None
    inputs = f"{alice_input},{bob_input},{charlie_input if charlie_input else '--'}"
    run = Run("mpsc", rng, cheat, secret=public_bit, inputs=inputs, mu=mu, nu=nu,
              forced=forced, masks=masks)
    mask_a, mask_b, mask_c = run.masks(("alice", "bob", "charlie"))
    run.announce("setup", "alice", "public_payload", f"bit={public_bit}")

    label_a = run.mask("2", "alice", alice_input, mask_a)
    aa, cc = run.open_chain(public_bit, forced=forced, sender_pre_label=label_a)
    run.announce("2", "alice", "announce_sender_pair", f"aa={aa}")

    moved_bit = run.measure_moved()
    run.apply(run.mask("3", "bob", bob_input, mask_b))
    run.send_qubit("3", "bob", "charlie", "send_worked_state")

    run.apply(run.mask("4", "charlie", cc, mask_c))
    f_bit = run.measure()
    run.announce("4", "charlie", "announce_outcome", f"f={f_bit}")

    run.announce("verify", "alice", "announce_signature", f"sig={alice_input.lo}")
    run.announce("verify", "bob", "announce_signature", f"sig={bob_input.lo}")
    run.announce("verify", "charlie", "announce_signature", f"sig={cc.lo}")

    xmn = x_bit(mu) ^ x_bit(nu)
    check_public = f_bit == (public_bit ^ alice_input.lo ^ bob_input.lo ^ aa.lo ^ xmn)
    check_receiver = moved_bit == (public_bit ^ alice_input.lo ^ aa.lo ^ cc.lo ^ xmn)
    run.values.update(relay_pair=str(cc), masks=(mask_a, mask_b, mask_c))
    blamed = "charlie" if not check_public else "alice"
    return run.conclude("charlie", check_public and check_receiver, str(f_bit),
                        f"verification_failed:{blamed}")


# --- protocol specs: one description per protocol ------------------------------

_QSS_PROBE = qubit(0.6, 0.8j)  # the forced cells' secret for ``q``
_QSS_SECRET_HELP = ("qss needs --secret 0, 1, q (seeded random qubit) or "
                    "q:re,im,re,im (explicit amplitudes)")


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the CLI and the attack evaluator need to know about one protocol.

    Who relays at station C (``relay``; alice and bob hold A and B in every
    protocol), how a configuration becomes runner arguments (``parse``, given
    the configuration and its mode's forced cell: the one cell, qds's list of
    them or None; it raises ConfigError with a user-facing message on a bad
    value), which configuration fields it never reads (``ignores``; they must
    stay unset), how many private mask bits its forced cells fix and what its
    enumeration table rows add.
    Parsing draws nothing: it is a pure function of the configuration,
    which only ``config`` builds; each evaluation parses once and holds it.
    """

    name: str
    relay: str
    parse: Callable[[RunConfig, object], dict]
    row_extra: Callable[[Run], str] = lambda record: ""
    default_inputs: str = ""
    k_from_secret: bool = False  # qds runs one chain per message bit
    masks: int = 0
    ignores: tuple[str, ...] = ()

    @cached_property
    def controllers(self) -> tuple[str, ...]:
        """The parties behind the stations, sorted: who sees an announcement."""
        return tuple(sorted({"alice", "bob", self.relay}))

    @property
    def runner(self) -> Callable[..., Run]:
        # looked up by name at call time, so a wrapper bound to the module
        # attribute (a profiler, say) also sees the runs dispatched through
        # the spec; the name is built once
        return globals()[self._runner_name]

    @cached_property
    def _runner_name(self) -> str:
        return f"{self.name}_run"

    def chains(self, secret: str) -> int:
        """The chain count ``k`` a configuration with this secret must carry."""
        return len(secret) if self.k_from_secret else 1

    def config(self, *, secret: str, inputs: str = "", **fields) -> RunConfig:
        """Configuration with the default inputs and the chain count filled in."""
        return RunConfig(protocol=self.name, secret=secret,
                         inputs=inputs or self.default_inputs,
                         k=self.chains(secret), **fields)

    def runner_kwargs(self, config: RunConfig) -> dict:
        """Keyword arguments of the runner (besides rng and cheat), a new dict.

        The mode is parsed here alone (:func:`parse_mode`), and a forced
        mode must carry one cell per chain.  Each call parses afresh, so the
        caller that evaluates a configuration parses it once and holds the
        result.  A bad value raises :class:`ConfigError`.
        """
        if config.mu not in LABELS or config.nu not in LABELS:
            raise ConfigError("channel labels must be in 0..3")
        if config.seed < 0:
            raise ConfigError("seed must be >= 0")
        for field in self.ignores:
            if getattr(config, field):
                raise ConfigError(f"{self.name} does not use --{field} "
                                  f"(got {getattr(config, field)!r})")
        cells, masks = parse_mode(config.mode)
        chains = self.chains(config.secret)
        if cells is not None and len(cells) != chains:
            takes = ("one chain and takes one forced cell" if chains == 1
                     else f"{chains} chains and takes {chains} forced cells")
            raise ConfigError(f"{self.name} runs {takes}, got {len(cells)} "
                              f"in mode {config.mode!r}")
        kwargs = self.parse(config, cells if cells is None or self.k_from_secret else cells[0])
        if config.k != chains:
            raise ConfigError(f"{self.name} runs k={chains} chains for "
                              f"secret {config.secret!r}, got k={config.k}")
        if masks is not None and len(masks) != self.masks:
            raise ConfigError(f"{self.name} takes {self.masks} mask bits, "
                              f"got {len(masks)} in mode {config.mode!r}")
        return kwargs if masks is None else {**kwargs, "masks": masks}

    def cells(self, kwargs: dict) -> Iterator[dict]:
        """Every forced cell of the parse ``kwargs``, as complete runner kwargs.

        The order is aa, then cc, then the masks.  A cc the parsed ``forced``
        already fixes (ot's receiver pair, mpsc's relay pair) stays pinned;
        qds forces the same pair on every chain.
        """
        fixed = None if self.k_from_secret else kwargs["forced"]
        ccs = PAIRS if fixed is None or fixed[1] is None else (fixed[1],)
        for aa, cc in itertools.product(PAIRS, ccs):
            forced = [(aa, cc)] * len(kwargs["message"]) if self.k_from_secret else (aa, cc)
            cell = {**kwargs, "forced": forced}
            for masks in itertools.product((0, 1), repeat=self.masks):
                yield {**cell, "masks": masks} if masks else cell


def _bit_secret(config: RunConfig) -> int:
    if config.secret not in ("0", "1"):
        raise ConfigError(f"{config.protocol} needs --secret 0 or 1")
    return int(config.secret)


def _pairs(config: RunConfig, count: int, usage: str, open_last: bool = False) -> list:
    """``count`` comma-separated bit pairs of the inputs (the protocol's
    default when empty); with ``open_last`` the last may be ``--`` (None:
    that party's pair is its sampled Bell outcome)."""
    parts = (config.inputs or SPECS[config.protocol].default_inputs).split(",")
    if len(parts) != count:
        raise ConfigError(usage)
    try:
        return [None if open_last and i == count - 1 and part == "--" else TwoBits.parse(part)
                for i, part in enumerate(parts)]
    except ValueError:
        raise ConfigError(usage) from None


def _chain_args(config: RunConfig, forced) -> dict:
    return {"mu": config.mu, "nu": config.nu, "forced": forced}


def _qss_secret(config: RunConfig):
    """A bit, the stated amplitudes, or ``q``, which ``qss_run`` resolves."""
    text = config.secret
    if text in ("0", "1"):
        return int(text)
    if text == "q":
        return text
    if text.startswith("q:"):
        try:
            return _decode_qubit(text)
        except ValueError as exc:
            raise ConfigError(f"{_QSS_SECRET_HELP}; {exc}") from None
    raise ConfigError(_QSS_SECRET_HELP)


def _input_cell(config: RunConfig, forced, pair: TwoBits | None) -> tuple | None:
    """The forced cell when the relay outcome ``cc`` is an input ``pair`` (ot's
    receiver, mpsc's relay): the mode's cc and the inputs' pair must be equal
    where both are given, and either fills in where the other is open."""
    aa, cc = forced or (None, None)
    if cc is not None and pair is not None and cc != pair:
        raise ConfigError(f"mode {config.mode!r} forces the {config.protocol} input pair "
                          f"cc={cc}, but --inputs gives {pair}")
    cc = pair if cc is None else cc
    return None if aa is None and cc is None else (aa, cc)


def _ot_args(config: RunConfig, forced) -> dict:
    [pair] = (_pairs(config, 1, "ot takes --inputs as the receiver pair, e.g. 01")
              if config.inputs else [None])
    return {"secret": _bit_secret(config), "forced": _input_cell(config, forced, pair)}


def _tpsc_args(config: RunConfig, forced) -> dict:
    alice, bob = _pairs(config, 2,
                        "tpsc needs --inputs like 10,01 (sender pair, receiver pair)")
    return {"alice_input": alice, "bob_input": bob, "public_bit": _bit_secret(config),
            **_chain_args(config, forced)}


def _qds_args(config: RunConfig, forced) -> dict:
    if not config.secret or any(c not in "01" for c in config.secret):
        raise ConfigError("qds needs --secret as a bit string, e.g. 1011")
    return {"message": tuple(map(int, config.secret)), **_chain_args(config, forced)}


def _mpsc_args(config: RunConfig, forced) -> dict:
    alice, bob, charlie = _pairs(config, 3,
                                 "mpsc needs --inputs like 10,01,11 (one pair per party)",
                                 open_last=True)
    return {"alice_input": alice, "bob_input": bob, "public_bit": _bit_secret(config),
            **_chain_args(config, _input_cell(config, forced, charlie))}


def _output_extra(record: Run) -> str:
    return f" f={record.verdict.value}" if record.verdict.accepted else ""


SPECS: dict[str, ProtocolSpec] = {spec.name: spec for spec in (
    ProtocolSpec("bc", "bob",
                 lambda c, f: {"secret": _bit_secret(c), **_chain_args(c, f)},
                 ignores=("inputs",)),
    # ct and ot run over the publicly fixed chain (0, 0)
    ProtocolSpec("ct", "bob",
                 lambda c, f: {"secret": _bit_secret(c), "forced": f},
                 row_extra=lambda record: f" coin={record.values['coin']}",
                 ignores=("mu", "nu", "inputs")),
    ProtocolSpec("ot", "bob", _ot_args, ignores=("mu", "nu")),
    ProtocolSpec("tpsc", "bob", _tpsc_args,
                 row_extra=_output_extra, default_inputs="00,00", masks=2),
    ProtocolSpec("qss", "charlie",
                 lambda c, f: {"secret": _qss_secret(c), **_chain_args(c, f)},
                 row_extra=lambda record: f" fidelity={record.values['fidelity']:.12f}",
                 ignores=("inputs",)),
    ProtocolSpec("qds", "charlie", _qds_args, k_from_secret=True, ignores=("inputs",)),
    ProtocolSpec("mpsc", "charlie", _mpsc_args,
                 row_extra=_output_extra, default_inputs="00,00,--", masks=3),
)}

PROTOCOLS = tuple(SPECS)


def spec_for(protocol: str) -> ProtocolSpec:
    try:
        return SPECS[protocol]
    except KeyError:
        raise ConfigError(f"unknown protocol {protocol!r}") from None


def run_from_config(config: RunConfig) -> Run:
    """Execute the protocol a configuration describes, reproducibly.

    The run keeps ``config`` itself, not the runner's own encoding of it
    (drawn ``q`` amplitudes, a forced mode for an input pair, default
    inputs).  A configuration naming a strategy is rejected: it records the
    cheater's name, not its hooks, so it cannot be re-run; so is a mode no
    run writes, an evaluation's ``sample`` or ``enumerate``.
    """
    spec = spec_for(config.protocol)
    if config.strategy:
        raise ConfigError(f"config names strategy {config.strategy!r}; "
                          "strategy runs are not replayable")
    kwargs = spec.runner_kwargs(config)
    if config.mode.partition(_MASKS)[0] in ("sample", "enumerate"):
        raise ConfigError(f"mode {config.mode!r} is not a run's: sample:1 or forced:<cells>")
    run = spec.runner(**kwargs, rng=Rng(config.seed))
    run.transcript.config = config
    return run


def _encode_qubit(state: StateVector) -> str:
    """Qubit amplitudes as a config-safe string, lossless for replay."""
    a, b = state.amplitudes
    return "q:" + ",".join(
        format(v, ".17g") for v in (a.real, a.imag, b.real, b.imag)
    )


def _decode_qubit(text: str) -> StateVector:
    # float() strips whitespace, but a line break in the secret would split
    # the transcript's config line
    if any(c.isspace() for c in text):
        raise ValueError(f"whitespace in qubit encoding {text!r}")
    parts = [float(p) for p in text[2:].split(",")]
    if len(parts) != 4:
        raise ValueError(f"bad qubit encoding {text!r}")
    # checked here, where huge amplitudes cannot overflow the norm (hypot
    # scales), so such a secret is rejected before any StateVector sees it
    norm = math.hypot(*parts)
    if not abs(norm - 1.0) <= 1e-9:  # also rejects nan and inf
        raise ValueError(f"state is not normalised (norm {norm})")
    return StateVector([complex(parts[0], parts[1]), complex(parts[2], parts[3])])
