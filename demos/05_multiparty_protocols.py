"""Three-party protocols: secret sharing, signatures, joint computation.

Now the relay is a party of its own.  The sender's outcome pair and the
relay's outcome pair are genuinely different shares: each alone is
worthless, together they invert the correction on the receiver's qubit.
"""

import itertools

import numpy as np

from bellproto.algebra import TwoBits
from bellproto.protocols import CheatStrategy, Deviation, mpsc_run, qds_run, qss_run
from bellproto.states import Rng, StateVector, is_maximally_mixed, mixture_density

ALL_PAIRS = [TwoBits.from_label(t) for t in range(4)]

print("== (2,2) secret sharing of a qubit ==")
secret = Rng(3).unit_qubit()
rec = qss_run(secret, Rng(4))
print(f"reconstruction fidelity with both shares: {rec.values['fidelity']:.12f}")

rec = qss_run(1, None, forced=(TwoBits(1, 0), TwoBits(0, 1)), reconstruct=False)
print(f"one share only: verdict={rec.verdict.outcome} reason={rec.verdict.reason}")

holdings = []
for cc in ALL_PAIRS:
    rec = qss_run(secret, None, forced=(TwoBits(1, 0), cc), reconstruct=False)
    holdings.append(StateVector(rec.held["bob"]))
avg = mixture_density(holdings, [0.25] * 4)
print("receiver share averaged over the relay share it lacks:")
# rounding drops float noise, and adding 0.0 turns any -0.0 into 0.0, so
# the printed matrix does not depend on which SIMD path numpy took
print(np.round(avg.matrix, 12) + 0.0)
print(f"maximally mixed: {is_maximally_mixed(avg)}\n")

print("== digital signature of a 4-bit message ==")
rec = qds_run([1, 0, 1, 1], Rng(8))
print(f"honest run: receiver={rec.values['bob'].outcome}, "
      f"relay={rec.values['charlie'].outcome}, message={rec.verdict.value}")
forger = CheatStrategy("flip", "bob", {"forward": Deviation("flip_message", 2)})
rec = qds_run([1, 0, 1, 1], Rng(8), cheat=forger)
print(f"receiver forwards a flipped bit: verdict={rec.verdict.reason} at "
      f"positions {rec.values['charlie_failed_positions']}")
repudiator = CheatStrategy("flip", "alice", {"reveal": Deviation("flip_message", 0)})
rec = qds_run([1, 0, 1, 1], Rng(8), cheat=repudiator)
print(f"sender reveals a different message: verdict={rec.verdict.reason} at "
      f"positions {rec.values['bob_failed_positions']}")
print("the relay's own measured copy pins the message independently of the")
print("receiver, so neither side can rewrite history alone.\n")

print("== three-party computation ==")
outcomes = {}
for a_lab, b_lab in itertools.product(range(4), repeat=2):
    rec = mpsc_run(TwoBits.from_label(a_lab), TwoBits.from_label(b_lab), 1, None,
                   forced=(TwoBits(0, 1), TwoBits(1, 1)), masks=(0, 0, 0))
    outcomes[(a_lab, b_lab)] = rec.verdict.value
print("announced f over all sender/receiver inputs (relay input fixed at 11):")
for a_lab in range(4):
    row = " ".join(outcomes[(a_lab, b_lab)] for b_lab in range(4))
    print(f"  sender label {a_lab}: {row}")
print("columns with equal signature bits agree: f sees only the x bits.")

rec = mpsc_run(TwoBits(1, 0), TwoBits(0, 1), 0, Rng(15))
print(f"\nsampled run: relay pair={rec.values['relay_pair']} f={rec.verdict.value} "
      f"verdict={rec.verdict.outcome}")
