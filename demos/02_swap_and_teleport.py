"""Entanglement swapping and teleportation on the wire level.

Three stations: a sender holding a payload qubit, a relay, and a
receiver.  Two Bell pairs connect sender-relay and relay-receiver.  A
Bell measurement at the relay stitches the outer stations together; a
Bell measurement at the sender then moves the payload to the receiver,
up to a correction labelled by the XOR of everything observed.
"""

import itertools

import numpy as np

from bellproto.algebra import LABELS, TwoBits, pauli_matrix
from bellproto.states import (
    Rng,
    StateVector,
    bell_state,
    bsm,
    bsm_probabilities,
    chain_register,
    extract_qubit,
    fidelity,
    infer_tau,
    make_register,
    mixture_density,
    projector,
    reduced_density,
    trace_distance,
)

rng = Rng(2024)

print("== entanglement swapping ==")
state = make_register([bell_state(1), bell_state(2)])
print("relay outcome distribution (exactly uniform):",
      bsm_probabilities(state, (1, 2)))
for outcome in LABELS:
    _, post = bsm(state, (1, 2), force=outcome)
    outer = reduced_density(post, [0, 3])
    swapped = 1 ^ 2 ^ outcome
    dist = trace_distance(outer, projector(bell_state(swapped)))
    print(f"  forced outcome {outcome}: outer pair = Bell {swapped} "
          f"(distance {dist:.1e})")

print("\n== teleportation over each channel label ==")
payload = rng.unit_qubit()
for channel in LABELS:
    state = make_register([payload, bell_state(channel)])
    outcome, post = bsm(state, (0, 1), rng)
    moved = extract_qubit(post, 2)
    correction = outcome.label ^ channel
    fixed = StateVector(pauli_matrix(correction) @ payload.amplitudes)
    print(f"  channel {channel}: sampled outcome {outcome}, "
          f"fidelity after correction {fidelity(moved, fixed):.12f}")

print("\n== what the receiver sees without the outcomes ==")
moved_states = []
for outcome in LABELS:
    state = make_register([payload, bell_state(0)])
    _, post = bsm(state, (0, 1), force=outcome)
    moved_states.append(extract_qubit(post, 2))
avg = mixture_density(moved_states, [0.25] * 4)
print("outcome-averaged receiver state (maximally mixed):")
print(np.round(avg.matrix, 12))

print("\n== the full chain: swap, then teleport ==")
for mu, nu in [(0, 0), (1, 3), (2, 2)]:
    for aa, cc in itertools.product((0, 3), repeat=2):
        state = chain_register(mu, nu, payload)
        _, state = bsm(state, (2, 3), force=cc)
        _, state = bsm(state, (0, 1), force=aa)
        tau = infer_tau(TwoBits.from_label(aa), TwoBits.from_label(cc), mu, nu)
        fixed = StateVector(pauli_matrix(tau) @ payload.amplitudes)
        fid = fidelity(extract_qubit(state, 4), fixed)
        print(f"  channels ({mu},{nu}) outcomes (aa={aa}, cc={cc}): "
          f"correction label {tau} = {aa}^{cc}^{mu}^{nu}, fidelity {fid:.12f}")

print("\nthe correction label is the XOR of the two outcomes and the two")
print("channel labels; nobody who lacks one of the four pieces can undo it.")
