"""The sixteen-term Bell-sector decomposition of the five-wire chain.

payload (x) Bell(mu) (x) Bell(nu) splits exactly into one product term per
pair of Bell outcomes: the sender pair collapses to sector aa, the relay
pair to sector cc, and the receiver wire carries the payload moved by the
operator labelled aa ^ cc ^ mu ^ nu.  The terms sum back to the input with
weight 1/4 each, which is the entire content of the chain construction.

The term signs are the honest part of the story: composing the operator
action tables factor by factor predicts the wrong sign on 120 of the 256
sectors, so the package tabulates exact signs from projector computations
and records the mismatch rather than papering over it.
"""

import itertools

import numpy as np

from bellproto.algebra import LABELS, convention_sign_gaps
from bellproto.dense import (
    bell_state,
    chain_register,
    decompose_chain,
    decompose_swap,
    decompose_teleport,
    make_register,
)
from bellproto.states import Rng

payload = Rng(7).unit_qubit()

print("reconstruction residuals over every channel pair:")
worst = 0.0
for mu, nu in itertools.product(LABELS, repeat=2):
    ref = chain_register(mu, nu, payload).amplitudes
    total = np.zeros_like(ref)
    for _tau, _rho, term in decompose_chain(mu, nu, payload):
        total += term.amplitudes
    worst = max(worst, float(np.abs(total / 4 - ref).max()))
print(f"  chain (16 terms, 16 channel pairs):    {worst:.3e}")

worst = 0.0
for mu, nu in itertools.product(LABELS, repeat=2):
    ref = make_register([bell_state(mu), bell_state(nu)]).amplitudes
    total = np.zeros_like(ref)
    for _rho, term in decompose_swap(mu, nu):
        total += term.amplitudes
    worst = max(worst, float(np.abs(total / 2 - ref).max()))
print(f"  swap (4 terms, 16 channel pairs):      {worst:.3e}")

worst = 0.0
for channel in LABELS:
    ref = make_register([payload, bell_state(channel)]).amplitudes
    total = np.zeros_like(ref)
    for _tau, term in decompose_teleport(channel, payload):
        total += term.amplitudes
    worst = max(worst, float(np.abs(total / 2 - ref).max()))
print(f"  teleport (4 terms, 4 channels):        {worst:.3e}")

print("\nterm structure for channels (1, 2): (tau, rho) -> sector labels")
for tau, rho, _term in decompose_chain(1, 2, payload):
    aa = tau ^ rho ^ 1
    cc = rho ^ 2
    print(f"  term (tau={tau}, rho={rho}): sender sector {aa}, relay sector {cc}")

gaps = convention_sign_gaps()
print("\nsign-convention record: sectors where factorwise operator phases")
print("disagree with the exact projector signs:")
for name, cells in gaps.items():
    print(f"  {name}: {len(cells)} cells")
print("sample of chain gap cells (mu, nu, aa, cc):", gaps["chain"][:6])
print("\nthe decompositions above use exact tabulated signs, which is why the")
print("residuals are at machine precision instead of order one.")
