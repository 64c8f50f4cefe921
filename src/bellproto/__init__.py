"""Deterministic simulator for Bell-channel cryptographic protocols.

The package splits into five layers:

* :mod:`bellproto.algebra` - exact tables for the all-real operator set
  {I, X, Z, ZX}, the four Bell states, their signed composition rules and
  the bit pair :class:`TwoBits`.
* :mod:`bellproto.states` - a dense state-vector engine whose one Bell-basis
  measurement does both entanglement swapping and teleportation, the exact
  Bell-sector decompositions, and density-matrix mixing oracles.
* :mod:`bellproto.protocols` - seven protocol runtimes over a shared
  five-wire chain: bit commitment (bc), coin tossing (ct), oblivious
  transfer (ot), two-party computation (tpsc), secret sharing (qss),
  digital signatures (qds) and three-party computation (mpsc).
* :mod:`bellproto.attacks` - a concrete cheating-strategy catalog, exact
  enumeration of detection probabilities and observer-view trace distances.
* :mod:`bellproto.cli` - the ``bellproto`` command-line driver, plus
  :mod:`bellproto.identities` backing its identity suite, one-time-pad
  certification included.
"""

from .algebra import (
    SignedLabel,
    TwoBits,
    apply_omega_to_bell,
    bell_vector,
    label_from_zx,
    omega_inner,
    pauli_compose,
    pauli_matrix,
)
from .states import (
    DensityMatrix,
    MeasurementError,
    Rng,
    StateVector,
    apply_pauli,
    basis_state,
    bell_state,
    bsm,
    bsm_probabilities,
    chain_register,
    decompose_chain,
    decompose_swap,
    decompose_teleport,
    extract_qubit,
    fidelity,
    infer_tau,
    is_maximally_mixed,
    make_register,
    measure_qubit,
    mixture_density,
    qubit,
    reduced_density,
    trace_distance,
)
from .protocols import (
    CheatStrategy,
    Deviation,
    RunRecord,
    Verdict,
    bc_run,
    ct_run,
    mpsc_run,
    ot_run,
    qds_run,
    qss_run,
    run_from_config,
    tpsc_run,
)
from .attacks import SecurityReport, run_strategy, view_distance
from .transcript import RunConfig, Transcript, first_divergence, parse_transcript

__version__ = "0.1.0"
