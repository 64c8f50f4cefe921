"""Deterministic simulator for Bell-channel cryptographic protocols.

The package splits into six layers, and each name lives in its own module:
importing the package loads none of them.

* :mod:`bellproto.algebra` - exact tables for the all-real operator set
  {I, X, Z, ZX}, the four Bell states, their signed composition rules and
  the bit pair :class:`TwoBits`.
* :mod:`bellproto.states` - the runtime engine: a Pauli frame that tracks
  a chain as its payload under one Pauli label, with seeded streams and
  one-qubit state helpers.
* :mod:`bellproto.dense` - the dense state-vector engine, kept as the
  reference oracle: one Bell-basis measurement that does both
  entanglement swapping and teleportation, the exact Bell-sector
  decompositions, and density-matrix mixing oracles.
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

__version__ = "0.1.0"
