import os
from pathlib import Path

import numpy as np

import bellproto
from bellproto.states import TOL_EQ, StateVector


def child_env():
    """Environment for child interpreters: the imported package's absolute
    ``src`` directory first on PYTHONPATH, so a child runs the checkout under
    test whatever its working directory and whether or not it is installed."""
    env = dict(os.environ)
    src = str(Path(bellproto.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def equal_up_to_phase(a: StateVector, b: StateVector) -> bool:
    """State equality modulo a global phase: | <a|b> | == 1 within TOL_EQ."""
    if a.n_qubits != b.n_qubits:
        return False
    return bool(abs(abs(complex(np.vdot(a.amplitudes, b.amplitudes))) - 1.0) <= TOL_EQ)
