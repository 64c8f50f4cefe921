"""The golden corpus does not depend on numpy's SIMD dispatch or BLAS threads.

The test reruns ``test_golden.py`` in a child interpreter that has every
dispatch target this host enables switched off (``NPY_DISABLE_CPU_FEATURES``)
and two BLAS threads (``OPENBLAS_NUM_THREADS=2``).  Both variables are set
in the child only.  Every pinned byte must come out the same on that path.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

# numpy's own record of its build's dispatch targets and of the CPU features
# it found; numpy has no public name for these
_FEATURES = """
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(" ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)))
"""


def _enabled_dispatch(env) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", _FEATURES], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.split()


def test_golden_corpus_is_stable_without_simd_dispatch(tmp_path):
    targets = _enabled_dispatch(child_env())
    if not targets:
        pytest.skip("numpy enables no dispatch target on this host, so there is none to disable")
    env = child_env()
    env.update(NPY_DISABLE_CPU_FEATURES=" ".join(targets), OPENBLAS_NUM_THREADS="2")
    assert _enabled_dispatch(env) == [], "the child still dispatches to " + " ".join(targets)
    golden = Path(__file__).with_name("test_golden.py")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(golden)], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
