import os
from pathlib import Path

import bellproto


def child_env():
    """Environment for child interpreters: the imported package's absolute
    ``src`` directory first on PYTHONPATH, so a child runs the checkout under
    test whatever its working directory and whether or not it is installed."""
    env = dict(os.environ)
    src = str(Path(bellproto.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
