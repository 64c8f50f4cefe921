import os
from pathlib import Path

import bellproto
from bellproto import dense
from bellproto.protocols import ProtocolSpec


def child_env():
    """Environment for child interpreters: the imported package's absolute
    ``src`` directory first on PYTHONPATH, so a child runs the checkout under
    test whatever its working directory and whether or not it is installed."""
    env = dict(os.environ)
    src = str(Path(bellproto.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def package_caches():
    """The caches the package keeps: the configuration parse every run
    reads, and the dense engine's wire-gather index.  Neither holds a state."""
    return [ProtocolSpec.runner_kwargs, dense._gather]


def clear_package_caches():
    """Empty every package cache, so that the next call computes cold."""
    for cache in package_caches():
        cache.cache_clear()
