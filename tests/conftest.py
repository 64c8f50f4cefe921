import os
from pathlib import Path

import bellproto
from bellproto import states


def child_env():
    """Environment for child interpreters: the imported package's absolute
    ``src`` directory first on PYTHONPATH, so a child runs the checkout under
    test whatever its working directory and whether or not it is installed."""
    env = dict(os.environ)
    src = str(Path(bellproto.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def engine_caches():
    """The dense engine's memo caches: every ``lru_cache`` in ``bellproto.states``."""
    return [value for value in vars(states).values() if hasattr(value, "cache_clear")]


def clear_engine_caches():
    """Empty every engine cache, so that the next engine call computes cold."""
    for cache in engine_caches():
        cache.cache_clear()
