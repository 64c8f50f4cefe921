"""Layer probes that do not depend on the workload: import, identities, cli.main.

They split a process's wall time into start-up and work, so that a change
to import-time code and a change to the engine can be told apart.
"""

from __future__ import annotations

import statistics
import time

from bellproto import identities
from workloads import run_child

# `import bellproto.cli` loads every module of the package and numpy.
IMPORT_MODULES = ("numpy", "bellproto", "bellproto.algebra", "bellproto.states",
                  "bellproto.transcript", "bellproto.protocols", "bellproto.attacks",
                  "bellproto.identities", "bellproto.cli")

IDENTITY_CHECKS = (
    "pauli-unitarity", "operator-orthonormality", "operator-completeness",
    "bell-orthonormality", "bell-collapse", "bell-action-table", "compose-table",
    "chain-decomposition", "swap-decomposition", "teleport-decomposition",
    "swap-uniformity", "teleport-uniformity", "swap-mixedness", "teleport-mixedness",
    "pad-certification", "correction-identity", "correction-table",
)


def import_times(env: dict, cwd, reps: int) -> dict[str, float]:
    """Median ``-X importtime`` figures in ms: numpy cumulative, bellproto.* self."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(reps):
        proc, _seconds = run_child(["-X", "importtime", "-c", "import bellproto.cli"], cwd, env)
        if proc.returncode != 0:
            raise RuntimeError(f"import bellproto.cli failed: {proc.stderr}")
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                seen[name.strip()] = (int(self_us), int(cumulative_us))
        for module in IMPORT_MODULES:
            self_us, cumulative_us = seen.get(module, (0, 0))
            samples[module].append((cumulative_us if module == "numpy" else self_us) / 1e3)
    return {f"import.{m}_ms": statistics.median(v) for m, v in samples.items()}


def identity_times(reps: int) -> dict[str, float]:
    """Median wall time of the whole suite and of each of its checks, in ms."""
    per_check: dict[str, list[float]] = {name: [] for name in IDENTITY_CHECKS}
    suite: list[float] = []
    originals = {name: fn for name, fn in vars(identities).items()
                 if name.startswith("check_") and callable(fn)}

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            per_check.setdefault(result.name, []).append(1e3 * (time.perf_counter() - t0))
            return result
        return wrapper

    try:
        for name, fn in originals.items():
            setattr(identities, name, timed(fn))
        for _ in range(reps):
            t0 = time.perf_counter()
            results = identities.run_identity_suite()
            suite.append(1e3 * (time.perf_counter() - t0))
            failed = [r.name for r in results if not r.passed]
            if failed:
                raise RuntimeError(f"identity checks failed: {failed}")
    finally:
        for name, fn in originals.items():
            setattr(identities, name, fn)
    unknown = sorted(set(per_check) - set(IDENTITY_CHECKS))
    missing = sorted(name for name in IDENTITY_CHECKS if not per_check[name])
    if unknown or missing:
        raise RuntimeError(f"identity suite changed: new {unknown}, missing {missing}")
    out = {"identities.suite_ms": statistics.median(suite)}
    out.update({f"identities.{name}_ms": statistics.median(per_check[name])
                for name in IDENTITY_CHECKS})
    return out


def main_times(workload, ops, reps: int) -> dict[str, float]:
    """Median in-process ``cli.main`` wall time per subcommand, warm interpreter, in ms."""
    samples: dict[str, list[float]] = {}
    commands = workload.commands(0, str(workload.workdir))
    for _ in range(reps):
        for command in commands:
            t0 = time.perf_counter()
            workload.main(command, ops)
            samples.setdefault(command.kind, []).append(1e3 * (time.perf_counter() - t0))
    return {f"cli.main_ms.{kind}": statistics.median(v) for kind, v in samples.items()}
