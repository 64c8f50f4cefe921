"""Smoke test of the benchmark itself, at tiny size.

    python3 bench/smoke.py

Runs every workload untraced and traced with ``--tiny``, and asserts that
the last output line has exactly the contract's keys, that every metric
declared in ``BENCHMARK.json`` is printed with its unit, that every output
check passed, and that each workload prints the metrics it documents by
name.  Then it copies only ``BENCHMARK.json`` and ``bench/`` into an empty
directory and asserts that the benchmark refuses to run there.  Exits
non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, run_child_workload

NAMED = {
    "enumerate-sweep": {"enumerate.cells_per_s": "cells/s"},
    "sample-replay": {"sample.runs_per_s": "runs/s"},
    "cli-mix": {"cli.identities_ms": "ms", "cli.p50_ms": "ms", "cli.p90_ms": "ms"},
}
ALWAYS_NAMED = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


def check_run(spec: dict, workload: str, trace: int) -> None:
    code, result, info = run_child_workload(workload, 7, 1, trace, tiny=True)
    assert code == 0 and result is not None, f"{workload} trace={trace} exited {code}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared), set(result["metrics"]) ^ set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name], (name, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, (name, entry)
    for key in ("nproc", "cpu", "python", "numpy", "seed"):
        assert key in info, key
    if not trace:
        assert len(info["digest_first_cycle"]) == 64, info
        named = {**ALWAYS_NAMED, **NAMED[workload]}
        for name, unit in named.items():
            assert info["named"][name]["unit"] == unit, (name, info["named"])
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def check_refuses_without_sources() -> None:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sample-replay",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, "benchmark ran without the program's sources"
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    print("ok refuses to run without src/")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
