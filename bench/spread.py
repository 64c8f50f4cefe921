"""Run every workload on ten seeds and report each metric's quartile spread.

    python3 bench/spread.py [--out bench/baseline.json]

Each run lasts ``run_seconds`` from ``BENCHMARK.json``.  For each
end-to-end metric this prints the median of the runs and the spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread at or above the metric's bound in ``BENCHMARK.json`` means the
benchmark cannot tell a regression of that size from noise.  Each run's
output digest is compared with the digest of the same workload and seed
in ``bench/baseline.json``; a change that is meant only to be faster must
reproduce them all.  Each workload also gets one traced run on the first
seed.  ``--out`` writes every run's values, digests and the traced
figures.  The exit code is non-zero when a check failed, a spread reached
its bound or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, run_child_workload

SEEDS = range(1, 11)
BASELINE = ROOT / "bench" / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    code, result, info = run_child_workload(workload, seed, seconds, trace)
    if code != 0 or result is None:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {code}")
    return result, info


def baseline_digests() -> dict[tuple[str, int], str]:
    if not BASELINE.is_file():
        return {}
    report = json.loads(BASELINE.read_text())
    return {(workload, run["seed"]): run["info"]["digest_first_cycle"]
            for workload, entry in report["workloads"].items() for run in entry["runs"]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    known = baseline_digests()
    report = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, matched = [], 0
        for seed in SEEDS:
            result, info = run_once(workload, seed, seconds, 0)
            ok &= result["correct"]
            runs.append({"seed": seed, "result": result, "info": info})
            digest = info["digest_first_cycle"]
            if (workload, seed) in known:
                same = known[(workload, seed)] == digest
                matched += same
                ok &= same
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + f" digest={digest[:16]}", flush=True)
        compared = sum((workload, seed) in known for seed in SEEDS)
        print(f"  {workload} digests: {matched} of {compared} equal to {BASELINE.name}"
              + ("" if compared == len(SEEDS) else
                 f" ({len(SEEDS) - compared} seeds not in it)"), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound}
            mark = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            ok &= spread < bound
            print(f"  {workload} {name}: median {median:.6g} spread {spread:.4f} "
                  f"(bound {bound}) {mark}", flush=True)
        result, info = run_once(workload, SEEDS[0], seconds, 1)
        ok &= result["correct"]
        report["workloads"][workload] = {"summary": summary, "runs": runs,
                                         "traced": {"result": result, "info": info}}
    if args.out:
        report["provenance"] = {k: runs[0]["info"][k] for k in ("nproc", "cpu", "python", "numpy")}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
