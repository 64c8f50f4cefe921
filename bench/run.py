"""bellproto benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload enumerate-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run it from the root of a checkout; the package is loaded from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give provenance, per-pass counts, sample counts, the sha256 digest of
the workload's outputs and every metric under the name the workload
documents it by.  The exit code is non-zero when any output check fails.
See ``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("enumerate-sweep", "sample-replay", "cli-mix")
SETUP_BEFORE = 3
SETUP_DURING = 12
TRACE_PROBE_REPS = 3
TRACE_ROUNDS = 3


def child_env() -> dict:
    """Environment for child interpreters: absolute source path, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def setup_sample(env: dict, cwd: Path) -> float:
    """Wall time of one fresh interpreter running ``import bellproto``."""
    from workloads import run_child
    proc, seconds = run_child(["-c", "import bellproto"], cwd, env)
    if proc.returncode != 0:
        raise RuntimeError(f"import bellproto failed: {proc.stderr}")
    return seconds


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def measure(workload, ops, seconds: float, setup) -> tuple[dict, dict]:
    """Warm up, then run passes until ``seconds`` of passes and one whole cycle are done.

    Throughput is sampled every ``workload.rate_passes`` passes.  Set-up
    samples are taken before the loop and between rate samples, so that
    they meet the same phases of a shared machine as the passes do; a run
    always takes ``SETUP_BEFORE + SETUP_DURING`` of them.
    """
    setup_s = [setup() for _ in range(SETUP_BEFORE)]
    workload.run_pass(-1, ops)  # inputs of its own, so no timed pass repeats it
    digest = hashlib.sha256()
    rates, latencies, units, passes, busy = [], [], 0, 0, 0.0
    while passes < workload.cycle or busy < seconds:
        sample_units = 0
        t0 = time.perf_counter()
        for _ in range(workload.rate_passes):
            result = workload.run_pass(passes, ops, digest if passes < workload.cycle else None)
            sample_units += result.units
            latencies.extend(result.latencies_s)
            passes += 1
        elapsed = time.perf_counter() - t0
        busy += elapsed
        rates.append(sample_units / elapsed)
        units += sample_units
        while len(setup_s) < SETUP_BEFORE + SETUP_DURING and \
                busy >= (len(setup_s) - SETUP_BEFORE + 1) * seconds / (SETUP_DURING + 1):
            setup_s.append(setup())
    while len(setup_s) < SETUP_BEFORE + SETUP_DURING:
        setup_s.append(setup())
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput": statistics.median(rates),
        "p50_ms": 1e3 * statistics.median(latencies),
        "p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }
    info = {"rate_samples": len(rates), "passes": passes, "latency_samples": len(latencies),
            "setup_samples": len(setup_s), "rates": rates,
            "per_pass": {workload.unit: units / passes, **workload.describe()},
            "digest_first_cycle": digest.hexdigest()}
    return metrics, info


def end_to_end(args, workload, ops, env, workdir) -> tuple[dict, dict]:
    metrics, info = measure(workload, ops, args.seconds, lambda: setup_sample(env, workdir))
    metrics["peak_rss_mb"] = peak_rss_mb(children=workload.name == "cli-mix")
    named = {"setup_s": (metrics["setup_s"], "s"), "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
             "error_rate": (ops.failed / max(ops.attempted, 1), "ratio")}
    if workload.name == "enumerate-sweep":
        named["enumerate.cells_per_s"] = (metrics["throughput"], "cells/s")
    elif workload.name == "sample-replay":
        named["sample.runs_per_s"] = (metrics["throughput"], "runs/s")
    else:
        named["cli.identities_ms"] = (1e3 * statistics.median(workload.identities_s), "ms")
        named["cli.p50_ms"] = (metrics["p50_ms"], "ms")
        named["cli.p90_ms"] = (metrics["p90_ms"], "ms")
        info["identities_samples"] = len(workload.identities_s)
    info["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    info["named"]["error_rate"]["base"] = f"{ops.failed}/{ops.attempted}"
    return metrics, info


def traced(args, workload, ops, env, workdir) -> tuple[dict, dict]:
    import probes
    import workloads
    from tracer import Tracer

    cli_workload = workload if workload.name == "cli-mix" else workloads.make(
        "cli-mix", args.seed, args.tiny, workdir, env)
    reps = 1 if args.tiny else TRACE_PROBE_REPS
    metrics = probes.import_times(env, workdir, reps)
    metrics.update(probes.identity_times(reps))
    metrics.update(probes.main_times(cli_workload, ops, reps))

    # One whole cycle, untraced and then traced, in turn: every traced
    # cycle must reproduce every counter of the first exactly.  A cycle can
    # take under a second, so the overhead is a ratio of medians.
    indices = range(workload.cycle)
    workload.trace_pass(-1, ops)
    tracers, traced_s, untraced_s = [], [], []
    for _ in range(TRACE_ROUNDS):
        t0 = time.perf_counter()
        for index in indices:
            workload.trace_pass(index, ops)
        untraced_s.append(time.perf_counter() - t0)
        with Tracer() as tracer:
            t0 = time.perf_counter()
            for index in indices:
                tracer.new_pass()
                workload.trace_pass(index, ops)
            traced_s.append(time.perf_counter() - t0)
        tracers.append(tracer)
    first = tracers[0].counts()
    for other in (t.counts() for t in tracers[1:]):
        if other != first:
            differ = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
            sys.exit(f"error: op counters differ between two traced runs: {differ}")
    metrics.update(tracers[0].layer_metrics(passes=workload.cycle))
    metrics["tracing.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    required = REQUIRED_NONZERO[workload.name]
    zero = [name for name in required if not metrics.get(name)]
    if zero:
        sys.exit(f"error: counters that {workload.name} must move read zero: {zero}")
    info = {"traced_passes": workload.cycle, "untraced_s": untraced_s, "traced_s": traced_s,
            "counts": tracers[0].summary()}
    return metrics, info


_ALWAYS = ["states.rng.streams_per_run", "states.statevector.builds_per_run",
           "states.bsm.calls_per_run", "states.bsm.self_us", "states.apply_pauli.self_us",
           "states.rng.self_us", "protocols.self_share", "transcript.events_per_run",
           "transcript.append.self_us", "attacks.run_cell.calls",
           "algebra.pauli_matrix.calls_per_run", "identities.suite_ms",
           "import.numpy_ms", "import.bellproto.states_ms", "cli.main_ms.identities",
           "tracing.overhead"] + [f"protocols.{p}.run_us" for p in
                                  ("bc", "ct", "ot", "tpsc", "qss", "qds", "mpsc")]
REQUIRED_NONZERO = {
    "enumerate-sweep": _ALWAYS + ["attacks.run_cell.repeat_share",
                                  "attacks.run_strategy.self_ms",
                                  "attacks.view_distance.self_ms",
                                  "states.extract_qubit.self_us"],
    "sample-replay": _ALWAYS + ["states.rng.used_share", "transcript.to_text_us",
                                "transcript.parse_us", "transcript.bytes_per_run",
                                "attacks.run_strategy.self_ms", "states.measure_qubit.self_us"],
    "cli-mix": _ALWAYS + ["states.rng.used_share", "transcript.to_text_us",
                          "transcript.parse_us", "attacks.run_strategy.self_ms"],
}


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_child_workload(workload: str, seed: int, seconds: float, trace: int,
                       tiny: bool = False) -> tuple[int, dict | None, dict | None]:
    """One workload in a fresh process: (exit code, result, info line)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return proc.returncode, None, None
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), None)
    return proc.returncode, json.loads(lines[-1]), info


def run_all(args) -> int:
    """Every workload in its own process, then one table of the named metrics."""
    ok = True
    attempted = failed = 0
    table = {}
    for name in WORKLOAD_NAMES:
        code, result, info = run_child_workload(name, args.seed, args.seconds, 0, args.tiny)
        if code != 0 or result is None:
            print(f"{name}: exit {code}")
            ok = False
            if result is None:
                continue
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in info["named"].items():
            table[f"{name} {metric}"] = entry
        print(f"{name}: per pass {info['per_pass']}, {info['latency_samples']} latency samples")
        print(f"{name}: digest {info['digest_first_cycle']}")
    for key, entry in table.items():
        base = f" ({entry['base']} failed)" if "base" in entry else ""
        print(f"{key} {entry['value']:.6g} {entry['unit']}{base}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": table}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest passes and one repetition, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "bellproto" / "__init__.py").is_file():
        print(f"error: no bellproto sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import bellproto
    if Path(bellproto.__file__).resolve().parent != (SRC / "bellproto").resolve():
        print(f"error: bellproto imported from {bellproto.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    env = child_env()
    ops = workloads.Ops()
    try:
        workload = workloads.make(args.workload, args.seed, args.tiny, workdir, env)
        run = traced if args.trace else end_to_end
        metrics, info = run(args, workload, ops, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("info " + json.dumps({**provenance(args), **info}))
    for name in declared:
        print(f"{name} {metrics[name]:.6g} {declared[name]}")
    correct = ops.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
