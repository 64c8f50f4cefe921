"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop in one thread: each operation waits for
the previous one.  Work is grouped into passes, and passes into cycles.
A cycle holds every input shape once (each qds length ``k`` in 1..4, or
each protocol for ``cli-mix``).  The shape of a pass, and so its cost,
depends on its index only, never on the seed.  The seed fixes every input
value: channel labels ``mu``/``nu``, secrets, party inputs, qds bit
strings and run seeds, and for the in-process workloads the order of the
shapes inside a cycle.

Calls go through module attributes (``attacks.run_strategy``), never
through names bound here, so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from bellproto import attacks, cli, protocols, transcript
from bellproto.transcript import RunConfig

PROTOCOLS = ("bc", "ct", "ot", "tpsc", "qss", "qds", "mpsc")
QDS_LENGTHS = (1, 2, 3, 4)
HIDING_TOL = 1e-12
CHILD_TIMEOUT_S = 120


class Ops:
    """Tally of checked operations; failures are counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {what}", file=sys.stderr)

    @contextlib.contextmanager
    def guard(self, what: str):
        """Count an exception raised by one operation as a failed check."""
        try:
            yield
        except Exception:  # the run goes on; the failure is counted and shown
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{what} raised")


@dataclass
class PassResult:
    units: int = 0
    latencies_s: list[float] = field(default_factory=list)


def run_child(argv: list[str], cwd, env: dict) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child interpreter to completion and time it.

    ``subprocess.run(timeout=...)`` waits by polling with sleeps of up to
    50 ms, which would round every timing up to that grid; here the wait
    blocks, and a timer kills a child that overruns.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        watchdog.cancel()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr), \
        time.perf_counter() - t0


def _digest(digest, *parts: str) -> None:
    if digest is not None:
        for part in parts:
            digest.update(part.encode())
            digest.update(b"\0")


class Workload:
    name = ""
    unit = ""
    cycle = len(QDS_LENGTHS)  # passes that hold every input shape once
    rate_passes = cycle  # passes per throughput sample

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(map(str, ("bellproto-bench", self.name, self.seed) + key)))

    def qds_length(self, index: int) -> int:
        """Each cycle of passes uses every qds length once, in a seeded order."""
        if index < 0:
            return QDS_LENGTHS[0]
        order = list(QDS_LENGTHS)
        self.rng("cycle", index // self.cycle).shuffle(order)
        return order[index % self.cycle]

    def configs(self, r: random.Random, k: int, mode: str) -> dict[str, RunConfig]:
        """Seeded honest configuration for every protocol."""
        bit = lambda: str(r.randint(0, 1))
        pair = lambda: bit() + bit()
        label = lambda: r.randrange(4)
        return {
            "bc": RunConfig("bc", mu=label(), nu=label(), secret=bit(), mode=mode),
            "ct": RunConfig("ct", secret=bit(), mode=mode),
            "ot": RunConfig("ot", secret=bit(), mode=mode),
            "tpsc": RunConfig("tpsc", mu=label(), nu=label(), secret=bit(),
                              inputs=f"{pair()},{pair()}", mode=mode),
            "qss": RunConfig("qss", mu=label(), nu=label(), secret=r.choice("01q"), mode=mode),
            "qds": RunConfig("qds", mu=label(), nu=label(), k=k,
                             secret="".join(bit() for _ in range(k)), mode=mode),
            "mpsc": RunConfig("mpsc", mu=label(), nu=label(), secret=bit(),
                              inputs=f"{pair()},{pair()},--", mode=mode),
        }

    def describe(self) -> dict:
        """What one pass contains, beside the units the runner counts."""
        raise NotImplementedError

    def run_pass(self, index: int, ops: Ops, digest=None) -> PassResult:
        raise NotImplementedError

    def trace_pass(self, index: int, ops: Ops) -> PassResult:
        """The in-process work traced for the per-layer metrics."""
        return self.run_pass(index, ops)


# --- enumerate-sweep ----------------------------------------------------------


def _views(r: random.Random) -> list[tuple[str, str, dict]]:
    """Seeded hiding comparisons; each distance must be zero."""
    bit = lambda: r.randint(0, 1)
    pair = lambda: f"{bit()}{bit()}"
    label = lambda: r.randrange(4)
    a, d, e = pair(), bit(), pair()
    return [
        ("bc", "bob", dict(vary="secret", values=(0, 1), cut_step="reveal",
                           fixed={"mu": label(), "nu": label()})),
        ("tpsc", "alice", dict(vary="inputs", values=(f"{a},0{d}", f"{a},1{d}"),
                               fixed={"secret": bit()})),
        ("mpsc", "alice", dict(vary="inputs", values=(f"{a},0{d},{e}", f"{a},1{d},{e}"),
                               fixed={"secret": bit()})),
        ("qss", r.choice(("bob", "charlie")),
         dict(vary="secret", values=(0, 1),
              fixed={"mu": label(), "nu": label(),
                     "runner_kwargs": {"reconstruct": False}})),
        ("ot", "bob", dict(vary="secret", values=(0, 1))),
    ]


def _view_cells(protocol: str, spec: dict) -> int:
    """Forced cells one view comparison runs (both sides)."""
    total = 0
    for value in spec["values"]:
        fields = {k: v for k, v in spec.get("fixed", {}).items() if k != "runner_kwargs"}
        fields[spec["vary"]] = value
        config = attacks._view_config(protocol, fields)
        total += sum(1 for _ in attacks.enumeration_cells(config))
    return total


class EnumerateSweep(Workload):
    """Catalog enumeration, honest cell tables and hiding distances, in process."""

    name = "enumerate-sweep"
    unit = "cells"

    def entries(self) -> list[tuple[str, str]]:
        keys = sorted(attacks.CATALOG)
        if self.tiny:
            keys = [key for key in keys if key[1] in ("null", "charlie-skip-bsm")]
        return keys

    def describe(self) -> dict:
        return {"evaluations": len(self.entries()) + len(PROTOCOLS) + len(_views(self.rng()))}

    def run_pass(self, index: int, ops: Ops, digest=None) -> PassResult:
        configs = self.configs(self.rng("pass", index), self.qds_length(index), "enumerate")
        views = _views(self.rng("views", index))
        view_cells = [_view_cells(p, spec) for p, _o, spec in views]
        out = PassResult()
        clock = time.perf_counter

        for proto, name in self.entries():
            with ops.guard(f"{proto} {name}"):
                t0 = clock()
                report = attacks.run_strategy(configs[proto], name)
                out.latencies_s.append(clock() - t0)
                out.units += report.cells
                ops.check(attacks.expected_bound_met(report, attacks.CATALOG[(proto, name)]),
                          f"{proto} {name} misses its catalog bound")
                _digest(digest, report.to_text())

        for proto, config in configs.items():
            with ops.guard(f"{proto} table"):
                t0 = clock()
                rows = []
                for cell in attacks.enumeration_cells(config):
                    verdict = attacks.run_cell(config, dict(cell), None, None).verdict
                    rows.append(f"{sorted(cell.items())!r} {verdict.outcome} "
                                f"{verdict.value} {verdict.reason}")
                    ops.check(verdict.accepted, f"{proto} honest cell rejected: {rows[-1]}")
                out.latencies_s.append(clock() - t0)
                out.units += len(rows)
                _digest(digest, repr(config), *rows)

        for (proto, observer, spec), cells in zip(views, view_cells):
            with ops.guard(f"{proto} view"):
                t0 = clock()
                dist = attacks.view_distance(proto, observer, **spec)
                out.latencies_s.append(clock() - t0)
                out.units += cells
                ops.check(dist <= HIDING_TOL, f"{proto} {observer} view distance {dist!r}")
                _digest(digest, f"{proto} {observer} {spec!r} {dist!r}")
        return out


# --- sample-replay ------------------------------------------------------------


class SampleReplay(Workload):
    """Seeded sampled runs, each serialised, parsed and replayed, plus attack trials."""

    name = "sample-replay"
    unit = "runs"

    @property
    def round_trips(self) -> int:
        return 1 if self.tiny else 8

    @property
    def trials(self) -> int:
        return 1 if self.tiny else 4

    def entries(self) -> list[tuple[str, str]]:
        # Only entries whose detection probability is 0 or 1: their sampled
        # estimate is exact, so the bound check cannot fail by chance.  The
        # 1/2 entries are covered exactly by enumerate-sweep.
        return sorted(key for key, entry in attacks.CATALOG.items()
                      if entry.metric == "detection" and entry.expected in (0, 1))

    def describe(self) -> dict:
        return {"round_trips": len(PROTOCOLS) * self.round_trips,
                "attack_reports": len(self.entries()), "trials_per_report": self.trials}

    def run_pass(self, index: int, ops: Ops, digest=None) -> PassResult:
        r = self.rng("pass", index)
        configs = self.configs(r, self.qds_length(index), "sample:1")
        order = list(PROTOCOLS)
        r.shuffle(order)
        out = PassResult()
        clock = time.perf_counter

        for proto in order:
            for _ in range(self.round_trips):
                config = replace(configs[proto], seed=r.getrandbits(31))
                with ops.guard(f"{proto} round trip"):
                    t0 = clock()
                    record = protocols.run_from_config(config)
                    text = record.transcript.to_text()
                    parsed, _events = transcript.parse_transcript(text)
                    replayed = protocols.run_from_config(parsed).transcript.to_text()
                    out.latencies_s.append(clock() - t0)
                    out.units += 2
                    ops.check(record.verdict.accepted, f"{config} rejected")
                    ops.check(parsed == config and replayed == text, f"{config} replay differs")
                    _digest(digest, text)

        for proto, name in self.entries():
            config = replace(configs[proto], mode="sample", strategy=name)
            with ops.guard(f"{proto} {name} sample"):
                report = attacks.run_strategy(config, name, mode="sample",
                                              trials=self.trials, seed=r.getrandbits(31))
                out.units += self.trials
                ops.check(attacks.expected_bound_met(report, attacks.CATALOG[(proto, name)]),
                          f"{proto} {name} sampled estimate misses its bound")
                _digest(digest, report.to_text())
        return out


# --- cli-mix ------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    kind: str  # identities | run | replay | enumerate | attack
    argv: tuple[str, ...]
    marker: str = ""  # text the output must contain


class CliMix(Workload):
    """Fresh ``python -m bellproto`` processes, one at a time."""

    name = "cli-mix"
    unit = "processes"
    cycle = len(PROTOCOLS)
    # A pass is a few fresh processes, so its rate is a sample of its own:
    # a run then takes about ten rate samples, not two or three cycles.
    rate_passes = 1

    def __init__(self, seed: int, tiny: bool = False, *, workdir: Path, env: dict):
        super().__init__(seed, tiny)
        self.workdir = workdir
        self.env = env
        self.identities_s: list[float] = []

    def commands(self, index: int, out_dir: str = "") -> list[Command]:
        """One pass: identities, then run, replay, enumerate and attack on one protocol.

        The protocol, the qds length and the attack strategy follow from the
        pass index alone: each cycle takes every protocol once in a fixed
        order, and each further cycle moves to the next qds length and the
        next strategy.  So the seed sets input values, not the amount of work.
        """
        proto = PROTOCOLS[index % self.cycle]
        cycle = index // self.cycle
        r = self.rng("pass", index)
        config = self.configs(r, QDS_LENGTHS[cycle % len(QDS_LENGTHS)], "sample")[proto]
        flags = ["--protocol", proto, "--secret", config.secret]
        if config.inputs:
            flags += ["--inputs", config.inputs]
        if proto not in ("ct", "ot"):  # their chain is publicly fixed at (0, 0)
            flags += ["--mu", str(config.mu), "--nu", str(config.nu)]
        seed = str(r.getrandbits(31))
        path = str(Path(out_dir, f"{proto}-{index}.pwv1")) if out_dir else f"{proto}-{index}.pwv1"
        strategies = attacks.strategies_for(proto)
        strategy = strategies[cycle % len(strategies)]
        return [
            Command("identities", ("identities",)),
            Command("run", ("run", *flags, "--seed", seed, "--out", path), "verdict=accept"),
            Command("replay", ("replay", path), "replay identical"),
            Command("enumerate", ("run", *flags, "--seed", seed, "--mode", "enumerate")),
            Command("attack", ("attack", *flags, "--strategy", strategy)),
        ]

    def describe(self) -> dict:
        return {"short_processes": len(self.commands(0)) - 1}

    def run_pass(self, index: int, ops: Ops, digest=None) -> PassResult:
        out = PassResult()
        for command in self.commands(index):
            proc, dt = run_child(["-m", "bellproto", *command.argv], self.workdir, self.env)
            out.units += 1
            if command.kind == "identities":
                if index >= 0:  # not the warm-up pass
                    self.identities_s.append(dt)
            else:
                out.latencies_s.append(dt)
            ok = proc.returncode == cli.EXIT_OK and command.marker in proc.stdout
            ops.check(ok, f"{' '.join(command.argv)} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-300:]}")
            _digest(digest, " ".join(command.argv), str(proc.returncode), proc.stdout)
            if command.kind == "run":
                produced = self.workdir / command.argv[-1]
                _digest(digest, produced.read_text() if produced.exists() else "")
        return out

    def main(self, command: Command, ops: Ops) -> None:
        """The same command, in process through ``cli.main``."""
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = cli.main(list(command.argv))
        ops.check(code == cli.EXIT_OK and command.marker in buf.getvalue(),
                  f"in-process {' '.join(command.argv)} exited {code}")

    def trace_pass(self, index: int, ops: Ops) -> PassResult:
        # The identity suite is left out: it drives the dense engine as an
        # oracle, not as a protocol, and would swamp the per-run counters.
        # Its own timings come from the identity probe.
        out = PassResult()
        for command in self.commands(index, str(self.workdir)):
            if command.kind != "identities":
                with ops.guard(" ".join(command.argv)):
                    self.main(command, ops)
                out.units += 1
        return out


WORKLOADS = {w.name: w for w in (EnumerateSweep, SampleReplay, CliMix)}


def make(name: str, seed: int, tiny: bool, workdir: Path, env: dict) -> Workload:
    if name == CliMix.name:
        return CliMix(seed, tiny, workdir=workdir, env=env)
    return WORKLOADS[name](seed, tiny)

