"""Golden corpus: sha256 digests of transcripts, tables, reports, view distances and demo output.

Each group below renders a fixed set of outputs, and the test compares the
sha256 of their concatenation with the digest recorded in ``golden.sha256``.
A refactor must leave every digest unchanged.  Changing the bytes on
purpose is a format decision; regenerate the file then with

    PYTHONPATH=src python tests/test_golden.py --write

which names every group whose digest it added, changed or dropped, and
record why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from bellproto import cli
from bellproto.attacks import CATALOG, enumeration_cells, run_cell, run_strategy, view_distance
from bellproto.protocols import cell_label, run_from_config
from bellproto.transcript import RunConfig
from conftest import child_env

CORPUS = Path(__file__).with_name("golden.sha256")
SEEDS = range(50)


def _bit(n: int) -> str:
    return str(n & 1)


def _pair(n: int) -> str:
    return format(n % 4, "02b")


# --- sampled runs: PWV1 text of run_from_config --------------------------------


def _sampled(protocol: str, s: int, *, secret: str | None = None, k: int = 1) -> RunConfig:
    mu, nu = s % 4, (s // 4) % 4
    common = dict(seed=s, mode="sample:1")
    if protocol == "bc":
        return RunConfig("bc", mu=mu, nu=nu, secret=_bit(s), **common)
    if protocol == "ct":
        return RunConfig("ct", secret=_bit(s), **common)
    if protocol == "ot":
        return RunConfig("ot", secret=_bit(s), inputs="" if s % 3 == 0 else _pair(s), **common)
    if protocol == "tpsc":
        return RunConfig("tpsc", mu=mu, nu=nu, secret=_bit(s >> 1),
                         inputs=f"{_pair(s)},{_pair(s >> 2)}", **common)
    if protocol == "qss":
        return RunConfig("qss", mu=mu, nu=nu, secret=secret, **common)
    if protocol == "qds":
        return RunConfig("qds", mu=mu, nu=nu, k=k,
                         secret=format(s % (1 << k), f"0{k}b"), **common)
    if protocol == "mpsc":
        relay = "--" if s % 2 else _pair(s >> 4)
        return RunConfig("mpsc", mu=mu, nu=nu, secret=_bit(s >> 1),
                         inputs=f"{_pair(s)},{_pair(s >> 2)},{relay}", **common)
    raise AssertionError(protocol)


def _sampled_groups():
    variants = [(p, {}) for p in ("bc", "ct", "ot", "tpsc", "mpsc")]
    variants += [("qss", {"secret": s}) for s in ("0", "1", "q")]
    variants += [("qds", {"k": k}) for k in (1, 2, 3, 4)]
    for protocol, extra in variants:
        label = " ".join(f"{key}={value}" for key, value in extra.items())
        yield f"pwv1 {protocol} {label}".strip(), (
            lambda protocol=protocol, extra=extra: [
                run_from_config(_sampled(protocol, s, **extra)).transcript.to_text()
                for s in SEEDS
            ])


# --- forced cells: each cell's transcript and its replay ------------------------

# Explicit ``q:`` amplitudes are left out: forced cells of those are meant to
# evaluate the requested payload, which the original dispatch did not.
FORCED_CONFIGS = (
    RunConfig("bc", mu=1, nu=2, secret="1", mode="enumerate"),
    RunConfig("ct", secret="0", mode="enumerate"),
    RunConfig("ot", secret="1", mode="enumerate"),
    RunConfig("ot", secret="0", inputs="10", mode="enumerate"),
    RunConfig("tpsc", mu=3, nu=1, secret="1", inputs="10,01", mode="enumerate"),
    RunConfig("qss", mu=2, nu=3, secret="0", mode="enumerate"),
    RunConfig("qss", mu=0, nu=1, secret="1", mode="enumerate"),
    RunConfig("qss", mu=1, nu=1, secret="q", mode="enumerate"),
    RunConfig("qds", mu=1, nu=3, secret="10", k=2, mode="enumerate"),
    RunConfig("qds", mu=2, nu=0, secret="1011", k=4, mode="enumerate"),
    RunConfig("mpsc", mu=1, nu=0, secret="1", inputs="10,01,11", mode="enumerate"),
    RunConfig("mpsc", mu=0, nu=2, secret="0", inputs="11,10,--", mode="enumerate"),
)


def _forced_texts(config: RunConfig) -> list[str]:
    texts = []
    for cell in enumeration_cells(config):
        record = run_cell(config, dict(cell), None, None)
        texts.append(record.transcript.to_text())
        texts.append(run_from_config(record.config).transcript.to_text())
    return texts


def _forced_groups():
    for config in FORCED_CONFIGS:
        yield (f"forced {config.protocol} mu={config.mu} nu={config.nu} "
               f"secret={config.secret} inputs={config.inputs or '-'}",
               lambda config=config: _forced_texts(config))


_MASKS_NOT_IN_MODE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 8: forced tpsc/mpsc cells leave their masks out of "
                        "mode, so a replay draws them from the config seed")


@pytest.mark.parametrize("config", [
    pytest.param(config, id=f"{config.protocol}-mu{config.mu}-nu{config.nu}-{config.secret}"
                            f"-{config.inputs or '-'}",
                 marks=[_MASKS_NOT_IN_MODE] if config.protocol in ("tpsc", "mpsc") else [])
    for config in FORCED_CONFIGS])
def test_forced_cells_replay_byte_identically(config):
    for cell in enumeration_cells(config):
        record = run_cell(config, dict(cell), None, None)
        replayed = run_from_config(record.config).transcript.to_text()
        assert replayed == record.transcript.to_text(), cell_label(cell)


# --- CLI output through in-process cli.main ------------------------------------


def _main(argv: list[str]) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _cli_run(argv: list[str]) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, "run.pwv1"))
        stdout = _main(["run", *argv, "--out", path]).replace(path, "OUT")
        return [stdout, Path(path).read_text()]


ENUMERATE_ARGV = (
    "--protocol bc --secret 0 --seed 1",
    "--protocol bc --secret 1 --mu 2 --nu 3 --seed 1",
    "--protocol ct --secret 0 --seed 1",
    "--protocol ct --secret 1 --seed 1",
    "--protocol ot --secret 1 --seed 1",
    "--protocol ot --secret 0 --inputs 01 --seed 1",
    "--protocol tpsc --secret 1 --seed 1",
    "--protocol tpsc --secret 0 --inputs 11,10 --mu 1 --nu 2 --seed 1",
    "--protocol qss --secret 0 --mu 3 --nu 1 --seed 1",
    "--protocol qss --secret 1 --seed 1",
    "--protocol qss --secret q --mu 1 --nu 2 --seed 1",
    "--protocol qds --secret 1 --seed 1",
    "--protocol qds --secret 01 --mu 2 --nu 1 --seed 1",
    "--protocol qds --secret 1011 --mu 3 --nu 3 --seed 1",
    "--protocol mpsc --secret 1 --seed 1",
    "--protocol mpsc --secret 0 --inputs 10,01,11 --mu 1 --nu 3 --seed 1",
    "--protocol mpsc --secret 1 --inputs 01,11,-- --seed 1",
)

RUN_ARGV = (
    "--protocol bc --secret 1 --seed 7",
    "--protocol ct --secret 0 --seed 5",
    "--protocol ot --secret 1 --inputs 10 --seed 3",
    "--protocol tpsc --secret 1 --seed 11",
    "--protocol tpsc --secret 0 --inputs 01,10 --mu 2 --nu 1 --seed 12",
    "--protocol qss --secret q --mu 1 --nu 3 --seed 13",
    "--protocol qss --secret 1 --seed 14",
    "--protocol qds --secret 1011 --seed 23",
    "--protocol mpsc --secret 0 --seed 31",
    "--protocol mpsc --secret 1 --inputs 11,01,10 --mu 3 --nu 2 --seed 32",
)


def _cli_groups():
    yield "cli identities", lambda: [_main(["identities"])]
    for argv in ENUMERATE_ARGV:
        yield (f"cli enumerate {argv}",
               lambda argv=argv: [_main(["run", *argv.split(), "--mode", "enumerate"])])
    for argv in RUN_ARGV:
        yield f"cli run {argv}", lambda argv=argv: _cli_run(argv.split())
    for protocol, name in sorted(CATALOG):
        argv = ["attack", "--protocol", protocol, "--strategy", name]
        yield f"cli {' '.join(argv)}", lambda argv=argv: [_main(argv)]


# --- catalog reports -------------------------------------------------------------

REPORT_CONFIGS = {
    "bc": RunConfig("bc", mu=2, nu=1, secret="1", mode="enumerate"),
    "ct": RunConfig("ct", secret="0", mode="enumerate"),
    "ot": RunConfig("ot", secret="1", mode="enumerate"),
    "tpsc": RunConfig("tpsc", mu=1, nu=1, secret="0", inputs="01,11", mode="enumerate"),
    "qss": RunConfig("qss", mu=1, nu=2, secret="q", mode="enumerate"),
    "qds": RunConfig("qds", mu=3, nu=0, secret="101", k=3, mode="enumerate"),
    "mpsc": RunConfig("mpsc", mu=2, nu=2, secret="1", inputs="10,11,--", mode="enumerate"),
}


def _report_groups():
    for protocol, name in sorted(CATALOG):
        config = REPORT_CONFIGS[protocol]
        yield (f"report {protocol} {name}",
               lambda config=config, name=name: [run_strategy(config, name).to_text()])
        if CATALOG[(protocol, name)].metric == "detection":
            yield (f"report {protocol} {name} sample",
                   lambda config=config, name=name: [run_strategy(
                       config, name, mode="sample", trials=16, seed=3).to_text()])


# --- observer views: repr of view_distance, non-zero ones included -------------

_KEEP_SHARE = {"runner_kwargs": {"reconstruct": False}}
VIEWS = (  # protocol, observer, view_distance keywords
    ("bc", "bob", dict(vary="secret", values=(0, 1))),
    ("bc", "bob", dict(vary="secret", values=(0, 1), cut_step="reveal")),
    ("ot", "bob", dict(vary="secret", values=(0, 1))),
    ("ot", "alice", dict(vary="secret", values=(0, 1))),
    ("tpsc", "alice", dict(vary="inputs", values=("10,00", "10,10"), fixed={"secret": 1})),
    ("tpsc", "alice", dict(vary="inputs", values=("10,00", "10,01"), fixed={"secret": 1})),
    ("tpsc", "bob", dict(vary="inputs", values=("00,01", "10,01"), fixed={"secret": 1})),
    ("mpsc", "alice", dict(vary="inputs", values=("10,01,11", "10,11,11"),
                           fixed={"secret": 1})),
    ("mpsc", "charlie", dict(vary="inputs", values=("00,01,11", "10,01,11"),
                             fixed={"secret": 1})),
    ("qss", "bob", dict(vary="secret", values=(0, 1), fixed=_KEEP_SHARE)),
    ("qss", "charlie", dict(vary="secret", values=(0, 1), fixed=_KEEP_SHARE)),
    ("qss", "bob", dict(vary="secret", values=("q:1,0,0,0", "q:0,0,1,0"))),
    ("qss", "bob", dict(vary="secret", values=("q:0.6,0,0.8,0", "q:0,0,1,0"))),
    ("qss", "bob", dict(vary="secret", values=("q:0.6,0,0.8,0", "q:0,0,1,0"),
                        fixed=_KEEP_SHARE)),
    ("qds", "bob", dict(vary="secret", values=("10", "11"))),
)


def _view_texts() -> list[str]:
    return [f"{protocol} {observer} {kwargs!r} "
            f"{view_distance(protocol, observer, **kwargs)!r}"
            for protocol, observer, kwargs in VIEWS]


# --- demo scripts: stdout of each demos/0*.py in a fresh interpreter -----------

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def _demo_stdout(demo: Path) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              cwd=tmp, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return [proc.stdout]


def _demo_groups():
    for demo in DEMOS:
        yield f"demo {demo.name}", lambda demo=demo: _demo_stdout(demo)


def groups():
    yield from _sampled_groups()
    yield from _forced_groups()
    yield from _cli_groups()
    yield from _report_groups()
    yield "views", _view_texts
    yield from _demo_groups()


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def read_corpus() -> dict[str, str]:
    entries = {}
    for line in CORPUS.read_text().splitlines():
        sha, name = line.split("  ", 1)
        entries[name] = sha
    return entries


GROUPS = dict(groups())


def test_corpus_lists_every_group():
    assert sorted(read_corpus()) == sorted(GROUPS)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_golden_digest(name):
    assert digest(GROUPS[name]()) == read_corpus()[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    old = read_corpus()
    new = {name: digest(render()) for name, render in GROUPS.items()}
    CORPUS.write_text("".join(f"{sha}  {name}\n" for name, sha in new.items()))
    for name in sorted(old.keys() | new.keys()):  # a format change shows its scope
        if old.get(name) != new.get(name):
            status = "added" if name not in old else "dropped" if name not in new else "changed"
            print(f"{status:<8} {name}")
    print(f"wrote {len(new)} digests to {CORPUS}")
