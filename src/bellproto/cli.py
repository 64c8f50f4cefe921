"""Command-line driver: identity suite, protocol runs, attacks, replay.

Subcommands and their exit codes form the regression surface:

    identities   run every algebraic check            0 pass, 5 any failure
    run          execute one protocol                 0 accept, 3 reject
    attack       evaluate a cheating strategy         0 bound met, 6 violated
    replay       re-execute a transcript, compare     0 identical, 3 diverged

plus 2 for configuration/usage errors and 4 for I/O problems, each with one
``error:`` line on stderr.  Exit 2 covers an unknown protocol, strategy or
fault, a malformed ``--secret`` (including ``q:`` amplitudes that are not
four numbers, not normalised or hold whitespace) or ``--inputs``, a
channel label outside 0..3, a value the protocol never reads (``--inputs``
for bc/ct/qss/qds, a non-zero ``--mu``/``--nu`` for ct/ot), a negative
``--seed``, ``--samples`` below 1, ``attack --mode sample`` without
``--seed`` and ``attack --mode sample`` for the capture strategy, which
runs enumerated only.  Exit 4
covers a file that cannot be read or written (any ``--out``) and a
transcript that is not UTF-8, does not parse, has a configuration no
protocol accepts or names a strategy (its config records the cheater's
name, not its hooks, so it cannot be re-run).
Without ``--inputs`` tpsc runs with ``00,00`` and mpsc with ``00,00,--``
(the relay's pair left to its Bell outcome).  Every subcommand is
deterministic given its flags: ``run`` and ``attack --mode sample`` require
an explicit ``--seed``, while ``attack`` enumeration draws nothing and needs
none.  Enumeration cells run in a fixed serial order, so outputs are
byte-stable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .attacks import (
    CATALOG,
    enumeration_cells,
    expected_bound_met,
    run_cell,
    run_strategy,
    strategies_for,
)
from .protocols import PROTOCOLS, ConfigError, cell_label, run_from_config, spec_for
from .transcript import FORMAT_VERSION, RunConfig, first_divergence, parse_transcript

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REJECT = 3
EXIT_IO = 4
EXIT_IDENTITY = 5
EXIT_BOUND = 6


def _error(problem, code: int) -> int:
    print(f"error: {problem}", file=sys.stderr)
    return code


def _write_out(path: str | None, text: str) -> None:
    """Write ``text`` to ``path`` if one was given; ``main`` turns OSError into exit 4."""
    if path:
        Path(path).write_text(text)


def cmd_identities(args) -> int:
    from .identities import format_suite, run_identity_suite  # only this command needs it

    try:
        results = run_identity_suite(fault=args.fault)
    except ValueError as exc:
        return _error(exc, EXIT_CONFIG)
    table = format_suite(results)
    print(table)
    _write_out(args.out, f"{FORMAT_VERSION} identities\n{table}\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_IDENTITY


def _config(args, mode: str, strategy: str = "") -> RunConfig:
    """The configuration the flags describe, checked before any output."""
    spec = spec_for(args.protocol)
    config = spec.config(secret=args.secret, inputs=args.inputs, mu=args.mu, nu=args.nu,
                         seed=args.seed, mode=mode, strategy=strategy)
    spec.runner_kwargs(config)  # raises ConfigError on a bad value; the run reuses the parse
    return config


def _enumerate_rows(config: RunConfig) -> tuple[list[str], bool]:
    row_extra = spec_for(config.protocol).row_extra
    rows = []
    all_accept = True
    for cell in enumeration_cells(config):
        rec = run_cell(config, cell, None, None)
        rows.append(f"{cell_label(cell)} {rec.verdict.line(row_extra(rec))}")
        all_accept &= rec.verdict.accepted
    return rows, all_accept


def cmd_run(args) -> int:
    if args.mode == "enumerate":
        config = _config(args, "enumerate")
        rows, all_accept = _enumerate_rows(config)
        header = f"{config.protocol} enumerate cells={len(rows)}"
        print(header)
        print("\n".join(rows))
        _write_out(args.out, f"{FORMAT_VERSION} report\n{header}\n" + "\n".join(rows) + "\n")
        return EXIT_OK if all_accept else EXIT_REJECT

    config = _config(args, "sample:1")
    record = run_from_config(config)
    verdict = record.verdict
    print(f"{config.protocol} {verdict.line()}")
    out_path = args.out or f"{config.protocol}-seed{config.seed}.pwv1"
    _write_out(out_path, record.transcript.to_text())
    print(f"transcript {out_path}")
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def cmd_attack(args) -> int:
    key = (args.protocol, args.strategy)
    if key not in CATALOG:
        known = ", ".join(strategies_for(args.protocol)) or "none"
        raise ConfigError(f"unknown strategy {args.strategy!r} for {args.protocol!r} "
                          f"(known: {known})")
    if args.seed is None:
        if args.mode == "sample":
            raise ConfigError("--mode sample needs an explicit --seed")
        args.seed = 0  # enumeration draws nothing
    config = _config(args, args.mode, args.strategy)
    report = run_strategy(config, args.strategy, mode=args.mode,
                          trials=args.samples, seed=args.seed)
    text = report.to_text()
    print(text, end="")
    _write_out(args.out, text)
    return EXIT_OK if expected_bound_met(report, CATALOG[key]) else EXIT_BOUND


def cmd_replay(args) -> int:
    try:
        original = Path(args.transcript).read_text()
        config, _events = parse_transcript(original)
        record = run_from_config(config)
    except ValueError as exc:  # not UTF-8, malformed, or a config run_from_config rejects
        return _error(exc, EXIT_IO)
    regenerated = record.transcript.to_text()
    if regenerated == original:
        print(f"replay identical ({len(record.transcript.events)} events)")
        return EXIT_OK
    index = first_divergence(original, regenerated)
    print("replay mismatch in the header or config block" if index == -1
          else f"replay mismatch at event {index}")
    return EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellproto",
        description="Bell-channel cryptography simulator: identities, "
                    "protocol runs, attack evaluation, transcript replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run the algebraic identity suite")
    p_id.add_argument("--fault", default=None,
                      help="inject a named fault into a copy of the operator "
                           "tables (omega-sign) to demonstrate the checks bite")
    p_id.add_argument("--out", default=None, help="also write the table to a file")
    p_id.set_defaults(func=cmd_identities)

    # the configuration flags run and attack share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--protocol", required=True, choices=PROTOCOLS)
    shared.add_argument("--mu", type=int, default=0, help="sender-relay channel label")
    shared.add_argument("--nu", type=int, default=0, help="relay-receiver channel label")
    shared.add_argument("--secret", default="0",
                        help="payload: one bit, a qds bit string, or for qss q (random "
                             "qubit) or q:re,im,re,im")
    shared.add_argument("--inputs", default="",
                        help="party inputs as bit pairs: 10,01 for tpsc (default 00,00), "
                             "10,01,11 for mpsc (default 00,00,--), the receiver pair for ot")
    shared.add_argument("--out", default=None, help="transcript, table or report path")

    p_run = sub.add_parser("run", parents=[shared], help="execute one protocol")
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--mode", choices=("sample", "enumerate"), default="sample")
    p_run.set_defaults(func=cmd_run)

    p_att = sub.add_parser("attack", parents=[shared], help="evaluate a cheating strategy")
    p_att.add_argument("--strategy", required=True)
    p_att.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    p_att.add_argument("--samples", type=int, default=10_000)
    p_att.add_argument("--seed", type=int, default=None,
                       help="required with --mode sample")
    p_att.set_defaults(func=cmd_attack)

    p_rep = sub.add_parser("replay", help="re-execute a transcript and compare")
    p_rep.add_argument("transcript", help="path to a PWV1 transcript file")
    p_rep.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _error(exc, EXIT_CONFIG)
    except OSError as exc:
        return _error(exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
