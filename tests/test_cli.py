import subprocess
import sys
from pathlib import Path

import pytest

import bellproto
from bellproto.algebra import PAIRS
from bellproto.cli import (
    EXIT_CONFIG,
    EXIT_IDENTITY,
    EXIT_IO,
    EXIT_OK,
    EXIT_REJECT,
    main,
)
from bellproto.protocols import mpsc_run, ot_run, qds_run
from conftest import child_env


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bellproto", *argv],
        capture_output=True, text=True, cwd=cwd, env=child_env(),
    )


def test_child_imports_the_package_under_test(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import bellproto; print(bellproto.__file__)"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(bellproto.__file__).resolve()


def test_bare_import_leaves_identities_unloaded(tmp_path):
    # the package loads no submodule and no numpy; the cli loads neither the
    # identity suite (only its identities command needs it) nor the dense oracle
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bellproto; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy' "
         "or m.startswith('bellproto.'))); "
         "import bellproto.cli; "
         "print(sorted({'bellproto.identities', 'bellproto.dense'} & set(sys.modules)))"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]



def test_identities_command_leaves_dense_unloaded(tmp_path):
    # the identity suite is exact: it needs the integer tables, not the dense oracle
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from bellproto import cli\n"
         "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
         "    code = cli.main(['identities'])\n"
         "print(code, out.getvalue().count('PASS'), 'bellproto.dense' in sys.modules)\n"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(EXIT_OK), "17", "False"]

def test_identities_pass(tmp_path):
    out_file = tmp_path / "identities.txt"
    proc = run_cli("identities", "--out", str(out_file))
    assert proc.returncode == EXIT_OK
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout
    assert out_file.read_text().startswith("PWV1 identities")


def test_identities_fault_injection_fails_decompositions():
    proc = run_cli("identities", "--fault", "omega-sign")
    assert proc.returncode == EXIT_IDENTITY
    failed = {line.split()[0] for line in proc.stdout.splitlines() if line.split()[1] == "FAIL"}
    assert failed == {"chain-decomposition", "swap-decomposition", "teleport-decomposition"}


def test_identities_unknown_fault_is_config_error():
    proc = run_cli("identities", "--fault", "gremlins")
    assert proc.returncode == EXIT_CONFIG


def test_run_bc_writes_replayable_transcript(tmp_path):
    proc = run_cli("run", "--protocol", "bc", "--secret", "1", "--seed", "7",
                   cwd=tmp_path)
    assert proc.returncode == EXIT_OK
    assert "verdict=accept value=1" in proc.stdout
    transcript = tmp_path / "bc-seed7.pwv1"
    assert transcript.exists()
    replay = run_cli("replay", str(transcript))
    assert replay.returncode == EXIT_OK
    assert "replay identical" in replay.stdout


def test_run_outputs_are_byte_identical_for_equal_configs(tmp_path):
    a = tmp_path / "a.pwv1"
    b = tmp_path / "b.pwv1"
    for path in (a, b):
        proc = run_cli("run", "--protocol", "qds", "--secret", "1011",
                       "--seed", "23", "--out", str(path), cwd=tmp_path)
        assert proc.returncode == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_run_ct_enumerate_prints_coin_table(tmp_path):
    proc = run_cli("run", "--protocol", "ct", "--secret", "0", "--seed", "1",
                   "--mode", "enumerate", cwd=tmp_path)
    assert proc.returncode == EXIT_OK
    rows = [line for line in proc.stdout.splitlines() if line.startswith("aa=")]
    assert len(rows) == 16
    for row in rows:
        aa = row.split(" ")[0].split("=")[1]
        assert f"coin={int(aa[1])}" in row  # coin column equals the x bit


def test_run_mpsc_enumerate(tmp_path):
    proc = run_cli("run", "--protocol", "mpsc", "--inputs", "10,01,11",
                   "--secret", "1", "--seed", "3", "--mode", "enumerate",
                   cwd=tmp_path)
    assert proc.returncode == EXIT_OK
    rows = [line for line in proc.stdout.splitlines() if line.startswith("aa=")]
    assert len(rows) == 32  # relay input pinned, sender outcomes x masks
    assert all("verdict=accept" in row for row in rows)


def test_run_config_errors(tmp_path):
    proc = run_cli("run", "--protocol", "bc", "--secret", "7", "--seed", "1",
                   cwd=tmp_path)
    assert proc.returncode == EXIT_CONFIG
    proc = run_cli("run", "--protocol", "tpsc", "--secret", "1", "--seed", "1",
                   "--inputs", "abc", cwd=tmp_path)
    assert proc.returncode == EXIT_CONFIG
    proc = run_cli("run", "--protocol", "nonsense", "--secret", "1", "--seed", "1")
    assert proc.returncode == EXIT_CONFIG  # argparse choice failure


def test_attack_binding_gate(tmp_path):
    proc = run_cli("attack", "--protocol", "bc", "--strategy", "reveal-flip",
                   "--mode", "enumerate", cwd=tmp_path)
    assert proc.returncode == EXIT_OK
    assert "detection 16/16 = 1.000000" in proc.stdout


def test_attack_capture_distance(tmp_path):
    proc = run_cli("attack", "--protocol", "qss", "--strategy", "charlie-skip-bsm",
                   "--secret", "q", cwd=tmp_path)
    assert proc.returncode == EXIT_OK
    line = next(l for l in proc.stdout.splitlines() if l.startswith("state_distance"))
    assert float(line.split(" ")[1]) <= 1e-12


def test_attack_unknown_strategy_is_usage_error():
    proc = run_cli("attack", "--protocol", "bc", "--strategy", "made-up")
    assert proc.returncode == EXIT_CONFIG
    assert "unknown strategy" in proc.stderr


def test_replay_detects_edited_payload(tmp_path):
    proc = run_cli("run", "--protocol", "ct", "--secret", "1", "--seed", "5", cwd=tmp_path)
    assert proc.returncode == EXIT_OK
    transcript = tmp_path / "ct-seed5.pwv1"
    text = transcript.read_text()
    lines = text.splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith("event "))
    idx += 2
    fields = lines[idx].split(" ")
    fields[5] = ("0" if fields[5][0] != "0" else "1") + fields[5][1:]
    lines[idx] = " ".join(fields)
    transcript.write_text("\n".join(lines) + "\n")
    proc = run_cli("replay", str(transcript))
    assert proc.returncode == EXIT_REJECT
    assert "mismatch at event 2" in proc.stdout


def _bc_transcript_lines(tmp_path):
    proc = run_cli("run", "--protocol", "bc", "--secret", "1", "--seed", "5", cwd=tmp_path)
    assert proc.returncode == EXIT_OK
    transcript = tmp_path / "bc-seed5.pwv1"
    lines = transcript.read_text().splitlines()
    config = [i for i, line in enumerate(lines) if line.startswith("config ")]
    return transcript, lines, config


# an unknown key and a repeated one make the config block malformed
CONFIG_EDITS = {"append": ("config extra=1", "unknown config key: 'extra'"),
                "repeat": ("config nu=0", "repeated config key: 'nu'")}


@pytest.mark.parametrize("edit", sorted(CONFIG_EDITS))
def test_replay_names_an_edited_config_block(tmp_path, edit):
    line, problem = CONFIG_EDITS[edit]
    transcript, lines, config = _bc_transcript_lines(tmp_path)
    lines.insert(config[-1] + 1, line)
    transcript.write_text("\n".join(lines) + "\n")
    proc = run_cli("replay", str(transcript))
    assert proc.returncode == EXIT_IO
    assert proc.stdout == ""
    assert proc.stderr == f"error: {problem}\n"


def test_replay_names_a_reordered_config_block(tmp_path):
    transcript, lines, config = _bc_transcript_lines(tmp_path)
    # swapped lines parse to the recorded configuration, but the bytes differ
    lines[config[0]], lines[config[1]] = lines[config[1]], lines[config[0]]
    transcript.write_text("\n".join(lines) + "\n")
    proc = run_cli("replay", str(transcript))
    assert proc.returncode == EXIT_REJECT
    assert proc.stdout == "replay mismatch in the header or config block\n"


def test_replay_rejects_a_transcript_without_its_last_line_break(tmp_path):
    # the header and config are intact, so this is a malformed file, not a mismatch
    transcript, lines, _config = _bc_transcript_lines(tmp_path)
    transcript.write_text("\n".join(lines))
    proc = run_cli("replay", str(transcript))
    assert proc.returncode == EXIT_IO
    assert proc.stdout == ""
    assert proc.stderr == "error: transcript does not close with its end marker\n"


def test_replay_missing_file_is_io_error(tmp_path):
    proc = run_cli("replay", str(tmp_path / "nope.pwv1"))
    assert proc.returncode == EXIT_IO


def test_replay_garbage_file_is_io_error(tmp_path):
    bad = tmp_path / "bad.pwv1"
    bad.write_text("hello world\n")
    proc = run_cli("replay", str(bad))
    assert proc.returncode == EXIT_IO


def test_reject_exit_code_on_cheating_run():
    # in-process call: a strategy run is driven through the attack gate,
    # while run with an accepted verdict exits zero (covered above); here
    # the bound-violation path: expect a fabricated bound mismatch
    assert main(["attack", "--protocol", "bc", "--strategy", "null"]) == EXIT_OK


def test_main_in_process_identities():
    assert main(["identities"]) == EXIT_OK


def _transcript(tmp_path, protocol="bc"):
    path = tmp_path / "edited.pwv1"
    assert main(["run", "--protocol", protocol, "--secret", "1", "--seed", "3",
                 "--out", str(path)]) == EXIT_OK
    return path


def _edited_transcript(tmp_path, old, new, protocol="bc"):
    path = _transcript(tmp_path, protocol)
    path.write_text(path.read_text().replace(old, new, 1))
    return str(path)


def _relaid_transcript(tmp_path, relay):
    """A bc transcript whose line list ``relay`` rearranges in place."""
    path = _transcript(tmp_path)
    lines = path.read_text().splitlines()
    relay(lines)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _binary_file(tmp_path):
    path = tmp_path / "bin.pwv1"
    path.write_bytes(b"\xff\xfe\x00bad")
    return str(path)


BAD_INPUTS = {
    "tpsc-bad-pair": (lambda tmp: ["run", "--protocol", "tpsc", "--inputs", "1x,01",
                                   "--seed", "1"], EXIT_CONFIG),
    "mpsc-open-first-pair": (lambda tmp: ["run", "--protocol", "mpsc", "--inputs=--,01,11",
                                          "--seed", "1"], EXIT_CONFIG),
    "ot-short-pair": (lambda tmp: ["run", "--protocol", "ot", "--inputs", "0",
                                   "--seed", "1"], EXIT_CONFIG),
    "qss-unnormalised": (lambda tmp: ["run", "--protocol", "qss", "--secret", "q:1,0,0,0.5",
                                      "--seed", "1"], EXIT_CONFIG),
    "qss-three-amplitudes": (lambda tmp: ["run", "--protocol", "qss", "--secret", "q:1,0,0",
                                          "--seed", "1"], EXIT_CONFIG),
    "qss-nan-amplitude": (lambda tmp: ["run", "--protocol", "qss", "--secret", "q:nan,0,0,0",
                                       "--seed", "1"], EXIT_CONFIG),
    # float() strips whitespace, but a line break would split the config line
    "qss-newline-amplitude": (lambda tmp: ["run", "--protocol", "qss", "--secret",
                                           "q:1,0,0,0\n", "--seed", "3"], EXIT_CONFIG),
    "qss-form-feed-amplitude": (lambda tmp: ["run", "--protocol", "qss", "--secret",
                                             "q:1,0,0\x0c,0", "--seed", "3"], EXIT_CONFIG),
    "qss-line-separator-amplitude": (lambda tmp: ["attack", "--protocol", "qss", "--strategy",
                                                  "null", "--secret", "q:1,0,0,0\u2028"],
                                     EXIT_CONFIG),
    "qss-space-amplitude": (lambda tmp: ["run", "--protocol", "qss", "--secret",
                                         "q:1, 0,0,0", "--seed", "3"], EXIT_CONFIG),
    "qss-enumerate-bad-secret": (lambda tmp: ["run", "--protocol", "qss", "--secret", "2",
                                              "--seed", "1", "--mode", "enumerate"], EXIT_CONFIG),
    "negative-seed": (lambda tmp: ["run", "--protocol", "ct", "--seed", "-1"], EXIT_CONFIG),
    "channel-label": (lambda tmp: ["run", "--protocol", "bc", "--mu", "4", "--seed", "1"],
                      EXIT_CONFIG),
    "zero-samples": (lambda tmp: ["attack", "--protocol", "bc", "--strategy", "null",
                                  "--mode", "sample", "--samples", "0"], EXIT_CONFIG),
    "attack-negative-seed": (lambda tmp: ["attack", "--protocol", "bc", "--strategy", "null",
                                          "--mode", "sample", "--seed", "-1"], EXIT_CONFIG),
    "attack-sample-without-seed": (lambda tmp: ["attack", "--protocol", "bc", "--strategy",
                                                "null", "--mode", "sample", "--samples", "5"],
                                   EXIT_CONFIG),
    "unknown-strategy": (lambda tmp: ["attack", "--protocol", "ot", "--strategy", "made-up"],
                         EXIT_CONFIG),
    "capture-strategy-sampled": (lambda tmp: ["attack", "--protocol", "qss", "--strategy",
                                              "charlie-skip-bsm", "--mode", "sample",
                                              "--seed", "3"], EXIT_CONFIG),
    "identities-out-missing-dir": (lambda tmp: ["identities", "--out",
                                                str(tmp / "missing" / "x")], EXIT_IO),
    "run-out-missing-dir": (lambda tmp: ["run", "--protocol", "bc", "--seed", "1", "--out",
                                         str(tmp / "missing" / "x")], EXIT_IO),
    "enumerate-out-missing-dir": (lambda tmp: ["run", "--protocol", "ct", "--seed", "1",
                                               "--mode", "enumerate", "--out",
                                               str(tmp / "missing" / "x")], EXIT_IO),
    "attack-out-missing-dir": (lambda tmp: ["attack", "--protocol", "bc", "--strategy",
                                            "null", "--out", str(tmp / "missing" / "x")],
                               EXIT_IO),
    "replay-strategy": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config strategy=", "config strategy=null")], EXIT_IO),
    "replay-unknown-protocol": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config protocol=bc", "config protocol=zz")], EXIT_IO),
    "replay-bad-channel": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mu=0", "config mu=9")], EXIT_IO),
    "replay-bad-mode": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mode=sample:1", "config mode=forced:zz")], EXIT_IO),
    # a single-chain protocol takes one forced cell, not the first of several
    "replay-two-forced-cells": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mode=sample:1", "config mode=forced:00:01,11:10")], EXIT_IO),
    # a mode the runtime never writes is malformed, not a sampled run to mismatch
    **{f"replay-config-mode-{name}": (lambda tmp, mode=mode: ["replay", _edited_transcript(
        tmp, "config mode=sample:1\n", f"config mode={mode}\n")], EXIT_IO)
       for name, mode in (("trailing-space", "sample:1 "), ("padded-count", "sample:01"),
                          ("other-count", "sample:2"), ("bogus", "bogus"))},
    "replay-bad-masks": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mode=sample:1", "config mode=sample:1;masks:2", "tpsc")], EXIT_IO),
    "replay-not-utf8": (lambda tmp: ["replay", _binary_file(tmp)], EXIT_IO),
    # PWV1 is the header, the config lines, the event lines and a last end line
    "replay-event-after-end": (lambda tmp: ["replay", _relaid_transcript(
        tmp, lambda lines: lines.append(lines.pop(-2)))], EXIT_IO),
    "replay-second-end": (lambda tmp: ["replay", _relaid_transcript(
        tmp, lambda lines: lines.append("end"))], EXIT_IO),
    "replay-blank-line": (lambda tmp: ["replay", _relaid_transcript(
        tmp, lambda lines: lines.insert(-1, ""))], EXIT_IO),
    "replay-config-after-events": (lambda tmp: ["replay", _relaid_transcript(
        tmp, lambda lines: lines.insert(-1, lines.pop(1)))], EXIT_IO),
    # a config line is exactly ``config key=value``: no blank one, no padding
    "replay-config-blank-line": (lambda tmp: ["replay", _relaid_transcript(
        tmp, lambda lines: lines.insert(lines.index("config strategy=") + 1, "config "))],
                                 EXIT_IO),
    "replay-config-padded-line": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mu=0", "config  mu=0 ")], EXIT_IO),
    # an integer value is written as str(int) writes it, so an edit to any
    # other spelling is malformed input, not a replay mismatch
    "replay-config-int-space": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mu=0", "config mu= 0")], EXIT_IO),
    "replay-config-int-plus": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mu=0", "config mu=+0")], EXIT_IO),
    "replay-config-int-underscore": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mu=0", "config mu=0_0")], EXIT_IO),
    "replay-config-int-arabic-digit": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mu=0", "config mu=\u0660")], EXIT_IO),
    "replay-config-int-minus-zero": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config nu=0", "config nu=-0")], EXIT_IO),
    "replay-config-int-leading-zero": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config seed=3", "config seed=03")], EXIT_IO),
    "replay-config-int-seed-trailing-space": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config seed=3", "config seed=3 ")], EXIT_IO),
    "replay-config-int-k-trailing-space": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config k=1", "config k=1 ")], EXIT_IO),
    # values a protocol never reads are rejected, not written into the transcript
    "ct-channel-labels": (lambda tmp: ["run", "--protocol", "ct", "--mu", "2", "--nu", "3",
                                       "--seed", "1"], EXIT_CONFIG),
    "ot-channel-label": (lambda tmp: ["attack", "--protocol", "ot", "--strategy", "null",
                                      "--nu", "1"], EXIT_CONFIG),
    "bc-inputs": (lambda tmp: ["run", "--protocol", "bc", "--inputs", "01", "--seed", "1"],
                  EXIT_CONFIG),
    "ct-inputs": (lambda tmp: ["run", "--protocol", "ct", "--inputs", "01", "--seed", "1",
                               "--mode", "enumerate"], EXIT_CONFIG),
    "qss-inputs": (lambda tmp: ["attack", "--protocol", "qss", "--strategy", "null",
                                "--inputs", "01"], EXIT_CONFIG),
    "qds-inputs": (lambda tmp: ["run", "--protocol", "qds", "--secret", "10", "--inputs", "zz",
                                "--seed", "1"], EXIT_CONFIG),
    "replay-ct-channel-label": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config mu=0", "config mu=2", protocol="ct")], EXIT_IO),
    "replay-bc-inputs": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config inputs=", "config inputs=01")], EXIT_IO),
    "replay-qds-k": (lambda tmp: ["replay", _edited_transcript(
        tmp, "config k=1", "config k=9", protocol="qds")], EXIT_IO),
}


_HUGE_QUBIT = "q:1e200,0,1e200,0"  # finite amplitudes whose squared norm overflows


@pytest.mark.parametrize("argv,code", [
    (lambda tmp: ["run", "--protocol", "qss", "--secret", _HUGE_QUBIT, "--seed", "1"],
     EXIT_CONFIG),
    (lambda tmp: ["replay", _edited_transcript(tmp, "config secret=1",
                                               f"config secret={_HUGE_QUBIT}", protocol="qss")],
     EXIT_IO),
], ids=["run", "replay"])
def test_overflowing_qubit_secret_prints_only_the_error(argv, code, tmp_path):
    """The amplitudes are rejected before numpy computes a norm, so no
    overflow warning reaches stderr ahead of the error line."""
    proc = run_cli(*argv(tmp_path))
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


_FORCED_RECORDS = {
    "qds": lambda: qds_run([1, 0], None, forced=[(PAIRS[1], PAIRS[3]), (PAIRS[2], PAIRS[0])]),
    "mpsc": lambda: mpsc_run(PAIRS[2], PAIRS[1], 1, None, forced=(PAIRS[1], PAIRS[3]),
                             masks=(1, 0, 1)),
}
# each mode edited to one cell fewer or more than its run has chains
_WRONG_CELL_COUNTS = {"qds": "forced:01:11", "mpsc": "forced:01:11,10:00;masks:101"}


@pytest.mark.parametrize("protocol", sorted(_FORCED_RECORDS))
def test_replay_rejects_a_forced_mode_with_the_wrong_cell_count(protocol, tmp_path):
    record = _FORCED_RECORDS[protocol]()
    path = tmp_path / f"{protocol}.pwv1"
    text = record.transcript.to_text()
    path.write_text(text)
    proc = run_cli("replay", str(path))
    assert proc.returncode == EXIT_OK, proc.stderr

    wrong = _WRONG_CELL_COUNTS[protocol]
    edited = text.replace(f"config mode={record.config.mode}\n", f"config mode={wrong}\n", 1)
    assert edited != text
    path.write_text(edited)
    proc = run_cli("replay", str(path))
    assert proc.returncode == EXIT_IO
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert f"in mode {wrong!r}" in proc.stderr


def test_replay_rejects_a_mode_and_inputs_that_disagree(tmp_path, capsys):
    """ot writes its receiver pair as the mode's cc and as its inputs; a
    transcript edited so the two differ names the mode and both pairs."""
    text = ot_run(1, None, forced=(PAIRS[0], PAIRS[2])).transcript.to_text()
    edited = text.replace("config inputs=10\n", "config inputs=01\n", 1)
    assert edited != text
    path = tmp_path / "ot.pwv1"
    path.write_text(edited)
    capsys.readouterr()
    assert main(["replay", str(path)]) == EXIT_IO
    assert capsys.readouterr().err == ("error: mode 'forced:00:10' forces the ot input "
                                       "pair cc=10, but --inputs gives 01\n")


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_documented_code(case, tmp_path, capsys):
    argv, code = BAD_INPUTS[case]
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    assert any(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())
