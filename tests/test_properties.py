"""Property tests: malformed text, bytes and argv end in a documented exit code.

Every example set is derandomized, so a failure reproduces on every run.
"""

import string

import pytest
from hypothesis import event, given, settings, strategies as st

from bellproto.attacks import CATALOG
from bellproto.cli import main
from bellproto.protocols import PROTOCOLS, run_from_config
from bellproto.transcript import RunConfig, parse_transcript

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=100)

VALID = tuple(
    run_from_config(config).transcript.to_text()
    for config in (
        RunConfig(protocol="bc", secret="1", seed=7, mode="sample:1"),
        RunConfig(protocol="ot", secret="0", inputs="01", seed=3, mode="sample:1"),
        RunConfig(protocol="tpsc", secret="1", inputs="10,01", seed=5, mode="sample:1"),
        RunConfig(protocol="qds", secret="10", k=2, seed=2,
                  mode="forced:01:10,11:00"),
    )
)
# characters a transcript is written in, so edits stay close to the grammar
_TRANSCRIPT_CHARS = string.ascii_lowercase + string.digits + " =:,-[]'\n"


@st.composite
def edited_transcripts(draw):
    """A valid transcript with one span replaced by drawn text."""
    text = draw(st.sampled_from(VALID))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 40)))
    filler = draw(st.text(alphabet=_TRANSCRIPT_CHARS, max_size=20) | st.text(max_size=8))
    return text[:start] + filler + text[stop:]


@DERANDOMIZED
@given(st.text() | edited_transcripts())
def test_parse_transcript_raises_only_value_error(text):
    try:
        parse_transcript(text)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch directory, made the working directory so default outputs land there."""
    path = tmp_path_factory.mktemp("properties")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        yield path


@DERANDOMIZED
@given(st.binary(max_size=200) | edited_transcripts().map(str.encode))
def test_replay_of_any_bytes_ends_in_a_replay_exit_code(workdir, data):
    path = workdir / "input.pwv1"
    path.write_bytes(data)
    assert main(["replay", str(path)]) in (0, 3, 4)


_SECRETS = ("0", "1", "2", "", "q", "q:0.6,0,0.8,0", "q:1,0,0,0.5", "q:nan,0,0,0",
            "10", "0110", "1x")
_INPUTS = ("", "00,00", "10,01", "10,01,11", "00,00,--", "01", "1x,01", "0", "10,01,--,11")
_STRATEGIES = sorted({name for _, name in CATALOG} | {"made-up"})


def _flag_values(workdir):
    # about one value in seven is one argparse itself rejects
    outs = st.sampled_from(["out.txt", "missing/x", "."]).map(lambda p: str(workdir / p))
    ints = st.sampled_from(["0", "1", "2", "3", "4", "-1", "x"])
    return {
        "--protocol": st.sampled_from(PROTOCOLS + ("zz",)),
        "--secret": st.sampled_from(_SECRETS),
        "--inputs": st.sampled_from(_INPUTS),
        "--mu": ints,
        "--nu": ints,
        "--seed": st.sampled_from(["0", "7", "2", "1099511627776", "-1", "x"]),
        "--mode": st.sampled_from(["sample", "enumerate", "sample", "enumerate", "bogus"]),
        "--samples": st.integers(-1, 20).map(str),
        "--strategy": st.sampled_from(_STRATEGIES),
        "--fault": st.just("gremlins"),
        "--out": outs,
    }


# (flags nearly always given, flags sometimes given) per subcommand; identities
# nearly always gets an unknown --fault, which exits before the suite (0.4 s a
# call, covered by tests/test_cli.py) runs
_COMMANDS = {
    "run": (("--protocol", "--seed"),
            ("--mu", "--nu", "--secret", "--inputs", "--mode", "--out")),
    "attack": (("--protocol", "--strategy"),
               ("--mu", "--nu", "--secret", "--inputs", "--mode", "--samples", "--seed",
                "--out")),
    "identities": (("--fault",), ("--out",)),
    "replay": ((), ()),
}


@st.composite
def argvs(draw, workdir):
    """Mostly well-formed argv for one subcommand; now and then a flag it
    needs is dropped or a flag of another subcommand slips in."""
    values = _flag_values(workdir)
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    flags = [f for f in required if draw(st.integers(0, 9)) != 5]
    flags += draw(st.lists(st.sampled_from(optional), unique=True, max_size=5)) if optional else []
    if draw(st.integers(0, 9)) == 5:
        flags.append(draw(st.sampled_from(sorted(values))))
    argv = [command]
    if command == "replay":
        argv.append(str(workdir / draw(st.sampled_from(["out.txt", "input.pwv1", "none"]))))
    for flag in flags:
        argv += [flag, draw(values[flag])]
    return argv


@DERANDOMIZED
@given(st.data())
def test_random_argv_ends_in_a_documented_exit_code(workdir, data):
    argv = data.draw(argvs(workdir))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the flags
        assert exc.code == 2, argv
        event("argparse")
    else:
        assert code in (0, 2, 3, 4, 5, 6), argv
        event(f"{argv[0]} exit {code}")


# whitespace float() strips from a number; the line breaks among it split a
# transcript's config line
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000"


@st.composite
def spaced_qubit_secrets(draw):
    """A normalised ``q:`` secret with drawn whitespace around its numbers."""
    pad = st.text(alphabet=_WHITESPACE, max_size=2)
    return "q:" + ",".join(draw(pad) + part + draw(pad) for part in ("0.6", "0", "0.8", "0"))


@DERANDOMIZED
@given(st.data())
def test_every_written_transcript_replays_identical(workdir, data):
    protocol = data.draw(st.sampled_from(PROTOCOLS) | st.just("qss"))
    secrets = st.sampled_from(("0", "1", "10", "0110"))
    if protocol == "qss":
        secrets = spaced_qubit_secrets() | st.sampled_from(("0", "q", "q:0.6,0,0.8,0"))
    argv = ["run", "--protocol", protocol, "--secret", data.draw(secrets),
            "--seed", data.draw(st.sampled_from(["0", "3", "7"])),
            "--out", str(workdir / "written.pwv1")]
    code = main(argv)
    if code in (0, 3):  # a run that accepts or rejects writes its transcript
        assert main(["replay", argv[-1]]) == 0, argv
        event(f"{protocol} replayed")
    else:
        assert code == 2, argv
        event(f"{protocol} exit 2")
