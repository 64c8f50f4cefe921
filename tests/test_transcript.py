import pytest

from bellproto.protocols import run_from_config
from bellproto.transcript import (
    FORMAT_VERSION,
    Event,
    RunConfig,
    Transcript,
    first_divergence,
    parse_transcript,
)

PROTO_CONFIGS = [
    RunConfig(protocol="bc", secret="1", seed=7, mode="sample:1"),
    RunConfig(protocol="ct", secret="0", seed=11, mode="sample:1"),
    RunConfig(protocol="ot", secret="1", seed=13, mode="sample:1"),
    RunConfig(protocol="tpsc", secret="1", inputs="10,01", seed=17, mode="sample:1"),
    RunConfig(protocol="qss", secret="0", seed=19, mode="sample:1"),
    RunConfig(protocol="qds", secret="1011", k=4, seed=23, mode="sample:1"),
    RunConfig(protocol="mpsc", secret="0", inputs="10,01,--", seed=29, mode="sample:1"),
]


def test_config_text_round_trip():
    config = PROTO_CONFIGS[3]
    assert RunConfig.from_text(config.to_text()) == config


def test_config_missing_key_rejected():
    with pytest.raises(ValueError):
        RunConfig.from_text("protocol=bc\nmu=0")


# a repeat holding the recorded value is still malformed
@pytest.mark.parametrize("line,problem", [("extra=1", "unknown config key: 'extra'"),
                                          ("nu=0", "repeated config key: 'nu'")])
def test_config_bad_key_rejected(line, problem):
    with pytest.raises(ValueError, match=problem):
        RunConfig.from_text(PROTO_CONFIGS[0].to_text() + "\n" + line)


# int() reads each of these, but the text is not what str() writes back
@pytest.mark.parametrize("old,new", [("mu=0", "mu= 0"), ("mu=0", "mu=+0"), ("mu=0", "mu=0_0"),
                                     ("mu=0", "mu=\u0660"), ("nu=0", "nu=-0"),
                                     ("seed=7", "seed=07"), ("seed=7", "seed=7 "),
                                     ("k=1", "k=1 ")])
def test_config_noncanonical_integer_rejected(old, new):
    text = PROTO_CONFIGS[0].to_text()
    assert old in text.split("\n")
    with pytest.raises(ValueError, match="non-canonical config integer"):
        RunConfig.from_text(text.replace(old, new, 1))


def test_run_id_is_config_determined():
    a = RunConfig(protocol="bc", secret="1", seed=7)
    b = RunConfig(protocol="bc", secret="1", seed=7)
    c = RunConfig(protocol="bc", secret="1", seed=8)
    assert a.run_id == b.run_id
    assert a.run_id != c.run_id


def test_transcript_serialisation_shape():
    config = PROTO_CONFIGS[0]
    record = run_from_config(config)
    text = record.transcript.to_text()
    lines = text.splitlines()
    assert lines[0] == FORMAT_VERSION
    assert lines[-1] == "end"
    assert any(line.startswith("config protocol=bc") for line in lines)
    event_lines = [line for line in lines if line.startswith("event ")]
    assert event_lines
    for line in event_lines:
        fields = line.split(" ")
        assert len(fields) == 7  # event, run id, step, actor, action, payload, kind
        assert fields[1] == config.run_id
        assert fields[6] in ("classical", "quantum", "local")


def test_parse_round_trip():
    record = run_from_config(PROTO_CONFIGS[1])
    text = record.transcript.to_text()
    config, events = parse_transcript(text)
    assert config == PROTO_CONFIGS[1]
    assert len(events) == len(record.transcript.events)


def test_parse_rejects_foreign_text():
    with pytest.raises(ValueError):
        parse_transcript("not a transcript\n")
    with pytest.raises(ValueError):
        parse_transcript(FORMAT_VERSION + "\nconfig protocol=bc\n")  # truncated


@pytest.mark.parametrize("config", PROTO_CONFIGS, ids=lambda c: c.protocol)
def test_equal_seeds_give_byte_identical_transcripts(config):
    first = run_from_config(config).transcript.to_text()
    second = run_from_config(config).transcript.to_text()
    assert first == second


@pytest.mark.parametrize("config", PROTO_CONFIGS, ids=lambda c: c.protocol)
def test_different_seeds_change_something(config):
    import dataclasses

    other = dataclasses.replace(config, seed=config.seed + 1)
    a = run_from_config(config).transcript.to_text()
    b = run_from_config(other).transcript.to_text()
    assert a != b  # at minimum the embedded config differs


def test_first_divergence_found_at_edited_event():
    record = run_from_config(PROTO_CONFIGS[2])
    text = record.transcript.to_text()
    lines = text.splitlines()
    event_indexes = [i for i, line in enumerate(lines) if line.startswith("event ")]
    target_line = event_indexes[3]
    fields = lines[target_line].split(" ")
    payload = fields[5]
    flipped = ("0" if payload[0] != "0" else "1") + payload[1:]
    lines[target_line] = " ".join(fields[:5] + [flipped] + fields[6:])
    edited = "\n".join(lines) + "\n"
    assert first_divergence(text, edited) == 3


def test_first_divergence_none_for_identical():
    record = run_from_config(PROTO_CONFIGS[4])
    text = record.transcript.to_text()
    assert first_divergence(text, text) is None


def test_first_divergence_on_missing_tail():
    record = run_from_config(PROTO_CONFIGS[0])
    text = record.transcript.to_text()
    lines = [l for l in text.splitlines()]
    event_idx = [i for i, l in enumerate(lines) if l.startswith("event ")]
    shortened = "\n".join(lines[: event_idx[-1]] + ["end"]) + "\n"
    assert first_divergence(text, shortened) == len(event_idx) - 1


def test_transcript_appends_are_ordered():
    t = Transcript(lambda: PROTO_CONFIGS[0])
    t.append("1", "alice", "a", "x", "local", ("alice",))
    t.append("2", "bob", "b", "y", "classical", ("alice", "bob"))
    assert [ev.step for ev in t.events] == ["1", "2"]


def test_event_is_a_read_only_value():
    t = Transcript(lambda: PROTO_CONFIGS[0])
    ev = t.append("1", "alice", "a", "x", "local", ("alice",))
    assert Event._fields == ("step", "actor", "action", "payload", "kind", "visible")
    assert ev == Event("1", "alice", "a", "x", "local", ("alice",))
    for field in Event._fields:
        with pytest.raises(AttributeError):
            setattr(ev, field, None)
    with pytest.raises(AttributeError):
        ev.extra = 1


def test_qubit_secret_replays_byte_identically():
    from bellproto.protocols import qss_run
    from bellproto.states import Rng

    probe = Rng(321).unit_qubit()
    rec = qss_run(probe, Rng(6))
    assert rec.config.secret.startswith("q:")
    again = run_from_config(rec.config)
    assert again.transcript.to_text() == rec.transcript.to_text()
    assert again.values["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_forced_outcome_list_round_trips_through_config():
    from bellproto.algebra import TwoBits
    from bellproto.protocols import bc_run, parse_mode, qds_run

    rec = bc_run(1, None, forced=(TwoBits(0, 1), TwoBits(1, 0)))
    config = rec.config
    assert config.mode == "forced:01:10"
    assert parse_mode(config.mode) == ([(TwoBits(0, 1), TwoBits(1, 0))], None)
    again = run_from_config(config)
    assert again.transcript.to_text() == rec.transcript.to_text()

    cells = [(TwoBits(0, 0), TwoBits(1, 1)), (TwoBits(1, 0), TwoBits(0, 1))]
    rec = qds_run([1, 0], None, forced=cells)
    assert rec.config.mode == "forced:00:11,10:01"
    again = run_from_config(rec.config)
    assert again.transcript.to_text() == rec.transcript.to_text()


def test_a_drawn_qds_cell_round_trips_through_config():
    from bellproto.algebra import TwoBits
    from bellproto.protocols import parse_mode, qds_run

    cell = (TwoBits(0, 0), TwoBits(0, 1))
    rec = qds_run([1, 0], None, forced=[None, cell])
    assert rec.config.mode == "forced:--:--,00:01"
    assert parse_mode(rec.config.mode) == ([(None, None), cell], None)
    again = run_from_config(rec.config)
    assert again.transcript.to_text() == rec.transcript.to_text()


def test_forced_masks_round_trip_through_config():
    from bellproto.algebra import TwoBits
    from bellproto.protocols import mpsc_run, parse_mode, tpsc_run

    cell = (TwoBits(0, 1), TwoBits(1, 0))
    rec = tpsc_run(TwoBits(1, 0), TwoBits(0, 1), 1, None, forced=cell, masks=(1, 0))
    assert rec.config.mode == "forced:01:10;masks:10"
    assert parse_mode(rec.config.mode) == ([cell], (1, 0))
    again = run_from_config(rec.config)
    assert again.values["masks"] == (1, 0)
    assert again.transcript.to_text() == rec.transcript.to_text()

    rec = mpsc_run(TwoBits(1, 0), TwoBits(0, 1), 0, None, forced=cell, masks=(0, 1, 1))
    assert rec.config.mode == "forced:01:10;masks:011"
    assert run_from_config(rec.config).transcript.to_text() == rec.transcript.to_text()


def test_runs_without_given_masks_keep_their_mode():
    from bellproto.algebra import TwoBits
    from bellproto.protocols import mpsc_run, ot_run, spec_for, tpsc_run
    from bellproto.states import Rng

    assert tpsc_run(TwoBits(1, 0), TwoBits(0, 1), 1, Rng(3)).config.mode == "sample:1"
    assert mpsc_run(TwoBits(1, 0), TwoBits(0, 1), 1, Rng(3),
                    forced=(None, TwoBits(1, 1))).config.mode == "forced:--:11"
    assert ot_run(1, Rng(3), forced=(None, TwoBits(1, 0))).config.mode == "forced:--:10"
    # a forced mode recorded without masks still parses, and its masks are drawn
    config = RunConfig(protocol="tpsc", secret="1", inputs="10,01", mode="forced:01:10")
    assert "masks" not in spec_for("tpsc").runner_kwargs(config)
    assert run_from_config(config).transcript.config == config
