"""Run configuration, transcripts and their line-oriented wire format.

A transcript is the ordered record of everything that happened in one
protocol run.  Serialised form (version header ``PWV1``):

    PWV1
    config key=value          one line per configuration key, fixed order
    event <run_id> <step> <actor> <action> <payload_hex> <kind>
    end

The run id is a hash of the canonical configuration text, so equal
configurations always produce byte-identical files, and replaying a file
means re-running its embedded configuration and comparing event lines.
Payloads are hex-encoded UTF-8 so the format survives any payload content.
:meth:`Transcript.to_text` renders the configuration once, for its lines
and the run id, and writes the event lines in one pass over the events.
Events are logged through :meth:`Transcript.append` only, each as an
:class:`Event` named tuple: a read-only value that costs one tuple to build,
since a forced enumeration logs about fifteen of them per run.  A transcript
takes a builder instead of a configuration, and the configuration is built
the first time something reads it (``to_text``, the record's ``config``):
a detection-only enumeration reads none.  A run made from a configuration
(``run_from_config``) assigns it instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

FORMAT_VERSION = "PWV1"

CONFIG_KEYS = ("protocol", "mu", "nu", "secret", "inputs", "k", "seed", "mode", "strategy")
_INT_KEYS = ("mu", "nu", "k", "seed")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run; equal configs give equal outputs."""

    protocol: str
    mu: int = 0
    nu: int = 0
    secret: str = ""
    inputs: str = ""
    k: int = 1
    seed: int = 0
    mode: str = "sample"
    strategy: str = ""

    def to_text(self) -> str:
        return "\n".join([f"{key}={getattr(self, key)}" for key in CONFIG_KEYS])

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        pairs = {}
        for line in text.split("\n"):  # a blank or padded line is malformed
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"bad config line: {line!r}")
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key: {key!r}")
            if key in pairs:
                raise ValueError(f"repeated config key: {key!r}")
            if key in _INT_KEYS:
                number = int(value)
                if value != str(number):  # e.g. " 0", "+0", "-0", "03", "0_0"
                    raise ValueError(f"non-canonical config integer: {line!r}")
                value = number
            pairs[key] = value
        if len(pairs) < len(CONFIG_KEYS):  # every key read is a distinct known one
            missing = [k for k in CONFIG_KEYS if k not in pairs]
            raise ValueError(f"config is missing keys: {missing}")
        return cls(**pairs)

    @property
    def run_id(self) -> str:
        return _run_id(self.to_text())


def _run_id(config_text: str) -> str:
    return hashlib.sha256(config_text.encode()).hexdigest()[:12]


class Event(NamedTuple):
    """One logged step of a run; ``visible`` names the controllers who see it."""

    step: str
    actor: str
    action: str
    payload: str
    kind: str  # classical | quantum | local
    visible: tuple[str, ...] = ()


class Transcript:
    """Append-only event log for one run, replayable bit for bit.  Its
    ``config`` is made by ``build`` on the first read, or assigned."""

    def __init__(self, build: Callable[[], RunConfig]):
        self._build = build
        self.events: list[Event] = []

    @cached_property
    def config(self) -> RunConfig:
        return self._build()

    def append(self, step: str, actor: str, action: str, payload: str, kind: str,
               visible: tuple[str, ...]) -> Event:
        # tuple.__new__ skips the Python-level __new__ that NamedTuple generates
        ev = tuple.__new__(Event, (step, actor, action, payload, kind, visible))
        self.events.append(ev)
        return ev

    def to_text(self) -> str:
        config = self.config.to_text()
        head = f"event {_run_id(config)}"
        return "\n".join([
            FORMAT_VERSION, *[f"config {line}" for line in config.splitlines()],
            *[f"{head} {step} {actor} {action} {payload.encode().hex() or '-'} {kind}"
              for step, actor, action, payload, kind, _visible in self.events],
            "end", ""])


def parse_transcript(text: str) -> tuple[RunConfig, list[str]]:
    """Split a serialised transcript into its config and raw event lines.

    The layout is strict: the header, a run of ``config`` lines, only
    ``event`` lines after them and ``end``, line break included, last.
    """
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_VERSION:
        raise ValueError(f"not a {FORMAT_VERSION} transcript")
    if not text.endswith("\nend\n"):
        raise ValueError("transcript does not close with its end marker")
    body = lines[1:-1]
    split = 0
    for line in body:
        if not line.startswith("config "):
            break
        split += 1
    for line in body[split:]:
        if not line.startswith("event "):
            raise ValueError(f"unexpected transcript line: {line!r}")
    config = RunConfig.from_text("\n".join([line[7:] for line in body[:split]]))  # past "config "
    return config, body[split:]


def first_divergence(text_a: str, text_b: str) -> int | None:
    """Index of the first differing event line, or None when identical.

    Returns -1 when the texts differ outside the event lines (header or
    config), which replay treats as a mismatch as well.
    """
    if text_a == text_b:
        return None
    _, events_a = parse_transcript(text_a)
    _, events_b = parse_transcript(text_b)
    for i, (a, b) in enumerate(zip(events_a, events_b)):
        if a != b:
            return i
    if len(events_a) != len(events_b):
        return min(len(events_a), len(events_b))
    return -1
