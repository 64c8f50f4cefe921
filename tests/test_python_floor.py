"""The declared Python floor: every Python file parses with that version's grammar.

This catches syntax newer than the floor (``except*``, PEP 695 type
parameters); it does not catch library calls newer than the floor.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src", "tests", "demos", "bench")


def test_every_python_file_parses_at_the_declared_floor():
    # tomllib is newer than the floor itself, so the line is read by pattern
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    floor = (int(match[1]), int(match[2]))
    files = sorted(path for folder in CHECKED_DIRS for path in (ROOT / folder).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
