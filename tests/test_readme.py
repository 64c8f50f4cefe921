"""README's code runs as written, so its imports cannot go stale."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str) -> str:
    """The first ```python block under the level-2 ``heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(readme_block("Library quick start"), str(README), "exec"), namespace)
    # the figures its comments state
    assert namespace["report"].detection == Fraction(1) and namespace["report"].cells == 16
    assert namespace["dist"] == 0.0
