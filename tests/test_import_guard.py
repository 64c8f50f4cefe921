"""Modules that must not import numpy at module level.

The protocol runtime's views, transcripts and command line need no
amplitude arithmetic of their own, so their module bodies import no numpy.
A function may import it where it needs it.  The check reads each module's
syntax tree, so it holds even on an interpreter that has numpy installed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bellproto"


def _module_level_imports(tree: ast.Module):
    """Top-level names of what the module's body imports when it runs: every
    import outside a function body, class bodies included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ("attacks", "protocols", "transcript", "cli"))
def test_module_body_imports_no_numpy(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert "numpy" not in set(_module_level_imports(tree))
