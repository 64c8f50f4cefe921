"""Modules that must not import numpy at module level, and the dense leaf.

The protocol runtime's views, transcripts and command line need no
amplitude arithmetic of their own, so their module bodies import no numpy.
A function may import it where it needs it.  The dense reference engine is
the tests' and demos' oracle: no module of the package imports it, not
even inside a function.  The checks read each module's syntax tree, so
they hold even on an interpreter that has numpy installed.
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


def _package_imports(tree: ast.Module):
    """Package modules that any import in the module names, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("bellproto."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "bellproto":
                    continue
                parts = parts[1:]
            if parts and parts[0]:  # from .x import y, from bellproto.x import y
                yield parts[0]
            else:  # from . import x, from bellproto import x
                yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_package_module_imports_dense(path):
    assert "dense" not in set(_package_imports(ast.parse(path.read_text())))


def test_identities_imports_only_algebra_and_states():
    tree = ast.parse((SRC / "identities.py").read_text())
    assert set(_package_imports(tree)) == {"algebra", "states"}
