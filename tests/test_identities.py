"""The identity suite is exact, and every sign character in it is load-bearing.

Flipping any one character of the four literal sign tables must make the
suite report a failure: a sign that no check can catch proves nothing.
"""

import pytest

from bellproto import algebra, dense
from bellproto.identities import run_identity_suite
from bellproto.states import TOL_EQ

SIGN_TABLES = [(algebra, "_ACTION_SIGNS"), (algebra, "_COMPOSE_SIGNS"),
               (dense, "_TELEPORT_SIGNS"), (dense, "_SWAP_SIGNS")]


def test_default_suite_residuals_are_exactly_zero():
    results = run_identity_suite()
    assert len(results) == 17
    assert {r.name: r.residual for r in results} == {r.name: 0.0 for r in results}
    # correction-table checks the dense floating-point engine; every other check is exact
    assert {r.name: r.tol for r in results if r.tol != 0.0} == {"correction-table": TOL_EQ}


@pytest.mark.parametrize("module, name", SIGN_TABLES, ids=[name for _, name in SIGN_TABLES])
def test_every_sign_character_is_load_bearing(monkeypatch, module, name):
    signs = getattr(module, name)
    survivors = []
    for i, sign in enumerate(signs):
        flipped = signs[:i] + ("-" if sign == "+" else "+") + signs[i + 1:]
        monkeypatch.setattr(module, name, flipped)
        if all(r.passed for r in run_identity_suite()):
            survivors.append(i)
    assert survivors == []

