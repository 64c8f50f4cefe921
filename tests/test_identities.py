"""The identity suite is exact, and every sign character in it is load-bearing.

Flipping any one character of the four literal sign tables must make the
suite report a failure: a sign that no check can catch proves nothing.
A wrong correction lookup must fail correction-table, and the one-time-pad
certification must hold its argument contract.
"""

import dataclasses
from fractions import Fraction

import pytest

from bellproto import algebra, identities
from bellproto.algebra import LABELS
from bellproto.identities import IdentityCheck, otp_certify, run_identity_suite

SIGN_TABLES = [(algebra, "_ACTION_SIGNS"), (algebra, "_COMPOSE_SIGNS"),
               (algebra, "_TELEPORT_SIGNS"), (algebra, "_SWAP_SIGNS")]


def test_default_suite_residuals_are_exactly_zero():
    results = run_identity_suite()
    assert len(results) == 17
    assert all(r.residual == 0 for r in results)
    assert all(r.passed for r in results)
    # each residual stays the exact value its check computes
    twirls = {"swap-mixedness", "teleport-mixedness"}
    assert {r.name: type(r.residual) for r in results} == {
        r.name: Fraction if r.name in twirls else int for r in results}
    # no check carries a tolerance: passing means a residual of exactly zero
    assert [f.name for f in dataclasses.fields(IdentityCheck)] == ["name", "residual", "note"]


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


def _residuals_under(monkeypatch, rule):
    real = identities.infer_tau
    monkeypatch.setattr(identities, "infer_tau", lambda aa, cc, mu, nu: rule(real, aa, cc, mu, nu))
    return {r.name: r.residual for r in run_identity_suite() if not r.passed}


def test_correction_table_catches_a_lookup_that_drops_nu(monkeypatch):
    # correction-identity reads the lookup only at mu = nu = 0, where this
    # rule is right; the 12 channel pairs with nu != 0 fail all 16 cells
    failed = _residuals_under(monkeypatch, lambda real, aa, cc, mu, nu: real(aa, cc, mu, 0))
    assert failed == {"correction-table": 192}


def test_correction_table_catches_a_z_bit_flip(monkeypatch):
    # correction-identity reads the same lookup, so it fails with it
    failed = _residuals_under(monkeypatch, lambda real, aa, cc, mu, nu: real(aa, cc, mu, nu) ^ 2)
    assert failed == {"correction-table": 256, "correction-identity": 16}


def test_correction_table_runs_on_the_unfaulted_tables():
    failed = {r.name for r in run_identity_suite(fault="omega-sign") if not r.passed}
    assert failed == {"chain-decomposition", "swap-decomposition", "teleport-decomposition"}


# --- one-time-pad certification contract -------------------------------------------


@pytest.mark.parametrize("labels, probs", [
    ([], []),                                  # empty
    ([0, 1], [0.5]),                           # unequal lengths
    ([0, 1, 2, 4], [0.25] * 4),                # label 4
    ([0, 1, 2, 3], [0.5, 0.3, 0.3, 0.3]),      # weights sum to 1.4
    ([0, 1], [1.5, -0.5]),                     # a negative weight
    ([0, 0, 1, 2, 3], [0.5, -0.25, 0.25, 0.25, 0.25]),  # negative, though the net mixture is a pad
], ids=["empty", "unequal", "label-4", "sum-1.4", "negative", "negative-net-pad"])
def test_otp_certify_rejects_malformed_arguments(labels, probs):
    with pytest.raises(ValueError):
        otp_certify(labels, probs)


def test_otp_certify_takes_exact_fractions():
    assert otp_certify(LABELS, [Fraction(1, 4)] * 4)
    assert otp_certify([0, 1, 2, 3, 0], [Fraction(1, 8), Fraction(1, 4), Fraction(1, 4),
                                         Fraction(1, 4), Fraction(1, 8)])
    assert not otp_certify([0, 1, 2], [Fraction(1, 3)] * 3)


def test_otp_certify_weighs_each_probability_exactly():
    # within 1e-12 of the uniform pad, but not it: the mixture is not I/2
    assert not otp_certify(LABELS, [0.25 + 1e-14, 0.25 - 1e-14, 0.25, 0.25])
