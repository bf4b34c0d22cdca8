"""The deletion-contraction recurrences on size-rank profiles.

The battery decides the recurrences for T, the Whitney function and W by
comparing the profile ``tutte.recurrence_profile`` merges from the minors
with the table's own: each of the three relabels the (size, rank) counts
injectively, so each recurrence holds exactly when the profiles agree.
These tests tie the oracles' recurrence coordinates to the polynomials
they stand for, assert W's recurrence on the minors' own W, keep the
polynomial comparisons as the oracle for the battery's verdicts on every
demimatroid (the law refuses any other table), and plant faults in the
contraction's shift that the profiles must catch.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import core, hamming, ops, simplicial, tutte, verify
from demimat.core import RankTable
from demimat.errors import KindError, RationalFunctionError
from demimat.poly import X, Y, monomial

from oracles import (
    deletion_contraction,
    hamming_recurrence,
    substitute,
    tutte_recurrence,
    whitney_recurrence,
)
from strategies import demimatroid_tables, rank_tables


@given(table=demimatroid_tables(max_n=6))
def test_the_coordinates_expand_to_the_invariants(table):
    t, f, w = tutte.tutte(table), tutte.whitney_f(table), hamming.hamming_subset_sum(table)
    for p in range(1, table.n + 1):
        assert tutte_recurrence(table, p) == t
        assert whitney_recurrence(table, p) == f
        assert hamming_recurrence(table, p) == w


# -- the polynomial comparisons, as the oracle for the battery's verdicts ------------


def _tutte_side(m, p):
    deleted, contracted, co, nu = deletion_contraction(m, p)
    if co < 0 or nu < 0:
        raise RationalFunctionError("negative recurrence exponent")
    return (X - 1) ** co * tutte.tutte(deleted) + (Y - 1) ** nu * tutte.tutte(contracted)


def _whitney_side(m, p):
    deleted, contracted, co, nu = deletion_contraction(m, p)
    return (monomial(1, x=co) * tutte.whitney_f(deleted)
            + monomial(1, y=nu) * tutte.whitney_f(contracted))


def _polynomial_tutte_identities(m) -> bool:
    t = tutte.tutte(m)
    if any(_tutte_side(m, p) != t for p in range(1, m.n + 1)):
        return False
    f = tutte.whitney_f(m)
    if substitute(f, {"x": X - 1, "y": Y - 1}) != t:
        return False
    if any(_whitney_side(m, p) != f for p in range(1, m.n + 1)):
        return False
    tutte.characteristic(m)
    return True


def _polynomial_hamming_routes(m) -> bool:
    hamming.hamming_via_tutte(m)
    hamming.w_from_pj(m)
    simplicial.w_via_betti(m, simplicial.RATIONALS)
    return substitute(hamming.hamming_subset_sum(m), {"t": 1}) == monomial(1, x=m.n)


def _outcome(check, table):
    try:
        return check(RankTable.build(table.n, table.ranks))
    except Exception as exc:
        return type(exc)


@st.composite
def polynomial_tutte_tables(draw, max_n: int = 5):
    """Combinatroid tables whose own Tutte sum is a polynomial (no rank above
    rho(E) or |A|), while their minors' sums need not be."""
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(0, n))
    ranks = [0] + [draw(st.integers(-1, min(mask.bit_count(), k))) for mask in range(1, 1 << n)]
    ranks[-1] = k
    return RankTable.build(n, ranks)


@pytest.mark.parametrize("name, oracle", [
    ("tutte_identities", _polynomial_tutte_identities),
    ("hamming_routes", _polynomial_hamming_routes),
])
@given(table=rank_tables(max_n=5) | polynomial_tutte_tables(max_n=5)
       | demimatroid_tables(max_n=5))
def test_the_verdicts_are_those_of_the_polynomial_comparisons(name, oracle, table):
    outcome = _outcome(verify.IDENTITIES[name], table)
    if name == "tutte_identities" and not table.is_demimatroid:
        assert outcome is KindError  # the recurrence law's domain is the demimatroids
    else:
        assert outcome == _outcome(oracle, table)


# -- planted faults in the contraction's shift ---------------------------------------------


def _moved_by(size: int, rank):
    """``tutte.recurrence_profile`` with the contraction's pair (s, r) moved
    to (s + size, r + rank(table, bit)), in place of (s + 1, r + rho(p))."""
    def recurrence_profile(table, p):
        bit = 1 << (p - 1)
        step = rank(table, bit)
        counts = dict(ops.delete(table, bit).profile)
        for (s, r), c in ops.contract(table, bit).profile.items():
            counts[s + size, r + step] = counts.get((s + size, r + step), 0) + c
        return counts
    return recurrence_profile


def _rho(table, bit):
    return table.ranks[bit]


# Each fault drops one part of the shift: every subset through p has size
# one more, and rank rho(p) more, than its image in M/p.
PROFILE_FAULTS = {
    "contraction-without-rho": _moved_by(1, lambda table, bit: 0),
    "contraction-without-size-step": _moved_by(0, _rho),
}

# Rank 2 and nullity 3, with loops and non-loops, so every shift matters.
TARGET = core.random_demimatroid(5, random.Random(2)).ranks


def _verdict(check, table) -> bool:
    try:
        return check(table)
    except Exception:
        return False


@pytest.mark.parametrize("fault", PROFILE_FAULTS)
def test_a_fault_in_a_shift_fails_the_identity(fault, monkeypatch):
    derived = RankTable.build(5, TARGET)
    for check in verify.IDENTITIES.values():  # memoize every true value on it
        assert check(derived)
    for p in range(1, 6):  # with the whole shift, the copy is the library's function
        assert _moved_by(1, _rho)(derived, p) == tutte.recurrence_profile(derived, p)
    monkeypatch.setattr(tutte, "recurrence_profile", PROFILE_FAULTS[fault])
    check = verify.IDENTITIES["tutte_identities"]
    assert _verdict(check, RankTable.build(5, TARGET)) is False
    assert _verdict(check, derived) is False
