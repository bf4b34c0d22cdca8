"""The deletion-contraction recurrences on basis coordinates.

The battery decides the recurrences for T and the Whitney function by
comparing the coordinates ``tutte.recurrence_counts`` gives with the
table's own; W's recurrence holds exactly when they agree, so the battery
does not decide it again.  These tests tie the coordinates to the
polynomials they stand for, assert W's recurrence on the minors' own W,
keep the polynomial comparisons as the oracle for the battery's verdicts on
any table, and plant faults in the shifts that the coordinates must catch.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import core, hamming, simplicial, tutte, verify
from demimat.core import RankTable
from demimat.errors import RationalFunctionError
from demimat.poly import X, Y, monomial

from oracles import hamming_recurrence, substitute, tutte_recurrence, whitney_recurrence
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
    deleted, contracted, co, nu = tutte.deletion_contraction(m, p)
    if co < 0 or nu < 0:
        raise RationalFunctionError("negative recurrence exponent")
    return (X - 1) ** co * tutte.tutte(deleted) + (Y - 1) ** nu * tutte.tutte(contracted)


def _whitney_side(m, p):
    deleted, contracted, co, nu = tutte.deletion_contraction(m, p)
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
@given(table=rank_tables(max_n=5) | polynomial_tutte_tables(max_n=5))
def test_the_verdicts_are_those_of_the_polynomial_comparisons(name, oracle, table):
    assert _outcome(verify.IDENTITIES[name], table) == _outcome(oracle, table)


# -- planted faults in the shifts --------------------------------------------------------


def _shift_off_by_one(index):
    def fault(original):
        def shifted(table, p):
            parts = list(original(table, p))
            parts[index] += 1
            return tuple(parts)
        return shifted
    return fault


# Each fault with the identities whose recurrence it reaches: eta*(p) and
# 1 - rho(p) are the powers of T's and f's recurrences, which the battery
# decides once, in ``tutte_identities``.
SHIFT_FAULTS = {
    "co-off-by-one": (tutte, "deletion_contraction", _shift_off_by_one(2),
                      ("tutte_identities",)),
    "nu-off-by-one": (tutte, "deletion_contraction", _shift_off_by_one(3),
                      ("tutte_identities",)),
}

# Rank 2 and nullity 3, with loops and non-loops, so every shift matters.
TARGET = core.random_demimatroid(5, random.Random(2)).ranks


def _verdict(check, table) -> bool:
    try:
        return check(table)
    except Exception:
        return False


@pytest.mark.parametrize("fault", SHIFT_FAULTS)
def test_a_fault_in_a_shift_fails_the_identity(fault, monkeypatch):
    module, attribute, plant, names = SHIFT_FAULTS[fault]
    derived = RankTable.build(5, TARGET)
    for check in verify.IDENTITIES.values():  # memoize every true value on it
        assert check(derived)
    monkeypatch.setattr(module, attribute, plant(getattr(module, attribute)))
    for name in names:
        check = verify.IDENTITIES[name]
        assert _verdict(check, RankTable.build(5, TARGET)) is False
        assert _verdict(check, derived) is False
