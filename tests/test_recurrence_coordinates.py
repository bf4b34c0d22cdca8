"""The deletion-contraction recurrences on basis coordinates.

The battery decides the recurrences for T, the Whitney function and W by
comparing coordinates (``tutte.recurrence_counts``,
``hamming.recurrence_coordinates``) with the table's own.  These tests tie
the coordinates to the polynomials they stand for, keep the polynomial
comparisons as the oracle for the battery's verdicts on any table, and plant
faults in the shifts that the coordinates must catch.
"""

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import core, hamming, ops, simplicial, tutte, verify
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


def _hamming_side(m, p):
    deleted, contracted, _, nu = tutte.deletion_contraction(m, p)
    return ((X - Y) * hamming.hamming_subset_sum(deleted)
            + monomial(1, y=1, t=nu) * hamming.hamming_subset_sum(contracted))


def _polynomial_tutte_identities(m) -> bool:
    t = tutte.tutte(m)
    if any(_tutte_side(m, p) != t for p in range(1, m.n + 1)):
        return False
    if not tutte.tutte_dual_check(m):
        return False
    f = tutte.whitney_f(m)
    if substitute(f, {"x": X - 1, "y": Y - 1}) != t:
        return False
    if tutte.whitney_f(ops.dual(m)) != substitute(f, {"x": Y, "y": X}):
        return False
    if any(_whitney_side(m, p) != f for p in range(1, m.n + 1)):
        return False
    tutte.characteristic(m)
    return True


def _polynomial_hamming_routes(m) -> bool:
    hamming.hamming_via_tutte(m)
    hamming.w_from_pj(m)
    simplicial.w_via_betti(m)
    w = hamming.hamming_subset_sum(m)
    if substitute(w, {"t": 1}) != monomial(1, x=m.n):
        return False
    return all(_hamming_side(m, p) == w for p in range(1, m.n + 1))


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


def _t_shift_fixed_at_one(original):
    def fixed(table, p):
        deleted, contracted, _, _ = tutte.deletion_contraction(table, p)
        coordinates = Counter({(a + 1, b, e): c for (a, b, e), c
                               in hamming.subset_sum_coordinates(deleted).items()})
        coordinates.update({(a, b + 1, e + 1): c for (a, b, e), c
                            in hamming.subset_sum_coordinates(contracted).items()})
        return dict(coordinates)
    return fixed


# Each fault with the identities whose recurrence it reaches: eta*(p) is a
# power of T's and f's recurrences only, the t shift one of W's only, and
# 1 - rho(p) a power of all three.
SHIFT_FAULTS = {
    "co-off-by-one": (tutte, "deletion_contraction", _shift_off_by_one(2),
                      ("tutte_identities",)),
    "nu-off-by-one": (tutte, "deletion_contraction", _shift_off_by_one(3),
                      ("tutte_identities", "hamming_routes")),
    "t-shift-fixed-at-1": (hamming, "recurrence_coordinates", _t_shift_fixed_at_one,
                           ("hamming_routes",)),
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
