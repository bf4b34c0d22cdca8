"""The F_2 torsion of the suspensions of RP^2_6, table by table.

Join RP^2_6 with k pairs of points {a_p, b_p}: the k-fold suspension, on
n = 6 + 2k vertices, whose facets are a facet of RP^2_6 plus one point of
each pair.  Over F_2 the Betti table of elongation r exceeds the Q table by
C(k, m) C(m, r) at (3+m-r, 6+2m) and again at (4+m-r, 6+2m), for
r <= m <= k, and agrees with it elsewhere.  RP^2 has only 2-torsion, so the
F_3 tables are the Q tables.

For r = 0 this is Hochster's formula: only a sigma made of [6] and m whole
pairs has an F_2 class the rationals lack, its restriction is the m-fold
suspension of RP^2_6, and each suspension shifts reduced homology up by one.
The rows with r >= 1 are observed values, pinned here as such: no proof of
them is known to this project.
"""

from collections import Counter
from itertools import product
from math import comb

import pytest

from demimat import core, simplicial

from conftest import PROJECTIVE_PLANE_FACETS

F2, F3 = simplicial.FieldSpec(2), simplicial.FieldSpec(3)


def suspension(k: int) -> core.RankTable:
    """RP^2_6 joined with the pairs {7 + 2p, 8 + 2p} for p < k."""
    facets = [facet + [7 + 2 * p + side for p, side in enumerate(sides)]
              for facet in PROJECTIVE_PLANE_FACETS
              for sides in product((0, 1), repeat=k)]
    return core.complex_to_demimatroid(core.Complex.from_facet_lists(6 + 2 * k, facets))


def f2_excess(k: int, r: int) -> dict[tuple[int, int], int]:
    """The F_2 table of elongation r minus its Q table, by (i, j)."""
    excess: Counter = Counter()
    for m in range(r, k + 1):
        for i in (3 + m - r, 4 + m - r):
            excess[i, 6 + 2 * m] += comb(k, m) * comb(m, r)
    return dict(excess)


def _difference(a: simplicial.BettiTable, b: simplicial.BettiTable) -> dict:
    entries_a, entries_b = dict(a.entries), dict(b.entries)
    difference = {key: entries_a.get(key, 0) - entries_b.get(key, 0)
                  for key in entries_a.keys() | entries_b.keys()}
    return {key: v for key, v in difference.items() if v}


@pytest.mark.parametrize("k", range(4))
def test_the_f2_tables_exceed_the_q_tables_by_the_suspension_formula(k):
    table = suspension(k)
    assert (table.n, table.total_nullity) == (6 + 2 * k, 3 + k)
    rational = simplicial.betti_of_elongations(table, simplicial.RATIONALS)
    binary = simplicial.betti_of_elongations(table, F2)
    assert len(rational) == len(binary) == table.total_nullity + 1
    for r, (b2, b0) in enumerate(zip(binary, rational)):
        assert _difference(b2, b0) == f2_excess(k, r), r
    assert simplicial.betti_of_elongations(table, F3) == rational
