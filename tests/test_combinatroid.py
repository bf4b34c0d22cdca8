"""Integer-valued tables beyond the demimatroid axioms stay exactly supported
wherever the scope promises it: operators, the group law, the Whitney sum,
and the Laurent-in-t enumerator; only the genuinely rational cases refuse."""

import random

import pytest

from demimat import core, hamming, ops, tutte
from demimat.errors import RationalFunctionError
from demimat.poly import X, Y

from oracles import hamming_recurrence, substitute, tutte_recurrence, whitney_recurrence


def random_combinatroid(rng, n):
    ranks = [0] + [rng.randint(-2, 3) for _ in range((1 << n) - 1)]
    return core.RankTable.build(n, ranks)


def test_operators_and_group_law_on_z_valued_tables():
    rng = random.Random(4)
    for _ in range(60):
        table = random_combinatroid(rng, rng.randint(1, 5))
        star = ops.dual(table)
        assert ops.dual(star).ranks == table.ranks
        assert ops.nullity_operator(ops.nullity_operator(table)).ranks == table.ranks
        assert ops.supplement(ops.supplement(table)).ranks == table.ranks
        assert table.rank + star.rank == table.n
        for a in ops.OPERATORS:
            for b in ops.OPERATORS:
                assert ops.compose_check(a, b, table) == ops.GROUP_TABLE[(a, b)]


def test_enumerator_routes_on_z_valued_tables():
    rng = random.Random(8)
    for _ in range(60):
        table = random_combinatroid(rng, rng.randint(1, 5))
        w = hamming.hamming_subset_sum(table)
        assert hamming.hamming_via_tutte(table) == w
        assert hamming.w_from_pj(table) == w
        f = tutte.whitney_f(table)
        assert tutte.whitney_f(ops.dual(table)) == substitute(f, {"x": Y, "y": X})
        try:
            expanded = tutte.tutte(table)
        except RationalFunctionError:
            continue  # negative corank or nullity: honestly out of Laurent scope
        assert substitute(f, {"x": X - 1, "y": Y - 1}) == expanded


def test_negative_nullity_lands_in_laurent_t():
    table = core.RankTable.build(2, [0, 2, 2, 3])
    w = hamming.hamming_subset_sum(table)
    assert w.min_exponent("t") < 0
    with pytest.raises(RationalFunctionError):
        tutte.tutte(table)


def test_deletion_contraction_on_z_valued_tables():
    # The Whitney and Hamming recurrences are Laurent on any table; the Tutte
    # one refuses a negative shift or a minor whose sum is rational.
    rng = random.Random(9)
    for _ in range(40):
        table = random_combinatroid(rng, rng.randint(1, 5))
        f, w = tutte.whitney_f(table), hamming.hamming_subset_sum(table)
        for p in range(1, table.n + 1):
            assert whitney_recurrence(table, p) == f
            assert hamming_recurrence(table, p) == w
            try:
                recurred = tutte_recurrence(table, p)
            except RationalFunctionError:
                continue
            assert recurred == substitute(f, {"x": X - 1, "y": Y - 1})
    rank_two_point = core.RankTable.build(2, [0, 2, 1, 2])
    with pytest.raises(RationalFunctionError):
        tutte_recurrence(rank_two_point, 1)
