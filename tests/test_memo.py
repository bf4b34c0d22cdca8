"""The per-table memo: values derived once per table object, never shared
between objects, and never stored when they raise."""

import pytest
from hypothesis import assume, given

from demimat import core, hamming, ops, simplicial, tutte
from demimat.errors import KindError
from strategies import demimatroid_tables, rank_tables

F2 = simplicial.FieldSpec.prime(2)

# Every memoized function, with each argument tuple the library passes it.
MEMOIZED = [
    (ops.dual, ()),
    (tutte.tutte, ()),
    (hamming.hamming_subset_sum, ()),
    (hamming.pj_family, ()),
    (hamming.generalized_w_all, ()),
    (hamming.generalized_w_all, ("tutte",)),
    (simplicial.betti_of_elongations, ()),
    (simplicial.betti_of_elongations, (F2,)),
    (simplicial.w_via_betti, ()),
    (simplicial.w_via_betti, (F2,)),
]


@given(demimatroid_tables())
def test_memoized_values_are_per_table_object(table):
    twin = core.RankTable(table.n, table.ranks)
    for fn, args in MEMOIZED:
        value = fn(table, *args)
        assert fn(table, *args) is value
        other = fn(twin, *args)
        assert other == value
        assert other is not value


@given(demimatroid_tables())
def test_a_default_argument_and_its_explicit_value_share_one_entry(table):
    betti = simplicial.betti_of_elongations(table)
    assert simplicial.betti_of_elongations(table, simplicial.RATIONALS) is betti
    w = hamming.generalized_w_all(table, "subset")
    assert hamming.generalized_w_all(table) is w


@given(rank_tables())
def test_a_kind_error_is_raised_again_on_every_call(table):
    assume(not table.is_demimatroid)
    for fn in (hamming.generalized_w_all, simplicial.betti_of_elongations,
               simplicial.w_via_betti):
        for _ in range(2):
            with pytest.raises(KindError):
                fn(table)
    # The failing computation itself runs again: no exception is stored.
    runs = []

    def probe(t):
        runs.append(t)
        t.require_demimatroid("probe")

    memoized = core.per_table(probe)
    for _ in range(2):
        with pytest.raises(KindError):
            memoized(table)
    assert len(runs) == 2
