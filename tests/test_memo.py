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


@given(demimatroid_tables())
def test_operator_images_minors_and_elongations_are_memoized(table):
    twin = core.RankTable(table.n, table.ranks)
    removed = table.full & 0b101
    for fn, args in [(ops.nullity_operator, ()), (ops.supplement, ()),
                     (ops.delete, (removed,)), (ops.contract, (removed,)),
                     (ops.elongate, (table.total_nullity,))]:
        value = fn(table, *args)
        assert fn(table, *args) is value
        other = fn(twin, *args)
        assert other == value
        assert other is not value
    assert ops.delete(table, removed) is not ops.contract(table, removed)
    assert ops.delete(table, removed) is ops.delete(table, removed)


def test_every_operator_image_is_built_once_per_table(monkeypatch):
    table = core.RankTable(4, core.uniform(4, 2).ranks)
    builds = []
    build = core.RankTable.build.__func__
    monkeypatch.setattr(core.RankTable, "build", classmethod(
        lambda cls, n, ranks: builds.append(n) or build(cls, n, ranks)))
    for a in ops.OPERATORS:
        for b in ops.OPERATORS:
            ops.compose_check(a, b, table)
    # Three images of the table and three of each image, nine of them new.
    assert len(builds) == 3 + 9
    ops.compose_check(ops.DUAL, ops.NULLITY, table)
    assert len(builds) == 12
