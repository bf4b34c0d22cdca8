"""The per-table memo: values derived once per table object, never shared
between objects, and never stored when they raise."""

import importlib
import inspect
import pkgutil

import pytest
from hypothesis import assume, given

import demimat
from demimat import core, hamming, ops, simplicial, tutte, weights
from demimat.errors import KindError
from strategies import demimatroid_tables, rank_tables

F2 = simplicial.FieldSpec(2)

# Every function memoized on a rank table, with argument tuples the library
# passes it; each is valid on every demimatroid table, n = 0 included.
MEMOIZED = [
    (ops.dual, ()),
    (ops.nullity_operator, ()),
    (ops.supplement, ()),
    (tutte.corank_nullity_counts, ()),
    (tutte.tutte, ()),
    (hamming.subset_sum_coordinates, ()),
    (hamming.hamming_subset_sum, ()),
    (hamming.generalized_w_all, ()),
    (simplicial.betti_of_elongations, (simplicial.RATIONALS,)),
    (simplicial.betti_of_elongations, (F2,)),
    (simplicial.w_via_betti, (simplicial.RATIONALS,)),
    (simplicial.w_via_betti, (F2,)),
    (weights.wei_hierarchy, ()),
    (weights._least_size_by_nullity, ()),
]


def _table_memoized_functions():
    """Every ``per_table`` function in the package whose subject is a rank
    table; a wrapper shares the code of ``per_table``'s inner function."""
    wrapper_code = core.per_table(lambda table: table).__code__
    found = set()
    for info in pkgutil.iter_modules(demimat.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"demimat.{info.name}")
        for fn in vars(module).values():
            if getattr(fn, "__code__", None) is not wrapper_code:
                continue
            subject = next(iter(inspect.signature(fn.__wrapped__).parameters.values()))
            if subject.annotation in ("RankTable", core.RankTable):
                found.add(fn)
    return found


def test_memoized_lists_every_function_memoized_on_a_table():
    assert _table_memoized_functions() == {fn for fn, _ in MEMOIZED}


@given(demimatroid_tables())
def test_memoized_values_are_per_table_object(table):
    twin = core.RankTable(table.n, table.ranks)
    for fn, args in MEMOIZED:
        value = fn(table, *args)
        assert fn(table, *args) is value
        other = fn(twin, *args)
        assert other == value
        assert other is not value


@given(rank_tables())
def test_a_kind_error_is_raised_again_on_every_call(table):
    assume(not table.is_demimatroid)
    for fn, args in [(hamming.generalized_w_all, ()),
                     (simplicial.betti_of_elongations, (simplicial.RATIONALS,)),
                     (simplicial.w_via_betti, (simplicial.RATIONALS,))]:
        for _ in range(2):
            with pytest.raises(KindError):
                fn(table, *args)
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
def test_operator_images_are_memoized_and_minors_and_elongations_are_not(table):
    twin = core.RankTable(table.n, table.ranks)
    for fn in (ops.nullity_operator, ops.supplement):
        value = fn(table)
        assert fn(table) is value
        other = fn(twin)
        assert other == value
        assert other is not value
    # No program path reads the same minor or elongation twice, so each call
    # builds a new table and adds no memo key (a tuple) to its source.
    removed = table.full & 0b101
    keys = {key for key in table.__dict__ if isinstance(key, tuple)}
    for fn, arg in [(ops.delete, removed), (ops.contract, removed),
                    (ops.elongate, table.total_nullity)]:
        value = fn(table, arg)
        again = fn(table, arg)
        assert again == value
        assert again is not value
    assert {key for key in table.__dict__ if isinstance(key, tuple)} == keys


def test_every_operator_image_is_built_once_per_table(monkeypatch):
    table = core.RankTable(4, core.uniform(4, 2).ranks)
    # Derived tables skip ``build``, so the constructor is what is counted.
    builds = []
    init = core.RankTable.__init__
    monkeypatch.setattr(core.RankTable, "__init__",
                        lambda self, n, ranks: builds.append(n) or init(self, n, ranks))
    for a in ops.OPERATORS:
        for b in ops.OPERATORS:
            ops.compose_check(a, b, table)
    # Three images of the table and three of each image, nine of them new.
    assert len(builds) == 3 + 9
    ops.compose_check(ops.DUAL, ops.NULLITY, table)
    assert len(builds) == 12
