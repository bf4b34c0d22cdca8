"""The size-rank profile and the coordinate views read off it.

Each is computed once per table and returned read-only; each must equal its
plain definition in ``oracles``, on every combinatroid (negative ranks and
ranks above n included), and survive a pickle round trip.
"""

import pickle

import pytest
from hypothesis import given

import oracles
from demimat import _layout, hamming, tutte, weights
from strategies import rank_tables

# The read-only dict views, each by the function that reads it.
DICT_VIEWS = {
    "profile": lambda table: table.profile,
    "corank_nullity_counts": tutte.corank_nullity_counts,
    "subset_sum_coordinates": hamming.subset_sum_coordinates,
    "least_size_by_nullity": weights._least_size_by_nullity,
}

MUTATORS = {
    "setitem": lambda view, key: view.__setitem__(key, 1),
    "delitem": lambda view, key: view.__delitem__(key),
    "ior": lambda view, key: view.__ior__({key: 1}),
    "clear": lambda view, key: view.clear(),
    "pop": lambda view, key: view.pop(key),
    "popitem": lambda view, key: view.popitem(),
    "setdefault": lambda view, key: view.setdefault(key, 1),
    "update": lambda view, key: view.update({key: 1}),
}


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_profile_is_the_mask_by_mask_count(table):
    # The order is pinned too: both count in mask order, first sight first.
    assert list(table.profile.items()) == list(oracles.size_rank_profile(table).items())


@given(rank_tables(max_n=8))
def test_the_profile_is_the_mask_by_mask_count(table):
    _assert_profile_is_the_mask_by_mask_count(table)


@given(rank_tables(max_n=8))
def test_each_view_equals_its_definition(table):
    assert tutte.corank_nullity_counts(table) == oracles.corank_nullity_counts(table)
    assert hamming.subset_sum_coordinates(table) == oracles.subset_sum_coordinates(table)
    assert _outcome(weights.wei_hierarchy, table) == _outcome(oracles.wei_hierarchy, table)
    for r in range(-2, table.n + 3):
        assert (_outcome(weights.min_size_at_nullity, table, r)
                == _outcome(oracles.min_size_at_nullity, table, r))


@given(rank_tables(max_n=8))
def test_every_mutator_of_a_view_raises_type_error(table):
    for name, read in DICT_VIEWS.items():
        view = read(table)
        before = dict(view)
        key = next(iter(view))
        for mutate in MUTATORS.values():
            with pytest.raises(TypeError):
                mutate(view, key)
        assert view == before and read(table) is view, name


@given(rank_tables(max_n=8))
def test_a_pickled_table_keeps_its_views(table):
    views = {name: read(table) for name, read in DICT_VIEWS.items()}
    wei = _outcome(weights.wei_hierarchy, table)
    restored = pickle.loads(pickle.dumps(table))
    assert restored == table
    for name, read in DICT_VIEWS.items():
        assert read(restored) == views[name], name
        with pytest.raises(TypeError):
            read(restored)[0] = 1
    assert _outcome(weights.wei_hierarchy, restored) == wei


def test_the_per_n_caches_are_shared_and_exact():
    for n in range(9):
        assert list(_layout.mask_sizes(n)) == [mask.bit_count() for mask in range(1 << n)]
        assert _layout.mask_sizes(n) is _layout.mask_sizes(n)
