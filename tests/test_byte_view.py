"""``_layout``'s oracle file: the byte-view kernels against their definitions.

Each ``ops`` builder runs on its source's byte view (``RankTable.view``), in
the whole-table steps of ``_layout``, when every rank lies in 0..127 and on
the list path otherwise; both must give the ranks of the mask-by-mask
definitions in ``tests/oracles.py``, and the output's view must be its ranks
as bytes exactly when they all fit.  The drawn tables have ranks in
[-1, n + 1], so negative ranks, ranks above n and outputs that leave 0..127
all occur.

A table read from outside is the one that goes through ``RankTable.build``;
every table the package computes holds its view from construction, and a
table whose rank depends on |X| alone is ``_layout.size_view``.
"""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from demimat import constructions, core, inputs, ops
from demimat._layout import _byte_view, _reflected, _shifted, size_view

from conftest import FIXTURES
from strategies import demimatroid_tables, rank_tables


def _same(built: core.RankTable, n: int, ranks: tuple[int, ...], *sources: core.RankTable) -> None:
    """``built`` has the defined ranks and kind, and it got its view from
    its builder exactly when its sources have views and its ranks fit one:
    a builder whose byte path fails and falls back to the list path still
    gives the right ranks, so only this shows it."""
    view = _byte_view(ranks)
    from_builder = "view" in vars(built)
    assert from_builder == (view is not None and all(s.view is not None for s in sources))
    assert (built.n, built.ranks, built.view) == (n, ranks, view)
    assert built.kind == oracles.classify(n, ranks).kind


def _check_builders(table: core.RankTable, other: core.RankTable, removals) -> None:
    """Each builder once on these (fresh) tables: the operators, the minors
    by each removed set, and join and meet both ways."""
    n = table.n
    _same(ops.dual(table), n, oracles.dual(table), table)
    _same(ops.nullity_operator(table), n, oracles.nullity_operator(table), table)
    _same(ops.supplement(table), n, oracles.supplement(table), table)
    for removed in removals:
        kept = n - removed.bit_count()
        _same(ops.delete(table, removed), kept, oracles.delete(table, removed), table)
        _same(ops.contract(table, removed), kept, oracles.contract(table, removed), table)
    for a, b in ((table, other), (other, table), (table, table)):
        _same(ops.join(a, b), n, oracles.join(a, b), a, b)
        _same(ops.meet(a, b), n, oracles.meet(a, b), a, b)


@given(rank_tables(max_n=6), st.data())
def test_each_builder_matches_its_definition(table, data):
    other = data.draw(rank_tables(n=table.n))
    removed = data.draw(st.integers(0, table.full))  # any set, often several elements
    _check_builders(table, other, [removed])


@given(demimatroid_tables(max_n=7), st.data())
def test_builders_match_their_definitions_on_demimatroids(table, data):
    other = data.draw(demimatroid_tables(max_n=table.n).filter(lambda t: t.n == table.n)
                      | st.just(ops.dual(table)))
    _check_builders(table, other, [data.draw(st.integers(0, table.full))])
    for i in range(table.total_nullity + 1):
        _same(ops.elongate(table, i), table.n, oracles.elongate(table, i), table)


@pytest.mark.parametrize("top", [127, 128])
def test_ranks_at_the_edge_of_the_byte_view(top):
    # 127 is the largest rank a view holds; with 128 the table takes the list path.
    table = core.RankTable.build(3, [0, 1, top, 2, 0, 1, 3, top])
    other = core.RankTable.build(3, [0, top, 1, 0, 2, 1, 1, 3])
    assert (table.view is None) == (top > 127) == (other.view is None)
    assert table.kind == other.kind == core.COMBINATROID
    _check_builders(table, other, range(8))
    _check_builders(other, table, range(8))


def test_a_dual_rank_of_128_leaves_the_view():
    # rho*({1}) = 1 + rho({0}) - rho(E) = 128: one above what a view holds,
    # so the dual takes the list path and has no view.
    dual = ops.dual(core.RankTable.build(2, [0, 127, 0, 0]))
    assert (dual.ranks, dual.view) == ((0, 1, 128, 2), None)


def test_the_translates_give_a_view_or_none_at_every_offset():
    # At every offset k, a translate of a view is a view (bytes 0..127) or
    # None; exactly the bytes k..127 + k shift by -k and 0..k reflect to k - v.
    every = bytes(range(128))
    for k in range(128):
        for out in (_shifted(every, k), _reflected(every, k)):
            assert out is None or out.isascii()
        assert _shifted(bytes(range(k, 128 + k)), k) == every
        assert _shifted(bytes([128 + k]), k) is None
        assert _reflected(bytes(range(k + 1)), k) == bytes(range(k, -1, -1))
        assert _reflected(bytes([k + 1]), k) is None


def test_minors_of_several_elements_on_long_and_short_blocks():
    # n = 10: strides 1..16 are gathered by strided slices, 32..512 by blocks.
    # A rank that depends on |X| alone cannot tell apart two blocks whose
    # masks have the same sizes, so a random table runs too.
    for table in (core.uniform(10, 4), constructions.random_demimatroid(10, random.Random(10))):
        for removed in (0b1, 0b101, 0b1000000001, 0b1111100000, 0b0101010101, table.full):
            kept = table.n - removed.bit_count()
            _same(ops.delete(table, removed), kept, oracles.delete(table, removed), table)
            _same(ops.contract(table, removed), kept, oracles.contract(table, removed), table)


def test_a_builder_output_outside_the_view_takes_the_list_path():
    # Both tables have views, and each builder's output has a negative rank.
    table = core.RankTable.build(2, [0, 3, 1, 2])
    top_heavy = core.RankTable.build(2, [0, 0, 0, 3])
    cases = (
        (ops.dual(top_heavy), oracles.dual(top_heavy)),
        (ops.supplement(table), oracles.supplement(table)),
        (ops.nullity_operator(table), oracles.nullity_operator(table)),
        (ops.contract(table, 1), oracles.contract(table, 1)),
    )
    assert table.view is not None and top_heavy.view is not None
    for built, ranks in cases:
        assert min(ranks) < 0
        _same(built, len(ranks).bit_length() - 1, ranks)


@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 255), min_size=n + 1, max_size=n + 1))))
def test_size_view_is_the_rank_at_each_mask_size(drawn):
    n, at_size = drawn
    assert size_view(n, at_size) == bytes(at_size[m.bit_count()] for m in range(1 << n))


def _holds_its_view(table: core.RankTable) -> None:
    assert "view" in vars(table) and table.view == bytes(table.ranks)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_only_an_input_rank_list_goes_through_build(build_calls, path):
    data = json.loads(path.read_text())
    table = inputs.interpret_input(data).table
    if "ranks" in data:
        assert build_calls == [data["n"]] and "view" not in vars(table)
    else:
        assert build_calls == []
        _holds_its_view(table)


def test_computed_tables_never_go_through_build(build_calls):
    for n in range(7):
        for table in (constructions.uniform(n, n // 2),
                      constructions.random_demimatroid(n, random.Random(n)),
                      constructions.from_matroid_bases(n, [(1 << n) - 1 >> 1, 1 if n else 0]),
                      ops.lattice_top(n), ops.lattice_bottom(n)):
            _holds_its_view(table)
    assert build_calls == []
