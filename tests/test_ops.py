import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import core, ops
from demimat.errors import MalformedInputError

from conftest import (
    FIVE_BASIS_DUAL,
    FIVE_BASIS_NULL,
    FIVE_BASIS_SUPP,
    FULL23_DUAL,
    FULL23_NULL,
    FULL23_SUPP,
    FULL24_RHO,
    TWO_BASIS_DUAL,
    TWO_BASIS_NULL,
    TWO_BASIS_SUPP,
    ranks_from_labels,
    table_from_labels,
)
from strategies import demimatroid_tables, rank_tables


def test_operator_rows_two_basis(two_basis):
    assert ops.dual(two_basis).ranks == ranks_from_labels(3, TWO_BASIS_DUAL)
    assert ops.nullity_operator(two_basis).ranks == ranks_from_labels(3, TWO_BASIS_NULL)
    assert ops.supplement(two_basis).ranks == ranks_from_labels(3, TWO_BASIS_SUPP)


def test_operator_rows_five_basis(five_basis):
    assert ops.dual(five_basis).ranks == ranks_from_labels(4, FIVE_BASIS_DUAL)
    assert ops.nullity_operator(five_basis).ranks == ranks_from_labels(4, FIVE_BASIS_NULL)
    assert ops.supplement(five_basis).ranks == ranks_from_labels(4, FIVE_BASIS_SUPP)


def test_operator_rows_full23(full23):
    assert ops.dual(full23).ranks == ranks_from_labels(3, FULL23_DUAL)
    assert ops.nullity_operator(full23).ranks == ranks_from_labels(3, FULL23_NULL)
    assert ops.supplement(full23).ranks == ranks_from_labels(3, FULL23_SUPP)
    # the nullity table here is the uniform matroid of rank 1
    assert ops.nullity_operator(full23).ranks == core.uniform(3, 1).ranks


def test_operator_rows_full24():
    table = table_from_labels(4, FULL24_RHO)
    assert ops.dual(table).ranks == table.ranks
    assert ops.nullity_operator(table).ranks == core.uniform(4, 2).ranks
    assert ops.supplement(table).ranks == core.uniform(4, 2).ranks


@given(rank_tables(max_n=6))
def test_operators_match_their_mask_by_mask_definitions(table):
    # The builders read sizes from int.bit_count and complements from the
    # reversed ranks; the oracle takes each mask's popcount and E minus X.
    full, k, rho = table.full, table.rank, table.ranks
    masks = range(full + 1)
    assert ops.dual(table).ranks == tuple(
        core.popcount(m) + rho[full & ~m] - k for m in masks)
    assert ops.nullity_operator(table).ranks == tuple(core.popcount(m) - rho[m] for m in masks)
    assert ops.supplement(table).ranks == tuple(k - rho[full & ~m] for m in masks)


def test_free_table_operators():
    free = core.RankTable.build(3, [core.popcount(m) for m in range(8)])
    assert ops.dual(free).ranks == (0,) * 8
    assert ops.nullity_operator(free).ranks == (0,) * 8
    assert ops.supplement(free).ranks == free.ranks


def test_atom_operators():
    atom = core.from_wei_sequence(4, [4])
    star = ops.dual(atom)
    assert star.ranks == tuple(max(core.popcount(m) - 1, 0) for m in range(16))
    circ = ops.nullity_operator(atom)
    assert circ.ranks == tuple(
        core.popcount(m) if m != 15 else 3 for m in range(16)
    )
    supp = ops.supplement(atom)
    assert supp.ranks == tuple(1 if m else 0 for m in range(16))


def test_compose_check_table(two_basis):
    assert ops.compose_check(ops.DUAL, ops.NULLITY, two_basis) == ops.SUPPLEMENT
    assert ops.compose_check(ops.SUPPLEMENT, ops.SUPPLEMENT, two_basis) == ops.IDENTITY
    rng = random.Random(3)
    table = core.random_demimatroid(5, rng)
    assert ops.compose_check(ops.DUAL, ops.DUAL, table) == ops.IDENTITY
    for a in ops.OPERATORS:
        for b in ops.OPERATORS:
            assert ops.compose_check(a, b, table) == ops.GROUP_TABLE[(a, b)]
    with pytest.raises(MalformedInputError):
        ops.compose_check("dualize", ops.DUAL, table)


def test_duality_involutions_random():
    rng = random.Random(17)
    for _ in range(50):
        table = core.random_demimatroid(5, rng)
        assert ops.dual(ops.dual(table)).ranks == table.ranks
        assert ops.nullity_operator(ops.nullity_operator(table)).ranks == table.ranks
        assert ops.supplement(ops.supplement(table)).ranks == table.ranks
        assert table.rank + ops.dual(table).rank == table.n
        # the two supplement routes agree with the direct formula
        direct = ops.supplement(table)
        assert ops.nullity_operator(ops.dual(table)).ranks == direct.ranks
        assert ops.dual(ops.nullity_operator(table)).ranks == direct.ranks
        # duality operators preserve the demimatroid axioms
        assert ops.dual(table).is_demimatroid
        assert ops.nullity_operator(table).is_demimatroid
        assert ops.supplement(table).is_demimatroid


def test_minor_tables_full23(full23):
    p = core.mask_of([3], 3)
    deleted = ops.delete(full23, p)
    contracted = ops.contract(full23, p)
    assert deleted.ranks == (0, 0, 0, 1)
    assert contracted.ranks == (0, 1, 1, 2)
    # their operator rows
    assert ops.dual(deleted).ranks == (0, 0, 0, 1)
    assert ops.nullity_operator(deleted).ranks == (0, 1, 1, 1)
    assert ops.supplement(deleted).ranks == (0, 1, 1, 1)
    assert ops.dual(contracted).ranks == (0, 0, 0, 0)
    assert ops.nullity_operator(contracted).ranks == (0, 0, 0, 0)
    assert ops.supplement(contracted).ranks == (0, 1, 1, 2)
    assert ops.surviving_labels(3, p) == (1, 2)


def test_minor_degenerate_cases(full23):
    assert ops.contract(full23, 0).ranks == full23.ranks
    emptied = ops.delete(full23, full23.full)
    assert emptied.n == 0
    assert emptied.ranks == (0,)


def test_minor_duality_random():
    rng = random.Random(29)
    for _ in range(40):
        table = core.random_demimatroid(5, rng)
        a = core.random_subset(5, rng)
        assert (
            ops.dual(ops.delete(table, a)).ranks
            == ops.contract(ops.dual(table), a).ranks
        )
        assert (
            ops.dual(ops.contract(table, a)).ranks
            == ops.delete(ops.dual(table), a).ranks
        )
        assert ops.delete(table, a).is_demimatroid
        assert ops.contract(table, a).is_demimatroid


def test_lattice_operations(full23):
    bottom = ops.lattice_bottom(3)
    top = ops.lattice_top(3)
    assert ops.join(full23, bottom).ranks == full23.ranks
    assert ops.meet(full23, top).ranks == full23.ranks
    # here the dual lies below the table pointwise
    assert ops.join(full23, ops.dual(full23)).ranks == full23.ranks
    atom = core.from_wei_sequence(3, [3])
    assert ops.join(atom, atom).ranks == atom.ranks
    with pytest.raises(MalformedInputError):
        ops.join(full23, ops.lattice_bottom(2))


def test_lattice_laws_random():
    rng = random.Random(31)
    for _ in range(30):
        a = core.random_demimatroid(4, rng)
        b = core.random_demimatroid(4, rng)
        c = core.random_demimatroid(4, rng)
        assert ops.join(a, b).is_demimatroid
        assert ops.meet(a, b).is_demimatroid
        assert ops.join(a, b).ranks == ops.join(b, a).ranks
        assert ops.meet(a, ops.meet(b, c)).ranks == ops.meet(ops.meet(a, b), c).ranks
        assert ops.join(a, ops.meet(a, b)).ranks == a.ranks
        assert (
            ops.meet(a, ops.join(b, c)).ranks
            == ops.join(ops.meet(a, b), ops.meet(a, c)).ranks
        )


def test_elongation(full23):
    assert ops.elongate(full23, 0).ranks == full23.ranks
    eta = full23.total_nullity
    assert ops.elongate(full23, eta).ranks == ops.lattice_top(3).ranks
    with pytest.raises(MalformedInputError):
        ops.elongate(full23, eta + 1)


def test_elongation_laws_random():
    rng = random.Random(37)
    for _ in range(30):
        table = core.random_demimatroid(5, rng)
        eta = table.total_nullity
        assert ops.elongate(table, eta).ranks == ops.lattice_top(5).ranks
        for i in range(1, eta + 1):
            stepped = table
            for _ in range(i):
                stepped = ops.elongate(stepped, 1)
            assert stepped.ranks == ops.elongate(table, i).ranks
        for i in range(eta + 1):
            elongated = ops.elongate(table, i)
            assert elongated.is_demimatroid
            assert elongated.rank == table.rank + i
            for mask in range(table.full + 1):
                vanishes = elongated.nullity(mask) == 0
                assert vanishes == (table.nullity(mask) <= i)
                assert elongated.nullity(mask) == max(0, table.nullity(mask) - i)


def test_elongation_nullity_rejects_what_elongate_rejects():
    table = core.from_wei_sequence(4, [2, 4])  # eta = 2
    for i in range(table.total_nullity + 1):
        elongated = ops.elongate(table, i)
        for mask in range(table.full + 1):
            assert elongated.nullity(mask) == max(0, table.nullity(mask) - i)
    for i in (-1, 3):
        with pytest.raises(MalformedInputError):
            ops.elongate(table, i)


def test_elongation_restriction_compatibility():
    rng = random.Random(41)
    for _ in range(20):
        table = core.random_demimatroid(5, rng)
        a = core.random_subset(5, rng)
        restricted = ops.delete(table, a)
        for i in range(restricted.total_nullity + 1):
            if i > table.total_nullity:
                break
            assert (
                ops.delete(ops.elongate(table, i), a).ranks
                == ops.elongate(restricted, i).ranks
            )


def _scatter(sub: int, labels: tuple[int, ...]) -> int:
    """The parent mask that holds ``labels[i]`` exactly when bit i of ``sub`` is set."""
    mask = 0
    for i, label in enumerate(labels):
        if sub >> i & 1:
            mask |= 1 << (label - 1)
    return mask


def test_minors_match_the_label_definition():
    rng = random.Random(11)
    tables = [core.random_demimatroid(5, rng) for _ in range(3)]
    tables += [
        core.RankTable.build(5, [0] + [rng.randint(-1, 6) for _ in range(31)])
        for _ in range(2)
    ]
    for t in tables:
        for removed in range(t.full + 1):
            labels = ops.surviving_labels(t.n, removed)
            deleted = ops.delete(t, removed)
            contracted = ops.contract(t, removed)
            assert deleted.n == contracted.n == len(labels)
            for j in range(1 << len(labels)):
                parent = _scatter(j, labels)
                assert deleted.ranks[j] == t.ranks[parent]
                assert contracted.ranks[j] == t.ranks[parent | removed] - t.ranks[removed]


def _derived_tables(table, other):
    """Every ops builder's image of ``table``, under every legal argument;
    ``other`` is the second table of the join and the meet."""
    yield from (ops.dual(table), ops.nullity_operator(table), ops.supplement(table),
                ops.join(table, other), ops.meet(table, other))
    for removed in range(table.full + 1):
        yield ops.delete(table, removed)
        yield ops.contract(table, removed)
    if table.is_demimatroid:
        for i in range(table.total_nullity + 1):
            yield ops.elongate(table, i)


def _assert_build_would_make(derived):
    ranks = derived.ranks
    assert type(ranks) is tuple and len(ranks) == 1 << derived.n
    assert all(type(r) is int for r in ranks)
    assert ranks[0] == 0
    assert core.RankTable.build(derived.n, ranks) == derived


@given(st.data())
def test_derived_tables_are_the_tables_build_would_make(data):
    # The builders skip ``build``, so each image must already pass its
    # checks, combinatroid sources (negative ranks, ranks above n) included.
    table = data.draw(st.one_of(rank_tables(), demimatroid_tables(max_n=5)))
    other = data.draw(rank_tables(n=table.n))
    for derived in _derived_tables(table, other):
        _assert_build_would_make(derived)


@pytest.mark.parametrize("planted", [
    lambda table: core.RankTable(table.n, list(table.ranks)),
    lambda table: core.RankTable(table.n, (1, *table.ranks[1:])),
], ids=["list", "nonzero-empty-set"])
def test_a_planted_builder_fails_the_derived_table_check(monkeypatch, planted):
    monkeypatch.setattr(ops, "supplement", planted)
    table = core.uniform(3, 2)
    with pytest.raises(AssertionError):
        for derived in _derived_tables(table, table):
            _assert_build_would_make(derived)
