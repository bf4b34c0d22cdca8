import random

import pytest
from hypothesis import given

from demimat import core, hamming, ops, weights
from demimat.errors import InvariantViolationError, KindError, MalformedInputError

from conftest import FULL24_RHO, table_from_labels
from oracles import nullity
from strategies import demimatroid_tables


def profile_of(table):
    return weights.wei_hierarchy(table)


def test_wei_rows_five_basis(five_basis):
    # the rank-stratified Wei numbers of the operator rows, from the
    # definition; the printed generalized Hamming weights are criterion 02's
    assert profile_of(five_basis).d == (1, 2)
    assert profile_of(ops.dual(five_basis)).d == (1, 2)
    assert profile_of(ops.nullity_operator(five_basis)).d == (2, 4)
    assert profile_of(ops.supplement(five_basis)).d == (2, 4)


def test_wei_rows_full23(full23):
    assert profile_of(full23).d == (2, 3)
    assert profile_of(ops.dual(full23)).d == (3,)
    assert profile_of(ops.nullity_operator(full23)).d == (1,)
    assert profile_of(ops.supplement(full23)).d == (1, 2)


def test_upper_wei_full23(full23):
    assert profile_of(full23).d_up == (1, 2, 3)
    assert profile_of(ops.dual(full23)).d_up == (2, 3)


def test_trivial_profile():
    trivial = core.RankTable.build(3, [0] * 8)
    profile = profile_of(trivial)
    assert profile.k == 0
    assert profile.d == ()
    assert profile.d_up == (3,)


def test_full_demimatroid_wei_closed_form():
    # a full table has d_r = n - k + r for every r
    for n, k in ((3, 2), (4, 2), (5, 3)):
        seq = [n - k + r for r in range(1, k + 1)]
        table = core.from_wei_sequence(n, seq)
        assert weights.is_full(table)
        assert profile_of(table).d == tuple(seq)


def test_wei_duality_examples():
    # criterion 02 checks the printed tables
    free = core.RankTable.build(4, [core.popcount(m) for m in range(16)])
    assert weights.check_wei_duality(free)


def test_wei_duality_random():
    rng = random.Random(13)
    for _ in range(100):
        table = core.random_demimatroid(6, rng)
        assert weights.check_wei_duality(table)


@pytest.mark.parametrize("field, duality", [("d", "lower"), ("d_up", "upper")])
def test_a_failing_wei_duality_raises_naming_it(monkeypatch, field, duality):
    # Every Wei number of the field one too large, on the table and its dual.
    original = weights.wei_hierarchy
    monkeypatch.setattr(weights, "wei_hierarchy", lambda t: original(t)._replace(
        **{field: tuple(v + 1 for v in getattr(original(t), field))}))
    with pytest.raises(InvariantViolationError) as exc:
        weights.check_wei_duality(core.uniform(4, 2))
    assert str(exc.value) == f"the {duality} Wei duality fails"


def test_is_full_examples(full23):
    assert weights.is_full(full23)
    assert weights.is_full(ops.dual(full23))
    assert not weights.is_full(ops.nullity_operator(full23))
    assert not weights.is_full(ops.supplement(full23))
    trivial = core.RankTable.build(2, [0, 0, 0, 0])
    assert not weights.is_full(trivial)


def test_full_closed_under_dual():
    # fullness pins the whole table down, so enumerate the full tables directly
    for n in range(1, 7):
        for k in range(1, n + 1):
            table = core.from_wei_sequence(n, [n - k + r for r in range(1, k + 1)])
            assert weights.is_full(table)
            if k < n:  # the dual of the k = n case is trivial, hence not full
                assert weights.is_full(ops.dual(table))


@pytest.mark.parametrize("operator, message", [
    ("dual", "dual of a full table deviates from closed form"),
    ("nullity_operator", "nullity of a full table is not uniform"),
    ("supplement", "supplement of a full table is not uniform"),
])
def test_is_full_names_a_derived_table_off_its_closed_form(monkeypatch, operator, message):
    # A full table of rank 2 on 4 elements; one derived table gets one rank
    # moved, so its bytes leave the closed form.
    table = core.from_wei_sequence(4, [3, 4])
    assert weights.is_full(table)
    original = getattr(ops, operator)

    def corrupted(t):
        ranks = list(original(t).ranks)
        ranks[-1] += 1
        return core.RankTable.build(t.n, ranks)

    monkeypatch.setattr(ops, operator, corrupted)
    with pytest.raises(InvariantViolationError) as exc:
        weights.is_full(table)
    assert str(exc.value) == message


def test_uniform_is_uniform(full23):
    # uniform(n, k) has a full nullity table, so it is a uniform demimatroid
    assert weights.is_uniform_demimatroid(core.uniform(4, 2))
    assert weights.is_uniform_demimatroid(core.uniform(3, 1))
    # a full table need not be uniform: its nullity is uniform, not full
    assert not weights.is_uniform_demimatroid(full23)
    table = table_from_labels(4, FULL24_RHO)
    assert weights.is_full(table)
    assert not weights.is_uniform_demimatroid(table)


def test_singleton_bounds_random():
    rng = random.Random(23)
    for _ in range(100):
        table = core.random_demimatroid(6, rng)
        n, k = table.n, table.rank
        profile = profile_of(table)
        # the bounds are the wei_bounds law and criterion 02; once the lower
        # bound is tight it stays tight
        for r, d in enumerate(profile.d, start=1):
            if k + d == n + r:
                for s in range(r, k + 1):
                    assert k + profile.d[s - 1] == n + s
                break


def test_level_set_monotonicity_random():
    rng = random.Random(27)
    for _ in range(50):
        table = core.random_demimatroid(5, rng)
        profile = profile_of(table)
        for mask in range(table.full + 1):
            r = table.ranks[mask]
            if r >= 1:
                assert core.popcount(mask) >= profile.d[r - 1]
            assert core.popcount(mask) <= profile.d_up[r]
        for r in range(1, table.rank + 1):
            at_least = min(
                core.popcount(m)
                for m in range(table.full + 1)
                if table.ranks[m] >= r
            )
            assert at_least == profile.d[r - 1]
        for r in range(table.rank + 1):
            at_most = max(
                core.popcount(m)
                for m in range(table.full + 1)
                if table.ranks[m] <= r
            )
            assert at_most == profile.d_up[r]


def test_removal_remark_identity_random():
    # min size at nullity r plus the largest rank-drop-r set of the dual fills E
    rng = random.Random(33)
    for _ in range(50):
        table = core.random_demimatroid(5, rng)
        star = ops.dual(table)
        for r in range(table.total_nullity + 1):
            biggest = max(
                core.popcount(m)
                for m in range(table.full + 1)
                if star.rank - star.ranks[m] == r
            )
            assert weights.min_size_at_nullity(table, r) + biggest == table.n


def _elongation_distance(table, r):
    """d_{r+1} of the nullity table equals d_1 of the r-th elongation's."""
    return (weights.min_size_at_nullity(table, r + 1)
            == weights.min_size_at_nullity(ops.elongate(table, r), 1))


def test_elongation_distance_check(full23, hamming84):
    assert _elongation_distance(full23, 0)
    assert _elongation_distance(hamming84, 1)


def test_elongation_distance_random():
    rng = random.Random(39)
    for _ in range(100):
        table = core.random_demimatroid(6, rng)
        for r in range(table.total_nullity):
            assert _elongation_distance(table, r)


def test_wei_sequence_roundtrip_random():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        seq = sorted(rng.sample(range(1, n + 1), k))
        table = core.from_wei_sequence(n, seq)
        assert list(profile_of(table).d) == seq


# -- profile-derived minima against per-mask scans -----------------------------------


def _check_minima_against_mask_scans(table):
    masks = range(table.full + 1)
    by_rank = [[core.popcount(m) for m in masks if table.ranks[m] == r]
               for r in range(table.rank + 1)]
    by_nullity = [[core.popcount(m) for m in masks if nullity(table, m) == r]
                  for r in range(table.total_nullity + 1)]

    profile = weights.wei_hierarchy(table)
    assert profile.d == tuple(min(sizes) for sizes in by_rank[1:])
    assert profile.d_up == tuple(max(sizes) for sizes in by_rank)
    for r, sizes in enumerate(by_nullity):
        assert weights.min_size_at_nullity(table, r) == min(sizes)
    with pytest.raises(MalformedInputError):
        weights.min_size_at_nullity(table, table.total_nullity + 1)
    assert weights.generalized_hamming_weights(table) == tuple(
        min(sizes) for sizes in by_nullity[1:]
    )
    if table.total_nullity == 0:
        with pytest.raises(KindError):
            hamming.formal_min_distance(table)
    else:
        delta = min(by_nullity[1])
        assert hamming.formal_min_distance(table) == (delta, by_nullity[1].count(delta))


@given(demimatroid_tables())
def test_profile_minima_match_mask_scans(table):
    _check_minima_against_mask_scans(table)


def test_profile_minima_match_mask_scans_at_larger_distances(hamming84):
    # Drawn tables mostly have a loop (delta = 1); uniform tables have
    # delta = k + 1 and random ones spread between.
    rng = random.Random(47)
    tables = [core.uniform(n, k) for n in range(1, 7) for k in range(n + 1)]
    tables += [core.random_demimatroid(6, rng) for _ in range(20)]
    for table in [*tables, hamming84]:
        _check_minima_against_mask_scans(table)


def test_generalized_hamming_weights_need_a_demimatroid():
    with pytest.raises(KindError):
        weights.generalized_hamming_weights(core.RankTable.build(2, [0, 2, 1, 1]))
