import operator
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import core, hamming, ops
from demimat.errors import KindError, MalformedInputError, SizeCapError

from conftest import (
    ALMOST_WHEEL_EDGES,
    ALMOST_WHEEL_IND_FACETS,
    CHAIN_FACETS,
    FIVE_BASIS_BASES,
    FIVE_BASIS_RHO,
    FULL23_RHO,
    FULL23_SUPP,
    TWO_BASIS_RHO,
    TWO_BASIS_SUPP,
    ranks_from_labels,
    table_from_labels,
)
from strategies import demimatroid_tables, rank_tables


# -- masks ----------------------------------------------------------------------


def test_mask_helpers():
    assert core.mask_of([1, 3], 3) == 0b101
    assert core.elements_of(0b101) == (1, 3)
    assert sorted(core.submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    with pytest.raises(MalformedInputError):
        core.mask_of([4], 3)


# -- validation --------------------------------------------------------------------


def test_validate_matroid(two_basis):
    report = core.validate(two_basis)
    assert report.kind == core.MATROID
    assert report.ok


def test_validate_submodularity_witness(two_basis):
    from demimat import ops

    supp = ops.supplement(two_basis)
    report = core.validate(supp)
    assert report.kind == core.DEMIMATROID
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.axiom == core.AXIOM_SUBMODULAR
    # rank(23) + rank(empty) = 1 > 0 = rank(2) + rank(3)
    assert violation.witnesses == (core.mask_of([2, 3], 3), 0)


def test_validate_trivial_is_demimatroid():
    table = core.RankTable.build(3, [0] * 8)
    assert table.kind == core.MATROID  # the zero table is even submodular
    skipping = core.RankTable.build(2, [0, 0, 0, 2])
    assert skipping.kind == core.COMBINATROID
    report = core.validate(skipping)
    assert report.violations[0].axiom == core.AXIOM_UNIT_STEP


def test_validate_malformed():
    with pytest.raises(MalformedInputError):
        core.RankTable.build(2, [0, 1, 1])
    with pytest.raises(MalformedInputError):
        core.RankTable.build(2, [1, 1, 1, 2])
    with pytest.raises(SizeCapError):
        core.RankTable.build(21, [0] * (1 << 21))


def test_nullity_rejects_a_mask_outside_the_ground_set():
    table = core.uniform(3, 1)
    assert table.nullity(table.full) == 2
    for mask in (-1, 1 << table.n):
        with pytest.raises(MalformedInputError):
            table.nullity(mask)


# -- constructions -------------------------------------------------------------------


def test_from_matroid_bases_examples():
    five = core.from_matroid_bases(4, FIVE_BASIS_BASES)
    assert five.ranks == ranks_from_labels(4, FIVE_BASIS_RHO)
    assert five.kind == core.MATROID

    two = core.from_matroid_bases(3, [[1, 2], [1, 3]])
    assert two.ranks == ranks_from_labels(3, TWO_BASIS_RHO)

    tiny = core.from_matroid_bases(2, [[1], [2]])
    assert tiny.ranks == (0, 1, 1, 1)
    with pytest.raises(MalformedInputError):
        core.from_matroid_bases(2, [])


def test_uniform_tables():
    u = core.uniform(3, 1)
    assert u.ranks == tuple(min(core.popcount(m), 1) for m in range(8))
    assert core.uniform(5, 0).ranks == (0,) * 32
    with pytest.raises(MalformedInputError):
        core.uniform(3, 4)
    for n in range(0, 9):
        for k in range(n + 1):
            assert core.uniform(n, k).kind == core.MATROID


def test_complex_to_demimatroid_chain():
    cx = core.Complex.from_facet_lists(5, CHAIN_FACETS)
    table = core.complex_to_demimatroid(cx)
    # rank of a subset is the largest face it contains
    assert table.ranks[core.mask_of([2, 3, 4], 5)] == 3
    assert table.ranks[core.mask_of([1, 2, 3], 5)] == 2
    assert table.ranks[core.mask_of([1, 5], 5)] == 1
    assert table.is_demimatroid


def test_complex_to_demimatroid_degenerate():
    full = core.Complex.from_facet_lists(3, [[1, 2, 3]])
    assert core.complex_to_demimatroid(full).ranks == tuple(
        core.popcount(m) for m in range(8)
    )
    empty_only = core.Complex.build(3, [0])
    assert core.complex_to_demimatroid(empty_only).ranks == (0,) * 8
    with pytest.raises(MalformedInputError):
        core.complex_to_demimatroid(core.Complex.build(3, []))


@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=1).map(
        lambda masks: core.Complex.build(n, masks))))
def test_complex_to_demimatroid_is_the_largest_face_in_each_subset(cx):
    faces = list(cx.faces())
    expected = tuple(max(core.popcount(f) for f in faces if not f & ~mask)
                     for mask in range(1 << cx.n))
    assert core.complex_to_demimatroid(cx).ranks == expected


def test_complex_to_demimatroid_is_memoized_on_the_complex():
    cx = core.Complex.from_facet_lists(5, CHAIN_FACETS)
    table = core.complex_to_demimatroid(cx)
    assert core.complex_to_demimatroid(cx) is table
    twin = core.Complex.from_facet_lists(5, CHAIN_FACETS)
    assert core.complex_to_demimatroid(twin) is not table


def test_independence_complex_examples(full23):
    assert core.independence_complex(full23) == core.Complex.build(3, [0])
    assert core.independence_complex(core.uniform(4, 2)) == core.Complex.build(
        4, [m for m in range(16) if core.popcount(m) <= 2]
    )
    cx = core.Complex.from_facet_lists(5, CHAIN_FACETS)
    assert core.independence_complex(core.complex_to_demimatroid(cx)) == cx


def test_independence_complex_requires_demimatroid():
    bad = core.RankTable.build(2, [0, 0, 0, 2])
    with pytest.raises(KindError):
        core.independence_complex(bad)


def test_sharp_demimatroid():
    empty_only = core.Complex.build(1, [0])
    assert core.sharp_demimatroid(empty_only).ranks == (0, 0)
    full = core.Complex.from_facet_lists(2, [[1, 2]])
    assert core.sharp_demimatroid(full).ranks == (0, 1, 1, 2)
    points = core.Complex.from_facet_lists(2, [[1], [2]])
    assert core.sharp_demimatroid(points).ranks == (0, 1, 1, 1)


def test_level_complex(full23):
    assert core.level_complex(full23, 0) == core.Complex.build(3, [0, 1, 2, 4])
    assert core.level_complex(full23, 2) == core.Complex.from_facet_lists(3, [[1, 2, 3]])
    assert core.level_complex(core.uniform(3, 1), 1) == core.Complex.from_facet_lists(
        3, [[1, 2, 3]]
    )


def test_graph_demimatroid():
    single = core.graph_demimatroid(2, [(1, 2)])
    assert single.ranks == (0, 1, 1, 2)
    empty = core.graph_demimatroid(2, [])
    assert empty.ranks == (0, 1, 1, 1)
    wheelish = core.graph_demimatroid(6, ALMOST_WHEEL_EDGES)
    assert wheelish.is_demimatroid
    # its independent sets form exactly the printed independence complex
    assert core.level_complex(wheelish, 1) == core.Complex.from_facet_lists(
        6, ALMOST_WHEEL_IND_FACETS
    )
    with pytest.raises(MalformedInputError):
        core.graph_demimatroid(2, [(1, 3)])
    with pytest.raises(MalformedInputError):
        core.graph_demimatroid(2, [(1, 1)])


def test_graph_demimatroid_operator_closed_forms():
    # dual/nullity/supplement of a graph table stratify by vertex covers
    from demimat import ops

    n = 6
    table = core.graph_demimatroid(n, ALMOST_WHEEL_EDGES)
    edge_masks = [core.mask_of(e, n) for e in ALMOST_WHEEL_EDGES]
    star = ops.dual(table)
    circ = ops.nullity_operator(table)
    supp = ops.supplement(table)
    full = core.full_mask(n)
    for mask in range(full + 1):
        s = core.popcount(mask)
        covering = all(e & mask for e in edge_masks)
        independent = mask and not any(e & ~mask == 0 for e in edge_masks)
        if mask == full:
            assert star.ranks[mask] == s - 2
        elif covering:
            assert star.ranks[mask] == s - 1
        else:
            assert star.ranks[mask] == s
        if mask == 0:
            assert circ.ranks[mask] == 0
        elif independent:
            assert circ.ranks[mask] == s - 1
        else:
            assert circ.ranks[mask] == s - 2
        assert supp.ranks[mask] == (1 if covering else 0) + (1 if mask == full else 0)


def test_from_wei_sequence(full23):
    assert core.from_wei_sequence(3, [2, 3]).ranks == full23.ranks
    assert core.from_wei_sequence(4, [1, 2, 3, 4]).ranks == tuple(
        core.popcount(m) for m in range(16)
    )
    atom = core.from_wei_sequence(5, [5])
    assert atom.ranks == tuple(1 if m == 31 else 0 for m in range(32))
    with pytest.raises(MalformedInputError):
        core.from_wei_sequence(3, [2, 2])
    with pytest.raises(MalformedInputError):
        core.from_wei_sequence(3, [0, 2])


def test_galois_check(full23):
    cx = core.Complex.from_facet_lists(5, CHAIN_FACETS)
    up = core.complex_to_demimatroid(cx)
    assert core.galois_check(cx, up).ok

    report = core.galois_check(core.independence_complex(full23), full23)
    assert report.as_dict()["down_up_below"]
    # the adjunction is strict here: the independence complex is just {empty}
    down_up = core.complex_to_demimatroid(core.independence_complex(full23))
    assert down_up.ranks == (0,) * 8

    trivial = core.RankTable.build(2, [0, 0, 0, 0])
    assert core.galois_check(core.Complex.build(2, [0]), trivial).ok


# -- random generation -----------------------------------------------------------------


def test_random_demimatroid_always_valid():
    rng = random.Random(5)
    for n in (0, 1, 2, 4, 6):
        for _ in range(25):
            table = core.random_demimatroid(n, rng)
            assert table.is_demimatroid
            assert table.ranks[0] == 0
            for mask in range(table.full + 1):
                assert 0 <= table.ranks[mask] <= core.popcount(mask)
                for bit in core.bits_of(table.full & ~mask):
                    step = table.ranks[mask | bit] - table.ranks[mask]
                    assert step in (0, 1)


class _RecordingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randint(self, a, b):
        self.draws.append((a, b))
        return super().randint(a, b)


def _mask_by_mask_demimatroid(n: int, rng: random.Random) -> list[int]:
    """The sampler as one loop over the lower neighbours of each mask: the
    reference for ``core.random_demimatroid``."""
    ranks = [0] * (1 << n)
    for mask in range(1, 1 << n):
        lo = 0
        hi = core.popcount(mask)
        for bit in core.bits_of(mask):
            r = ranks[mask ^ bit]
            lo = max(lo, r)
            hi = min(hi, r + 1)
        ranks[mask] = rng.randint(lo, hi)
    return ranks


def test_random_demimatroid_makes_the_reference_loops_draws():
    # Same randint calls in the same order, so every seeded sample stays.
    for n in range(9):
        for seed in range(40):
            fast, slow = _RecordingRandom(seed), _RecordingRandom(seed)
            assert list(core.random_demimatroid(n, fast).ranks) == _mask_by_mask_demimatroid(n, slow)
            assert fast.draws == slow.draws
            assert fast.random() == slow.random()


def test_up_down_identity_on_random_complexes():
    rng = random.Random(9)
    for _ in range(30):
        table = core.random_demimatroid(5, rng)
        cx = core.independence_complex(table)
        assert core.independence_complex(core.complex_to_demimatroid(cx)) == cx


# -- stored data: ranks for tables, face sets for complexes ---------------------------


def test_building_tables_never_classifies(classify_calls):
    t = core.random_demimatroid(5, random.Random(3))
    u = core.RankTable.build(5, t.ranks)
    built = [
        u,
        ops.dual(t),
        ops.nullity_operator(t),
        ops.supplement(t),
        ops.delete(t, 0b00101),
        ops.contract(t, 0b00101),
        ops.join(t, u),
        ops.meet(t, u),
    ]
    assert all(len(b.ranks) == 1 << b.n for b in built)
    assert classify_calls == []


def test_kind_is_classified_once_per_table(classify_calls):
    table = core.uniform(4, 2)
    assert table.kind == core.MATROID
    assert table.kind == core.MATROID
    assert classify_calls == [4]


@given(rank_tables())
def test_kind_matches_the_mask_by_mask_classification(table):
    assert table.kind == core._classify(table.n, table.ranks).kind


@given(demimatroid_tables(max_n=7), st.data())
def test_kind_matches_the_classification_near_demimatroids(table, data):
    # A rank moved by one mostly stays in [0, n], where the byte-level steps,
    # not the range check, decide the kind.
    assert table.kind == core._classify(table.n, table.ranks).kind
    if table.n:
        ranks = list(table.ranks)
        ranks[data.draw(st.integers(1, table.full))] += data.draw(st.sampled_from((-1, 1)))
        assert core._kind(table.n, ranks) == core._classify(table.n, ranks).kind


def test_subset_transform_is_the_subset_sum_and_its_inverse():
    rng = random.Random(9)
    for n in range(6):
        values = [rng.randint(-5, 5) for _ in range(1 << n)]
        zeta = core.subset_transform(values, operator.add)
        assert zeta == [sum(values[g] for g in core.submasks(m)) for m in range(1 << n)]
        moebius = core.subset_transform(values, operator.sub)
        assert moebius == [
            sum((-1) ** core.popcount(m ^ g) * values[g] for g in core.submasks(m))
            for m in range(1 << n)
        ]
        assert core.subset_transform(zeta, operator.sub) == values


@given(rank_tables())
def test_profile_counts_every_size_rank_pair(table):
    direct = Counter((core.popcount(m), table.ranks[m]) for m in range(1 << table.n))
    assert dict(table.profile) == direct


def test_profile_is_read_only_and_cached(profile_calls):
    table = core.RankTable.build(2, [0, 1, 3, -1])
    assert table.profile == {(0, 0): 1, (1, 1): 1, (1, 3): 1, (2, -1): 1}
    assert table.profile is table.profile
    assert profile_calls == [table.ranks]
    with pytest.raises(TypeError):
        table.profile[0, 0] = 2


@given(rank_tables())
def test_table_pickles_after_its_derived_values_are_read(table):
    kind, profile, w = table.kind, dict(table.profile), hamming.hamming_subset_sum(table)
    restored = pickle.loads(pickle.dumps(table))
    assert restored == table
    assert restored.kind == kind
    assert restored.profile == profile == table.profile
    assert hamming.hamming_subset_sum(restored) == w


@given(demimatroid_tables())
def test_independence_complex_face_set(t):
    cx = core.independence_complex(t)
    faces = set(cx.faces())
    assert faces == {m for m in range(1 << t.n) if t.ranks[m] == core.popcount(m)}
    assert core.Complex.build(t.n, cx.facets) == cx
    for f in cx.facets:
        assert not any(g != f and not f & ~g for g in faces)
    for m in range(1 << t.n):
        assert (m in cx) == (m in faces)


def test_void_and_empty_face_complexes_stay_distinct():
    void = core.Complex.build(3, [])
    empty_only = core.Complex.build(3, [0])
    assert void != empty_only
    assert void.is_void and not empty_only.is_void
    assert list(void.faces()) == [] and list(empty_only.faces()) == [0]
    assert void.facets == () and empty_only.facets == (0,)
    assert 0 not in void and 0 in empty_only
    assert void.face_counts() == [] and empty_only.face_counts() == [1]
    assert empty_only.dim == -1
