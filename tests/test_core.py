import __future__
import inspect
import operator
import pickle
import random
import textwrap
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from demimat import _layout, constructions, core, hamming, ops
from demimat.errors import KindError, MalformedInputError, SizeCapError

from conftest import (
    ALMOST_WHEEL_EDGES,
    ALMOST_WHEEL_IND_FACETS,
    CHAIN_FACETS,
    FIVE_BASIS_BASES,
    FIVE_BASIS_RHO,
    TWO_BASIS_RHO,
    ranks_from_labels,
)
from strategies import demimatroid_tables, rank_tables


# -- masks ----------------------------------------------------------------------


def test_mask_helpers():
    assert core.mask_of([1, 3], 3) == 0b101
    assert oracles.elements_of(0b101) == (1, 3)
    assert sorted(core.submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    with pytest.raises(MalformedInputError):
        core.mask_of([4], 3)


# -- validation --------------------------------------------------------------------


def test_validate_matroid(two_basis):
    report = oracles.classify(two_basis.n, two_basis.ranks)
    assert report.kind == core.MATROID
    assert report.ok


def test_validate_submodularity_witness(two_basis):
    from demimat import ops

    supp = ops.supplement(two_basis)
    report = oracles.classify(supp.n, supp.ranks)
    assert report.kind == core.DEMIMATROID
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.axiom == oracles.AXIOM_SUBMODULAR
    # rank(23) + rank(empty) = 1 > 0 = rank(2) + rank(3)
    assert violation.witnesses == (core.mask_of([2, 3], 3), 0)


def test_validate_trivial_is_demimatroid():
    table = core.RankTable.build(3, [0] * 8)
    assert table.kind == core.MATROID  # the zero table is even submodular
    skipping = core.RankTable.build(2, [0, 0, 0, 2])
    assert skipping.kind == core.COMBINATROID
    report = oracles.classify(skipping.n, skipping.ranks)
    assert report.violations[0].axiom == oracles.AXIOM_UNIT_STEP


def test_validate_malformed():
    with pytest.raises(MalformedInputError):
        core.RankTable.build(2, [0, 1, 1])
    with pytest.raises(MalformedInputError):
        core.RankTable.build(2, [1, 1, 1, 2])
    with pytest.raises(SizeCapError):
        core.RankTable.build(21, [0] * (1 << 21))


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


@st.composite
def basis_families(draw, max_n: int = 6):
    """A ground-set size and a nonempty family of subsets, each given as an
    int mask or as its list of elements; the family need not be a matroid's."""
    n = draw(st.integers(0, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    as_lists = draw(st.lists(st.booleans(), min_size=len(masks), max_size=len(masks)))
    return n, [list(oracles.elements_of(m)) if listed else m for m, listed in zip(masks, as_lists)]


@given(basis_families())
def test_a_basis_family_table_is_the_max_over_its_bases(family):
    n, bases = family
    assert core.from_matroid_bases(n, bases) == oracles.from_matroid_bases(n, bases)


def test_an_int_basis_outside_the_ground_set_is_rejected():
    with pytest.raises(MalformedInputError):
        core.from_matroid_bases(2, [0b11, 0b100])
    with pytest.raises(MalformedInputError):
        core.from_matroid_bases(0, [1])


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
    faces = list(oracles.faces(cx))
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
    assert oracles.independence_complex(full23) == core.Complex.build(3, [0])
    assert oracles.independence_complex(core.uniform(4, 2)) == core.Complex.build(
        4, [m for m in range(16) if core.popcount(m) <= 2]
    )
    cx = core.Complex.from_facet_lists(5, CHAIN_FACETS)
    assert oracles.independence_complex(core.complex_to_demimatroid(cx)) == cx


def test_independence_complex_requires_demimatroid():
    bad = core.RankTable.build(2, [0, 0, 0, 2])
    with pytest.raises(KindError):
        oracles.independence_complex(bad)


def test_level_complex(full23):
    assert oracles.level_complex(full23, 0) == core.Complex.build(3, [0, 1, 2, 4])
    assert oracles.level_complex(full23, 2) == core.Complex.from_facet_lists(3, [[1, 2, 3]])
    assert oracles.level_complex(core.uniform(3, 1), 1) == core.Complex.from_facet_lists(
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
    assert oracles.level_complex(wheelish, 1) == core.Complex.from_facet_lists(
        6, ALMOST_WHEEL_IND_FACETS
    )
    with pytest.raises(MalformedInputError):
        core.graph_demimatroid(2, [(1, 3)])
    with pytest.raises(MalformedInputError):
        core.graph_demimatroid(2, [(1, 1)])


@st.composite
def graphs(draw, max_n: int = 8):
    """A vertex count and an edge list with repeats, both orientations and,
    as often as not, isolated vertices."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=2 * n))
    repeated = draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    return n, edges + [(b, a) for a, b in repeated]


@given(graphs())
def test_the_graph_table_is_the_edge_by_edge_trichotomy(graph):
    n, edges = graph
    assert core.graph_demimatroid(n, edges) == oracles.graph_demimatroid(n, edges)


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
    assert oracles.galois_check(cx, up).ok

    report = oracles.galois_check(oracles.independence_complex(full23), full23)
    assert dict(report.items)["down_up_below"]
    # the adjunction is strict here: the independence complex is just {empty}
    down_up = core.complex_to_demimatroid(oracles.independence_complex(full23))
    assert down_up.ranks == (0,) * 8

    trivial = core.RankTable.build(2, [0, 0, 0, 0])
    assert oracles.galois_check(core.Complex.build(2, [0]), trivial).ok


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
                for bit in oracles.bits_of(table.full & ~mask):
                    step = table.ranks[mask | bit] - table.ranks[mask]
                    assert step in (0, 1)


class _RecordingRandom(random.Random):
    """Records each ``getrandbits(k)`` call as ``(k, bits)``: the calls
    ``randint`` makes through ``_randbelow`` (defining ``getrandbits`` here
    keeps CPython's ``_randbelow`` on it), and those the sampler makes
    itself."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def getrandbits(self, k):
        bits = super().getrandbits(k)
        self.draws.append((k, bits))
        return bits


def test_random_demimatroid_makes_the_reference_loops_draws():
    # The same bit draws in the same order, giving the same ranks and the
    # same generator state: every seeded sample stays.
    for n in range(9):
        for seed in range(40):
            fast, slow = _RecordingRandom(seed), _RecordingRandom(seed)
            assert (list(core.random_demimatroid(n, fast).ranks)
                    == oracles.random_demimatroid_by_randint(n, slow))
            assert fast.draws == slow.draws
            assert fast.random() == slow.random()


def _assert_draws_match_randint(sampler):
    # n = 12 for a few seeds reaches the strides 2^8..2^11.
    cases = [(n, seed) for n in range(9) for seed in range(200)]
    for n, seed in cases + [(12, seed) for seed in range(3)]:
        fast, slow = random.Random(seed), random.Random(seed)
        assert list(sampler(n, fast).ranks) == oracles.random_demimatroid_by_randint(n, slow)
        assert fast.getstate() == slow.getstate()


def test_the_sampler_draws_what_randint_draws():
    # Same ranks and the same generator state after every table, so the
    # seeded battery's samples and partners stay.
    _assert_draws_match_randint(core.random_demimatroid)


def test_a_sampler_drawing_from_range_lo_hi_fails_the_randint_check():
    # The planted fault drops the draw from a two-value interval, so its
    # top is never picked; the bits drawn stay the same.
    source = textwrap.dedent(inspect.getsource(constructions.random_demimatroid))
    planted = source.replace("lo += r", "pass")
    assert planted != source
    namespace = dict(vars(constructions))
    exec(compile(planted, "<planted>", "exec", __future__.annotations.compiler_flag), namespace)
    with pytest.raises((AssertionError, ValueError)):
        _assert_draws_match_randint(namespace["random_demimatroid"])


def test_up_down_identity_on_random_complexes():
    rng = random.Random(9)
    for _ in range(30):
        table = core.random_demimatroid(5, rng)
        cx = oracles.independence_complex(table)
        assert oracles.independence_complex(core.complex_to_demimatroid(cx)) == cx


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
    assert table.kind == oracles.classify(table.n, table.ranks).kind


@given(demimatroid_tables(max_n=9), st.data())
def test_kind_matches_the_classification_near_demimatroids(table, data):
    # A rank moved by one mostly stays in [0, n], where the byte-level steps,
    # not the view's range, decide the kind.
    assert table.kind == oracles.classify(table.n, table.ranks).kind
    if table.n:
        ranks = list(table.ranks)
        ranks[data.draw(st.integers(1, table.full))] += data.draw(st.sampled_from((-1, 1)))
        kind = core._kind(table.n, _layout._byte_view(ranks))
        assert kind == oracles.classify(table.n, ranks).kind


@pytest.mark.parametrize("n", range(2, 8))
def test_kind_finds_submodularity_failing_at_any_one_element_pair(n):
    # rho(X) = 1 once X holds both a and b: unit steps hold, and only the
    # pair {a, b} breaks submodularity, so each pair's check is needed.
    for a, b in combinations(range(n), 2):
        pair = 1 << a | 1 << b
        view = bytes(int(mask & pair == pair) for mask in range(1 << n))
        assert oracles.classify(n, view).kind == core.DEMIMATROID
        assert core._kind(n, view) == core.DEMIMATROID


def test_derived_values_are_stored_on_first_read(classify_calls, profile_calls):
    table = ops.dual(core.uniform(5, 2))
    assert "kind" not in vars(table) and "profile" not in vars(table)
    assert table.kind == table.kind == core.MATROID
    assert table.profile is table.profile
    assert classify_calls == [5] and profile_calls == [table.ranks]
    assert vars(table)["kind"] == core.MATROID and vars(table)["view"] == bytes(table.ranks)
    with pytest.raises(AttributeError):
        table.kind = core.COMBINATROID
    with pytest.raises(AttributeError):
        del table.profile
    assert table.kind == core.MATROID and classify_calls == [5]


def test_subset_transform_is_the_subset_sum_and_its_inverse():
    rng = random.Random(9)
    for n in range(6):
        values = [rng.randint(-5, 5) for _ in range(1 << n)]
        zeta = _layout.subset_transform(values, operator.add)
        assert zeta == [sum(values[g] for g in core.submasks(m)) for m in range(1 << n)]
        moebius = _layout.subset_transform(values, operator.sub)
        assert moebius == [
            sum((-1) ** core.popcount(m ^ g) * values[g] for g in core.submasks(m))
            for m in range(1 << n)
        ]
        assert _layout.subset_transform(zeta, operator.sub) == values


@given(rank_tables())
def test_profile_counts_every_size_rank_pair(table):
    assert dict(table.profile) == oracles.size_rank_profile(table)


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
    cx = oracles.independence_complex(t)
    faces = set(oracles.faces(cx))
    assert faces == {m for m in range(1 << t.n) if t.ranks[m] == core.popcount(m)}
    assert core.Complex.build(t.n, oracles.facets(cx)) == cx
    for f in oracles.facets(cx):
        assert not any(g != f and not f & ~g for g in faces)
    for m in range(1 << t.n):
        assert (m in cx) == (m in faces)


def test_void_and_empty_face_complexes_stay_distinct():
    void = core.Complex.build(3, [])
    empty_only = core.Complex.build(3, [0])
    assert void != empty_only
    assert void.is_void and not empty_only.is_void
    assert list(oracles.faces(void)) == [] and list(oracles.faces(empty_only)) == [0]
    assert oracles.facets(void) == () and oracles.facets(empty_only) == (0,)
    assert 0 not in void and 0 in empty_only
    assert void.face_counts() == [] and empty_only.face_counts() == [1]
    assert empty_only.dim == -1
