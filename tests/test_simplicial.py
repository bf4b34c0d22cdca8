import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import _layout, cli, core, hamming, ops, simplicial
from demimat._linalg import rank_sparse_columns, rref_mod_p
from demimat.errors import KindError, MalformedInputError, SizeCapError
from demimat.poly import monomial, one

import conftest as ref
from conftest import FIXTURES, count_calls
from oracles import (bits_of, elements_of, faces, hochster_betti_multigraded,
                     independence_complex, minimal_non_faces, nullity, rank_fraction_free,
                     reduced_homology_dims, restriction)
from strategies import demimatroid_tables

F2 = simplicial.FieldSpec(2)
F3 = simplicial.FieldSpec(3)
Q = simplicial.RATIONALS


def hochster_betti(cx, fieldspec):
    """The Betti table of ``cx``: the r = 0 one of its demimatroid's elongations."""
    return simplicial.betti_of_elongations(core.complex_to_demimatroid(cx), fieldspec)[0]


def elongation_complex(table, r):
    """The independence complex of the r-th elongation."""
    return independence_complex(ops.elongate(table, r))


def test_fieldspec():
    assert str(Q) == "Q"
    assert str(F3) == "3"
    with pytest.raises(MalformedInputError):
        simplicial.FieldSpec(4)


def test_homology_conventions():
    void = core.Complex.build(3, [])
    assert reduced_homology_dims(void) == []
    empty_only = core.Complex.build(3, [0])
    assert reduced_homology_dims(empty_only) == [1]


def test_homology_triangle_boundary():
    tri = core.Complex.from_facet_lists(3, [[1, 2], [1, 3], [2, 3]])
    for spec in (Q, F2, F3):
        assert reduced_homology_dims(tri, spec) == [0, 0, 1]


def test_homology_two_points():
    two = core.Complex.from_facet_lists(2, [[1], [2]])
    assert reduced_homology_dims(two) == [0, 1]


def test_homology_projective_plane(projective_plane_complex):
    assert reduced_homology_dims(projective_plane_complex, F2) == [0, 0, 1, 1]
    assert reduced_homology_dims(projective_plane_complex, F3) == [0, 0, 0, 0]
    assert reduced_homology_dims(projective_plane_complex, Q) == [0, 0, 0, 0]


def euler_characteristics(cx, fieldspec=Q):
    """The reduced Euler characteristic of a nonvoid complex by homology and by faces."""
    homological = sum((-1) ** (slot - 1) * d
                      for slot, d in enumerate(reduced_homology_dims(cx, fieldspec)))
    by_faces = sum((-1) ** (core.popcount(f) - 1) for f in faces(cx))
    return homological, by_faces


def test_euler_characteristic():
    tri = core.Complex.from_facet_lists(3, [[1, 2], [1, 3], [2, 3]])
    assert euler_characteristics(tri) == (-1, -1)
    assert euler_characteristics(core.Complex.build(2, [0])) == (-1, -1)
    # face counts of the triangulated surface: -1 + 6 - 15 + 10 = 0
    pp = core.Complex.from_facet_lists(6, ref.PROJECTIVE_PLANE_FACETS)
    assert pp.face_counts() == [1, 6, 15, 10]
    assert euler_characteristics(pp, F2) == (0, 0)
    assert euler_characteristics(pp, F3) == (0, 0)


def test_euler_random_restrictions():
    rng = random.Random(79)
    checked = 0
    while checked < 1000:
        table = core.random_demimatroid(5, rng)
        cx = independence_complex(table)
        sigma = core.random_subset(5, rng)
        sub = restriction(cx, sigma)
        if not sub.is_void:
            homological, by_faces = euler_characteristics(sub, rng.choice((Q, F2, F3)))
            assert homological == by_faces
            checked += 1


def assert_generators_are_the_first_betti_row(cx, gens):
    # beta_{1,j} counts the minimal generators of degree j.
    first_row = {j: v for (i, j), v in hochster_betti(cx, Q).entries if i == 1}
    assert Counter(map(core.popcount, gens)) == first_row


def test_stanley_reisner_generators(almost_wheel_complex, almost_wheel_ind_complex):
    circuits = {elements_of(m) for m in minimal_non_faces(almost_wheel_complex)}
    assert circuits == {
        (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6),
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6),
    }
    edges = {elements_of(m) for m in minimal_non_faces(almost_wheel_ind_complex)}
    assert edges == {tuple(sorted(e)) for e in ref.ALMOST_WHEEL_EDGES}
    full = core.Complex.from_facet_lists(3, [[1, 2, 3]])
    assert minimal_non_faces(full) == ()
    for cx in (almost_wheel_complex, almost_wheel_ind_complex, full):
        assert_generators_are_the_first_betti_row(cx, minimal_non_faces(cx))


def test_missing_vertices_are_degree_one_generators(full23):
    cx = independence_complex(full23)  # just the empty face, on 3 vertices
    gens = minimal_non_faces(cx)
    assert gens == (0b001, 0b010, 0b100)
    assert_generators_are_the_first_betti_row(cx, gens)
    table = hochster_betti(cx, Q)
    assert dict(table.entries)[1, 1] == 3
    assert dict(table.entries)[0, 0] == 1


def test_hochster_monomial_ideal_example():
    path = core.Complex.from_facet_lists(5, ref.PATH_IND_FACETS)
    gens = {elements_of(m) for m in minimal_non_faces(path)}
    assert gens == {(1, 2), (2, 3), (3, 4), (4, 5)}
    assert_generators_are_the_first_betti_row(path, minimal_non_faces(path))
    for spec in (Q, F2, F3):
        assert hochster_betti(path, spec).poly() == ref.PATH_IND_BETTI_R0


def test_hochster_full_simplex():
    full = core.Complex.from_facet_lists(4, [[1, 2, 3, 4]])
    assert hochster_betti(full, Q).poly() == one()


def test_multigraded_sums_to_graded(almost_wheel_ind_complex):
    cx = almost_wheel_ind_complex
    graded = hochster_betti(cx, Q)
    for (i, j), value in graded.entries:
        total = sum(
            hochster_betti_multigraded(cx, sigma, i, Q)
            for sigma in range(1 << cx.n)
            if core.popcount(sigma) == j
        )
        assert total == value


@pytest.mark.parametrize("sigma, i", [(0b1111, 3), (-1, 0)])
def test_multigraded_rejects_a_vertex_set_outside_the_ground_set(sigma, i):
    cx = core.Complex.from_facet_lists(3, [[1, 2], [3]])
    with pytest.raises(MalformedInputError):
        hochster_betti_multigraded(cx, sigma, i, Q)


def test_betti_tables_almost_wheel(almost_wheel):
    tables = simplicial.betti_of_elongations(almost_wheel, Q)
    assert [bt.poly() for bt in tables] == ref.ALMOST_WHEEL_BETTI


def test_betti_tables_independence(almost_wheel_ind):
    tables = simplicial.betti_of_elongations(almost_wheel_ind, Q)
    assert [bt.poly() for bt in tables] == ref.ALMOST_WHEEL_IND_BETTI


def test_betti_tables_hamming84(hamming84):
    tables = simplicial.betti_of_elongations(hamming84, Q)
    assert [bt.poly() for bt in tables] == ref.HAMMING84_BETTI


def test_betti_tables_projective_plane(projective_plane):
    char2 = simplicial.betti_of_elongations(projective_plane, F2)
    char3 = simplicial.betti_of_elongations(projective_plane, F3)
    assert [bt.poly() for bt in char2] == ref.PROJECTIVE_PLANE_BETTI_CHAR2
    assert [bt.poly() for bt in char3] == ref.PROJECTIVE_PLANE_BETTI_CHAR3
    assert char2 != char3


def test_projective_plane_torsion_shows_over_f2_only(projective_plane):
    # The real projective plane has 2-torsion in H_1: over Q its tables are
    # the F_3 ones, and the F_2 tables differ.
    rational = [bt.poly() for bt in simplicial.betti_of_elongations(projective_plane, Q)]
    assert rational == ref.PROJECTIVE_PLANE_BETTI_CHAR3
    assert rational != ref.PROJECTIVE_PLANE_BETTI_CHAR2


def _dense_homology_dims(cx, fieldspec):
    """Reduced homology from dense boundary matrices and the dense oracles."""
    layers = [[] for _ in range(cx.dim + 2)]
    for f in faces(cx):
        layers[core.popcount(f)].append(f)
    ranks = [0] * (len(layers) + 1)
    for c in range(1, len(layers)):
        lower, upper = layers[c - 1], layers[c]
        mat = [[0] * len(upper) for _ in lower]
        for col, face in enumerate(upper):
            for k, bit in enumerate(bits_of(face)):
                mat[lower.index(face ^ bit)][col] = (-1) ** k
        p = fieldspec.characteristic
        ranks[c] = rank_fraction_free(mat) if p == 0 else len(rref_mod_p(mat, p)[1])
    return [len(layer) - ranks[c] - ranks[c + 1] for c, layer in enumerate(layers)]


@st.composite
def elongation_complexes(draw):
    table = draw(demimatroid_tables(max_n=6))
    r = draw(st.integers(0, table.total_nullity))
    return elongation_complex(table, r)


@given(elongation_complexes(), st.sampled_from((Q, F2, F3)))
def test_homology_matches_dense_elimination(cx, fieldspec):
    for sigma in range(1 << cx.n):
        sub = restriction(cx, sigma)
        assert reduced_homology_dims(sub, fieldspec) == _dense_homology_dims(
            sub, fieldspec
        )


@given(elongation_complexes(), st.sampled_from((Q, F2, F3)))
def test_sweep_matches_per_restriction_homology(cx, fieldspec):
    table: dict[tuple[int, int], int] = {}
    for sigma in range(1 << cx.n):
        j = core.popcount(sigma)
        dims = reduced_homology_dims(restriction(cx, sigma), fieldspec)
        for slot, d in enumerate(dims):
            table[(j - slot, j)] = table.get((j - slot, j), 0) + d
    expected = simplicial.BettiTable.from_dict(table)
    assert hochster_betti(cx, fieldspec) == expected


@st.composite
def low_dimensional_complexes(draw):
    """Complexes with faces of cardinality at most 2 or 3 (3 or 4 layers):
    graphs, often disconnected or edgeless, and the same with triangles."""
    n = draw(st.integers(1, 7))
    top = draw(st.sampled_from((2, 3)))
    masks = [m for m in range(1, 1 << n) if m.bit_count() <= top]
    return core.Complex.build(n, [0, *draw(st.lists(st.sampled_from(masks), max_size=10))])


@given(low_dimensional_complexes(), st.sampled_from((Q, F2, F3)))
def test_the_edge_map_rank_from_components_matches_dense_elimination(cx, fieldspec):
    assert reduced_homology_dims(cx, fieldspec) == _dense_homology_dims(cx, fieldspec)


@pytest.mark.parametrize("fieldspec", (Q, F2, F3), ids=str)
@pytest.mark.parametrize("masks, dims", [
    ([0b0001, 0b0100, 0b1000], [0, 2]),  # three points, no edge
    ([0b0011, 0b1100], [0, 1, 0]),  # two disjoint edges
    ([0b00011, 0b00110, 0b00101, 0b11000], [0, 1, 1]),  # a triangle's boundary and an edge
    ([0b00111, 0b11000], [0, 1, 0, 0]),  # a filled triangle and an edge
    ([0b001011, 0b010110, 0b100101], [0, 0, 1, 0]),  # three triangles round a hole
], ids=["edgeless", "two-edges", "cycle-and-edge", "triangle-and-edge", "triangle-ring"])
def test_graph_sides_are_read_off_their_components(masks, dims, fieldspec):
    cx = core.Complex.build(6, [0, *masks])
    assert reduced_homology_dims(cx, fieldspec) == dims == _dense_homology_dims(cx, fieldspec)


def _dual_homology_by_degree(cx, fieldspec):
    """Homology of ``cx`` by degree, read off its Alexander dual on all n vertices.

    The dual is {V - X : X not in cx}, and over any field degree e of the
    dual is degree n-e-3 of ``cx``.
    """
    full = core.full_mask(cx.n)
    dual = core.Complex(cx.n, frozenset(full ^ x for x in core.submasks(full) if x not in cx))
    dims = reduced_homology_dims(dual, fieldspec)
    return {cx.n - 3 - (slot - 1): d for slot, d in enumerate(dims) if d}


def _homology_by_degree(cx, fieldspec):
    dims = reduced_homology_dims(cx, fieldspec)
    return {slot - 1: d for slot, d in enumerate(dims) if d}


@st.composite
def complexes_short_of_the_simplex(draw, max_n=6):
    """Nonvoid complexes on 1..n that are not the full simplex; vertices
    that no drawn face covers stay ghosts."""
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 2), max_size=8))
    return core.Complex.build(n, [0, *masks])


@given(complexes_short_of_the_simplex(), st.sampled_from((Q, F2, F3)))
def test_alexander_duality_reindexes_homology(cx, fieldspec):
    assert _homology_by_degree(cx, fieldspec) == _dual_homology_by_degree(cx, fieldspec)


@pytest.mark.parametrize("fieldspec", (Q, F2, F3), ids=str)
@pytest.mark.parametrize(
    "cx, expected",
    [
        # {empty} on four vertices: its dual is the boundary of the simplex.
        (core.Complex.build(4, [0]), {-1: 1}),
        # The boundary of the triangle: its dual is {empty}.
        (core.Complex.build(3, [0b011, 0b101, 0b110]), {1: 1}),
        # An edge and a point with vertices 4 and 5 as ghosts.
        (core.Complex.build(5, [0b00011, 0b00100]), {0: 1}),
    ],
    ids=["empty-face-only", "simplex-boundary", "ghost-vertices"],
)
def test_alexander_duality_edge_cases(cx, expected, fieldspec):
    assert _homology_by_degree(cx, fieldspec) == expected
    assert _dual_homology_by_degree(cx, fieldspec) == expected


def test_alexander_dual_keeps_projective_plane_torsion(projective_plane_complex):
    # H~_1 and H~_2 of the projective plane are F_2 and vanish over Q and F_3;
    # the dual side must give the same.
    assert _dual_homology_by_degree(projective_plane_complex, F2) == {1: 1, 2: 1}
    assert _dual_homology_by_degree(projective_plane_complex, Q) == {}
    assert _dual_homology_by_degree(projective_plane_complex, F3) == {}


def test_betti_structure_properties(almost_wheel):
    for bt in simplicial.betti_of_elongations(almost_wheel, Q):
        assert dict(bt.entries)[0, 0] == 1
        assert all(j >= i for (i, j), _ in bt.entries)


def test_w_via_betti_fixtures(almost_wheel, almost_wheel_ind, hamming84):
    for table in (almost_wheel, almost_wheel_ind, hamming84):
        assert simplicial.w_via_betti(table, Q) == hamming.hamming_subset_sum(table)


def test_w_via_betti_field_independent(projective_plane):
    w = hamming.hamming_subset_sum(projective_plane)
    assert simplicial.w_via_betti(projective_plane, F2) == w
    assert simplicial.w_via_betti(projective_plane, F3) == w
    assert simplicial.w_via_betti(projective_plane, Q) == w


def test_w_via_betti_random():
    rng = random.Random(83)
    for _ in range(50):
        table = core.random_demimatroid(6, rng)
        assert simplicial.w_via_betti(table, Q) == hamming.hamming_subset_sum(table)


def test_w_at_zero_is_first_betti_slice(almost_wheel):
    # W(x, y, 0) = x^n B_M(-1, y/x): matching coefficients of the r = 0 term
    w0 = hamming.hamming_subset_sum(almost_wheel).coefficient(t=0)
    b0 = hochster_betti(independence_complex(almost_wheel), Q)
    n = almost_wheel.n
    rebuilt = sum(
        (v * (-1) ** i * monomial(1, x=n - j, y=j) for (i, j), v in b0.entries),
        start=monomial(0),
    )
    assert rebuilt == w0


def test_homology_cap():
    with pytest.raises(Exception):
        reduced_homology_dims(
            core.Complex.from_facet_lists(17, [[1, 2]]), Q
        )


def test_elongation_betti_checks_the_cap_before_building_a_complex(monkeypatch):
    built = {}
    count_calls(monkeypatch, core.Complex, "build", built)
    monkeypatch.setattr(core, "HOMOLOGY_CAP", 3)
    with pytest.raises(SizeCapError):
        simplicial.betti_of_elongations(core.uniform(4, 2), Q)
    assert built == {}


@given(demimatroid_tables())
def test_elongation_complex_is_the_elongations_independence_complex(t):
    # Its faces are the subsets of nullity at most r, read off the table.
    for r in range(t.total_nullity + 1):
        assert elongation_complex(t, r).face_set == {
            m for m in range(1 << t.n) if nullity(t, m) <= r}
    for r in (-1, t.total_nullity + 1):
        with pytest.raises(MalformedInputError):
            elongation_complex(t, r)


def test_elongation_complex_needs_a_demimatroid():
    skipping = core.RankTable.build(2, [0, 1, 1, 3])
    with pytest.raises(KindError):
        elongation_complex(skipping, 0)


def test_betti_of_elongations_classifies_the_table_once(classify_calls):
    table = cli.load_input(str(FIXTURES / "vamos.json")).table
    simplicial.betti_of_elongations(table, Q)
    assert classify_calls == [8]


def _sparse_kernel_dims(cx, p):
    """Reduced homology of ``cx`` with each boundary map reduced on its own by
    ``rank_sparse_columns``: no clearing and no F_2 certificate."""
    layers = [[] for _ in range(cx.dim + 2)]
    for f in faces(cx):
        layers[core.popcount(f)].append(f)
    ranks = [0] * (len(layers) + 1)
    for c in range(1, len(layers)):
        columns = {f: {f ^ bit: (-1) ** k for k, bit in enumerate(bits_of(f))}
                   for f in layers[c]}
        ranks[c] = len(rank_sparse_columns(columns, p))
    return [len(layer) - ranks[c] - ranks[c + 1] for c, layer in enumerate(layers)]


@pytest.mark.parametrize("n", range(11))
def test_the_cached_bit_lists_are_each_masks_bits(n):
    bit_lists = _layout._bit_lists(n)
    assert type(bit_lists) is tuple and len(bit_lists) == 1 << n
    for mask, bits in enumerate(bit_lists):
        assert type(bits) is tuple
        assert bits == tuple(bits_of(mask))
    assert _layout._bit_lists(n) is bit_lists


@given(demimatroid_tables(max_n=7))
def test_walk_lists_the_smaller_side_from_packed_level_counts(table):
    # Each (sigma, r) lists, layer by cardinality layer, exactly the side
    # that a scan of all 2^|sigma| submasks picks: the restriction, or its
    # Alexander dual when more than half the submasks are faces.
    n, eta = table.n, table.total_nullity
    nullities = [nullity(table, x) for x in range(1 << n)]
    digit = (1 << (n + 1)) - 1
    for sigma, packed in enumerate(simplicial._level_counts(n, nullities)):
        direct = [0] * (eta + 1)
        for x in core.submasks(sigma):
            direct[nullities[x]] += 1
        assert [packed >> (n + 1) * k & digit for k in range(eta + 1)] == direct
        assert packed >> (n + 1) * (eta + 1) == 0
    listed = list(simplicial._restrictions(n, nullities))
    assert [(sigma, r) for sigma, r, _, _ in listed] == [
        (sigma, r) for sigma in range(1, 1 << n) for r in range(nullities[sigma])
    ]
    for sigma, r, dual, layers in listed:
        faces = [x for x in core.submasks(sigma) if nullities[x] <= r]
        assert dual == (2 * len(faces) > 2 ** core.popcount(sigma))
        side = [sigma ^ x for x in core.submasks(sigma) if nullities[x] > r] if dual else faces
        assert all(layers)
        assert all(core.popcount(f) == c for c, layer in enumerate(layers) for f in layer)
        assert sorted(f for layer in layers for f in layer) == sorted(side)


def _assert_walk_matches_the_per_sigma_oracle(table, fieldspec):
    walked = simplicial.betti_of_elongations(table, fieldspec)
    assert len(walked) == table.total_nullity + 1
    for r, betti in enumerate(walked):
        cx = elongation_complex(table, r)
        expected: dict[tuple[int, int], int] = {}
        for sigma in range(1 << table.n):
            j = core.popcount(sigma)
            dims = _sparse_kernel_dims(restriction(cx, sigma), fieldspec.characteristic)
            for slot, d in enumerate(dims):
                expected[(j - slot, j)] = expected.get((j - slot, j), 0) + d
        assert betti == simplicial.BettiTable.from_dict(expected)


@given(demimatroid_tables(max_n=6), st.sampled_from((Q, F2, F3)))
def test_elongation_walk_matches_the_per_sigma_oracle(table, fieldspec):
    _assert_walk_matches_the_per_sigma_oracle(table, fieldspec)


@pytest.mark.parametrize("fieldspec", (Q, F2, F3), ids=str)
def test_elongation_walk_matches_the_per_sigma_oracle_at_n_8(fieldspec):
    # Eight vertices give maps with dozens of columns, where a clearing set
    # read in the wrong numbering would skip a column that is not a pivot
    # row; over F_2 nothing else would notice, since W sums the error away.
    rng = random.Random(97)
    for _ in range(4):
        _assert_walk_matches_the_per_sigma_oracle(core.random_demimatroid(8, rng), fieldspec)


def test_projective_plane_rational_tables_take_the_q_fallback(projective_plane, monkeypatch):
    # The elongations of the projective plane's demimatroid: over F_2 some
    # restriction has homology in two adjacent degrees (the torsion of
    # RP^2), so its ranks over Q come from the signed columns.
    calls = []
    kernel = simplicial.rank_sparse_columns

    def counted(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("p", 0))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(simplicial, "rank_sparse_columns", counted)
    tables = simplicial.betti_of_elongations(projective_plane, Q)
    assert [dict(bt.entries) for bt in tables] == [
        {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6},
        {(0, 0): 1, (1, 5): 6, (2, 6): 5},
        {(0, 0): 1, (1, 6): 1},
        {(0, 0): 1},
    ]
    assert calls and set(calls) == {0}
