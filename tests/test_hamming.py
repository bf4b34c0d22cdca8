import random

import pytest
from hypothesis import given

from demimat import cli, codes, core, hamming, ops, tutte
from demimat.errors import InvariantViolationError, KindError, MalformedInputError
from demimat.poly import LaurentPoly, T, X, Y, monomial, one, poly_sum, q_binomial

import conftest as ref
from conftest import FIXTURES, count_calls
from oracles import (
    combine_t_powers,
    generalized_w_by_definition,
    hamming_recurrence,
    macwilliams_transform,
    nullity,
    p_j,
    p_sigma,
    substitute,
)
from strategies import demimatroid_tables, rank_tables


def test_printed_hamming_values(
    full23, almost_wheel, almost_wheel_ind, hamming84, projective_plane, vamos
):
    assert hamming.hamming_subset_sum(full23) == ref.full23_hamming()
    assert hamming.hamming_subset_sum(almost_wheel) == ref.almost_wheel_hamming()
    assert hamming.hamming_subset_sum(almost_wheel_ind) == ref.almost_wheel_ind_hamming()
    assert hamming.hamming_subset_sum(hamming84) == ref.hamming84_hamming()
    assert hamming.hamming_subset_sum(projective_plane) == ref.projective_plane_hamming()
    assert hamming.hamming_subset_sum(vamos) == ref.vamos_hamming()
    assert hamming.hamming_subset_sum(core.uniform(3, 1)) == ref.uniform31_hamming()
    assert hamming.hamming_subset_sum(core.uniform(4, 2)) == ref.uniform42_hamming()


def test_free_table_hamming():
    free = core.RankTable.build(4, [core.popcount(m) for m in range(16)])
    assert hamming.hamming_subset_sum(free) == X**4


def test_via_tutte_matches(chain_complex):
    # Acceptance criterion 04 runs the Tutte route on the printed tables.
    table = core.complex_to_demimatroid(chain_complex)
    assert hamming.hamming_via_tutte(table) == hamming.hamming_subset_sum(table)


def test_recurrence_pieces_full23(full23):
    # The pieces at element 3 are acceptance criterion 04's; this is the oracle's sum.
    assert hamming_recurrence(full23, 3) == ref.full23_hamming()


def test_recurrence_base_cases():
    for ranks in ((0, 1), (0, 0)):
        table = core.RankTable.build(1, ranks)
        assert hamming_recurrence(table, 1) == hamming.hamming_subset_sum(table)


def test_p_sigma_and_p_j(full23):
    assert p_sigma(full23, 0) == one()
    assert p_j(full23, 0) == one()
    # read P_{M,2} off the printed W: the x^1 y^2 slot
    assert p_j(full23, 2) == 3 * (1 - T)
    # a subset whose subsets are all independent collapses the alternating sum
    free = core.RankTable.build(3, [core.popcount(m) for m in range(8)])
    for sigma in range(1, 8):
        assert p_sigma(free, sigma).is_zero
    assert hamming.w_from_pj(full23) == ref.full23_hamming()


@pytest.mark.parametrize("n, ranks", [
    # nullity |X| mod 2: P_j's coefficients reach C(n, j) 2^(j-1), all signs
    (8, [core.popcount(m) - core.popcount(m) % 2 for m in range(256)]),
    # far-apart and negative nullities: digits follow the distinct values
    (3, [0, 40, -40, 7, 0, 1, 2, 100]),
])
def test_pj_family_matches_the_alternating_submask_sums(n, ranks):
    table = core.RankTable.build(n, ranks)
    assert hamming.pj_family(table) == tuple(p_j(table, j) for j in range(n + 1))


@given(rank_tables() | demimatroid_tables())
def test_pj_family_matches_p_j_on_any_table(table):
    assert hamming.pj_family(table) == tuple(
        p_j(table, j) for j in range(table.n + 1))


def test_w_collapses_at_t_one(full23, almost_wheel, vamos):
    for table in (full23, almost_wheel, vamos):
        w = hamming.hamming_subset_sum(table)
        assert substitute(w, {"t": 1}) == monomial(1, x=table.n)


def test_t_zero_slice_almost_wheel(almost_wheel):
    w0 = substitute(hamming.hamming_subset_sum(almost_wheel), {"t": 0})
    assert w0 == (
        X**6 - 6 * X**4 * Y**2 + 4 * X**3 * Y**3 + 9 * X**2 * Y**4
        - 12 * X * Y**5 + 4 * Y**6
    )


def test_macwilliams_examples(full23):
    # involution: transforming back with the dual's nullity returns W
    # (W of the dual itself is acceptance criterion 05's)
    back = macwilliams_transform(hamming.macwilliams(full23), ops.dual(full23).total_nullity)
    assert back == hamming.hamming_subset_sum(full23)


def test_macwilliams_random():
    rng = random.Random(61)
    for _ in range(50):
        table = core.random_demimatroid(6, rng)
        star = hamming.macwilliams(table)
        assert star == hamming.hamming_subset_sum(ops.dual(table))
        back = macwilliams_transform(star, ops.dual(table).total_nullity)
        assert back == hamming.hamming_subset_sum(table)


def test_binary_specialization_symmetry(hamming84, code63b_matrix):
    # at t = 2 the transform, divided exactly by 2^eta and then by 2^k, is
    # an involution
    for table in (hamming84, codes.parity_matroid(code63b_matrix)):
        w2 = substitute(hamming.hamming_subset_sum(table), {"t": 2})
        eta, k = table.total_nullity, table.rank
        once = substitute(w2, {"x": X + Y, "y": X - Y}).divide_exact(2**eta)
        twice = substitute(once, {"x": X + Y, "y": X - Y}).divide_exact(2**k)
        assert twice == w2


def test_tutte_recovery(full23, almost_wheel):
    assert hamming.tutte_from_hamming(full23) == ref.full23_tutte()
    assert hamming.tutte_from_hamming(almost_wheel) == ref.almost_wheel_tutte()
    assert hamming.tutte_from_hamming(core.uniform(3, 1)) == ref.uniform31_tutte()


def test_tutte_recovery_random():
    rng = random.Random(67)
    for _ in range(50):
        table = core.random_demimatroid(5, rng)
        assert hamming.tutte_from_hamming(table) == tutte.tutte(table)


def test_formal_min_distance(full23, hamming84):
    delta, c = hamming.formal_min_distance(full23)
    assert (delta, c) == (1, 3)
    delta, c = hamming.formal_min_distance(hamming84)
    assert (delta, c) == (4, 14)
    free = core.RankTable.build(2, [0, 1, 1, 2])
    with pytest.raises(KindError):
        hamming.formal_min_distance(free)


def test_a_coefficients_uniform():
    a = hamming.a_coefficients(core.uniform(3, 1))
    assert hamming.formal_min_distance(core.uniform(3, 1))[0] == 2
    assert a[1].is_zero
    assert a[2] == 3 * (T - 1)
    assert a[3] == 2 - 3 * T + T**2
    a = hamming.a_coefficients(core.uniform(4, 2))
    assert hamming.formal_min_distance(core.uniform(4, 2))[0] == 3
    assert a[1].is_zero and a[2].is_zero
    assert a[3] == 4 * (T - 1)
    assert a[4] == 3 - 4 * T + T**2


def test_uniform_closed_form_runs_only_on_uniform_tables(monkeypatch, full23):
    calls = {}
    count_calls(monkeypatch, hamming, "_uniform_a_closed_form", calls)
    hamming.a_coefficients(core.uniform(4, 2))
    assert calls
    calls.clear()
    hamming.a_coefficients(full23)
    assert calls == {}


def test_a_delta_counts_minimal_supports(hamming84):
    # delta = 4 with 14 minimal supports: test_formal_min_distance, and
    # test_weights' mask scans count them.
    assert hamming.a_coefficients(hamming84)[4] == 14 * (T - 1)


def test_the_a_coefficients_are_the_pj_family(full23, hamming84):
    for table in (full23, hamming84, core.uniform(4, 2)):
        a, family = hamming.a_coefficients(table), hamming.pj_family(table)
        assert sorted(a) == list(range(1, table.n + 1))
        assert all(a[j] is family[j] for j in a)


def test_a_wrong_p_delta_fails_the_a_delta_check(monkeypatch):
    # The P_j count and the profile's (delta, c) are separate counts, so a
    # P_delta one too high is caught; uniform(4,2) has delta = 3.
    family = hamming.pj_family
    monkeypatch.setattr(hamming, "pj_family", lambda table: tuple(
        p + 1 if j == 3 else p for j, p in enumerate(family(table))))
    with pytest.raises(InvariantViolationError, match=r"A_delta does not equal c \(t-1\)"):
        hamming.a_coefficients(core.uniform(4, 2))


def test_hamming_data_structure(full23):
    pj = hamming.pj_family(full23)
    assert pj[0] == one()
    assert len(pj) == 4


# -- generalized enumerators -------------------------------------------------------


def subset_route(table, r):
    """W^(r) by the subset route: ``generalized_w_all``, zero above eta(E)."""
    family = hamming.generalized_w_all(table)
    return family[r] if r < len(family) else LaurentPoly()


def gaussian_nullity_oracle(table, r):
    """Independent route: sum (x-y)^(n-|s|) y^|s| [nullity(s) choose r]_q."""
    n = table.n
    total = LaurentPoly()
    for mask in range(table.full + 1):
        eta = nullity(table, mask)
        if eta < r:
            continue
        s = core.popcount(mask)
        total = total + ((X - Y) ** (n - s)) * monomial(1, y=s) * q_binomial(eta, r)
    return total


def test_generalized_w_printed_code_a(code63a_matrix):
    table = codes.parity_matroid(code63a_matrix)
    assert hamming.generalized_w_all(table) == tuple(ref.code63a_wr())


def test_generalized_w_printed_code_b(code63b_matrix):
    table = codes.parity_matroid(code63b_matrix)
    assert hamming.generalized_w_all(table) == tuple(ref.code63b_wr())


def test_generalized_w_printed_hamming74(hamming74_matrix):
    table = codes.parity_matroid(hamming74_matrix)
    assert hamming.generalized_w_all(table) == tuple(ref.hamming74_wr())


def test_generalized_w_full23(full23):
    # from the definition these come out plain; the reference display carries
    # an extra (x-y)^3 factor on each
    w0, w1, w2 = (subset_route(full23, r) for r in range(3))
    assert w0 == X**3
    assert w1 == 3 * X**2 * Y - 3 * X * Y**2 + Y**3
    assert w2.is_zero
    factor = (X - Y) ** 3
    assert factor * w0 == (X - Y) ** 3 * X**3
    assert factor * w1 == (X - Y) ** 3 * Y * (3 * X**2 - 3 * X * Y + Y**2)


def test_generalized_w_oracle_routes(full23, code63b_matrix):
    rng = random.Random(71)
    tables = [full23, codes.parity_matroid(code63b_matrix)]
    tables += [core.random_demimatroid(5, rng) for _ in range(10)]
    for table in tables:
        for r in range(min(table.n, table.total_nullity + 1) + 1):
            direct = subset_route(table, r)
            assert direct == hamming.generalized_w(table, r)
            assert direct == generalized_w_by_definition(table, r)
            assert direct == gaussian_nullity_oracle(table, r)


def _family_by_substitution(table, top):
    """W^(0) .. W^(top) by the definition on the subset sum: W(x, y, t^j) by
    substituting t -> t^j, combined with q-binomials and divided by <r>_t."""
    w = hamming.hamming_subset_sum(table)
    w_at = [substitute(w, {"t": monomial(1, t=j)}) for j in range(top + 1)]
    return [combine_t_powers(r, w_at) for r in range(top + 1)]


def test_t_grading_family_matches_the_substituted_definition():
    rng = random.Random(89)
    tables = [cli.load_input(str(path)).table for path in sorted(FIXTURES.glob("*.json"))]
    tables += [core.random_demimatroid(rng.randint(0, 6), rng) for _ in range(20)]
    for table in tables:
        top = min(table.total_nullity + 1, table.n)
        expected = _family_by_substitution(table, top)
        assert hamming.generalized_w_all(table) == tuple(expected[:table.total_nullity + 1])
        assert [subset_route(table, r) for r in range(top + 1)] == expected


def test_the_definition_on_t_powers_is_the_q_binomial():
    # The q-binomial theorem: the definition of W^(r) sends t^e to [e, r]_t,
    # which is zero for e < r.
    for e in range(core.GROUND_SET_CAP + 1):
        for r in range(core.GROUND_SET_CAP + 1):
            expected = q_binomial(e, r) if r <= e else LaurentPoly()
            assert hamming._definition_at_t_power(r, e) == expected, (r, e)


def test_generalized_w_all_computes_w_once(monkeypatch, vamos):
    calls = {}
    count_calls(monkeypatch, hamming, "hamming_subset_sum", calls)
    family = hamming.generalized_w_all(vamos)
    assert calls == {"hamming_subset_sum": 1}
    monkeypatch.undo()
    assert family == tuple(hamming.generalized_w(vamos, r)
                           for r in range(vamos.total_nullity + 1))


def test_coefficients_on_fixtures_are_ints():
    # every fixture loads to a demimatroid table
    for path in sorted(FIXTURES.glob("*.json")):
        table = cli.load_input(str(path)).table
        polys = [hamming.hamming_subset_sum(table), tutte.tutte(table),
                 hamming.macwilliams(table), *hamming.generalized_w_all(table)]
        for p in polys:
            assert all(type(c) is int for c in p.terms().values()), (path.name, str(p))


def test_generalized_w_zero_route(full23):
    assert subset_route(full23, 0) == monomial(1, x=3)
    assert "t" not in subset_route(full23, 0).variables()


def test_conjecture_on_fixtures(
    full23, code63a_matrix, code63b_matrix, hamming74_matrix
):
    for table in (
        full23,
        codes.parity_matroid(code63a_matrix),
        codes.parity_matroid(code63b_matrix),
        codes.parity_matroid(hamming74_matrix),
    ):
        assert hamming.conjecture_check(table) == hamming.ConjectureReport(True)


def test_conjecture_census_random():
    # The recovery identity is a theorem, so its route returns on every sample.
    rng = random.Random(73)
    for _ in range(25):
        table = core.random_demimatroid(5, rng)
        assert hamming.conjecture_check(table) == hamming.ConjectureReport(True), table.ranks


def test_the_recovery_identity_is_a_theorem():
    # Counting the linear maps F_q^e -> F_q^m by the dimension r of their
    # image gives u^e = sum_{r <= e} [e, r]_q prod_{j<r} (u - q^j) at every
    # u = q^m, hence as polynomials (u is x here).  A subset of nullity e
    # adds (x-1)^(k-|X|) u^e to T and the same times the sum over
    # r <= min(e, eta(E)) to the recovery sum, so the identity holds exactly
    # when no nullity exceeds eta(E): without its r = e term the sum differs.
    for e in range(21):
        terms, product = [], one()
        for r in range(e + 1):
            terms.append(q_binomial(e, r) * product)
            product = product * (X - monomial(1, t=r))
        assert poly_sum(terms) == X ** e, e
        if e:
            assert poly_sum(terms[:-1]) != X ** e, e


def test_kind_preconditions():
    bad = core.RankTable.build(2, [0, 0, 0, 2])
    with pytest.raises(KindError):
        hamming.generalized_w(bad, 1)
    with pytest.raises(MalformedInputError):  # the definition is its only route
        hamming.generalized_w(core.uniform(3, 1), 1, route="subset")
    with pytest.raises(KindError):
        hamming.macwilliams(bad)


# -- route disagreements name their witness ---------------------------------------
# Each test corrupts one route by monkeypatch; the error names the invariant,
# the route pair and the first differing monomial in display order (q, t, y,
# then x exponents ascending), with both routes' coefficients.


def test_tutte_route_disagreement_names_the_first_monomial(monkeypatch, full23):
    extra = monomial(1, y=3, t=4) + monomial(5, x=3, t=4)
    fault = ref.counts_plus(lambda table: extra)
    monkeypatch.setattr(tutte, "corank_nullity_counts", fault(tutte.corank_nullity_counts))
    with pytest.raises(InvariantViolationError) as exc:
        hamming.hamming_via_tutte(full23)
    assert str(exc.value) == (
        "W: the Tutte and subset-sum routes disagree first at x^3*t^4 (5 against 0)"
    )


def test_pj_route_disagreement_names_the_first_monomial(monkeypatch, full23):
    original = hamming.pj_family

    def corrupted(table):
        *rest, top = original(table)
        return (*rest, top + monomial(1, t=7))

    monkeypatch.setattr(hamming, "pj_family", corrupted)
    with pytest.raises(InvariantViolationError) as exc:
        hamming.w_from_pj(full23)
    assert str(exc.value) == (
        "W: the P_j and subset-sum routes disagree first at y^3*t^7 (1 against 0)"
    )


def test_the_pj_route_reads_the_table_not_its_profile(monkeypatch):
    # One singleton counted at the next rank: the subset sum and the Tutte
    # route read the same wrong profile and agree, but the P_j route counts
    # the table's nullities itself and sees it.
    original = core._size_rank_profile

    def shifted(n, ranks):
        counts = dict(original(n, ranks))
        counts[1, 1] -= 1
        counts[1, 2] = counts.get((1, 2), 0) + 1
        return core._FrozenCounts(counts)

    monkeypatch.setattr(core, "_size_rank_profile", shifted)
    table = core.uniform(3, 2)
    with pytest.raises(InvariantViolationError) as exc:
        hamming.w_from_pj(table)
    assert str(exc.value) == (
        "W: the P_j and subset-sum routes disagree first at x^2*y*t^-1 (0 against 1)"
    )
    assert hamming.hamming_via_tutte(table) == hamming.hamming_subset_sum(table)


def test_macwilliams_disagreement_names_the_first_monomial(monkeypatch, full23):
    monkeypatch.setattr(hamming, "macwilliams_coordinates",
                        ref.minus_x2_y_t_minus_3(hamming.macwilliams_coordinates))
    with pytest.raises(InvariantViolationError) as exc:
        hamming.macwilliams(full23)
    assert str(exc.value) == (
        "W of the dual: the MacWilliams and dual subset-sum routes disagree first"
        " at x^2*y*t^-3 (-1 against 0)"
    )
