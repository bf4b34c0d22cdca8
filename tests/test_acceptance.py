"""Acceptance gate: every criterion below runs at zero tolerance (exact
arithmetic, byte-exact canonical strings) and prints one PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s`.
"""

import random
from contextlib import contextmanager

from demimat import codes, core, hamming, ops, simplicial, tutte, weights
from demimat.poly import LaurentPoly, T, X, Y

import conftest as ref
from oracles import nullity, tutte_recurrence

F2 = simplicial.FieldSpec(2)
F3 = simplicial.FieldSpec(3)
Q = simplicial.RATIONALS


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


def canon(poly):
    return str(poly)


def all_table_fixtures():
    return [
        ref.table_from_labels(3, ref.FULL23_RHO),
        ref.table_from_labels(3, ref.TWO_BASIS_RHO),
        ref.table_from_labels(4, ref.FIVE_BASIS_RHO),
        core.uniform(3, 1),
        core.uniform(4, 2),
        core.complex_to_demimatroid(
            core.Complex.from_facet_lists(6, [list(e) for e in ref.ALMOST_WHEEL_EDGES])
        ),
        core.complex_to_demimatroid(
            core.Complex.from_facet_lists(6, ref.ALMOST_WHEEL_IND_FACETS)
        ),
        core.complex_to_demimatroid(
            core.Complex.from_facet_lists(6, ref.PROJECTIVE_PLANE_FACETS)
        ),
        codes.parity_matroid(codes.PrimeMatrix.build(2, ref.HAMMING84_ROWS)),
        codes.parity_matroid(codes.PrimeMatrix.build(2, ref.CODE63A_ROWS)),
        codes.parity_matroid(codes.PrimeMatrix.build(2, ref.CODE63B_ROWS)),
        codes.parity_matroid(codes.PrimeMatrix.build(2, ref.HAMMING74_ROWS)),
        ref.vamos_table(),
    ]


def test_criterion_01_operator_tables(two_basis, five_basis, full23):
    with criterion(1, "operator tables and the four-group"):
        rows = [
            (two_basis, 3, ref.TWO_BASIS_DUAL, ref.TWO_BASIS_NULL, ref.TWO_BASIS_SUPP),
            (five_basis, 4, ref.FIVE_BASIS_DUAL, ref.FIVE_BASIS_NULL, ref.FIVE_BASIS_SUPP),
            (full23, 3, ref.FULL23_DUAL, ref.FULL23_NULL, ref.FULL23_SUPP),
        ]
        for table, n, dual_row, null_row, supp_row in rows:
            assert ops.dual(table).ranks == ref.ranks_from_labels(n, dual_row)
            assert ops.nullity_operator(table).ranks == ref.ranks_from_labels(n, null_row)
            assert ops.supplement(table).ranks == ref.ranks_from_labels(n, supp_row)
        for table in (two_basis, five_basis, full23):
            for a in ops.OPERATORS:
                for b in ops.OPERATORS:
                    ops.compose_check(a, b, table)  # raises on a mismatch


def test_criterion_02_wei_data(five_basis, full23):
    with criterion(2, "Wei hierarchies, dualities, Singleton bounds"):
        # printed hierarchy table of the n=4 matroid (nullity-stratified rows)
        assert weights.generalized_hamming_weights(five_basis) == (2, 4)
        assert weights.generalized_hamming_weights(ops.dual(five_basis)) == (2, 4)
        assert weights.generalized_hamming_weights(ops.nullity_operator(five_basis)) == (1, 2)
        assert weights.generalized_hamming_weights(ops.supplement(five_basis)) == (1, 2)
        # printed hierarchy table of the full rank-2 demimatroid (rank-stratified)
        assert weights.wei_hierarchy(full23).d == (2, 3)
        assert weights.wei_hierarchy(ops.dual(full23)).d == (3,)
        assert weights.wei_hierarchy(ops.nullity_operator(full23)).d == (1,)
        assert weights.wei_hierarchy(ops.supplement(full23)).d == (1, 2)

        samples = all_table_fixtures()
        rng = random.Random(2026)
        samples += [core.random_demimatroid(rng.randint(1, 6), rng) for _ in range(100)]
        for table in samples:
            assert weights.check_wei_duality(table)
            profile = weights.wei_hierarchy(table)
            n, k = table.n, table.rank
            assert all(k + d <= n + r for r, d in enumerate(profile.d, start=1))
            assert all(k + d <= n + r for r, d in enumerate(profile.d_up))


def test_criterion_03_tutte(full23, almost_wheel, almost_wheel_ind, hamming84,
                            projective_plane, vamos):
    with criterion(3, "printed Tutte polynomials and deletion-contraction"):
        pairs = [
            (full23, ref.full23_tutte()),
            (almost_wheel, ref.almost_wheel_tutte()),
            (almost_wheel_ind, ref.almost_wheel_ind_tutte()),
            (hamming84, ref.hamming84_tutte()),
            (projective_plane, ref.projective_plane_tutte()),
            (vamos, ref.vamos_tutte()),
            (core.uniform(3, 1), ref.uniform31_tutte()),
            (core.uniform(4, 2), ref.uniform42_tutte()),
        ]
        for table, expected in pairs:
            assert canon(tutte.tutte(table)) == canon(expected)
        # the worked deletion-contraction identity, term for term
        p = core.mask_of([3], 3)
        left = tutte.tutte(ops.delete(full23, p))
        right = tutte.tutte(ops.contract(full23, p))
        assert canon(left) == canon(-X - Y + 2 * X * Y)
        assert canon(right) == canon(X**2)
        assert canon((X - 1) * left + (Y - 1) * right) == canon(ref.full23_tutte())
        assert canon(tutte_recurrence(full23, 3)) == canon(ref.full23_tutte())


def test_criterion_04_hamming(full23, almost_wheel, almost_wheel_ind, hamming84,
                              projective_plane, vamos):
    with criterion(4, "printed Hamming polynomials and the three routes"):
        pairs = [
            (full23, ref.full23_hamming()),
            (almost_wheel, ref.almost_wheel_hamming()),
            (almost_wheel_ind, ref.almost_wheel_ind_hamming()),
            (hamming84, ref.hamming84_hamming()),
            (projective_plane, ref.projective_plane_hamming()),
            (vamos, ref.vamos_hamming()),
            (core.uniform(3, 1), ref.uniform31_hamming()),
            (core.uniform(4, 2), ref.uniform42_hamming()),
        ]
        for table, expected in pairs:
            subset = hamming.hamming_subset_sum(table)
            assert canon(subset) == canon(expected)
            assert canon(hamming.hamming_via_tutte(table)) == canon(expected)
            assert canon(simplicial.w_via_betti(table, Q)) == canon(expected)
        # the worked recurrence identity
        p = core.mask_of([3], 3)
        w_del = hamming.hamming_subset_sum(ops.delete(full23, p))
        w_con = hamming.hamming_subset_sum(ops.contract(full23, p))
        assert canon(w_del) == canon(X**2 + 2 * (T - 1) * X * Y + (1 - T) * Y**2)
        assert canon(w_con) == canon(X**2)
        assert canon((X - Y) * w_del + T * Y * w_con) == canon(ref.full23_hamming())


def test_criterion_05_macwilliams_and_equivalence():
    with criterion(5, "MacWilliams identity and Tutte recovery"):
        rng = random.Random(55)
        samples = all_table_fixtures()
        samples += [core.random_demimatroid(rng.randint(1, 6), rng) for _ in range(50)]
        for table in samples:
            star = hamming.macwilliams(table)
            assert star == hamming.hamming_subset_sum(ops.dual(table))
            assert hamming.tutte_from_hamming(table) == tutte.tutte(table)


def test_criterion_06_betti_tables(almost_wheel, almost_wheel_ind, hamming84,
                                   projective_plane):
    with criterion(6, "printed Betti tables over Q, F2, F3"):
        assert [
            canon(bt.poly()) for bt in simplicial.betti_of_elongations(almost_wheel, Q)
        ] == [canon(b) for b in ref.ALMOST_WHEEL_BETTI]
        assert [
            canon(bt.poly())
            for bt in simplicial.betti_of_elongations(almost_wheel_ind, Q)
        ] == [canon(b) for b in ref.ALMOST_WHEEL_IND_BETTI]
        assert [
            canon(bt.poly()) for bt in simplicial.betti_of_elongations(hamming84, Q)
        ] == [canon(b) for b in ref.HAMMING84_BETTI]
        path = core.Complex.from_facet_lists(5, ref.PATH_IND_FACETS)
        assert canon(simplicial.betti_of_elongations(core.complex_to_demimatroid(path), Q)[0].poly()) == canon(
            ref.PATH_IND_BETTI_R0
        )
        char2 = simplicial.betti_of_elongations(projective_plane, F2)
        char3 = simplicial.betti_of_elongations(projective_plane, F3)
        assert [canon(bt.poly()) for bt in char2] == [
            canon(b) for b in ref.PROJECTIVE_PLANE_BETTI_CHAR2
        ]
        assert [canon(bt.poly()) for bt in char3] == [
            canon(b) for b in ref.PROJECTIVE_PLANE_BETTI_CHAR3
        ]
        assert char2[0] != char3[0]  # they must differ exactly as printed
        same_w = hamming.hamming_subset_sum(projective_plane)
        assert simplicial.w_via_betti(projective_plane, F2) == same_w
        assert simplicial.w_via_betti(projective_plane, F3) == same_w


def test_criterion_07_f_polynomial(chain_complex):
    with criterion(7, "f-polynomial by face counts and the enumerator route"):
        expected = T**3 + 5 * T**2 + 6 * T + 2
        assert canon(tutte.f_polynomial(chain_complex)) == canon(expected)
        assert canon(tutte.f_polynomial_via_hamming(chain_complex)) == canon(expected)
        assert canon(tutte.f_polynomial_via_tutte(chain_complex)) == canon(expected)


def test_criterion_08_generalized_enumerators(full23):
    with criterion(8, "generalized enumerators and the recovery identity"):
        code_fixtures = [
            (ref.CODE63A_ROWS, ref.code63a_wr(), ref.code63a_tutte()),
            (ref.CODE63B_ROWS, ref.code63b_wr(), ref.code63b_tutte()),
            (ref.HAMMING74_ROWS, ref.hamming74_wr(), ref.hamming74_tutte()),
        ]
        for rows, expected_wr, expected_t in code_fixtures:
            table = codes.parity_matroid(codes.PrimeMatrix.build(2, rows))
            got = hamming.generalized_w_all(table)
            assert [canon(w) for w in got] == [canon(w) for w in expected_wr]
            assert canon(tutte.tutte(table)) == canon(expected_t)
            assert hamming.conjecture_check(table) == hamming.ConjectureReport(True)
        # the rank-2 demimatroid: definition-based values, the displayed
        # (x-y)^3 multiples, and the symbolic recovery identity
        family = hamming.generalized_w_all(full23)  # W^(2) is zero above eta(E) = 1
        w0, w1, w2 = (family[r] if r < len(family) else LaurentPoly() for r in range(3))
        assert canon(w0) == canon(X**3)
        assert canon(w1) == canon(3 * X**2 * Y - 3 * X * Y**2 + Y**3)
        assert w2.is_zero
        cube = (X - Y) ** 3
        assert canon(cube * w0) == canon((X - Y) ** 3 * X**3)
        assert canon(cube * w1) == canon(
            (X - Y) ** 3 * Y * (3 * X**2 - 3 * X * Y + Y**2)
        )
        assert hamming.conjecture_check(full23) == hamming.ConjectureReport(True)


def test_criterion_09_elongations(almost_wheel):
    with criterion(9, "elongation laws"):
        rng = random.Random(99)
        samples = all_table_fixtures()
        samples += [core.random_demimatroid(rng.randint(1, 6), rng) for _ in range(100)]
        for table in samples:
            eta = table.total_nullity
            assert ops.elongate(table, eta).ranks == ops.lattice_top(table.n).ranks
            for i in range(1, eta + 1):
                stepped = table
                for _ in range(i):
                    stepped = ops.elongate(stepped, 1)
                assert stepped.ranks == ops.elongate(table, i).ranks
            for i in range(eta + 1):
                elongated = ops.elongate(table, i)
                for mask in range(table.full + 1):
                    assert (nullity(elongated, mask) == 0) == (nullity(table, mask) <= i)
            for r in range(eta):
                assert (weights.min_size_at_nullity(table, r + 1)
                        == weights.min_size_at_nullity(ops.elongate(table, r), 1))
        # the wheel-like fixture's elongation family feeds the printed Betti data
        assert almost_wheel.total_nullity == 4


def test_criterion_10_code_agreement():
    with criterion(10, "code weight hierarchies agree with the parity matroid"):
        for rows in (ref.HAMMING84_ROWS, ref.CODE63A_ROWS, ref.CODE63B_ROWS,
                     ref.HAMMING74_ROWS):
            matrix = codes.PrimeMatrix.build(2, rows)
            code = codes.LinearCodeView.from_parity(matrix)
            table = codes.parity_matroid(matrix)
            hierarchy = weights.generalized_hamming_weights(table)
            assert len(hierarchy) == code.k
            for r in range(1, code.k + 1):
                assert codes.code_ghw_bruteforce(code, r) == hierarchy[r - 1]
