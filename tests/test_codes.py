import random
import time
from itertools import combinations, product
from math import prod

import pytest

from demimat import codes, core, hamming, ops, simplicial, tutte, weights
from demimat._linalg import is_prime, rref_mod_p
from demimat.errors import InvariantViolationError, MalformedInputError, SizeCapError
from demimat.poly import T, X, Y, one

from conftest import CODE63A_ROWS, CODE63B_ROWS, HAMMING74_ROWS, HAMMING84_ROWS, record_calls
from oracles import elements_of, rank_table_by_elimination


def bases_of(table):
    k = table.rank
    return {
        elements_of(m)
        for m in range(table.full + 1)
        if core.popcount(m) == k and table.ranks[m] == k
    }


def test_primality_is_exact_and_bounded():
    assert [p for p in range(-3, 60) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    # strong pseudoprimes to the first several prime bases
    for composite in (3215031751, 2152302898747, 3474749660383, 341550071728321,
                      3825123056546413051):
        assert not is_prime(composite)
    assert is_prime((1 << 64) - 59)
    start = time.process_time()
    matrix = codes.PrimeMatrix.build(10000000000000061, [[1]])
    assert simplicial.FieldSpec(10000000000000061).characteristic == matrix.p
    assert time.process_time() - start < 0.1
    with pytest.raises(MalformedInputError, match="2\\^64"):
        codes.PrimeMatrix.build(18446744073709551629, [[1]])  # the first prime above 2^64


def test_prime_matrix_validation():
    with pytest.raises(MalformedInputError):
        codes.PrimeMatrix.build(4, [[1, 0]])
    with pytest.raises(MalformedInputError):
        codes.PrimeMatrix.build(2, [[1, 0], [1]])
    m = codes.PrimeMatrix.build(3, [[4, -1]])
    assert m.rows == ((1, 2),)


def test_parity_matroid_bases_code_a(code63a_matrix):
    table = codes.parity_matroid(code63a_matrix)
    assert table.kind == core.MATROID
    assert bases_of(table) == {
        (1, 4, 5), (1, 4, 6), (1, 5, 6), (2, 4, 5), (2, 4, 6),
        (2, 5, 6), (3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6),
    }


def test_parity_matroid_bases_code_b(code63b_matrix):
    table = codes.parity_matroid(code63b_matrix)
    assert bases_of(table) == {
        (1, 2, 3), (1, 2, 6), (1, 3, 5), (1, 5, 6),
        (2, 3, 4), (2, 4, 6), (3, 4, 5), (4, 5, 6),
    }


def test_parity_matroid_rank_bound(hamming84_matrix):
    table = codes.parity_matroid(hamming84_matrix)
    for mask in range(table.full + 1):
        assert table.ranks[mask] <= min(core.popcount(mask), len(hamming84_matrix.rows))


def _oracle_cases():
    rng = random.Random(17)
    cases = [
        (2, []),  # no rows and no columns
        (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),  # full column rank: k = 0
        (3, [[0, 0, 0, 0]]),  # a zero row: the whole space is the code
        (5, [[1, 1, 2, 2, 0], [3, 3, 0, 0, 1]]),  # repeated columns
        (2, HAMMING84_ROWS),
    ]
    for p in (2, 3, 5):
        for n in range(1, 8):
            for n_rows in (1, n // 2, n, n + 1):
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(max(n_rows, 1))]
                cases.append((p, rows))
    return cases


def test_parity_matroid_matches_elimination_per_mask(monkeypatch):
    # Every matrix is counted on the smaller of ker H and the row space, and
    # both sides occur.
    spaces = []
    subspace_counts = codes._subspace_counts

    def spy(basis, n, p):
        spaces.append(len(basis))
        return subspace_counts(basis, n, p)

    monkeypatch.setattr(codes, "_subspace_counts", spy)
    sides = set()
    for p, rows in _oracle_cases():
        matrix = codes.PrimeMatrix.build(p, rows)
        rank, n = len(matrix.echelon[1]), matrix.n_cols
        assert codes.parity_matroid(matrix).ranks == rank_table_by_elimination(matrix)
        assert spaces.pop() == min(rank, n - rank)
        sides.add(n - rank <= rank)
    assert sides == {True, False}


def test_parity_matroid_falls_back_to_elimination_above_the_cap(monkeypatch):
    eliminations = record_calls(monkeypatch, codes, "rref_mod_p", lambda rows, p: len(rows))
    monkeypatch.setattr(codes, "SUBSPACE_ENUM_CAP", 0)
    for p, rows in _oracle_cases()[:12]:
        matrix = codes.PrimeMatrix.build(p, rows)
        eliminations.clear()
        assert codes.parity_matroid(matrix).ranks == rank_table_by_elimination(matrix)
        assert len(eliminations) == 1 + (1 << matrix.n_cols)


def test_a_count_off_the_powers_of_p_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(codes, "subset_transform", lambda values, combine: [1] + [3] * (
        len(values) - 1))
    with pytest.raises(InvariantViolationError, match="count 3 is not a power of 2"):
        codes.parity_matroid(codes.PrimeMatrix.build(2, HAMMING84_ROWS))


def _random_invertible(rng, size, p):
    while True:
        mat = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        if len(rref_mod_p(mat, p)[1]) == size:
            return mat


def test_parity_matroid_row_operation_invariance():
    rng = random.Random(101)
    for rows in (CODE63A_ROWS, CODE63B_ROWS, HAMMING74_ROWS, HAMMING84_ROWS):
        matrix = codes.PrimeMatrix.build(2, rows)
        reference = codes.parity_matroid(matrix).ranks
        for _ in range(10):
            u = _random_invertible(rng, len(rows), 2)
            transformed = [
                [
                    sum(u[i][k] * rows[k][j] for k in range(len(rows))) % 2
                    for j in range(len(rows[0]))
                ]
                for i in range(len(rows))
            ]
            assert codes.parity_matroid(codes.PrimeMatrix.build(2, transformed)).ranks \
                == reference


def test_nullspace_basis_annihilates(hamming84_matrix):
    gen = codes.nullspace_basis(hamming84_matrix)
    assert len(gen) == 4
    for vec in gen:
        for row in hamming84_matrix.rows:
            assert sum(a * b for a, b in zip(row, vec)) % 2 == 0


def test_code_view(hamming84_matrix):
    code = codes.LinearCodeView.from_parity(hamming84_matrix)
    assert (code.n, code.k, code.p) == (8, 4, 2)


def brute_force_codewords(code):
    words = set()
    for coeffs in product(range(code.p), repeat=code.k):
        word = [0] * code.n
        for c, row in zip(coeffs, code.generator):
            word = [(w + c * g) % code.p for w, g in zip(word, row)]
        words.add(tuple(word))
    return words


def test_ghw_r1_is_minimum_weight(hamming84_matrix):
    # oracle: enumerate all nonzero codewords and take the least weight
    code = codes.LinearCodeView.from_parity(hamming84_matrix)
    words = brute_force_codewords(code)
    assert len(words) == 16
    min_weight = min(sum(1 for v in w if v) for w in words if any(w))
    assert min_weight == 4
    assert codes.code_ghw_bruteforce(code, 1) == 4


def test_ghw_full_support(hamming84_matrix):
    code = codes.LinearCodeView.from_parity(hamming84_matrix)
    # the whole code has full support here
    assert codes.code_ghw_bruteforce(code, code.k) == 8


def test_subspace_enumeration_counts():
    # number of r-dim subspaces of F_2^4 is the Gaussian binomial
    expected = {1: 15, 2: 35, 3: 15, 4: 1}
    for r, count in expected.items():
        assert sum(1 for _ in codes._rref_representatives(4, r, 2)) == count


def code_and_matroid_hierarchies(matrix):
    """The code's brute-force generalized Hamming weights, r = 1 .. k, and
    the parity matroid's, read off its size-rank profile."""
    code = codes.LinearCodeView.from_parity(matrix)
    code_side = tuple(codes.code_ghw_bruteforce(code, r) for r in range(1, code.k + 1))
    return code_side, weights.generalized_hamming_weights(codes.parity_matroid(matrix))


def test_weight_hierarchy_agreement_all_fixtures(
    hamming84_matrix, code63a_matrix, code63b_matrix, hamming74_matrix
):
    for matrix in (hamming84_matrix, code63a_matrix, code63b_matrix, hamming74_matrix):
        code_side, matroid_side = code_and_matroid_hierarchies(matrix)
        assert code_side == matroid_side


def test_hierarchy_values(hamming84_matrix):
    code = codes.LinearCodeView.from_parity(hamming84_matrix)
    hierarchy = [codes.code_ghw_bruteforce(code, r) for r in range(1, 5)]
    assert hierarchy == [4, 6, 7, 8]
    table = codes.parity_matroid(hamming84_matrix)
    assert weights.generalized_hamming_weights(table) == (4, 6, 7, 8)


def test_trivial_code_agrees():
    # identity parity check matrix: the code is {0}, k = 0
    matrix = codes.PrimeMatrix.build(2, [[1, 0], [0, 1]])
    assert code_and_matroid_hierarchies(matrix) == ((), ())


def test_ternary_code_agreement():
    matrix = codes.PrimeMatrix.build(3, [[1, 1, 1, 0], [0, 1, 2, 1]])
    code_side, matroid_side = code_and_matroid_hierarchies(matrix)
    assert code_side == matroid_side


def test_enumeration_cap():
    big = codes.LinearCodeView(2, 30, 25, tuple())
    with pytest.raises(SizeCapError):
        codes.code_ghw_bruteforce(big, 1)
    code = codes.LinearCodeView.from_parity(codes.PrimeMatrix.build(2, [[1, 0], [0, 1]]))
    with pytest.raises(MalformedInputError):
        codes.code_ghw_bruteforce(code, 1)  # k = 0 leaves no valid r


# -- values from theorems: Hamming, simplex, Reed-Muller and Golay codes, and M(K_v) ----


def _at_t(poly, t: int) -> dict[tuple[int, int], int]:
    """``poly``'s x^a y^b coefficients with t set to ``t``, term by term."""
    values: dict[tuple[int, int], int] = {}
    for (a, b, e), c in poly.terms().items():
        values[a, b] = values.get((a, b), 0) + c * t ** e
    return {key: c for key, c in values.items() if c}


def _gaussian_binomial_2(m: int, r: int) -> int:
    """[m, r]_2: the number of r-dimensional subspaces of F_2^m."""
    ordered = per_subspace = 1
    for i in range(r):  # ordered bases of r-spaces in F_2^m, and of one r-space
        ordered *= 2 ** m - 2 ** i
        per_subspace *= 2 ** r - 2 ** i
    return ordered // per_subspace


@pytest.fixture(scope="module")
def hamming15():
    """The parity matroid of the Hamming [15,11] code: the check matrix's
    columns are 1..15 in binary."""
    rows = [[j >> i & 1 for j in range(1, 16)] for i in range(4)]
    return codes.parity_matroid(codes.PrimeMatrix.build(2, rows))


def test_the_hamming_15_weight_enumerator_is_its_closed_form(hamming15):
    # The Hamming code of length n = 15: 16 W(x, y, 2) = (x+y)^n + n (x+y)^7 (x-y)^8.
    closed = (X + Y) ** 15 + 15 * (X + Y) ** 7 * (X - Y) ** 8
    w = _at_t(hamming.hamming_subset_sum(hamming15), 2)
    assert {key: 16 * c for key, c in w.items()} == _at_t(closed, 2)


def test_the_simplex_15_4_subcodes_have_the_theorem_supports(hamming15):
    # Every r-dimensional subcode of the simplex code [2^m - 1, m]_2 has
    # support 2^m - 2^(m-r), so W^(r) at q = 2 is
    # [m, r]_2 x^(2^(m-r) - 1) y^(2^m - 2^(m-r)) and d_r = 2^m - 2^(m-r).
    simplex = ops.dual(hamming15)
    family = hamming.generalized_w_all(simplex)
    assert len(family) == 5
    for r, w_r in enumerate(family):
        support = 16 - 2 ** (4 - r)
        assert _at_t(w_r, 2) == {(15 - support, support): _gaussian_binomial_2(4, r)}, r
    assert weights.generalized_hamming_weights(simplex) == (8, 12, 14, 15)


def _code_w(generator: list[list[int]], p: int):
    """W of the code that ``generator`` spans: the parity matroid of a
    generator is the dual code's, so the code's W is its MacWilliams transform."""
    return hamming.macwilliams(codes.parity_matroid(codes.PrimeMatrix.build(p, generator)))


def test_the_reed_muller_1_4_code_has_its_theorem_weights():
    # RM(1,4) is [16,5]_2: the all-ones row and the 4 coordinate rows over
    # the points of F_2^4.  Its dual is RM(2,4), spanned by the monomials of
    # degree <= 2, so RM(2,4)'s parity matroid gives the same W.
    coordinates = [[c >> i & 1 for c in range(16)] for i in range(4)]
    rm14 = [[1] * 16, *coordinates]
    rm24 = rm14 + [[u & v for u, v in zip(a, b)] for a, b in combinations(coordinates, 2)]
    w = _code_w(rm14, 2)
    assert _at_t(w, 2) == {(16, 0): 1, (8, 8): 30, (0, 16): 1}
    assert hamming.hamming_subset_sum(codes.parity_matroid(codes.PrimeMatrix.build(2, rm24))) == w


def test_the_ternary_golay_codes_have_their_theorem_weights():
    # MacWilliams and Sloane, ch. 20: [11,6]_3 is the cyclic code generated by
    # x^5 + x^4 - x^3 + x^2 - 1, and its extension [12,6]_3 adds a parity
    # coordinate that makes each row sum to 0 mod 3.
    g = [-1, 0, 1, -1, 1, 1]  # coefficients of x^0 .. x^5
    golay = [[0] * i + g + [0] * (5 - i) for i in range(6)]
    assert _at_t(_code_w(golay, 3), 3) == {
        (11, 0): 1, (6, 5): 132, (5, 6): 132, (3, 8): 330, (2, 9): 110, (0, 11): 24}
    extended = [row + [-sum(row) % 3] for row in golay]
    assert _at_t(_code_w(extended, 3), 3) == {(12, 0): 1, (6, 6): 264, (3, 9): 440, (0, 12): 24}


@pytest.mark.parametrize("v", [5, 6])
def test_the_complete_graphs_have_their_characteristic_polynomials(v):
    # M(K_v) is the parity matroid of the F_2 vertex-edge incidence matrix
    # (n = 10 and 15); its characteristic polynomial is (t-1)(t-2)...(t-v+1).
    edges = list(combinations(range(v), 2))
    incidence = [[int(u in edge) for edge in edges] for u in range(v)]
    table = codes.parity_matroid(codes.PrimeMatrix.build(2, incidence))
    assert table.n == len(edges)
    assert tutte.characteristic(table) == prod((T - i for i in range(1, v)), start=one())
