import random
import time
from itertools import product

import pytest

from demimat import codes, core, simplicial, weights
from demimat._linalg import is_prime, rref_mod_p
from demimat.errors import InvariantViolationError, MalformedInputError, SizeCapError

from conftest import CODE63A_ROWS, CODE63B_ROWS, HAMMING74_ROWS, HAMMING84_ROWS


def bases_of(table):
    k = table.rank
    return {
        core.elements_of(m)
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


def _rank_table_by_elimination(matrix):
    # The oracle: one elimination per column subset.
    return tuple(len(rref_mod_p(matrix.columns(m), matrix.p)[1])
                 for m in range(1 << matrix.n_cols))


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
        rank, n = matrix.rank(), matrix.n_cols
        assert codes.parity_matroid(matrix).ranks == _rank_table_by_elimination(matrix)
        assert spaces.pop() == min(rank, n - rank)
        sides.add(n - rank <= rank)
    assert sides == {True, False}


def test_parity_matroid_falls_back_to_elimination_above_the_cap(monkeypatch):
    eliminations = []

    def counted(rows, p):
        eliminations.append(len(rows))
        return rref_mod_p(rows, p)

    monkeypatch.setattr(codes, "rref_mod_p", counted)
    monkeypatch.setattr(codes, "SUBSPACE_ENUM_CAP", 0)
    for p, rows in _oracle_cases()[:12]:
        matrix = codes.PrimeMatrix.build(p, rows)
        eliminations.clear()
        assert codes.parity_matroid(matrix).ranks == _rank_table_by_elimination(matrix)
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
