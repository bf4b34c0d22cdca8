"""Prime-field linear algebra, parity matroids, and code-side oracles.

Only prime fields are supported; the q of the generalized enumerators is a
formal variable, so no extension-field arithmetic is ever needed here.

A parity matroid's rank table comes from counting vectors, not from
eliminations (Greene 1976; Jurrius-Pellikaan 2013).  For the code
C = ker H, #{c in C : supp(c) ⊆ X} = p^(|X| - rank X); for the row space
R of H, #{v in R : v vanishes on X} = p^(rank H - rank X).  Whichever of
the two spaces has fewer vectors is enumerated once, the support masks are
histogrammed, and one zeta transform gives every count; ``rref_mod_p`` per
mask is left as the fallback when both spaces exceed ``SUBSPACE_ENUM_CAP``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Sequence

from . import weights
from ._linalg import is_prime, rref_mod_p
from .core import RankTable, _check_cap, popcount, subset_transform
from .errors import InvariantViolationError, MalformedInputError, SizeCapError

SUBSPACE_ENUM_CAP = 1 << 20


@dataclass(frozen=True)
class PrimeMatrix:
    """A matrix over F_p with entries reduced mod p."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, p: int, rows: Iterable[Sequence[int]]) -> "PrimeMatrix":
        if not is_prime(p):
            raise MalformedInputError(f"{p} is not prime")
        reduced = tuple(tuple(int(v) % p for v in row) for row in rows)
        if reduced and any(len(r) != len(reduced[0]) for r in reduced):
            raise MalformedInputError("rows must have equal length")
        return cls(p, reduced)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def columns(self, mask: int) -> list[list[int]]:
        idx = [i for i in range(self.n_cols) if mask & (1 << i)]
        return [[row[i] for i in idx] for row in self.rows]

    def rank(self) -> int:
        return len(rref_mod_p(self.rows, self.p)[1])


def parity_matroid(matrix: PrimeMatrix) -> RankTable:
    """rho(X) = rank of the columns of the check matrix indexed by X.

    The counts are read from ker H when p^k <= p^(rank H), else from the row
    space of H (see the module docstring).  A count that is not a power of p
    raises ``InvariantViolationError``.
    """
    n, p = matrix.n_cols, matrix.p
    _check_cap(n)  # before any enumeration or elimination
    rref, pivots = rref_mod_p(matrix.rows, p)
    rank = len(pivots)
    if p ** min(rank, n - rank) > SUBSPACE_ENUM_CAP:
        ranks = [len(rref_mod_p(matrix.columns(m), p)[1]) for m in range(1 << n)]
        return RankTable.build(n, ranks)
    if n - rank <= rank:
        nullities = _log_p(_subspace_counts(nullspace_basis(matrix), n, p), p)
        ranks = list(map(operator.sub, map(int.bit_count, range(1 << n)), nullities))
    else:
        # Vanishing on X means a support inside the complement, full ^ X.
        coranks = _log_p(_subspace_counts(rref[:rank], n, p), p)
        ranks = [rank - c for c in reversed(coranks)]
    return RankTable.build(n, ranks)


def _subspace_counts(basis: Sequence[Sequence[int]], n: int, p: int) -> list[int]:
    """#{v in span(basis) : supp(v) ⊆ X} for every mask X.

    The p^len(basis) vectors are listed once and their supports histogrammed;
    one zeta transform sums the histogram over the subsets of each X.
    """
    vectors: list[Sequence[int]] = [[0] * n]
    for row in basis:
        vectors = [[(a + c * b) % p for a, b in zip(v, row)] for c in range(p) for v in vectors]
    bits = [1 << i for i in range(n)]
    histogram = [0] * (1 << n)
    for v in vectors:
        histogram[sum(bit for bit, a in zip(bits, v) if a)] += 1
    return subset_transform(histogram, operator.add)


def _log_p(counts: Sequence[int], p: int) -> list[int]:
    """The exact base-p logarithm of every count."""
    logs = {p ** e: e for e in range(len(counts).bit_length())}
    try:
        return [logs[c] for c in counts]
    except KeyError as exc:
        raise InvariantViolationError(
            f"a subspace count {exc.args[0]} is not a power of {p}"
        ) from None


def nullspace_basis(matrix: PrimeMatrix) -> list[list[int]]:
    """A basis of the right null space over F_p (rows of a generator matrix)."""
    p = matrix.p
    n = matrix.n_cols
    rref, pivots = rref_mod_p(matrix.rows, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rref[r][f]) % p
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class LinearCodeView:
    """An [n, k] code over F_p presented by a generator matrix."""

    p: int
    n: int
    k: int
    generator: tuple[tuple[int, ...], ...]

    @classmethod
    def from_parity(cls, matrix: PrimeMatrix) -> "LinearCodeView":
        gen = nullspace_basis(matrix)
        return cls(
            matrix.p,
            matrix.n_cols,
            matrix.n_cols - matrix.rank(),
            tuple(tuple(row) for row in gen),
        )


def _rref_representatives(k: int, r: int, p: int):
    """All r x k reduced-row-echelon matrices of rank r over F_p.

    Each r-dimensional subspace of F_p^k has exactly one such basis, so the
    enumeration is duplicate-free.
    """
    for pivots in combinations(range(k), r):
        pivot_set = set(pivots)
        free_cells = [
            (i, j)
            for i in range(r)
            for j in range(pivots[i] + 1, k)
            if j not in pivot_set
        ]
        for values in product(range(p), repeat=len(free_cells)):
            mat = [[0] * k for _ in range(r)]
            for i, col in enumerate(pivots):
                mat[i][col] = 1
            for (i, j), v in zip(free_cells, values):
                mat[i][j] = v
            yield mat


def code_ghw_bruteforce(code: LinearCodeView, r: int) -> int:
    """r-th generalized Hamming weight by enumerating all r-dim subspaces.

    The support of a subspace is the union of the supports of any basis of
    it, so each subspace costs one r x n matrix product.
    """
    if not 1 <= r <= code.k:
        raise MalformedInputError(f"need 1 <= r <= {code.k}, got {r}")
    if code.p ** code.k > SUBSPACE_ENUM_CAP:
        raise SizeCapError(
            f"p^k = {code.p ** code.k} exceeds the enumeration cap {SUBSPACE_ENUM_CAP}"
        )
    p = code.p
    best = code.n + 1
    for coeffs in _rref_representatives(code.k, r, p):
        support = 0
        for row in coeffs:
            word = [0] * code.n
            for c, gen_row in zip(row, code.generator):
                if c:
                    word = [(w + c * g) % p for w, g in zip(word, gen_row)]
            for pos, w in enumerate(word):
                if w:
                    support |= 1 << pos
        weight = popcount(support)
        if weight < best:
            best = weight
    return best


def weight_hierarchy_agreement(matrix: PrimeMatrix) -> bool:
    """The code's brute-force hierarchy matches the parity matroid's.

    The matroid side is the parity matroid's generalized Hamming weights,
    read off its size-rank profile; a dimension-0 code agrees vacuously.
    """
    code = LinearCodeView.from_parity(matrix)
    if code.k == 0:
        return True
    matroid_side = weights.generalized_hamming_weights(parity_matroid(matrix))
    for r in range(1, code.k + 1):
        if code_ghw_bruteforce(code, r) != matroid_side[r - 1]:
            return False
    return True
