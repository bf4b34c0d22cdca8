"""Prime-field linear algebra, parity matroids, and code-side oracles.

Only prime fields are supported; the q of the generalized enumerators is a
formal variable, so no extension-field arithmetic is ever needed here.

A check matrix H is eliminated once (``PrimeMatrix.echelon``): its rank, the
generator of C = ker H and the parity matroid all read that RREF.  The rank
table is counted, not eliminated (Greene 1976; Jurrius-Pellikaan 2013):
#{c in C : supp(c) ⊆ X} = p^(|X| - rank X), and for the row space R of H,
#{v in R : v vanishes on X} = p^(rank H - rank X).  The smaller space, of
p^m vectors, has its supports listed (``_span_supports``), histogrammed and
zeta-transformed (``_layout.subset_transform``).  Above p^m = 8 * 2^n, where
listing costs more than eliminating every column subset, or above the memory
bound ``SUBSPACE_ENUM_CAP``, ``rref_mod_p`` runs per mask on the RREF's
rows.  The ranks lie in 0..n either way, so ``RankTable.from_view`` makes
the table.  The listing of C also gives every subcode's support: the OR of
the listed supports of its RREF basis (``subcode_support_sizes``).
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, reduce
from itertools import combinations, product

from ._linalg import is_prime, rref_mod_p
from ._records import Frozen, record
from ._layout import mask_sizes, subset_transform
from .core import RankTable, check_cap
from .errors import InvariantViolationError, MalformedInputError, SizeCapError

SUBSPACE_ENUM_CAP = 1 << 20


class PrimeMatrix(Frozen):
    """A matrix over F_p with entries reduced mod p."""

    def __init__(self, p: int, rows: tuple[tuple[int, ...], ...]):
        fields = self.__dict__
        fields["p"], fields["rows"] = p, rows

    @classmethod
    def build(cls, p: int, rows: Iterable[Sequence[int]]) -> "PrimeMatrix":
        if not is_prime(p):
            raise MalformedInputError(f"{p} is not prime")
        reduced = tuple(tuple(int(v) % p for v in row) for row in rows)
        if reduced and any(len(r) != len(reduced[0]) for r in reduced):
            raise MalformedInputError("rows must have equal length")
        return cls(p, reduced)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @cached_property
    def echelon(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The reduced row echelon form and pivot columns, eliminated once."""
        rref, pivots = rref_mod_p(self.rows, self.p)
        return tuple(map(tuple, rref)), tuple(pivots)

    def columns(self, mask: int) -> list[list[int]]:
        idx = [i for i in range(self.n_cols) if mask & (1 << i)]
        return [[row[i] for i in idx] for row in self.rows]


def parity_matroid(matrix: PrimeMatrix) -> RankTable:
    """rho(X) = rank of the columns of the check matrix indexed by X.

    Counted on the smaller of ker H and the row space of H, or eliminated per
    mask (see the module docstring); a count off the powers of p raises
    ``InvariantViolationError``.
    """
    n, p = matrix.n_cols, matrix.p
    check_cap(n)  # before any enumeration or elimination
    rref, pivots = matrix.echelon
    rank = len(pivots)
    if p ** min(rank, n - rank) > min(SUBSPACE_ENUM_CAP, 8 << n):
        reduced = PrimeMatrix(p, rref[:rank])  # the same column ranks, in rank rows
        ranks = [len(rref_mod_p(reduced.columns(m), p)[1]) for m in range(1 << n)]
        return RankTable.from_view(n, bytes(ranks))
    if n - rank <= rank:
        nullities = _log_p(_subspace_counts(nullspace_basis(matrix), n, p), p)
        ranks = list(map(operator.sub, mask_sizes(n), nullities))
    else:
        # Vanishing on X means a support inside the complement, full ^ X.
        coranks = _log_p(_subspace_counts(rref[:rank], n, p), p)
        ranks = [rank - c for c in reversed(coranks)]
    return RankTable.from_view(n, bytes(ranks))


def _span_supports(basis: Sequence[Sequence[int]], n: int, p: int) -> list[int]:
    """The support mask of every vector of span(basis), at the index that
    reads its coefficient vector in base p (row 0 the lowest digit)."""
    vectors: list[Sequence[int]] = [[0] * n]
    for row in basis:
        vectors = [[(a + c * b) % p for a, b in zip(v, row)] for c in range(p) for v in vectors]
    bits = [1 << i for i in range(n)]
    return [sum(bit for bit, a in zip(bits, v) if a) for v in vectors]


def _subspace_counts(basis: Sequence[Sequence[int]], n: int, p: int) -> list[int]:
    """#{v in span(basis) : supp(v) ⊆ X} for every mask X: the listed
    supports histogrammed, then one zeta transform over the subsets of X."""
    histogram = [0] * (1 << n)
    for support in _span_supports(basis, n, p):
        histogram[support] += 1
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
    rref, pivots = matrix.echelon
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rref[r][f]) % p
        basis.append(vec)
    return basis


class LinearCodeView(record("LinearCodeView", "p n k generator")):
    """An [n, k] code over F_p presented by a generator matrix."""

    __slots__ = ()

    @classmethod
    def from_parity(cls, matrix: PrimeMatrix) -> "LinearCodeView":
        gen = tuple(map(tuple, nullspace_basis(matrix)))
        return cls(matrix.p, matrix.n_cols, len(gen), gen)


def _rref_representatives(k: int, r: int, p: int) -> Iterator[tuple[int, ...]]:
    """All r x k reduced-row-echelon matrices of rank r over F_p, as their rows
    read in base p (column 0 the lowest digit): one per r-dimensional subspace
    of F_p^k.  A row is 1 at its pivot, 0 before it and at the other pivots.
    """
    for pivots in combinations(range(k), r):
        rows = []
        for pivot in pivots:
            values = [p ** pivot]
            for j in range(pivot + 1, k):
                if j not in pivots:
                    values = [v + c * p ** j for c in range(p) for v in values]
            rows.append(values)
        yield from product(*rows)


def subcode_support_sizes(code: LinearCodeView, r: int) -> dict[int, int]:
    """{w: A_w^(r)}: the number of r-dimensional subcodes with support size w.

    Each subcode's support is the OR of its RREF rows' listed supports.
    """
    if not 0 <= r <= code.k:
        raise MalformedInputError(f"need 0 <= r <= {code.k}, got {r}")
    if (size := code.p ** code.k) > SUBSPACE_ENUM_CAP:
        raise SizeCapError(f"p^k = {size} exceeds the enumeration cap {SUBSPACE_ENUM_CAP}")
    supports = _span_supports(code.generator, code.n, code.p).__getitem__
    return dict(Counter(
        reduce(operator.or_, map(supports, rows), 0).bit_count()
        for rows in _rref_representatives(code.k, r, code.p)
    ))


def code_ghw_bruteforce(code: LinearCodeView, r: int) -> int:
    """r-th generalized Hamming weight: the least support size of an
    r-dimensional subcode."""
    if not 1 <= r <= code.k:
        raise MalformedInputError(f"need 1 <= r <= {code.k}, got {r}")
    return min(subcode_support_sizes(code, r))
