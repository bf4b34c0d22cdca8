"""Reduced simplicial homology, Hochster-formula Betti numbers, and the Betti
route to the Hamming polynomial.

Homology uses exact elimination only: fraction-free integer Gaussian
elimination for rational coefficients and modular elimination for prime
fields, so every Betti number is exact.

Conventions.  The void complex has no homology at all; the complex whose only
face is the empty set has one dimension of reduced homology in degree -1.
Restrictions to a vertex set with no surviving vertices are that latter
complex, which is what makes degree-one ideal generators (vertices that are
not faces) come out right.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core, hamming, ops
from ._linalg import is_prime, rank_fraction_free, rref_mod_p
from .core import Complex, RankTable, popcount
from .errors import (
    InvariantViolationError,
    MalformedInputError,
    SizeCapError,
)
from .poly import LaurentPoly, monomial, poly_sum


@dataclass(frozen=True)
class FieldSpec:
    """Either the rationals (characteristic 0) or a prime field F_p."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not is_prime(p):
            raise MalformedInputError(f"characteristic must be 0 or prime, got {p}")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else str(self.characteristic)


RATIONALS = FieldSpec.rationals()


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers as a map (homological degree i, internal degree j)."""

    entries: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, data: dict[tuple[int, int], int]) -> "BettiTable":
        return cls(tuple(sorted((k, v) for k, v in data.items() if v)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def get(self, i: int, j: int) -> int:
        return dict(self.entries).get((i, j), 0)

    def poly(self) -> LaurentPoly:
        return poly_sum(v * monomial(1, x=i, y=j) for (i, j), v in self.entries)


def _check_homology_cap(n: int) -> None:
    if n > core.HOMOLOGY_CAP:
        raise SizeCapError(
            f"homology on {n} vertices exceeds cap {core.HOMOLOGY_CAP}"
            " (raise demimat.core.HOMOLOGY_CAP to override)"
        )


def _boundary_matrix(lower: list[int], upper: list[int]) -> list[list[int]]:
    """Boundary map from faces ``upper`` (cardinality c) to ``lower`` (c-1).

    Entry (row tau, col sigma) is the sign of dropping that vertex of sigma,
    alternating over the vertices of sigma in increasing order.
    """
    index = {f: i for i, f in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for col, sigma in enumerate(upper):
        sign = 1
        rest = sigma
        while rest:
            bit = rest & -rest
            mat[index[sigma ^ bit]][col] = sign
            sign = -sign
            rest ^= bit
    return mat


def reduced_homology_dims(cx: Complex, fieldspec: FieldSpec = RATIONALS) -> list[int]:
    """Dimensions of the reduced homology groups; index 0 holds degree -1.

    The void complex returns the empty list.
    """
    if cx.is_void:
        return []
    _check_homology_cap(cx.n)
    top = cx.dim + 1
    by_card: list[list[int]] = [[] for _ in range(top + 1)]
    for f in cx.faces():
        by_card[popcount(f)].append(f)

    def matrix_rank(lower: list[int], upper: list[int]) -> int:
        if not lower or not upper:
            return 0
        mat = _boundary_matrix(lower, upper)
        if fieldspec.characteristic == 0:
            return rank_fraction_free(mat)
        return len(rref_mod_p(mat, fieldspec.characteristic)[1])

    # boundary_ranks[c] = rank of the map C_(c-1) -> C_(c-2), faces of card c
    # mapping down; there are top+1 chain groups (cards 0..top).
    boundary_ranks = [0] * (top + 2)
    for c in range(1, top + 1):
        boundary_ranks[c] = matrix_rank(by_card[c - 1], by_card[c])

    dims = []
    for c in range(top + 1):
        dims.append(len(by_card[c]) - boundary_ranks[c] - boundary_ranks[c + 1])
    return dims


def euler_characteristic(cx: Complex, fieldspec: FieldSpec = RATIONALS) -> int:
    """Reduced Euler characteristic, by homology and by face counts, compared."""
    if cx.is_void:
        raise MalformedInputError("the void complex has no Euler characteristic")
    homological = sum(
        (1 if (c - 1) % 2 == 0 else -1) * d
        for c, d in enumerate(reduced_homology_dims(cx, fieldspec))
    )
    by_faces = sum(1 if (popcount(f) - 1) % 2 == 0 else -1 for f in cx.faces())
    if homological != by_faces:
        raise InvariantViolationError("Euler characteristic routes disagree")
    return homological


def stanley_reisner_generators(cx: Complex) -> tuple[int, ...]:
    """Masks of the inclusion-minimal non-faces."""
    if cx.is_void:
        raise MalformedInputError("the void complex has no Stanley-Reisner ideal")
    out = []
    for mask in range(1, (1 << cx.n)):
        if mask in cx:
            continue
        if all((mask ^ bit) in cx for bit in core.bits_of(mask)):
            out.append(mask)
    return tuple(out)


def hochster_betti_multigraded(
    cx: Complex, sigma: int, i: int, fieldspec: FieldSpec = RATIONALS
) -> int:
    """beta_{i, sigma}: reduced homology of the restriction in degree |sigma|-i-1."""
    dims = reduced_homology_dims(cx.restrict(sigma), fieldspec)
    degree = popcount(sigma) - i - 1
    slot = degree + 1
    if 0 <= slot < len(dims):
        return dims[slot]
    return 0


def hochster_betti(cx: Complex, fieldspec: FieldSpec = RATIONALS) -> BettiTable:
    """Graded Betti table via the restriction-homology sweep over all sigma."""
    if cx.is_void:
        return BettiTable.from_dict({})
    _check_homology_cap(cx.n)
    table: dict[tuple[int, int], int] = {}
    for sigma in range(1 << cx.n):
        dims = reduced_homology_dims(cx.restrict(sigma), fieldspec)
        j = popcount(sigma)
        for slot, d in enumerate(dims):
            if d:
                i = j - (slot - 1) - 1
                key = (i, j)
                table[key] = table.get(key, 0) + d
    return BettiTable.from_dict(table)


# -- the Betti route to W ------------------------------------------------------------


def elongation_complex(table: RankTable, r: int) -> Complex:
    """Independence complex of the r-th elongation: subsets of nullity <= r."""
    return core.independence_complex(ops.elongate(table, r))


def betti_of_elongations(
    table: RankTable, fieldspec: FieldSpec = RATIONALS
) -> list[BettiTable]:
    """Betti tables of the elongation complexes for r = 0 .. eta(E)."""
    table.require_demimatroid("elongation Betti tables")
    return [
        hochster_betti(elongation_complex(table, r), fieldspec)
        for r in range(table.total_nullity + 1)
    ]


def w_via_betti(table: RankTable, fieldspec: FieldSpec = RATIONALS) -> LaurentPoly:
    """W rebuilt from the alternating Betti sums of the elongation family.

    The r-th coefficient is x^n (B_r - B_{r-1})(-1, y/x) with B_{-1} = 0;
    the result is asserted against the subset-sum route, and a disagreement
    reports the offending (r, i, j) contributions.
    """
    return w_from_betti(table, betti_of_elongations(table, fieldspec))


def w_from_betti(table: RankTable, tables: list[BettiTable]) -> LaurentPoly:
    """W assembled from given elongation Betti tables, checked as ``w_via_betti``."""
    slices = [
        _betti_slice(table.n, current, previous)
        for current, previous in zip(tables, [BettiTable(()), *tables])
    ]
    total = poly_sum(got * monomial(1, t=r) for r, (_, got) in enumerate(slices))
    direct = hamming.hamming_subset_sum(table)
    if total != direct:
        offending = _first_route_disagreement(slices, direct)
        raise InvariantViolationError(
            f"Betti route disagrees with the subset sum at (r,i,j)={offending}"
        )
    return total


def _betti_slice(n: int, current: BettiTable, previous: BettiTable):
    """The entries of B_r - B_{r-1} and the t^r coefficient of W they give."""
    diff: dict[tuple[int, int], int] = dict(current.entries)
    for key, v in previous.entries:
        diff[key] = diff.get(key, 0) - v
    got = poly_sum(
        v * (-1) ** i * monomial(1, x=n - j, y=j) for (i, j), v in diff.items() if v
    )
    return diff, got


def _first_route_disagreement(slices, direct):
    # Only reached on failure; locate the first elongation index whose
    # coefficient slice of the difference polynomial is nonzero.
    for r, (diff, got) in enumerate(slices):
        if got != direct.coefficient(t=r):
            for (i, j), v in sorted(diff.items()):
                if v:
                    return (r, i, j)
            return (r, None, None)
    return (None, None, None)
