"""Reduced simplicial homology, Hochster-formula Betti numbers, and the Betti
route to the Hamming polynomial.

Homology uses exact elimination only, so every Betti number is exact.  Each
boundary map is a set of sparse integer columns built straight from the face
masks and reduced by ``_linalg.rank_sparse_columns``, one kernel over Q and
F_p.  The maps are reduced from the top cardinality down with clearing: a
pivot row of one map names a column of the map below that must reduce to
zero, so that column is skipped.  A Hochster sweep lists the complex's faces
once and restricts to each vertex set by filtering that list.

Conventions.  The void complex has no homology at all; the complex whose only
face is the empty set has one dimension of reduced homology in degree -1.
Restrictions to a vertex set with no surviving vertices are that latter
complex, which is what makes degree-one ideal generators (vertices that are
not faces) come out right.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core, hamming
from ._linalg import is_prime, rank_sparse_columns
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


def _faces_by_card(cx: Complex) -> list[list[int]]:
    """Faces of a nonvoid complex by cardinality, ascending by mask in each."""
    layers: list[list[int]] = [[] for _ in range(cx.dim + 2)]
    for f in cx.faces():
        layers[popcount(f)].append(f)
    return layers


def _boundary_columns(layers: list[list[int]]) -> dict[int, dict[int, int]]:
    """The boundary column of every face: ``{face minus one vertex: sign}``.

    The sign alternates over the vertices of the face in increasing order.
    """
    columns: dict[int, dict[int, int]] = {}
    for layer in layers:
        for sigma in layer:
            column: dict[int, int] = {}
            sign = 1
            rest = sigma
            while rest:
                bit = rest & -rest
                column[sigma ^ bit] = sign
                sign = -sign
                rest ^= bit
            columns[sigma] = column
    return columns


def _homology_dims(
    layers: list[list[int]], columns: dict[int, dict[int, int]], p: int
) -> list[int]:
    """Reduced homology dimensions of the complex whose faces are ``layers``.

    ``layers[c]`` lists the faces of cardinality c in ascending mask order.
    The kernel reduces the columns of the map from cardinality c in that
    order and picks pivots of the map from c+1 by the same order on its
    rows, which is what lets the pivot rows of one map clear columns of the
    next.
    """
    # ranks[c] = rank of the map from faces of cardinality c to c-1.
    ranks = [0] * (len(layers) + 1)
    cleared: set[int] = set()
    for c in range(len(layers) - 1, 0, -1):
        pivots = rank_sparse_columns({f: columns[f] for f in layers[c]}, p, cleared)
        ranks[c] = len(pivots)
        cleared = set(pivots)
    return [len(layer) - ranks[c] - ranks[c + 1] for c, layer in enumerate(layers)]


def reduced_homology_dims(cx: Complex, fieldspec: FieldSpec = RATIONALS) -> list[int]:
    """Dimensions of the reduced homology groups; index 0 holds degree -1.

    The void complex returns the empty list.
    """
    if cx.is_void:
        return []
    _check_homology_cap(cx.n)
    layers = _faces_by_card(cx)
    return _homology_dims(layers, _boundary_columns(layers), fieldspec.characteristic)


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
    """Graded Betti table via the restriction-homology sweep over all sigma.

    The faces of ``cx`` are listed once; each restriction filters that list.
    """
    if cx.is_void:
        return BettiTable.from_dict({})
    _check_homology_cap(cx.n)
    layers = _faces_by_card(cx)
    columns = _boundary_columns(layers)
    table: dict[tuple[int, int], int] = {}
    for sigma in range(1 << cx.n):
        # The restriction to sigma: the faces inside sigma.  Faces are closed
        # under subsets, so the first empty cardinality ends the list.
        restricted: list[list[int]] = []
        for layer in layers:
            kept = [f for f in layer if not f & ~sigma]
            if not kept:
                break
            restricted.append(kept)
        dims = _homology_dims(restricted, columns, fieldspec.characteristic)
        j = popcount(sigma)
        for slot, d in enumerate(dims):
            if d:
                i = j - (slot - 1) - 1
                key = (i, j)
                table[key] = table.get(key, 0) + d
    return BettiTable.from_dict(table)


# -- the Betti route to W ------------------------------------------------------------


def elongation_complex(table: RankTable, r: int) -> Complex:
    """Independence complex of the r-th elongation: subsets of nullity <= r,
    read from ``table``'s nullities without building the elongated table."""
    table.require_demimatroid("elongation")
    eta = table.total_nullity
    if not 0 <= r <= eta:
        raise MalformedInputError(f"elongation index must be in 0..{eta}, got {r}")
    return Complex.build(
        table.n, [m for m, rank in enumerate(table.ranks) if popcount(m) - rank <= r]
    )


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
