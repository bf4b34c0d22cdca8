"""Reduced simplicial homology, Hochster-formula Betti numbers, and the Betti
route to the Hamming polynomial.

Homology uses exact elimination only, so every Betti number is exact.  Each
boundary map is a set of sparse integer columns built straight from the face
masks and reduced by ``_linalg.rank_sparse_columns``, one kernel over Q and
F_p.  The maps are reduced from the top cardinality down with clearing: a
pivot row of one map names a column of the map below that must reduce to
zero, so that column is skipped.  A Hochster sweep skips every vertex set
that is a face, lists each other restriction's faces as the submasks of the
vertex set that lie in the complex, and reduces whichever is smaller: the
restriction or its Alexander dual.

The Betti route to W checks itself against the subset sum through
``poly.cross_checked``, as every second route does: a disagreement names the
first monomial of W whose coefficients differ.  W sums the homological
degree i away (only sum_i (-1)^i beta_{i,j} reaches it), so no Betti entry
(r, i, j) can be named from W.

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
from .core import Complex, RankTable, per_table, popcount, submasks
from .errors import (
    InvariantViolationError,
    MalformedInputError,
    SizeCapError,
)
from .poly import LaurentPoly, cross_checked, monomial, poly_sum, term_sum, zero


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
        return term_sum(((i, j, 0, 0), v) for (i, j), v in self.entries)


def _check_homology_cap(n: int) -> None:
    if n > core.HOMOLOGY_CAP:
        raise SizeCapError(
            f"homology on {n} vertices exceeds cap {core.HOMOLOGY_CAP}"
            " (raise demimat.core.HOMOLOGY_CAP to override)"
        )


class _Columns(dict):
    """Boundary columns by face mask, each built on first lookup.

    A face's column is ``{face minus one vertex: sign}``, the sign alternating
    over its vertices in increasing order.
    """

    def __missing__(self, face: int) -> dict[int, int]:
        column = self[face] = {}
        sign, rest = 1, face
        while rest:
            bit = rest & -rest
            column[face ^ bit] = sign
            sign, rest = -sign, rest ^ bit
        return column


def _homology_dims(faces: list[int], columns: _Columns, p: int) -> list[int]:
    """Reduced homology dimensions of the nonvoid complex ``faces``.

    ``faces`` is ascending by mask, and so is each cardinality's share.  The
    kernel reduces the columns of the map from cardinality c in that order
    and picks pivots of the map from c+1 by the same order on its rows,
    which is what lets the pivot rows of one map clear columns of the next.
    """
    layers: list[list[int]] = [[] for _ in range(max(map(popcount, faces)) + 1)]
    for f in faces:
        layers[popcount(f)].append(f)
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
    return _homology_dims(list(cx.faces()), _Columns(), fieldspec.characteristic)


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

    A nonempty sigma that is a face restricts to a full simplex, with no
    reduced homology, and is skipped.  Of any other sigma's submasks, those
    in ``cx`` are the restriction's faces and the rest X give its Alexander
    dual ``{sigma - X}``; the side with fewer faces is reduced.
    """
    if cx.is_void:
        return BettiTable.from_dict({})
    _check_homology_cap(cx.n)
    faces, columns, p = cx.face_set, _Columns(), fieldspec.characteristic
    table: dict[tuple[int, int], int] = {}
    for sigma in range(1 << cx.n):
        if sigma and sigma in faces:
            continue
        # Submasks come in descending order: reversed, ``inside`` ascends,
        # and taking complements in sigma makes ``outside`` ascend.
        inside: list[int] = []
        outside: list[int] = []
        for sub in submasks(sigma):
            (inside if sub in faces else outside).append(sub)
        # Slot s of dims is degree s-1, and degree d of the restriction is
        # i = j-d-1.  Over any field, degree e of the dual is degree j-e-3 of
        # the restriction, so i = e+2.  sigma = 0 has a void dual.
        j = popcount(sigma)
        if sigma and len(outside) < len(inside):
            dims = _homology_dims([sigma ^ x for x in outside], columns, p)
            entries = [(slot + 1, d) for slot, d in enumerate(dims)]
        else:
            dims = _homology_dims(inside[::-1], columns, p)
            entries = [(j - slot, d) for slot, d in enumerate(dims)]
        for i, d in entries:
            if d:
                table[(i, j)] = table.get((i, j), 0) + d
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


@per_table
def betti_of_elongations(
    table: RankTable, fieldspec: FieldSpec = RATIONALS
) -> tuple[BettiTable, ...]:
    """Betti tables of the elongation complexes for r = 0 .. eta(E)."""
    _check_homology_cap(table.n)
    table.require_demimatroid("elongation Betti tables")
    return tuple(
        hochster_betti(elongation_complex(table, r), fieldspec)
        for r in range(table.total_nullity + 1)
    )


@per_table
def w_via_betti(table: RankTable, fieldspec: FieldSpec = RATIONALS) -> LaurentPoly:
    """W rebuilt from the alternating Betti sums of the elongation family.

    The t^r coefficient is x^n (B_r - B_{r-1})(-1, y/x), where B_r is the
    r-th Betti table as the sum of beta_{i,j} x^i y^j and B_{-1} = 0.  The
    result is cross-checked against the subset-sum route.
    """
    n = table.n
    sums = [
        term_sum(((n - j, j, 0, 0), (-1) ** i * v) for (i, j), v in bt.entries)
        for bt in betti_of_elongations(table, fieldspec)
    ]
    total = poly_sum(
        (current - previous) * monomial(1, t=r)
        for r, (current, previous) in enumerate(zip(sums, [zero(), *sums]))
    )
    return cross_checked("W", "Betti", total, "subset-sum", hamming.hamming_subset_sum(table))
