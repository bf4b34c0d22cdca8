"""Duality operators, minors, the demimatroid lattice, and elongations.

The identity, dual, nullity and supplement operators form a Klein four-group
acting on tables over a fixed ground set: the identity is neutral, each
operator is its own inverse, and any two distinct non-identity operators
compose to the third.  ``compose_check`` applies two of them and raises
unless the composite is the one this rule names.

The three operator images are memoized on their source table
(``per_table``), so the identities that meet the same image share it,
together with its own memoized values.  Minors and elongations are built on
each call: no program path reads the same one twice.

The derived tables (operators, minors, join, meet and elongations) are
made without ``RankTable.build``: every check ``build`` makes already holds
by construction.  Their n is at most the source's, and each writes 0 at the
empty set (rho(E) - rho(E), rho(A) - rho(A), min(0, i) and the like), on
combinatroid sources too.  ``build`` stays for the tables that come from
outside.  The lattice's ends are the uniform demimatroids U(0, n) and
U(n, n), so ``lattice_bottom`` and ``lattice_top`` are
``constructions.uniform``, which checks the cap.

Each builder works on the source's byte view (``RankTable.view``) in the
whole-table steps of ``_layout``: a sum of packed tables, a guarded
subtraction or selection, a translate by a constant, or block halvings for
the minors.  Its output view is the new table's view and ``tuple(view)`` its
ranks.  A source without a view, or an output with a value outside 0..127
(only a combinatroid's can), takes the mask-by-mask list path instead; both
give the same ranks.
"""

from __future__ import annotations

from operator import sub

from ._layout import (_as_int, _difference, _guard_select, _minor_view, _reflected, _shifted,
                      _to_view, byte_operands, mask_sizes)
from .constructions import uniform
from .core import RankTable, per_table, popcount
from .errors import InvariantViolationError, MalformedInputError

IDENTITY = "id"
DUAL = "dual"
NULLITY = "nullity"
SUPPLEMENT = "supplement"
OPERATORS = (IDENTITY, DUAL, NULLITY, SUPPLEMENT)


# The builders read rho(E\X) from the reversed ranks: E\X is the mask
# full - X, so the complements' ranks in mask order are the ranks reversed.
@per_table
def dual(table: RankTable) -> RankTable:
    """rho*(X) = |X| + rho(E\\X) - rho(E).  On the view: one add of the
    packed sizes and reversed ranks, whose bytes stay below n + 128, then
    one translate by -rho(E)."""
    n, k, view = table.n, table.rank, table.view
    if view is not None:
        out = _shifted(_to_view(n, byte_operands(n)[0] + _as_int(view[::-1])), k)
        if out is not None:
            return RankTable.from_view(n, out)
    return RankTable(n, tuple([s + r - k for s, r in zip(mask_sizes(n), table.ranks[::-1])]))


@per_table
def nullity_operator(table: RankTable) -> RankTable:
    """rho°(X) = |X| - rho(X), the one source of per-mask nullities: on the
    view, one guarded subtraction, unless a rank exceeds its set's size."""
    n, view = table.n, table.view
    if view is not None:
        diff = _difference(n, byte_operands(n)[0], _as_int(view))
        if diff is not None:
            return RankTable.from_view(n, _to_view(n, diff))
    return RankTable(n, tuple(map(sub, mask_sizes(n), table.ranks)))


@per_table
def supplement(table: RankTable) -> RankTable:
    """rho&(X) = rho(E) - rho(E\\X): on the view, reversed and translated."""
    n, k, view = table.n, table.rank, table.view
    if view is not None:
        out = _reflected(view[::-1], k)
        if out is not None:
            return RankTable.from_view(n, out)
    return RankTable(n, tuple([k - r for r in table.ranks[::-1]]))


# Each operator is looked up by name when applied, so a replaced builder is
# the one every caller sees.
_APPLY = {
    IDENTITY: lambda t: t,
    DUAL: lambda t: dual(t),
    NULLITY: lambda t: nullity_operator(t),
    SUPPLEMENT: lambda t: supplement(t),
}


def apply_operator(tag: str, table: RankTable) -> RankTable:
    if tag not in _APPLY:
        raise MalformedInputError(f"unknown operator {tag!r}")
    return _APPLY[tag](table)


def compose_check(a: str, b: str, table: RankTable) -> None:
    """Apply ``a`` then ``b`` and compare the composite, entry for entry,
    with the operator the four-group rule names applied directly; a mismatch
    would mean the group law failed and raises (it should be unreachable).
    """
    if a not in OPERATORS or b not in OPERATORS:
        raise MalformedInputError(f"unknown operator pair ({a!r}, {b!r})")
    if IDENTITY in (a, b):
        expected = b if a == IDENTITY else a
    elif a == b:
        expected = IDENTITY
    else:
        (expected,) = set(OPERATORS[1:]) - {a, b}
    composed = apply_operator(b, apply_operator(a, table))
    direct = apply_operator(expected, table)
    if composed.ranks != direct.ranks:
        raise InvariantViolationError(
            f"composite {a};{b} does not match {expected} on this table"
        )


# -- minors ----------------------------------------------------------------


def surviving_labels(n: int, removed: int) -> tuple[int, ...]:
    """Original labels kept after removing ``removed``, in their new order."""
    return tuple(e for e in range(1, n + 1) if not removed & (1 << (e - 1)))


def delete(table: RankTable, removed: int) -> RankTable:
    """Restriction of the rank function to E \\ removed, indices compacted.

    The masks disjoint from ``removed``, in ascending order, are exactly the
    compacted subsets in ascending order, so the minor filters the parent's
    ranks: block slices of the view.  The relabeling is recoverable via
    surviving_labels.
    """
    if removed & ~table.full:
        raise MalformedInputError("deleted set outside the ground set")
    n = table.n - popcount(removed)
    if table.view is not None:
        return RankTable.from_view(n, _minor_view(table.view, removed, False))
    return RankTable(n, tuple([r for mask, r in enumerate(table.ranks) if not mask & removed]))


def contract(table: RankTable, removed: int) -> RankTable:
    """Contraction: rho_{M/A}(X) = rho(X | A) - rho(A), compacted as in
    ``delete``: the masks that contain A, translated by -rho(A)."""
    if removed & ~table.full:
        raise MalformedInputError("contracted set outside the ground set")
    n, base = table.n - popcount(removed), table.ranks[removed]
    if table.view is not None:
        out = _shifted(_minor_view(table.view, removed, True), base)
        if out is not None:
            return RankTable.from_view(n, out)
    return RankTable(n, tuple([table.ranks[m | removed] - base
                               for m in range(table.full + 1) if not m & removed]))


# -- lattice ----------------------------------------------------------------


def join(a: RankTable, b: RankTable) -> RankTable:
    """Pointwise maximum; demimatroids are closed under join."""
    if a.n != b.n:
        raise MalformedInputError("join needs tables on the same ground set")
    if a.view is None or b.view is None:
        return RankTable(a.n, tuple(map(max, a.ranks, b.ranks)))
    return RankTable.from_view(a.n, _guard_select(a.n, _as_int(a.view), _as_int(b.view), True))


def meet(a: RankTable, b: RankTable) -> RankTable:
    """Pointwise minimum; demimatroids are closed under meet."""
    if a.n != b.n:
        raise MalformedInputError("meet needs tables on the same ground set")
    if a.view is None or b.view is None:
        return RankTable(a.n, tuple(map(min, a.ranks, b.ranks)))
    return RankTable.from_view(a.n, _guard_select(a.n, _as_int(a.view), _as_int(b.view), False))


def lattice_bottom(n: int) -> RankTable:
    """U(0, n), rank 0 everywhere: the identity of ``join``."""
    return uniform(n, 0)


def lattice_top(n: int) -> RankTable:
    """U(n, n), rank |X|: the identity of ``meet``."""
    return uniform(n, n)


# -- elongations --------------------------------------------------------------


def elongate(table: RankTable, i: int) -> RankTable:
    """i-th elongation: rank raised by i, capped at cardinality.  A
    demimatroid has a view, and every rank plus i is at most 2n < 128, so
    this is the guard-bit minimum of the sizes and the ranks plus i."""
    table.require_demimatroid("elongation")
    eta = table.total_nullity
    if not 0 <= i <= eta:
        raise MalformedInputError(f"elongation index must be in 0..{eta}, got {i}")
    n = table.n
    sizes, ones = byte_operands(n)
    return RankTable.from_view(n, _guard_select(n, sizes, _as_int(table.view) + i * ones, False))
