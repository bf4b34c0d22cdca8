"""Duality operators, minors, the demimatroid lattice, and elongations.

The identity, dual, nullity and supplement operators form a Klein four-group
acting on tables over a fixed ground set; any two of the non-identity
operators compose to the third.

Every builder here that derives one table from another (the operators,
minors and elongations) is memoized on its source table (``per_table``), so
the identities that meet the same image or minor share it, together with
its own memoized values.

The derived tables (operators, minors, join, meet and elongations) are made
with the bare ``RankTable`` constructor, not ``RankTable.build``: every check
``build`` makes already holds by construction.  Their n is at most the
source's, each writes one int per mask of its ground set from the source's
int ranks, and each writes 0 at the empty set (rho(E) - rho(E), rho(A) -
rho(A), min(0, i) and the like), on combinatroid sources too.  ``build``
stays for the tables that come from outside, the lattice's ends included.
"""

from __future__ import annotations

from operator import sub

from .core import RankTable, per_table, popcount
from .errors import InvariantViolationError, MalformedInputError

IDENTITY = "id"
DUAL = "dual"
NULLITY = "nullity"
SUPPLEMENT = "supplement"
OPERATORS = (IDENTITY, DUAL, NULLITY, SUPPLEMENT)

# Klein four-group composition table, symmetric.
GROUP_TABLE = {
    (IDENTITY, IDENTITY): IDENTITY,
    (IDENTITY, DUAL): DUAL,
    (IDENTITY, NULLITY): NULLITY,
    (IDENTITY, SUPPLEMENT): SUPPLEMENT,
    (DUAL, DUAL): IDENTITY,
    (DUAL, NULLITY): SUPPLEMENT,
    (DUAL, SUPPLEMENT): NULLITY,
    (NULLITY, NULLITY): IDENTITY,
    (NULLITY, SUPPLEMENT): DUAL,
    (SUPPLEMENT, SUPPLEMENT): IDENTITY,
}
for (_a, _b), _c in list(GROUP_TABLE.items()):
    GROUP_TABLE[(_b, _a)] = _c


def _sizes(table: RankTable):
    """|X| for every mask X, in mask order."""
    return map(int.bit_count, range(table.full + 1))


# The builders read rho(E\X) from the reversed ranks: E\X is the mask
# full - X, so the complements' ranks in mask order are the ranks reversed.
@per_table
def dual(table: RankTable) -> RankTable:
    """rho*(X) = |X| + rho(E\\X) - rho(E)."""
    k = table.rank
    return RankTable(table.n, tuple([s + r - k for s, r in zip(_sizes(table), table.ranks[::-1])]))


@per_table
def nullity_operator(table: RankTable) -> RankTable:
    """rho°(X) = |X| - rho(X)."""
    return RankTable(table.n, tuple(map(sub, _sizes(table), table.ranks)))


@per_table
def supplement(table: RankTable) -> RankTable:
    """rho&(X) = rho(E) - rho(E\\X)."""
    k = table.rank
    return RankTable(table.n, tuple([k - r for r in table.ranks[::-1]]))


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


def compose_check(a: str, b: str, table: RankTable) -> str:
    """Apply ``a`` then ``b`` and identify the composite in the group table.

    The composite table is compared entry-for-entry against the table-entry
    operator applied directly; a mismatch would mean the group law failed and
    raises (it should be unreachable).
    """
    if a not in OPERATORS or b not in OPERATORS:
        raise MalformedInputError(f"unknown operator pair ({a!r}, {b!r})")
    expected = GROUP_TABLE[(a, b)]
    composed = apply_operator(b, apply_operator(a, table))
    direct = apply_operator(expected, table)
    if composed.ranks != direct.ranks:
        raise InvariantViolationError(
            f"composite {a};{b} does not match {expected} on this table"
        )
    return expected


# -- minors ----------------------------------------------------------------


def surviving_labels(n: int, removed: int) -> tuple[int, ...]:
    """Original labels kept after removing ``removed``, in their new order."""
    return tuple(e for e in range(1, n + 1) if not removed & (1 << (e - 1)))


@per_table
def delete(table: RankTable, removed: int) -> RankTable:
    """Restriction of the rank function to E \\ removed, indices compacted.

    The masks disjoint from ``removed``, in ascending order, are exactly the
    compacted subsets in ascending order, so the minor filters the parent's
    ranks.  The relabeling is recoverable via surviving_labels.
    """
    if removed & ~table.full:
        raise MalformedInputError("deleted set outside the ground set")
    ranks = tuple([r for mask, r in enumerate(table.ranks) if not mask & removed])
    return RankTable(table.n - popcount(removed), ranks)


@per_table
def contract(table: RankTable, removed: int) -> RankTable:
    """Contraction: rho_{M/A}(X) = rho(X | A) - rho(A), compacted as in ``delete``."""
    if removed & ~table.full:
        raise MalformedInputError("contracted set outside the ground set")
    base = table.ranks[removed]
    ranks = tuple([table.ranks[m | removed] - base
                   for m in range(table.full + 1) if not m & removed])
    return RankTable(table.n - popcount(removed), ranks)


# -- lattice ----------------------------------------------------------------


def join(a: RankTable, b: RankTable) -> RankTable:
    """Pointwise maximum; demimatroids are closed under join."""
    if a.n != b.n:
        raise MalformedInputError("join needs tables on the same ground set")
    return RankTable(a.n, tuple(map(max, a.ranks, b.ranks)))


def meet(a: RankTable, b: RankTable) -> RankTable:
    """Pointwise minimum; demimatroids are closed under meet."""
    if a.n != b.n:
        raise MalformedInputError("meet needs tables on the same ground set")
    return RankTable(a.n, tuple(map(min, a.ranks, b.ranks)))


def lattice_bottom(n: int) -> RankTable:
    return RankTable.build(n, [0] * (1 << n))


def lattice_top(n: int) -> RankTable:
    return RankTable.build(n, list(map(int.bit_count, range(1 << n))))


# -- elongations --------------------------------------------------------------


@per_table
def elongate(table: RankTable, i: int) -> RankTable:
    """i-th elongation: rank raised by i, capped at cardinality."""
    table.require_demimatroid("elongation")
    eta = table.total_nullity
    if not 0 <= i <= eta:
        raise MalformedInputError(f"elongation index must be in 0..{eta}, got {i}")
    return RankTable(table.n, tuple([min(s, r + i) for s, r in zip(_sizes(table), table.ranks)]))
