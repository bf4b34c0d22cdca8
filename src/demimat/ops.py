"""Duality operators, minors, the demimatroid lattice, and elongations.

The identity, dual, nullity and supplement operators form a Klein four-group
acting on tables over a fixed ground set; any two of the non-identity
operators compose to the third.  ``compose_check`` applies two of them and
raises unless the composite is the one ``GROUP_TABLE`` names.

The three operator images are memoized on their source table
(``per_table``), so the identities that meet the same image share it,
together with its own memoized values.  Minors and elongations are built on
each call: no program path reads the same one twice.

The derived tables (operators, minors, join, meet and elongations) and the
lattice's ends are made without ``RankTable.build``: every check ``build``
makes already holds by construction.  Their n is at most the source's, and
each writes 0 at the empty set (rho(E) - rho(E), rho(A) - rho(A), min(0, i)
and the like), on combinatroid sources too; the ends check the cap first.
``build`` stays for the tables that come from outside.

Each builder works on the source's byte view (``RankTable.view``, one byte
per mask, ranks in 0..127) in whole-table byte and big-int steps: a sum of
two packed tables whose bytes stay below 256, a subtraction with a guard bit
0x80 in every byte, so no byte borrows from the next, a ``bytes.translate``
that adds a constant, or block slices for the minors.  Its output view is
the new table's view and ``tuple(view)`` its ranks.  A source without a view,
or an output with a value outside 0..127 (only a combinatroid's can), takes
the mask-by-mask list path instead; both give the same ranks.
"""

from __future__ import annotations

from operator import sub

from .core import RankTable, byte_operands, check_cap, mask_sizes, per_table, popcount, size_view
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


# ``_SHIFTED[128 - k:384 - k]`` translates v to v - k and
# ``_REFLECTED[127 - k:383 - k]`` translates v to k - v, for 0 <= k <= 127;
# each gives 0xFF where the result leaves 0..127.
_SHIFTED = b"\xff" * 128 + bytes(range(128)) + b"\xff" * 256
_REFLECTED = bytes(range(127, -1, -1)) + b"\xff" * 256


def _guard_select(n: int, x: int, y: int, larger: bool) -> bytes:
    """The bytewise maximum (``larger``) or minimum of two packed tables
    with every byte in 0..127.  (x | 0x80..) - y keeps a byte's guard bit
    exactly where x >= y, and no byte borrows; the guard bit minus its
    shift is 0x7F there, which selects x or y by XOR."""
    guards = byte_operands(n)[1] << 7
    keep = ((x | guards) - y) & guards
    pick = (x ^ y) & (keep - (keep >> 7))
    return (y ^ pick if larger else x ^ pick).to_bytes(1 << n, "little")


def _int(table: RankTable) -> int:
    """The table's byte view as one little-endian int."""
    return int.from_bytes(table.view, "little")


# The builders read rho(E\X) from the reversed ranks: E\X is the mask
# full - X, so the complements' ranks in mask order are the ranks reversed
# (the view read big-endian).
@per_table
def dual(table: RankTable) -> RankTable:
    """rho*(X) = |X| + rho(E\\X) - rho(E).  On the view: one add of the
    packed sizes and reversed ranks, whose bytes stay below n + 128, then
    one translate by -rho(E)."""
    n, k, view = table.n, table.rank, table.view
    if view is not None:
        sums = byte_operands(n)[0] + int.from_bytes(view, "big")
        out = sums.to_bytes(len(view), "little").translate(_SHIFTED[128 - k:384 - k])
        if 255 not in out:
            return RankTable.from_view(n, out)
    return RankTable(n, tuple([s + r - k for s, r in zip(mask_sizes(n), table.ranks[::-1])]))


@per_table
def nullity_operator(table: RankTable) -> RankTable:
    """rho°(X) = |X| - rho(X), the one source of per-mask nullities.  On the
    view, (sizes | 0x80..) - ranks keeps every guard bit exactly when no rank
    exceeds its set's size."""
    n, view = table.n, table.view
    if view is not None:
        sizes, ones = byte_operands(n)
        guards = ones << 7
        diff = (sizes | guards) - _int(table)
        if diff & guards == guards:
            return RankTable.from_view(n, (diff ^ guards).to_bytes(1 << n, "little"))
    return RankTable(n, tuple(map(sub, mask_sizes(n), table.ranks)))


@per_table
def supplement(table: RankTable) -> RankTable:
    """rho&(X) = rho(E) - rho(E\\X): on the view, reversed and translated."""
    n, k, view = table.n, table.rank, table.view
    if view is not None:
        out = view[::-1].translate(_REFLECTED[127 - k:383 - k])
        if 255 not in out:
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
    with the operator ``GROUP_TABLE`` names applied directly; a mismatch
    would mean the group law failed and raises (it should be unreachable).
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


# -- minors ----------------------------------------------------------------


def surviving_labels(n: int, removed: int) -> tuple[int, ...]:
    """Original labels kept after removing ``removed``, in their new order."""
    return tuple(e for e in range(1, n + 1) if not removed & (1 << (e - 1)))


def _half(view: bytes, low: int, upper: bool) -> bytes:
    """The bytes in the lower (or upper) half of every block of 2 * low:
    the masks without (or with) the element of stride ``low``, compacted.
    Short blocks are gathered by one strided slice per residue, long ones
    by one slice per block, so at most sqrt(len(view)) slices."""
    step, start, size = 2 * low, low if upper else 0, len(view)
    if low == 1:
        return view[start::2]
    if low * low < size:
        out = bytearray(size // 2)
        for r in range(low):
            out[r::low] = view[start + r::step]
        return bytes(out)
    return b"".join([view[i:i + low] for i in range(start, size, step)])


def _minor_view(view: bytes, removed: int, upper: bool) -> bytes:
    """``_half`` for each element of ``removed``, the highest first, so
    the lower elements keep their strides."""
    while removed:
        top = 1 << removed.bit_length() - 1
        view = _half(view, top, upper)
        removed ^= top
    return view


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
        out = _minor_view(table.view, removed, True).translate(_SHIFTED[128 - base:384 - base])
        if 255 not in out:
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
    return RankTable.from_view(a.n, _guard_select(a.n, _int(a), _int(b), True))


def meet(a: RankTable, b: RankTable) -> RankTable:
    """Pointwise minimum; demimatroids are closed under meet."""
    if a.n != b.n:
        raise MalformedInputError("meet needs tables on the same ground set")
    if a.view is None or b.view is None:
        return RankTable(a.n, tuple(map(min, a.ranks, b.ranks)))
    return RankTable.from_view(a.n, _guard_select(a.n, _int(a), _int(b), False))


def lattice_bottom(n: int) -> RankTable:
    check_cap(n)
    return RankTable.from_view(n, size_view(n, [0] * (n + 1)))


def lattice_top(n: int) -> RankTable:
    check_cap(n)
    return RankTable.from_view(n, size_view(n, range(n + 1)))


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
    return RankTable.from_view(n, _guard_select(n, sizes, _int(table) + i * ones, False))
