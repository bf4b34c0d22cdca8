"""Wei numbers, their dualities, Singleton bounds, and full/uniform tests.

The Wei numbers and the nullity minima are read off the table's size-rank
profile, the same counts the subset-sum polynomials expand.  ``wei_hierarchy``
and the least size per nullity behind ``min_size_at_nullity`` are computed
once per table, each from that table's own profile, and are read-only.  The
closed forms the fullness test checks give every subset a rank that depends
on its size alone, so each is ``_layout.size_view`` of its rank at each size,
compared with a table's bytes, and no profile is counted for them.
"""

from __future__ import annotations

from . import ops
from ._records import record
from ._layout import size_view
from .core import RankTable, _FrozenCounts, per_table
from .errors import InvariantViolationError, MalformedInputError


class WeiProfile(record("WeiProfile", "k d d_up")):
    """Lower and upper Wei numbers of a demimatroid of rank k.

    ``d[r-1]`` is the smallest size of a subset of rank r (1 <= r <= k);
    ``d_up[r]`` is the largest size of a subset of rank r (0 <= r <= k).
    """

    __slots__ = ()


@per_table
def wei_hierarchy(table: RankTable) -> WeiProfile:
    table.require_demimatroid("Wei hierarchy")
    k = table.rank
    sizes: list[list[int]] = [[] for _ in range(k + 1)]
    for s, r in table.profile:
        sizes[r].append(s)
    if not all(sizes):
        raise InvariantViolationError("rank image is not the full interval 0..k")
    return WeiProfile(k, tuple(min(v) for v in sizes[1:]), tuple(max(v) for v in sizes))


def generalized_hamming_weights(table: RankTable) -> tuple[int, ...]:
    """The hierarchy min{|X| : nullity(X) = r}, r = 1 .. nullity(E).

    This is the Wei hierarchy of the nullity table; for a parity matroid it
    is the weight hierarchy of the underlying code.  Note the distinction
    from ``wei_hierarchy``, which stratifies by rank rather than nullity.
    """
    table.require_demimatroid("generalized Hamming weights")
    return tuple(min_size_at_nullity(table, r) for r in range(1, table.total_nullity + 1))


def check_wei_duality(table: RankTable) -> bool:
    """Both Wei dualities between a table and its dual, as exact set identities.

    Lower: {d_1(M),..,d_k(M)} = {1..n} minus {n+1-d_r(M*)}.
    Upper: {d^0(M)+1,..,d^{k-1}(M)+1} = {1..n} minus {n-d^j(M*)}.
    Returns True, or raises naming the first duality that fails.
    """
    n = table.n
    mine = wei_hierarchy(table)
    theirs = wei_hierarchy(ops.dual(table))
    everything = set(range(1, n + 1))

    if set(mine.d) != everything - {n + 1 - v for v in theirs.d}:
        raise InvariantViolationError("the lower Wei duality fails")
    if {v + 1 for v in mine.d_up[:-1]} != everything - {n - v for v in theirs.d_up[:-1]}:
        raise InvariantViolationError("the upper Wei duality fails")
    return True


def is_full(table: RankTable) -> bool:
    """True when the first Wei number meets the Singleton bound n - k + 1.

    A trivial (rank-0) table is reported not full.  A positive answer is
    cross-checked against the closed forms a full table and its dual, nullity
    and supplement must take; a mismatch would be a bug.  Each closed form
    gives every subset of size s the rank f(s), so it is ``size_view`` of
    f, and each table's view must equal it; a table without a view (a rank
    outside 0..127) is off its closed form.
    """
    table.require_demimatroid("fullness test")
    n, k = table.n, table.rank
    if k == 0:
        return False
    profile = wei_hierarchy(table)
    if profile.d[0] != n - k + 1:
        return False

    checks = (
        (table, lambda s: max(0, s - (n - k)), "full table deviates from its closed form"),
        (ops.dual(table), lambda s: max(0, s - k),
         "dual of a full table deviates from closed form"),
        (ops.nullity_operator(table), lambda s: min(s, n - k),
         "nullity of a full table is not uniform"),
        (ops.supplement(table), lambda s: min(s, k),
         "supplement of a full table is not uniform"),
    )
    for derived, rank_at_size, message in checks:
        if derived.view != size_view(n, map(rank_at_size, range(n + 1))):
            raise InvariantViolationError(message)
    return True


def is_uniform_demimatroid(table: RankTable) -> bool:
    """Uniform means the nullity table is full."""
    return is_full(ops.nullity_operator(table))


@per_table
def _least_size_by_nullity(table: RankTable) -> dict[int, int]:
    """The smallest |X| with eta(X) = e, keyed by every nullity e the table
    takes; read-only."""
    least: dict[int, int] = {}
    for s, r in table.profile:
        if s < least.get(s - r, s + 1):
            least[s - r] = s
    return _FrozenCounts(least)


def min_size_at_nullity(table: RankTable, r: int) -> int:
    """Smallest |X| with eta(X) = r."""
    least = _least_size_by_nullity(table)
    if r not in least:
        raise MalformedInputError(f"no subset has nullity {r}")
    return least[r]
