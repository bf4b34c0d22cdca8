"""Wei numbers, their dualities, Singleton bounds, and full/uniform tests.

The Wei numbers and the nullity minima are read off the table's size-rank
profile, the same counts the subset-sum polynomials expand; so are the
closed forms the fullness test checks.
"""

from __future__ import annotations

from math import comb

from . import ops
from ._records import record
from .core import RankTable
from .errors import InvariantViolationError, MalformedInputError


class WeiProfile(record("WeiProfile", "k d d_up")):
    """Lower and upper Wei numbers of a demimatroid of rank k.

    ``d[r-1]`` is the smallest size of a subset of rank r (1 <= r <= k);
    ``d_up[r]`` is the largest size of a subset of rank r (0 <= r <= k).
    """

    __slots__ = ()


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
    """
    n = table.n
    mine = wei_hierarchy(table)
    theirs = wei_hierarchy(ops.dual(table))
    everything = set(range(1, n + 1))

    lower = set(mine.d) == everything - {n + 1 - v for v in theirs.d}
    upper = {v + 1 for v in mine.d_up[:-1]} == everything - {
        n - v for v in theirs.d_up[:-1]
    }
    return lower and upper


def is_full(table: RankTable) -> bool:
    """True when the first Wei number meets the Singleton bound n - k + 1.

    A trivial (rank-0) table is reported not full.  A positive answer is
    cross-checked against the closed forms a full table and its dual, nullity
    and supplement must take; a mismatch would be a bug.  Each is checked on
    the size-rank profile: the C(n, s) subsets of size s all fall under the
    one key (s, f(s)) exactly when each has rank f(s).
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
        if derived.profile != {(s, rank_at_size(s)): comb(n, s) for s in range(n + 1)}:
            raise InvariantViolationError(message)
    return True


def is_uniform_demimatroid(table: RankTable) -> bool:
    """Uniform means the nullity table is full."""
    return is_full(ops.nullity_operator(table))


def min_size_at_nullity(table: RankTable, r: int) -> int:
    """Smallest |X| with eta(X) = r."""
    sizes = [s for s, rank in table.profile if s - rank == r]
    if not sizes:
        raise MalformedInputError(f"no subset has nullity {r}")
    return min(sizes)


def elongation_distance_check(table: RankTable, r: int) -> bool:
    """d_{r+1} of the nullity table equals d_1 of the r-th elongation's nullity.

    The two sides read the profiles of two different tables.
    """
    table.require_demimatroid("elongation distance check")
    eta = table.total_nullity
    if not 0 <= r < eta:
        raise MalformedInputError(f"need 0 <= r < {eta}, got {r}")
    left = min_size_at_nullity(table, r + 1)
    elongated = ops.elongate(table, r)
    right = min_size_at_nullity(elongated, 1)
    return left == right
