"""Named constructions of rank tables, and the sampler.

Each constructor builds a ``core.RankTable`` from a description (a size and
rank, a basis family, a graph, a Wei sequence) and checks the ground-set cap
before the 2^n table is built.  Its ranks lie in 0..n and its empty set has
rank 0 by construction, so it is made by ``RankTable.from_view`` with no
further check.  A rank that depends on |X| alone (``uniform``, a Wei
sequence) is taken once per size and spread by ``_layout.size_view``; a
graph's edges are spread to their supersets by one OR-zeta transform
(``_layout.subset_transform``).  A basis family's table is the demimatroid
of the family's complex of independent sets, ``core.complex_to_demimatroid``
of ``Complex.build``, which checks the cap and each basis mask.
``random_demimatroid`` and ``random_subset`` draw the battery's samples
from a ``random.Random``: the sampler reads each rank's feasible interval
from the ranks below it and makes the ``getrandbits`` calls that
``randint`` would make over that interval, so its samples are ``randint``'s.  ``random`` is named only in
their annotations and never imported, so loading the CLI does not load it.
The check of the complex/demimatroid Galois connection is a test oracle
(``oracles.galois_check``): no input of the CLI needs it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import or_

from ._layout import size_view, subset_transform
from .core import Complex, RankTable, check_cap, complex_to_demimatroid, mask_of
from .errors import MalformedInputError

# -- constructions ---------------------------------------------------------------


def uniform(n: int, k: int) -> RankTable:
    """rho(X) = min(|X|, k); certifies as a matroid."""
    if not 0 <= k <= n:
        raise MalformedInputError(f"uniform needs 0 <= k <= n, got k={k}, n={n}")
    check_cap(n)
    return RankTable.from_view(n, size_view(n, [min(s, k) for s in range(n + 1)]))


def from_matroid_bases(n: int, bases: Iterable) -> RankTable:
    """Rank table from a family of claimed bases: rho(X) = max |X & B|.

    That is the demimatroid of the family's complex of independent sets,
    since the largest face inside X is X & B for some B.  Each basis is an
    int mask or a list of elements, and one outside the ground set is
    rejected either way.  The basis-exchange axiom is not verified here; the
    table's kind is downgraded if the family is not a legitimate basis
    family.
    """
    masks = [b if isinstance(b, int) else mask_of(b, n) for b in bases]
    if not masks:
        raise MalformedInputError("need at least one basis")
    return complex_to_demimatroid(Complex.build(n, masks))


def graph_demimatroid(n: int, edges: Iterable[tuple[int, int]]) -> RankTable:
    """rho = 0 on the empty set, 1 on independent vertex sets, 2 otherwise.

    The defining trichotomy assumes a graph with no isolated vertices; it is
    applied verbatim regardless, so isolated vertices simply stay independent.
    Whether X contains an edge is one OR-zeta transform of the edge
    indicator, 1 at each edge's mask, so repeated edges count once.
    """
    check_cap(n)
    has_edge = [0] * (1 << n)
    for a, b in edges:
        if a == b:
            raise MalformedInputError(f"self-loop at vertex {a}")
        has_edge[mask_of((a, b), n)] = 1
    ranks = [1 + contains for contains in subset_transform(has_edge, or_)]
    ranks[0] = 0
    return RankTable.from_view(n, bytes(ranks))


def from_wei_sequence(n: int, d: Sequence[int]) -> RankTable:
    """Demimatroid with the prescribed strictly increasing Wei numbers.

    rho(X) counts how many of the prescribed sizes are <= |X|, which realizes
    exactly the requested hierarchy; that count is taken once per size.
    """
    check_cap(n)
    ds = list(d)
    if any(not 1 <= v <= n for v in ds) or any(a >= b for a, b in zip(ds, ds[1:])):
        raise MalformedInputError(
            f"need a strictly increasing sequence within 1..{n}, got {ds}"
        )
    at_size = [sum(1 for v in ds if v <= s) for s in range(n + 1)]
    return RankTable.from_view(n, size_view(n, at_size))


# -- random generation --------------------------------------------------------------


def random_demimatroid(n: int, rng: random.Random) -> RankTable:
    """Rejection-free uniform-step sampler over valid demimatroid tables.

    Ranks are assigned in ascending mask order (every proper subset precedes
    its supersets), each drawn uniformly from the feasible interval
    [max rho(X\\x), min rho(X\\x) + 1], read from X's lower neighbours X\\x.
    Any two of those ranks differ by at most one (each is rho(X\\{x, y}) or
    one more), so the interval is {lo, lo + 1} when they all equal lo, and
    otherwise the single value max rho(X\\x): the scan stops at the first
    rank that differs from lo, the rank of X without its lowest element.

    The draw makes exactly the ``getrandbits`` calls of
    ``rng.randrange(width)``, and so of ``randint``: CPython's
    ``_randbelow(w)`` draws ``w.bit_length()`` bits until they fall below
    w.  For width 2 that is two bits until they are below 2; for width 1 it
    is one bit until it is 0, although ``randrange(1)`` always returns 0.
    So the ranks and the generator's state are those of ``randint``
    (``oracles.random_demimatroid_by_randint``), with no ``randrange`` or
    ``_randbelow`` frame per mask.
    ``test_core::test_the_sampler_draws_what_randint_draws`` pins that on
    every Python version CI runs.
    """
    check_cap(n)
    getrandbits = rng.getrandbits
    ranks = [0] * (1 << n)
    for mask in range(1, 1 << n):
        rest = mask & (mask - 1)
        lo = ranks[rest]
        while rest:
            bit = rest & -rest
            r = ranks[mask ^ bit]
            if r != lo:
                break
            rest ^= bit
        if rest:
            if r > lo:
                lo = r
            while getrandbits(1):
                pass
        else:
            r = getrandbits(2)
            while r > 1:
                r = getrandbits(2)
            lo += r
        ranks[mask] = lo
    return RankTable.from_view(n, bytes(ranks))


def random_subset(n: int, rng: random.Random) -> int:
    return rng.randrange(1 << n)

