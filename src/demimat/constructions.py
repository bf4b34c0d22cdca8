"""Named constructions of rank tables, and the sampler.

Each constructor builds a ``core.RankTable`` from a description (a size and
rank, a basis family, a graph, a Wei sequence) and checks the ground-set cap
before the 2^n table is built.  Its ranks lie in 0..n and its empty set has
rank 0 by construction, so it is made by ``RankTable.from_view`` with no
further check.  A rank that depends on |X| alone (``uniform``, a Wei
sequence) is taken once per size and spread by ``_layout.size_view``; a
graph's edges are spread to their supersets by one OR-zeta transform
(``_layout.subset_transform``).  ``random_demimatroid`` and
``random_subset`` draw the battery's samples from a ``random.Random``;
``random`` is named only in their annotations and never imported, so
loading the CLI does not load it.  The check of the complex/demimatroid
Galois connection is a test oracle (``oracles.galois_check``): no input of
the CLI needs it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import or_

from ._layout import size_view, subset_transform
from .core import RankTable, check_cap, mask_of, popcount
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

    The basis-exchange axiom is not verified here; the table's kind is
    downgraded if the family is not a legitimate basis family.
    """
    masks = [b if isinstance(b, int) else mask_of(b, n) for b in bases]
    if not masks:
        raise MalformedInputError("need at least one basis")
    check_cap(n)
    ranks = [max(popcount(m & b) for b in masks) for m in range(1 << n)]
    return RankTable.from_view(n, bytes(ranks))


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
    [max rho(X\\x), min rho(X\\x) + 1], which is never empty because
    removing two different elements changes the rank by at most one in each
    step.  The draw is the low end plus ``rng.randrange(width)``: that is the
    one ``_randbelow(width)`` call ``randint`` makes, so the ranks and the
    generator's state are those of ``randint``, at less cost per call (and
    less than ``choice(range(...))``, which makes the same call).
    ``seen[X]`` gathers the ranks of X's lower neighbours as bits, so the
    interval is its highest bit and its lowest bit plus one; each rank, once
    drawn, is ORed into the ``seen`` of every upper neighbour.
    """
    check_cap(n)
    size = 1 << n
    full = size - 1
    ranks = [0] * size
    seen = [0] * size
    for i in range(n):
        seen[1 << i] = 1  # rank 0 of the empty set
    for mask in range(1, size):
        s = seen[mask]
        low = s.bit_length() - 1
        rank = ranks[mask] = low + rng.randrange((s & -s).bit_length() + 1 - low)
        bit = 1 << rank
        rest = full ^ mask
        while rest:
            up = rest & -rest
            seen[mask | up] |= bit
            rest ^= up
    return RankTable.from_view(n, bytes(ranks))


def random_subset(n: int, rng: random.Random) -> int:
    return rng.randrange(1 << n)

