"""Hypothesis strategies for polynomials and rank tables.

Tables are drawn mask by mask, so a failing example shrinks toward the
smallest ground set and the lowest ranks that still fail.
"""

from __future__ import annotations

from hypothesis import strategies as st

from demimat import core
from demimat.poly import VARIABLES, LaurentPoly
from oracles import bits_of

int_coefficients = st.integers(-20, 20)


def exponents(low: int = -3, high: int = 3, slots=VARIABLES):
    """Exponent vectors with every slot in [low, high] and the others 0."""
    return st.tuples(*(
        st.integers(low, high) if name in slots else st.just(0) for name in VARIABLES
    ))


def laurent_polys(coefficients=int_coefficients, exps=None, max_terms: int = 6):
    """Sparse Laurent polynomials with int coefficients."""
    exps = exponents() if exps is None else exps
    return st.dictionaries(exps, coefficients, max_size=max_terms).map(LaurentPoly)


@st.composite
def demimatroid_tables(draw, max_n: int = 6):
    """Demimatroid rank tables: each rank lies in [max rho(X-x), min rho(X-x) + 1].

    About half the tables are loopless (every singleton has rank 1), so that
    tables with formal minimum distance above 1 are drawn as often as tables
    with a loop.
    """
    n = draw(st.integers(0, max_n))
    loopless = draw(st.booleans())
    ranks = [0] * (1 << n)
    for mask in range(1, 1 << n):
        below = [ranks[mask ^ bit] for bit in bits_of(mask)]
        low = 1 if loopless and not mask & (mask - 1) else max(below)
        ranks[mask] = draw(st.integers(low, min(below) + 1))
    return core.RankTable.build(n, ranks)


@st.composite
def rank_tables(draw, max_n: int = 5, n: int | None = None):
    """Any combinatroid table: ranks free in [-1, n + 1] except rho(empty) = 0.
    The ground set has ``n`` elements when given, else at most ``max_n``."""
    n = draw(st.integers(0, max_n)) if n is None else n
    rest = draw(st.lists(st.integers(-1, n + 1), min_size=(1 << n) - 1,
                         max_size=(1 << n) - 1))
    return core.RankTable.build(n, [0, *rest])


def all_demimatroids(n: int):
    """Every demimatroid table on n elements, depth first in mask order.

    The ranks are assigned as ``demimatroid_tables`` draws them, each in
    [max rho(X-x), min rho(X-x) + 1], but every choice is taken in turn.
    """
    ranks = [0] * (1 << n)

    def extend(mask: int):
        if mask == 1 << n:
            yield core.RankTable.build(n, ranks)
            return
        below = [ranks[mask ^ bit] for bit in bits_of(mask)]
        for r in range(max(below), min(below) + 2):
            ranks[mask] = r
            yield from extend(mask + 1)

    yield from extend(1)
