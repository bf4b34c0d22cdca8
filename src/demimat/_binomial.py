"""The packed kernel behind ``poly.binomial_expansion``, over cached products.

An item ``(c, mono, factors)`` stands for ``c * mono * prod (u - v)^k``.
Each exponent vector (x, y, t) is packed into one int: slot i holds the
exponent plus ``OFFSET`` in bits ``i * WIDTH`` and up, so multiplying two
monomials is adding their packed ints and a term dict is keyed by small
ints instead of tuples.  A row ``(u - v)^k`` is cached as pairs (packed
exponent delta, signed ``C(k, i)``), and so is the whole product of each
factor tuple, with equal deltas merged and zero coefficients dropped; its
deltas are never negative, so every slot of every term lies between the
item's own exponent and that exponent plus the powers its factors add to
the slot (its reach).  An item is written with one loop over its factors'
cached product, and the packed keys are decoded once, at the end.

Packing never wraps silently: an item whose monomial exponent in a slot lies
below ``-OFFSET``, or whose exponent plus reach in a slot reaches
``OFFSET``, raises ``ExponentRangeError`` (a ``SizeCapError`` and an
``OverflowError``) before any of its terms is written; so does a factor
tuple that alone reaches ``OFFSET`` in some slot, or whose product has more
than ``(core.GROUND_SET_CAP + 1) ** 2`` terms as written, prod (k + 1),
before that product is built.  No demimatroid term exceeds the bound: its
factors are at most (x-1)^a (y-1)^b with a, b <= n.
"""

from __future__ import annotations

from functools import cache
from math import comb, prod
from operator import index

from . import core
from .errors import ExponentRangeError, UnsupportedSubstitutionError

# One slot per variable, in the order of ``poly.VARIABLES``.
WIDTH = 20
OFFSET = 1 << (WIDTH - 1)
_MASK = (1 << WIDTH) - 1
_SHIFT = {"x": 0, "y": WIDTH, "t": 2 * WIDTH}
_UNIT = {None: 0, "x": 1, "y": 1 << WIDTH, "t": 1 << (2 * WIDTH)}
_BASE = OFFSET * (1 + _UNIT["y"] + _UNIT["t"])  # the packed monomial 1


@cache
def _row(factor: tuple) -> tuple[tuple[int, int], ...]:
    """(u - v)^k as ((packed delta, signed C(k, i)), ...) for i = 0 .. k, cached."""
    u, v, k = factor
    du, dv = _UNIT[u], _UNIT[v]
    # (u - v)^k = sum_i (-1)^i C(k, i) u^(k-i) v^i
    return tuple(((k - i) * du + i * dv, (-1) ** i * comb(k, i)) for i in range(k + 1))


@cache
def _limits(factors: tuple) -> dict[str, int]:
    """The largest monomial exponent per slot that keeps ``factors``' terms
    in range, cached per factor tuple."""
    reach = dict.fromkeys(_SHIFT, 0)
    for u, v, k in factors:
        if k < 0:
            raise UnsupportedSubstitutionError(
                f"cannot raise {u} - {v or 1} to negative power {k}"
            )
        for name in {u, v} - {None}:
            reach[name] += k
    if max(reach.values()) >= OFFSET:
        raise ExponentRangeError(
            f"factors {factors} leave the exponent range of {WIDTH}-bit slots"
        )
    terms, bound = prod(k + 1 for _, _, k in factors), (core.GROUND_SET_CAP + 1) ** 2
    if terms > bound:
        raise ExponentRangeError(f"factors {factors} expand to {terms} terms, above {bound}")
    return {name: OFFSET - 1 - r for name, r in reach.items()}


@cache
def _product(factors: tuple) -> tuple[tuple[int, int], ...]:
    """prod (u - v)^k over ``factors`` as ((packed delta, coefficient), ...)
    without zeros, cached per factor tuple once ``_limits`` accepts it."""
    _limits(factors)
    terms = {0: 1}
    for factor in factors:
        row, out = _row(factor), {}
        for key, c in terms.items():
            for d, cd in row:
                out[key + d] = out.get(key + d, 0) + c * cd
        terms = out
    return tuple((d, c) for d, c in terms.items() if c)


def _expand(items) -> dict:
    """The expansion of ``items`` as a tuple-keyed term dict without zeros.

    An item's coefficient must be an int; anything else raises TypeError.
    """
    low, shift = -OFFSET, _SHIFT
    terms: dict[int, int] = {}
    get = terms.get
    for coeff, mono, factors in items:
        if type(factors) is not tuple:
            factors = tuple(factors)
        limit = _limits(factors)
        key = _BASE
        for name, e in mono.items():
            if not low <= e <= limit[name]:
                raise ExponentRangeError(
                    f"exponent {e} of {name} leaves the range of {WIDTH}-bit slots"
                    f" with factors {factors}"
                )
            key += e << shift[name]
        if type(coeff) is not int:
            coeff = index(coeff)
        for d, cd in _product(factors):
            term = key + d
            terms[term] = get(term, 0) + coeff * cd
    return {
        ((key & _MASK) - OFFSET, (key >> WIDTH & _MASK) - OFFSET, (key >> 2 * WIDTH) - OFFSET): c
        for key, c in terms.items() if c
    }
