"""The packed, staged kernel behind ``poly.binomial_expansion``.

An item ``(c, mono, factors)`` stands for ``c * mono * prod (u - v)^k``.
Each exponent vector (x, y, t) is packed into one int: slot i holds the
exponent plus ``OFFSET`` in bits ``i * WIDTH`` and up, so multiplying two
monomials is adding their packed ints and a term dict is keyed by small
ints instead of tuples.  A row ``(u - v)^k`` is cached as pairs (packed
exponent delta, signed ``C(k, i)``); its deltas are never negative, so every
slot of every term lies between the item's own exponent and that exponent
plus the powers its factors add to the slot (its reach).

The factors are expanded last-first, in stages.  Stage 0 gathers the items
by their factor tuples, summing the coefficients of equal (monomial,
factors) keys.  Each later stage expands the last factor of every group of
the longest factor tuples left into the group of the remaining prefix, where
it merges with the items (and other groups) that already end there, so a
product shared by many items is expanded once per distinct partial term.
The packed keys are decoded once, at the end.

Packing never wraps silently: an item whose monomial exponent in a slot lies
below ``-OFFSET``, or whose exponent plus reach in a slot reaches
``OFFSET``, raises ``ExponentRangeError`` (a ``SizeCapError`` and an
``OverflowError``) before any of its terms is written; so does a factor
tuple that alone reaches ``OFFSET`` in some slot.
"""

from __future__ import annotations

from functools import cache
from math import comb
from operator import index

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
    return {name: OFFSET - 1 - r for name, r in reach.items()}


def _expand(items) -> dict:
    """The expansion of ``items`` as a tuple-keyed term dict without zeros.

    An item's coefficient must be an int; anything else raises TypeError.
    """
    low, shift = -OFFSET, _SHIFT
    groups: dict[tuple, dict[int, object]] = {}
    for coeff, mono, factors in items:
        if type(factors) is not tuple:
            factors = tuple(factors)
        limit = _limits(factors)
        terms = groups.get(factors)
        if terms is None:
            terms = groups[factors] = {}
        key = _BASE
        for name, e in mono.items():
            if not low <= e <= limit[name]:
                raise ExponentRangeError(
                    f"exponent {e} of {name} leaves the range of {WIDTH}-bit slots"
                    f" with factors {factors}"
                )
            key += e << shift[name]
        terms[key] = terms.get(key, 0) + (coeff if type(coeff) is int else index(coeff))
    for length in range(max(map(len, groups), default=0), 0, -1):
        for factors in [f for f in groups if len(f) == length]:
            terms = groups.pop(factors)
            target = groups.setdefault(factors[:-1], {})
            get = target.get
            row = _row(factors[-1])
            for key, c in terms.items():
                for d, cd in row:
                    product = key + d
                    target[product] = get(product, 0) + c * cd
    return {
        ((key & _MASK) - OFFSET, (key >> WIDTH & _MASK) - OFFSET, (key >> 2 * WIDTH) - OFFSET): c
        for key, c in groups.get((), {}).items() if c
    }
