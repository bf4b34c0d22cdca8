"""The packed kernel behind ``binomial_expansion``: exact at the edges of its
exponent slots, raising, never wrapping, one step beyond them, and bounded in
the terms of each cached product before it is built."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import core
from demimat._binomial import _MASK, OFFSET, WIDTH, _limits, _product
from demimat.errors import ExponentRangeError, UnsupportedSubstitutionError
from demimat.poly import VARIABLES, LaurentPoly, binomial_expansion, monomial

from strategies import int_coefficients
from test_poly_properties import OPERANDS, repeated_product

LOW, HIGH = -OFFSET, OFFSET - 1  # the exponent range of one slot


def expected_sum(items) -> LaurentPoly:
    total = LaurentPoly()
    for coeff, mono, factors in items:
        term = coeff * monomial(1, **mono)
        for u, v, k in factors:
            term = term * repeated_product(u, v, k)
        total = total + term
    return total


@st.composite
def edge_items(draw):
    """Items whose exponents, monomial and factors together, reach the slot
    edges: each monomial exponent is drawn near the lowest value its slot
    allows, near the highest one its factors leave room for, or near 0."""
    items = []
    for _ in range(draw(st.integers(1, 3))):
        factors = draw(st.lists(st.tuples(OPERANDS, OPERANDS, st.integers(0, 4)), max_size=2))
        mono = {}
        for name in VARIABLES:
            reach = sum(k for u, v, k in factors if name in (u, v))
            top = HIGH - reach
            mono[name] = draw(st.integers(LOW, LOW + 3) | st.integers(top - 3, top)
                              | st.integers(-3, 3))
        items.append((draw(int_coefficients), mono, factors))
    return items


@given(edge_items())
def test_binomial_expansion_is_exact_at_the_slot_edges(items):
    assert binomial_expansion(items) == expected_sum(items)


@pytest.mark.parametrize("items", [
    [(1, {"x": HIGH}, ())],
    [(1, {"x": LOW}, ())],
    [(3, {"t": LOW, "y": HIGH - 2}, (("y", None, 2),))],
    [(1, {"x": HIGH - 1}, (("x", "y", 1),))],
    [(1, {"y": HIGH}, (("x", None, 1),))],  # the factor never reaches y
])
def test_binomial_expansion_keeps_the_last_exponent_in_range(items):
    assert binomial_expansion(items) == expected_sum(items)


@pytest.mark.parametrize("items", [
    [(1, {"x": HIGH + 1}, ())],
    [(1, {"x": LOW - 1}, ())],
    [(3, {"t": LOW, "y": HIGH - 1}, (("y", None, 2),))],
    [(1, {"x": HIGH}, (("x", "y", 1),))],
    [(1, {"y": HIGH}, (("x", "y", 1),))],
    [(1, {}, ()), (1, {"t": HIGH + 1}, ())],  # an earlier item does not help
])
def test_binomial_expansion_raises_at_the_first_exponent_out_of_range(items):
    with pytest.raises(OverflowError):
        binomial_expansion(items)


def test_a_negative_power_still_raises_before_the_range_check():
    with pytest.raises(UnsupportedSubstitutionError):
        binomial_expansion([(1, {"x": HIGH + 1}, (("x", "y", -1),))])


def test_items_that_share_a_product_add_up_exactly():
    # y (x-1)^2 - (x-1)^2 is one more (x-1)^2 (y-1).
    items = [(1, {}, (("x", None, 2), ("y", None, 1))),
             (1, {"y": 1}, (("x", None, 2),)),
             (-1, {}, (("x", None, 2),))]
    assert binomial_expansion(items) == expected_sum(items) == 2 * expected_sum(items[:1])


def _unpacked(product) -> LaurentPoly:
    return LaurentPoly({(d & _MASK, d >> WIDTH & _MASK, d >> 2 * WIDTH): c for d, c in product})


@given(st.lists(st.tuples(OPERANDS, OPERANDS, st.integers(0, 6)), max_size=3))
def test_a_cached_product_is_the_product_of_its_factors(factors):
    factors = tuple(factors)
    product = _product(factors)
    assert type(product) is tuple and all(type(pair) is tuple for pair in product)
    assert all(c for _, c in product) and len({d for d, _ in product}) == len(product)
    assert _unpacked(product) == expected_sum([(1, {}, factors)])


def test_no_expansion_shares_state_with_the_cached_products():
    factors = (("x", None, 3), ("y", "t", 2))
    items = [(2, {"x": 1}, factors), (-1, {"t": -1}, factors)]
    first = binomial_expansion(items)
    cached = _product(factors)
    assert cached is _product(factors)
    snapshot = list(cached)
    first._terms.clear()  # a result is a fresh dict, not a view of the cache
    second = binomial_expansion(items)
    assert second._terms is not first._terms
    assert second == expected_sum(items)
    assert list(_product(factors)) == snapshot


def test_the_term_bound_is_the_squared_ground_set_cap_at_call_time(monkeypatch):
    bound = (core.GROUND_SET_CAP + 1) ** 2
    at_bound = (("x", None, core.GROUND_SET_CAP), ("y", None, core.GROUND_SET_CAP))
    assert len(_product(at_bound)) == bound
    above = (("x", None, core.GROUND_SET_CAP + 1), ("y", None, core.GROUND_SET_CAP))
    before = _product.cache_info().currsize
    for call in (_limits, _product):
        with pytest.raises(ExponentRangeError, match=f"expand to {bound + 21} terms, above {bound}"):
            call(above)
    with pytest.raises(ExponentRangeError):
        binomial_expansion([(1, {}, above)])
    assert _product.cache_info().currsize == before  # nothing was built or kept
    monkeypatch.setattr(core, "GROUND_SET_CAP", core.GROUND_SET_CAP + 1)
    assert len(_product(above)) == bound + 21
