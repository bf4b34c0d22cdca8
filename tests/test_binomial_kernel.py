"""``binomial_expansion`` at the edges of the old 20-bit exponent slots, where
a packed encoding would wrap: the sum is exact there, since every exponent is
a Python int."""

from hypothesis import given
from hypothesis import strategies as st

from demimat.poly import VARIABLES, binomial_expansion

from strategies import int_coefficients
from test_poly_properties import OPERANDS, expected_sum

LOW, HIGH = -2**19, 2**19 - 1  # the exponent range one 20-bit slot held


@st.composite
def edge_items(draw):
    """Items whose exponents, monomial and factors together, reach the slot
    edges: each monomial exponent is drawn near the lowest value a slot
    held, near the highest one its factors left room for, or near 0."""
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
