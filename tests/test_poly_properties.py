"""Differential property tests of the integer-first polynomial core.

``LaurentPoly`` arithmetic and the tests' term-by-term ``substitute`` are
checked against sympy; the closed-form binomial expansion against repeated
multiplication, with its input checks, its cached products and their term
bound; and the closed-form P_j family against the definitional
submask sums of ``p_j``.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from demimat import core, hamming, tutte
from demimat.errors import ExponentRangeError, InexactDivisionError, UnsupportedSubstitutionError
from demimat.poly import (VARIABLES, LaurentPoly, T, X, Y, _product, binomial_expansion, monomial,
                          one)

from oracles import nullity, p_j, substitute
from strategies import demimatroid_tables, exponents, int_coefficients, laurent_polys, rank_tables

SYMBOLS = sympy.symbols(VARIABLES)


def to_sympy(p: LaurentPoly):
    total = sympy.Integer(0)
    for exp, coeff in p.terms().items():
        term = sympy.Integer(coeff)
        for sym, e in zip(SYMBOLS, exp):
            term *= sym**e
        total += term
    return total


def same(p: LaurentPoly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def assert_int_coefficients(p: LaurentPoly):
    """Every coefficient is an int."""
    assert all(type(c) is int for c in p.terms().values())


units = st.sampled_from((1, -1))
# About half units, so that a negative power or exponent often has an inverse.
nonzero_coefficients = units | int_coefficients.filter(bool)


def is_unit(c: int) -> bool:
    return c in (1, -1)


@given(laurent_polys(), laurent_polys())
def test_add_and_mul_match_sympy(a, b):
    for result in (a + b, a - b, a * b):
        assert_int_coefficients(result)
    assert same(a + b, to_sympy(a) + to_sympy(b))
    assert same(a - b, to_sympy(a) - to_sympy(b))
    assert same(a * b, to_sympy(a) * to_sympy(b))


@given(laurent_polys(max_terms=4), st.integers(0, 4))
def test_pow_matches_sympy(a, k):
    assert_int_coefficients(a**k)
    assert same(a**k, to_sympy(a) ** k)


@given(exponents(), units, st.integers(-3, 0))
def test_negative_pow_of_monomial_matches_sympy(exp, coeff, k):
    m = LaurentPoly({exp: coeff})
    assert_int_coefficients(m**k)
    assert same(m**k, to_sympy(m) ** k)


@given(exponents(), int_coefficients.filter(lambda c: not is_unit(c)), st.integers(-3, -1))
def test_negative_pow_of_a_non_unit_monomial_raises(exp, coeff, k):
    with pytest.raises(UnsupportedSubstitutionError):
        LaurentPoly({exp: coeff}) ** k


@given(
    laurent_polys(exps=exponents(0, 3)),
    laurent_polys(exps=exponents(slots=("t",)), max_terms=3),
    laurent_polys(exps=exponents(slots=("t",)), max_terms=3),
)
def test_substitute_matches_sympy(a, u, v):
    x, y = SYMBOLS[:2]
    result = substitute(a, {"x": u, "y": v})
    assert_int_coefficients(result)
    expected = to_sympy(a).subs({x: to_sympy(u), y: to_sympy(v)}, simultaneous=True)
    assert same(result, expected)


@given(laurent_polys(), exponents(), nonzero_coefficients)
def test_substitute_monomial_into_negative_exponents(a, exp, coeff):
    # Only a unit, +-1 times a monomial, may take a negative exponent.
    value = LaurentPoly({exp: coeff})
    t = SYMBOLS[2]
    if a.min_exponent("t") < 0 and not is_unit(coeff):
        with pytest.raises(UnsupportedSubstitutionError):
            substitute(a, {"t": value})
    else:
        assert same(substitute(a, {"t": value}), to_sympy(a).subs(t, to_sympy(value)))


@given(laurent_polys(), st.lists(st.tuples(exponents(), nonzero_coefficients),
                                 min_size=3, max_size=3))
def test_substitute_monomials_simultaneously(a, images):
    # Every value a monomial, as in t -> t^j, x -> 1, y -> x^-1: the exponent
    # map path, with negative exponents in both the polynomial and the values.
    values = {name: LaurentPoly({exp: c}) for name, (exp, c) in zip("xyt", images)}
    if any(a.min_exponent(name) < 0 and not is_unit(c)
           for name, (_, c) in zip("xyt", images)):
        with pytest.raises(UnsupportedSubstitutionError):
            substitute(a, values)
        return
    result = substitute(a, values)
    assert_int_coefficients(result)
    expected = to_sympy(a).subs(
        {SYMBOLS[VARIABLES.index(name)]: to_sympy(v) for name, v in values.items()},
        simultaneous=True,
    )
    assert same(result, expected)


def matches_sympy(a: LaurentPoly, values: dict, result: LaurentPoly) -> bool:
    return same(result, to_sympy(a).subs(
        {SYMBOLS[VARIABLES.index(name)]: to_sympy(v) for name, v in values.items()},
        simultaneous=True,
    ))


# x and y at exponents 0..3, t at -3..3
xy_polys = laurent_polys(exps=st.tuples(*(st.integers(0, 3),) * 2, st.integers(-3, 3)))


@given(xy_polys)
def test_substitute_values_in_the_substituted_variables(a):
    # The MacWilliams substitution: each value contains x and y themselves.
    values = {"x": X + (T - 1) * Y, "y": X - Y}
    result = substitute(a, values)
    assert_int_coefficients(result)
    assert matches_sympy(a, values, result)


@given(laurent_polys(exps=st.tuples(*(st.integers(-3, 3),) * 2, st.integers(0, 3))))
def test_substitute_mixed_monomial_and_polynomial_values(a):
    # The Tutte recovery W(1, 1/x, (x-1)(y-1)): x and y may sit at negative
    # exponents because their values are monomials; t may not.
    values = {"x": one(), "y": monomial(1, x=-1), "t": (X - 1) * (Y - 1)}
    result = substitute(a, values)
    assert_int_coefficients(result)
    assert matches_sympy(a, values, result)


@given(laurent_polys(exps=exponents(0, 3)),
       int_coefficients, laurent_polys(exps=exponents(0, 2), max_terms=3))
def test_substitute_zero_constant_and_fraction_values(a, c, u):
    # c may be 0; u may be zero, a constant, a monomial or a polynomial.  A
    # rational value is refused like a rational coefficient, integral or not.
    values = {"x": LaurentPoly(), "y": LaurentPoly({(0, 0, 0): c}), "t": u}
    result = substitute(a, values)
    assert_int_coefficients(result)
    assert matches_sympy(a, values, result)
    assert substitute(a, {"x": 0, "y": c, "t": u}) == result
    with pytest.raises(TypeError):
        substitute(a, {"y": Fraction(c, 3)})


@given(laurent_polys(exps=exponents(-3, -1, slots=("x",)), max_terms=3).filter(bool),
       laurent_polys(exps=exponents(0, 2), max_terms=3).filter(lambda v: not v.is_monomial),
       laurent_polys(exps=exponents(0, 2), max_terms=3))
def test_substitute_polynomial_at_a_negative_exponent_raises(a, value, other):
    # Only a monomial is invertible; the zero value is not a monomial.
    for values in ({"x": value}, {"x": value, "y": other}, {"y": other, "x": value}):
        with pytest.raises(UnsupportedSubstitutionError):
            substitute(a, values)


@st.composite
def univariate_divisors(draw, leads=int_coefficients.filter(bool)):
    """A non-monomial polynomial in one variable with a nonzero constant term
    and its leading coefficient drawn from ``leads``."""
    var = draw(st.sampled_from(VARIABLES))
    coeffs = draw(st.lists(int_coefficients, min_size=1, max_size=3))
    coeffs[0] = coeffs[0] or 1
    coeffs.append(draw(leads))
    return LaurentPoly({
        tuple(k if name == var else 0 for name in VARIABLES): c
        for k, c in enumerate(coeffs)
    }), var


@st.composite
def laurent_divisors(draw, leads=int_coefficients.filter(bool)):
    """A univariate divisor times var^s, so its lowest power may be negative or positive."""
    d, var = draw(univariate_divisors(leads))
    return d * monomial(1, **{var: draw(st.integers(-3, 2))}), var


@given(laurent_polys(), laurent_divisors())
def test_divide_exact_by_a_laurent_divisor_recovers_the_quotient(b, divisor):
    d, _ = divisor
    quotient = (b * d).divide_exact(d)
    assert_int_coefficients(quotient)
    assert quotient == b


@given(laurent_polys(), laurent_divisors(units))
def test_divide_exact_remainder_leaves_an_exact_division(a, divisor):
    # A divisor whose leading coefficient is a unit never meets a
    # non-integral quotient coefficient, so a failure always has a remainder.
    d, _ = divisor
    try:
        a.divide_exact(d)
    except InexactDivisionError as err:
        remainder = err.remainder
        assert_int_coefficients(remainder)
        assert not remainder.is_zero
        quotient = (a - remainder).divide_exact(d)
        assert quotient * d + remainder == a


@given(laurent_polys(), univariate_divisors())
def test_divide_exact_recovers_the_quotient(b, divisor):
    d, _ = divisor
    quotient = (b * d).divide_exact(d)
    assert_int_coefficients(quotient)
    assert quotient == b
    assert same(quotient * d, to_sympy(b) * to_sympy(d))


def has_int_coefficients(expr) -> bool:
    return all(c.is_integer for c in sympy.Poly(expr, *SYMBOLS).coeffs())


@given(laurent_polys(exps=exponents(0, 3)), univariate_divisors())
def test_divide_exact_matches_sympy_div(a, divisor):
    # Division is exact over Z: the rational quotient must have no remainder
    # and integer coefficients.
    d, var = divisor
    q_expr, r_expr = sympy.div(to_sympy(a), to_sympy(d), SYMBOLS[VARIABLES.index(var)])
    if sympy.expand(r_expr) == 0 and has_int_coefficients(q_expr):
        assert same(a.divide_exact(d), q_expr)
    else:
        with pytest.raises(InexactDivisionError):
            a.divide_exact(d)


@given(laurent_polys(), exponents(), nonzero_coefficients)
def test_divide_exact_by_monomial_matches_sympy(a, exp, coeff):
    d = LaurentPoly({exp: coeff})
    if any(c % coeff for c in a.terms().values()):
        with pytest.raises(InexactDivisionError) as err:
            a.divide_exact(d)
        assert err.value.remainder is None
        return
    quotient = a.divide_exact(d)
    assert_int_coefficients(quotient)
    assert same(quotient, to_sympy(a) / to_sympy(d))


def test_division_is_exact_over_the_integers():
    # A quotient coefficient that is not an integer raises, with no
    # polynomial remainder to report; an integral one is an int.
    for divide in (lambda: (2 * X).divide_exact(4),
                   lambda: (X**2 + 1).divide_exact(2 * X + 2)):
        with pytest.raises(InexactDivisionError) as err:
            divide()
        assert err.value.remainder is None
    assert (4 * X).divide_exact(2).terms() == {(1, 0, 0): 2}
    assert (2 * X**2 - 2).divide_exact(-2 * X + 2) == -X - 1
    with pytest.raises(TypeError):
        (2 * X).divide_exact(Fraction(2, 3))
    with pytest.raises(TypeError):
        LaurentPoly({(0, 0, 0): Fraction(6, 3)})


# -- the closed-form binomial expansion ------------------------------------------

OPERANDS = st.sampled_from([None, *VARIABLES])


def repeated_product(u, v, k) -> LaurentPoly:
    base = (one() if u is None else monomial(1, **{u: 1})) - (
        one() if v is None else monomial(1, **{v: 1})
    )
    out = one()
    for _ in range(k):
        out = out * base
    return out


def expected_sum(items) -> LaurentPoly:
    total = LaurentPoly()
    for coeff, mono, factors in items:
        term = coeff * monomial(1, **mono)
        for u, v, k in factors:
            term = term * repeated_product(u, v, k)
        total = total + term
    return total


# Small exponents and huge ones, beyond +-2^19: an exponent of any size is exact.
MONO_EXPONENTS = st.integers(-3, 3) | st.integers(2**19, 2**64) | st.integers(-2**64, -2**19)


@given(
    st.lists(
        st.tuples(
            int_coefficients,
            st.dictionaries(st.sampled_from(VARIABLES), MONO_EXPONENTS),
            st.lists(st.tuples(OPERANDS, OPERANDS, st.integers(0, 20)), max_size=2),
        ),
        max_size=3,
    )
)
def test_binomial_expansion_matches_repeated_multiplication(items):
    got = binomial_expansion(items)
    assert got == expected_sum(items)
    assert all(type(c) is int for c in got.terms().values())


@st.composite
def cancelling_items(draw):
    """binomial_expansion items; about half of them are followed by their own
    negation, so whole terms cancel."""
    items = []
    for _ in range(draw(st.integers(0, 3))):
        item = (
            draw(int_coefficients),
            draw(st.dictionaries(st.sampled_from(VARIABLES), st.integers(-3, 3))),
            draw(st.lists(st.tuples(OPERANDS, OPERANDS, st.integers(0, 12)), max_size=2)),
        )
        items.append(item)
        if draw(st.booleans()):
            items.append((-item[0], item[1], item[2]))
    return items


@given(cancelling_items())
def test_binomial_expansion_keeps_the_constructor_guarantees(items):
    got = binomial_expansion(items)
    assert got == expected_sum(items)
    assert_int_coefficients(got)
    terms = got.terms()
    assert all(c != 0 for c in terms.values())
    assert all(
        type(e) is tuple and len(e) == len(VARIABLES) and all(type(i) is int for i in e)
        for e in terms
    )


def test_binomial_expansion_rejects_a_negative_power():
    with pytest.raises(UnsupportedSubstitutionError):
        binomial_expansion([(1, {}, (("x", "y", -1),))])


def test_a_negative_power_raises_before_any_other_check():
    # A float coefficient, an unknown name and, as written, (-2)^2 * 10^6
    # terms: the negative power is still what raises.
    with pytest.raises(UnsupportedSubstitutionError):
        binomial_expansion([(0.5, {"x": 2**40, "z": 1},
                             (("x", None, -3), ("y", None, -3), ("t", None, 10**6)))])


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(4, 2), 0.5])
def test_binomial_expansion_rejects_a_coefficient_that_is_not_an_int(coeff):
    with pytest.raises(TypeError):
        binomial_expansion([(1, {"x": 1}, ()), (coeff, {}, (("x", "y", 2),))])


@pytest.mark.parametrize("items, error", [
    ([(1, {"z": 1}, ())], KeyError),
    ([(1, {}, (("z", None, 1),))], KeyError),
    ([(1, {}, (("x", "z", 1),))], KeyError),
    ([(1, {"x": 1.0}, ())], TypeError),
    # The power 2.0 equals the power 2 of the product cached just before it.
    ([(1, {}, (("x", None, 2),)), (1, {}, (("x", None, 2.0),))], TypeError),
])
def test_binomial_expansion_rejects_a_name_or_exponent_it_cannot_write(items, error):
    with pytest.raises(error):
        binomial_expansion(items)


def test_items_that_share_a_product_add_up_exactly():
    # y (x-1)^2 - (x-1)^2 is one more (x-1)^2 (y-1).
    items = [(1, {}, (("x", None, 2), ("y", None, 1))),
             (1, {"y": 1}, (("x", None, 2),)),
             (-1, {}, (("x", None, 2),))]
    assert binomial_expansion(items) == expected_sum(items) == 2 * expected_sum(items[:1])


@given(st.lists(st.tuples(OPERANDS, OPERANDS, st.integers(0, 6)), max_size=3))
def test_a_cached_product_is_the_product_of_its_factors(factors):
    factors = tuple(factors)
    product = _product(factors)
    assert type(product) is tuple and all(type(pair) is tuple for pair in product)
    assert all(c for _, c in product) and len({d for d, _ in product}) == len(product)
    assert LaurentPoly(dict(product)) == expected_sum([(1, {}, factors)])


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
    with pytest.raises(ExponentRangeError, match=f"expand to {bound + 21} terms, above {bound}"):
        _product(above)
    with pytest.raises(ExponentRangeError):
        binomial_expansion([(1, {}, above)])
    assert _product.cache_info().currsize == before  # nothing was built or kept
    monkeypatch.setattr(core, "GROUND_SET_CAP", core.GROUND_SET_CAP + 1)
    assert len(_product(above)) == bound + 21


@given(demimatroid_tables())
def test_closed_forms_match_the_power_formulas(table):
    n, eta, k = table.n, table.total_nullity, table.rank
    subset = LaurentPoly()
    for mask in range(table.full + 1):
        s = mask.bit_count()
        subset = subset + (X - Y) ** (n - s) * monomial(1, y=s, t=nullity(table, mask))
    assert hamming.hamming_subset_sum(table) == subset
    counts = tutte.corank_nullity_counts(table)
    via_tutte = LaurentPoly()
    basis = LaurentPoly()
    for (a, b), c in counts.items():
        via_tutte = via_tutte + c * (X - Y) ** (eta + a - b) * monomial(1, y=k - a + b, t=b)
        basis = basis + c * (X - 1) ** a * (Y - 1) ** b
    assert hamming.hamming_via_tutte(table) == via_tutte
    assert tutte.tutte(table) == basis


@given(demimatroid_tables())
def test_the_batterys_closed_forms_against_substitute(table):
    # ``whitney_f`` is a term sum over T's corank-nullity counts, and the
    # battery decides W(x, y, 1) == x^n on a term dict; ``substitute`` is
    # the oracle for both identities.
    assert substitute(tutte.whitney_f(table), {"x": X - 1, "y": Y - 1}) == tutte.tutte(table)
    w = hamming.hamming_subset_sum(table)
    assert substitute(w, {"t": 1}) == monomial(1, x=table.n)


# -- the P_j family in closed form ----------------------------------------------------


def assemble_w(pj) -> LaurentPoly:
    """sum_j P_j x^(n-j) y^j for a family (P_0, .., P_n), by products and sums."""
    n = len(pj) - 1
    total = LaurentPoly()
    for j, p in enumerate(pj):
        total = total + p * monomial(1, x=n - j, y=j)
    return total


@given(demimatroid_tables())
def test_pj_family_matches_the_definitional_submask_sums(table):
    family = hamming.pj_family(table)
    assert family == tuple(p_j(table, j) for j in range(table.n + 1))
    assert assemble_w(family) == hamming.hamming_subset_sum(table)
    assert hamming.w_from_pj(table) == assemble_w(family)


@given(rank_tables())
def test_pj_family_matches_the_definitional_submask_sums_on_any_combinatroid(table):
    assume(table.n > 0)
    family = hamming.pj_family(table)
    assert family == tuple(p_j(table, j) for j in range(table.n + 1))
