import random
from fractions import Fraction

import pytest

from demimat import hamming
from demimat.errors import InexactDivisionError, UnsupportedSubstitutionError
from demimat.poly import (
    LaurentPoly,
    T,
    X,
    Y,
    angle,
    binomial_expansion,
    constant,
    monomial,
    one,
    q_binomial,
    zero,
)

from oracles import substitute


def random_poly(rng, max_terms=8):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(-5, 5) for _ in range(3))
        terms[exp] = terms.get(exp, 0) + rng.randint(-9, 9)
    return LaurentPoly(terms)


def test_basic_identities():
    assert (X - Y) + Y == X
    assert (X - Y) * (X + Y) == X**2 - Y**2
    assert (T - 1) * (3 * X**2 * Y) == 3 * T * X**2 * Y - 3 * X**2 * Y


def test_zero_and_constants():
    assert zero().is_zero
    assert str(zero()) == "0"
    assert constant(3) + constant(-2) == 1
    assert (X - X).is_zero
    with pytest.raises(TypeError):
        constant(Fraction(1, 2))


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == zero()
        assert a * one() == a


def test_every_coefficient_is_an_int():
    assert all(type(c) is int for c in (X + 2 * Y).terms().values())
    for value in (Fraction(1, 2), Fraction(4, 2), 0.5):
        with pytest.raises(TypeError):
            LaurentPoly({(1, 0, 0): value})
        with pytest.raises(TypeError):
            value * X


def test_power_and_monomial_inverse():
    assert (X + 1) ** 0 == one()
    assert (X * Y).monomial_inverse() == monomial(1, x=-1, y=-1)
    assert monomial(-1, x=3) ** -2 == monomial(1, x=-6)
    assert monomial(-1, x=3, t=-1) ** -1 == monomial(-1, x=-3, t=1)
    # the only units are +-1 times a monomial
    with pytest.raises(UnsupportedSubstitutionError):
        monomial(2, x=3) ** -2
    with pytest.raises(UnsupportedSubstitutionError):
        monomial(2, x=3).monomial_inverse()
    with pytest.raises(UnsupportedSubstitutionError):
        (X + Y).monomial_inverse()


def test_substitute_simultaneous_swap():
    p = X**2 * Y + 3 * X
    swapped = substitute(p, {"x": Y, "y": X})
    assert swapped == Y**2 * X + 3 * Y


def test_substitute_negative_exponent_needs_monomial():
    p = monomial(1, x=-1) + Y
    assert substitute(p, {"x": -T}) == -monomial(1, t=-1) + Y
    with pytest.raises(UnsupportedSubstitutionError):
        substitute(p, {"x": 2 * T})
    with pytest.raises(UnsupportedSubstitutionError):
        substitute(p, {"x": T + 1})


def test_scalar_multiplication():
    p = 3 * X**2 * Y - T + 5
    assert (p * 0).is_zero and (0 * p).is_zero
    assert p * 1 == p == 1 * p
    assert p * -1 == -p == -1 * p
    doubled = p * 2
    assert doubled == p + p == 2 * p
    assert doubled.terms() == {(2, 1, 0): 6, (0, 0, 1): -2, (0, 0, 0): 10}
    assert all(type(c) is int for c in doubled.terms().values())
    for scalar in (Fraction(0), Fraction(4, 2), Fraction(2, 3)):
        with pytest.raises(TypeError):
            p * scalar
        with pytest.raises(TypeError):
            scalar * p


def test_single_term_constructors():
    assert monomial(0, x=1).is_zero and constant(0).is_zero
    assert monomial(2, x=-2, t=1).terms() == {(-2, 0, 1): 2}
    assert type(constant(2).terms()[(0, 0, 0)]) is int
    with pytest.raises(TypeError):
        constant(Fraction(0, 3))
    with pytest.raises(TypeError):
        monomial(Fraction(6, 3), x=-2, t=1)
    assert one().terms() == {(0, 0, 0): 1}
    with pytest.raises(ValueError):
        monomial(1, x=1.0)
    with pytest.raises(KeyError):
        monomial(1, z=1)
    with pytest.raises(TypeError):
        constant(0.5)


def test_substitute_expands_each_image_once(hamming84, monkeypatch):
    # The library substitutes x + (t-1) y and x - y into W on basis
    # coordinates and writes every power from binomial rows: fewer image
    # products than one per distinct (x, y) exponent pair plus 2n.
    w = hamming.hamming_subset_sum(hamming84)
    values = {"x": X + (T - 1) * Y, "y": X - Y}
    pairs = {exp[:2] for exp in w.terms()}
    bound = len(pairs) + 2 * hamming84.n
    assert bound == 5 + 16
    products = 0
    multiply = LaurentPoly.__mul__

    def counting(self, other):
        nonlocal products
        products += isinstance(other, LaurentPoly)
        return multiply(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    result = binomial_expansion(hamming._basis_items(hamming.macwilliams_coordinates(w, 0)))
    assert products <= bound
    monkeypatch.undo()
    assert result == sum(
        (c * values["x"] ** e[0] * values["y"] ** e[1] * monomial(1, t=e[2])
         for e, c in w.terms().items()), zero())


def test_coefficient_extraction():
    w = X**3 + 3 * (T - 1) * X**2 * Y
    assert w.coefficient(x=2, y=1) == 3 * (T - 1)
    assert w.coefficient(x=3, y=0) == 1
    assert w.coefficient(x=1, y=2).is_zero


def test_divide_exact_simple():
    assert ((T - 1) * Y**3).divide_exact(angle(1)) == Y**3
    assert ((X - 1) ** 3 * (Y + 2)).divide_exact((X - 1) ** 2) == (X - 1) * (Y + 2)
    # monomial divisor is a Laurent shift
    assert (X**2 * Y).divide_exact(monomial(1, x=5)) == monomial(1, x=-3, y=1)


def test_divide_exact_error_path():
    with pytest.raises(InexactDivisionError) as err:
        (X**2 + 1).divide_exact(X - 1)
    assert err.value.remainder == 2
    with pytest.raises(ZeroDivisionError):
        one().divide_exact(zero())


def test_divide_exact_random_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        a = random_poly(rng, max_terms=5)
        b = zero()
        while b.is_zero:
            b = LaurentPoly(
                {(0, 0, rng.randint(0, 4)): rng.randint(-5, 5) for _ in range(3)}
            )
        assert (a * b).divide_exact(b) == a


def test_q_brackets():
    assert angle(0) == 1
    assert angle(2) == (T**2 - 1) * (T**2 - T)


def test_q_binomial_values():
    assert q_binomial(2, 1) == 1 + T
    assert q_binomial(4, 2) == 1 + T + 2 * T**2 + T**3 + T**4
    with pytest.raises(ValueError):
        q_binomial(2, 3)


def test_q_binomial_recurrence_and_product():
    # [m]_q! = [1]_q ... [m]_q, with [i]_q = 1 + q + ... + q^(i-1) in the t slot
    factorial = [one()]
    for m in range(1, 11):
        factorial.append(factorial[-1] * LaurentPoly({(0, 0, e): 1 for e in range(m)}))
        for j in range(m + 1):
            lhs = q_binomial(m, j)
            rhs = zero()
            if j <= m - 1:
                rhs = rhs + q_binomial(m - 1, j)
            if j >= 1:
                rhs = rhs + monomial(1, t=m - j) * q_binomial(m - 1, j - 1)
            assert lhs == rhs
            assert all(
                c.denominator == 1 and c > 0 for c in lhs.terms().values()
            )
            # product form: [m]! = [j]! [m-j]! [m,j]
            assert factorial[m].divide_exact(factorial[j] * factorial[m - j]) == lhs


def test_canonical_order_matches_reference_string():
    p = X - 2 * X**2 + Y - 3 * X * Y + 3 * X**2 * Y
    assert str(p) == "x - 2*x^2 + y - 3*x*y + 3*x^2*y"


def test_string_negative_exponents_and_fractions():
    assert str(monomial(1, x=-1)) == "x^-1"
    assert str(-2 * X + T) == "-2*x + t"
    # a rational coefficient never reaches the display: it is refused
    with pytest.raises(TypeError):
        Fraction(-1, 2) * X


def test_cached_q_analogues_survive_every_operation():
    # q_binomial and angle hand out one shared value per argument tuple, so
    # no operation may alias or mutate an operand's terms.
    a, b = q_binomial(4, 2), angle(3)
    assert a is q_binomial(4, 2) and b is angle(3)
    fresh_a, fresh_b = a.terms(), b.terms()
    for x, y in ((a, b), (b, a), (a, a)):
        results = [
            x + y, x - y, -x, x * y, x + 1, 2 - x, 3 * x, x ** 0, x ** 1, x ** 3,
            x * 1, 1 * x, x * -1, x * 2, x * 0,
            (x * y).divide_exact(y), x.divide_exact(monomial(-1, t=2)), x.divide_exact(1),
        ]
        assert all(r._terms is not x._terms and r._terms is not y._terms for r in results)
        assert results[3].divide_exact(x) == y
        with pytest.raises(InexactDivisionError):
            (x + 1).divide_exact(y)
    assert q_binomial(4, 2).terms() == fresh_a == a.terms()
    assert angle(3).terms() == fresh_b == b.terms()
