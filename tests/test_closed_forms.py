"""Closed-form changes of variables against the generic expressions they replace.

The Tutte side of the characteristic polynomial, both f-polynomial routes,
h, the definition route of the W^(r) and the A_j are each written straight
from binomial rows or one term sum; MacWilliams, the Tutte recovery and the
recovery sum are computed on basis coordinates.  Each oracle below is the
earlier generic expression, built with the term-by-term ``substitute``
of ``oracles`` or with chains of ``*`` and ``+``, and must give the same
polynomial on every fixture and on hypothesis tables.  The recovery sum is
also fed a corrupted family, so that a sum that ignored its input would
fail.  The guard tests pin that neither ``compute --all`` nor the battery
expands a generic substitution.
"""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import cli, core, hamming, tutte
from demimat.errors import (
    InexactDivisionError,
    InvariantViolationError,
    UnsupportedSubstitutionError,
)
from demimat.poly import LaurentPoly, T, X, Y, cross_checked, monomial, one, zero

from conftest import top_w_r_plus
from oracles import generalized_w_by_definition, macwilliams_transform, substitute
from strategies import demimatroid_tables, exponents, laurent_polys

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_PATHS = sorted(FIXTURES.glob("*.json"))


# -- the generic expressions, as the routes computed them before -----------------


def macwilliams_by_substitution(w, eta):
    return substitute(w, {"x": X + (T - 1) * Y, "y": X - Y}) * monomial(1, t=-eta)


def tutte_from_hamming_by_substitution(table):
    w = hamming.hamming_subset_sum(table)
    s = substitute(w, {"x": 1, "y": monomial(1, x=-1), "t": (X - 1) * (Y - 1)})
    cleared = monomial(1, x=table.n) * s
    return cleared.divide_exact((X - 1) ** table.total_nullity)


def characteristic_by_substitution(table):
    k = table.rank
    return (-1) ** k * substitute(tutte.tutte(table), {"x": 1 - T, "y": 0})


def f_via_tutte_by_substitution(cx):
    return substitute(tutte.tutte(core.complex_to_demimatroid(cx)), {"x": T + 1, "y": 1})


def f_via_hamming_by_substitution(cx):
    table = core.complex_to_demimatroid(cx)
    n = table.n
    eta = table.total_nullity
    w0 = substitute(hamming.hamming_subset_sum(table), {"t": 0})
    total = zero()
    for j in range(n + 1):
        c = w0.coefficient(x=n - j, y=j)
        if not c.is_zero:
            total = total + c * (T + 1) ** (n - j)
    return total.divide_exact(monomial(1, t=eta))


def h_by_substitution(cx):
    return substitute(tutte.f_polynomial(cx), {"t": T - 1})


def a_coefficients_by_coefficient(table, w):
    n = table.n
    return {j: w.coefficient(x=n - j, y=j) for j in range(1, n + 1)}


def recovery_sum_by_products(table):
    n = table.n
    k = table.rank
    rhs = zero()
    prod = one()
    for r, wr in enumerate(hamming.generalized_w_all(table)):
        evaluated = substitute(wr, {"x": 1, "y": monomial(1, x=-1)})
        rhs = rhs + prod * evaluated
        prod = prod * ((X - 1) * (Y - 1) - monomial(1, t=r))
    return (monomial(1, x=n) * rhs).divide_exact((X - 1) ** (n - k))


# -- one check per route, run on fixtures and on hypothesis tables ------------------


def check_table_routes(table):
    """Every table route equals its oracle on a demimatroid ``table``."""
    w = hamming.hamming_subset_sum(table)
    eta = table.total_nullity
    assert macwilliams_transform(w, eta) == macwilliams_by_substitution(w, eta)
    assert hamming.tutte_from_hamming(table) == tutte_from_hamming_by_substitution(table)
    assert tutte.characteristic(table) == characteristic_by_substitution(table)
    for r in range(eta + 1):
        assert hamming.generalized_w(table, r, "tutte") == generalized_w_by_definition(table, r), r
    if eta:
        _, a = hamming.a_coefficients(table)
        assert a == a_coefficients_by_coefficient(table, w)
    # The recovery identity is a theorem on demimatroids, and its route returns.
    assert recovery_sum_by_products(table) == tutte.tutte(table)
    assert hamming.conjecture_check(table) == hamming.ConjectureReport(True)


def check_complex_routes(cx):
    """The f- and h-routes equal their oracles on the complex ``cx``."""
    assert tutte.f_polynomial_via_tutte(cx) == f_via_tutte_by_substitution(cx)
    assert tutte.f_polynomial_via_hamming(cx) == f_via_hamming_by_substitution(cx)
    assert tutte.h_polynomial(cx) == h_by_substitution(cx)


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda path: path.stem)
def test_closed_forms_match_the_generic_expressions_on_fixtures(path):
    loaded = cli.load_input(str(path))
    check_table_routes(loaded.table)
    check_complex_routes(loaded.cx or core.independence_complex(loaded.table))


@given(demimatroid_tables(max_n=6))
def test_closed_forms_match_the_generic_expressions_on_demimatroids(table):
    check_table_routes(table)
    check_complex_routes(core.independence_complex(table))


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda path: path.stem)
def test_the_recovery_sum_reads_the_family_it_is_given(path, monkeypatch):
    # Where the sum clears, the route raises the witness that the oracle sum
    # names against T; where the division is inexact, both raise it.
    table = cli.load_input(str(path)).table
    clears = top_w_r_plus(lambda n, k: (X - Y) ** (n - k) * Y ** k)
    stuck = top_w_r_plus(lambda n, k: monomial(1, y=n))
    for corruption in (clears, stuck):
        monkeypatch.setattr(hamming, "generalized_w_all", corruption(hamming.generalized_w_all))
        if corruption is stuck and table.rank < table.n:
            with pytest.raises(InexactDivisionError):
                recovery_sum_by_products(table)
            with pytest.raises(InexactDivisionError) as exc:
                hamming.conjecture_check(table)
            assert str(exc.value).startswith(
                f"inexact division by (x-1)^{table.n - table.rank}")
        else:
            with pytest.raises(InvariantViolationError) as expected:
                cross_checked("Tutte polynomial", "q-enumerator", recovery_sum_by_products(table),
                              "corank-nullity", tutte.tutte(table))
            with pytest.raises(InvariantViolationError) as exc:
                hamming.conjecture_check(table)
            assert str(exc.value) == str(expected.value)
        monkeypatch.undo()


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda path: path.stem)
def test_the_definition_route_checks_the_family_it_is_given(path, monkeypatch):
    # The top W^(r), r = eta, gains y^n, which only the subset route carries.
    table = cli.load_input(str(path)).table
    n, eta = table.n, table.total_nullity
    c = hamming.generalized_w_all(table)[eta].terms().get((0, n, 0), 0)
    stuck = top_w_r_plus(lambda n, k: monomial(1, y=n))
    monkeypatch.setattr(hamming, "generalized_w_all", stuck(hamming.generalized_w_all))
    with pytest.raises(InvariantViolationError) as exc:
        hamming.generalized_w(table, eta, "tutte")
    assert str(exc.value) == (f"W^({eta}): the Tutte and subset-sum routes disagree first"
                              f" at {monomial(1, y=n)} ({c} against {c + 1})")


@given(laurent_polys(exps=exponents(-2, 4)), st.integers(-3, 3))
def test_macwilliams_matches_substitution_on_laurent_polys(w, eta):
    try:
        expected = macwilliams_by_substitution(w, eta)
    except UnsupportedSubstitutionError:
        with pytest.raises(UnsupportedSubstitutionError):
            macwilliams_transform(w, eta)
    else:
        assert macwilliams_transform(w, eta) == expected


def test_a_negative_power_of_a_substituted_binomial_raises():
    with pytest.raises(UnsupportedSubstitutionError):
        macwilliams_transform(monomial(1, x=3, y=-1), 0)
    with pytest.raises(UnsupportedSubstitutionError):
        macwilliams_transform(monomial(1, x=-1, y=3), 0)
    w = monomial(1, x=2, y=1)
    assert macwilliams_transform(w * monomial(1, t=-2), 1) == (
        macwilliams_by_substitution(w, 1) * monomial(1, t=-2))


# -- where the generic expansion runs ----------------------------------------------


@pytest.fixture
def expansions(monkeypatch):
    """The powers of non-monomial polynomials taken during a test: the step a
    generic substitution takes for each image of a variable, and one the
    binomial-row and coordinate routes never take."""
    calls = []
    power = LaurentPoly.__pow__

    def counting(self, k):
        if not self.is_monomial:
            calls.append((str(self), k))
        return power(self, k)

    monkeypatch.setattr(LaurentPoly, "__pow__", counting)
    return calls


def test_the_expansion_guard_sees_a_term_by_term_substitution(expansions):
    # Each term raises each image to its exponent, so a guarded path that
    # substituted this way would fail the tests below.
    macwilliams_by_substitution(X**3 * Y + X * Y**2, 0)
    assert sorted(expansions) == [
        ("x - y", 1), ("x - y", 2), ("x - y + y*t", 1), ("x - y + y*t", 3)]


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda path: path.stem)
def test_compute_all_never_expands_a_generic_substitution(path, expansions, capsys):
    assert cli.main(["compute", "--in", str(path), "--all"]) == 0
    capsys.readouterr()
    assert expansions == []


def test_the_battery_never_expands_a_generic_substitution(expansions, capsys):
    # The Whitney identity f(x-1, y-1) == T is written from binomial rows too.
    assert cli.main(["verify", "--seed", "1", "--n", "5", "--samples", "7"]) == 0
    capsys.readouterr()
    assert expansions == []
