"""Tutte and Whitney polynomials, characteristic polynomial, f/h-polynomials.

The corank-nullity sum is accumulated in the (x-1, y-1) basis first: the
exponent pair of a subset A is (rho(E) - rho(A), |A| - rho(A)), which depends
only on |A| and rho(A), so the pairs are read off the table's size-rank
profile and the binomial expansion happens once per distinct pair.  Those
counts, ``corank_nullity_counts``, are a read-only view computed once per
table from that table's own profile.  The evaluations T(1-t, 0) and
T(t+1, 1) and h(t) = f(t-1) are written in closed form, from binomial rows
or one term sum.  The deletion-contraction
recurrences for T and the Whitney function are one statement about
coordinates: ``recurrence_counts`` merges both minors' (corank, nullity)
pairs, shifted by the recurrence's powers, and those are the (x-1, y-1)
coordinates of the T side and the monomials of the f side.  The identity
battery compares them with the table's own pairs, which is not weaker than
comparing polynomials, because the expansion is a function of the
coordinates; the tests expand them as their oracles.  The duality swap is
one such comparison too: the dual's (corank, nullity) counts against the
table's, each pair swapped, which decides T's duality and f's at once.
"""

from __future__ import annotations

from math import comb

from . import core, ops
from .core import Complex, RankTable, _FrozenCounts, per_table
from .errors import MalformedInputError, RationalFunctionError, UnsupportedSubstitutionError
from .poly import (
    X,
    Y,
    LaurentPoly,
    binomial_expansion,
    constant,
    cross_checked,
    term_sum,
    tutte_basis,
)


def expandable_terms(p: LaurentPoly, **images: str) -> dict:
    """``p``'s terms, once no variable named in ``images`` has a negative
    exponent.

    A closed-form change of variables writes each such variable's image, a
    polynomial that is not a monomial, as a binomial power; a negative power
    of it has no Laurent expansion and raises UnsupportedSubstitutionError.
    """
    for name, image in images.items():
        low = p.min_exponent(name)
        if low < 0:
            raise UnsupportedSubstitutionError(
                f"cannot expand {image} to the negative power {low} of {name}"
            )
    return p.terms()


@per_table
def corank_nullity_counts(table: RankTable) -> dict[tuple[int, int], int]:
    """Multiplicities of the (corank, nullity) exponent pairs over all
    subsets; read-only, read once per table off its profile."""
    k = table.rank
    return _FrozenCounts({(k - r, s - r): c for (s, r), c in table.profile.items()})


def _require_polynomial(counts: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    if any(a < 0 or b < 0 for a, b in counts):
        raise RationalFunctionError(
            "negative corank or nullity: the Tutte sum is a genuine rational"
            " function, which is outside Laurent scope"
        )
    return counts


@per_table
def tutte(table: RankTable) -> LaurentPoly:
    counts = _require_polynomial(corank_nullity_counts(table))
    return tutte_basis({(a, b, 0): c for (a, b), c in counts.items()})


def tutte_dual_check(table: RankTable) -> bool:
    """Dualizing the table swaps the variables of the Tutte polynomial and of
    the Whitney function: the dual's (corank, nullity) counts are the
    table's, each pair swapped.  Those counts are T's (x-1, y-1) coordinates
    and f's monomials, so this one comparison is both dualities."""
    swapped = {(b, a): c for (a, b), c in corank_nullity_counts(table).items()}
    return corank_nullity_counts(ops.dual(table)) == swapped


def deletion_contraction(table: RankTable, p: int) -> tuple[RankTable, RankTable, int, int]:
    """(M\\p, M/p, eta*(p), 1 - rho(p)) for the element p, with
    eta*(p) = rho(E) - rho(E\\p): the minors and exponents of the recurrences
    for T, the Whitney function and W.  The minors are memoized on the table,
    so the recurrences share them with their profiles."""
    if not 1 <= p <= table.n:
        raise MalformedInputError(f"element {p} outside ground set 1..{table.n}")
    bit = 1 << (p - 1)
    co = table.rank - table.ranks[table.full & ~bit]
    return ops.delete(table, bit), ops.contract(table, bit), co, 1 - table.ranks[bit]


def _shifted_counts(deleted: dict, contracted: dict, co: int, nu: int) -> dict:
    """The minors' (corank, nullity) counts merged, the deletion's coranks
    raised by co and the contraction's nullities by nu."""
    counts = {(a + co, b): c for (a, b), c in deleted.items()}
    for (a, b), c in contracted.items():
        counts[a, b + nu] = counts.get((a, b + nu), 0) + c
    return counts


def recurrence_counts(table: RankTable, p: int) -> dict[tuple[int, int], int]:
    """The (x-1, y-1) coordinates of the deletion-contraction side

        (x-1)^(eta*(p)) T(M\\p) + (y-1)^(1 - rho(p)) T(M/p)

    at element p: both minors' (corank, nullity) counts, shifted by the
    recurrence's powers and merged.  The recurrence T(M) = that side holds exactly when these
    equal ``corank_nullity_counts(table)``, since the basis
    (x-1)^a (y-1)^b is linearly independent.  A negative shift, or a minor
    with a negative corank or nullity, leaves Laurent scope and raises
    RationalFunctionError; that only happens for non-demimatroid tables.
    """
    deleted, contracted, co, nu = deletion_contraction(table, p)
    if co < 0 or nu < 0:
        raise RationalFunctionError("recurrence exponents are negative on this table")
    return _shifted_counts(_require_polynomial(corank_nullity_counts(deleted)),
                           _require_polynomial(corank_nullity_counts(contracted)), co, nu)


def whitney_f(table: RankTable) -> LaurentPoly:
    """Whitney generating function: sum of x^(eta*(E\\A)) y^(eta(A)).

    Negative exponents are honest Laurent monomials here, so any combinatroid
    is accepted.
    """
    return term_sum(((a, b, 0), c) for (a, b), c in corank_nullity_counts(table).items())


def characteristic(table: RankTable) -> LaurentPoly:
    """Characteristic polynomial, computed two ways and cross-checked.

    Subset sum of (-1)^|X| t^(rho(E)-rho(X)) against the Tutte evaluation
    (-1)^rho(E) T(1-t, 0): the terms x^a with no y become (1-t)^a, written
    from binomial rows, and the others vanish.
    """
    table.require_demimatroid("characteristic polynomial")
    k = table.rank
    direct = term_sum(((0, 0, k - r), (-1) ** s * c) for (s, r), c in table.profile.items())
    terms = expandable_terms(tutte(table), x="1 - t", y="0")
    via_tutte = binomial_expansion(
        ((-1) ** k * c, {"t": e}, ((None, "t", a),)) for (a, b, e), c in terms.items() if not b
    )
    return cross_checked("characteristic polynomial", "subset-sum", direct, "Tutte", via_tutte)


def tutte_uniform_closed_form(n: int, k: int) -> LaurentPoly:
    """Closed form for the uniform matroid of rank k on n elements."""
    if not 0 <= k <= n:
        raise MalformedInputError(f"need 0 <= k <= n, got k={k}, n={n}")
    total = constant(comb(n, k))
    for i in range(k):
        total = total + comb(n, i) * (X - 1) ** (k - i)
    for i in range(k + 1, n + 1):
        total = total + comb(n, i) * (Y - 1) ** (i - k)
    return total


# -- face polynomials -----------------------------------------------------------


@per_table
def f_polynomial(cx: Complex) -> LaurentPoly:
    """Face-count polynomial in t: sum of c_i t^(d+1-i), c_i faces of size i.

    The leading term t^(d+1) is the empty-face count c_0 = 1; the constant
    term counts the largest faces.  Memoized on the complex: both other
    routes check against it.
    """
    if cx.is_void:
        raise MalformedInputError("the void complex has no f-polynomial")
    counts = cx.face_counts()
    top = cx.dim + 1
    return term_sum(((0, 0, top - i), c) for i, c in enumerate(counts))


def f_polynomial_via_tutte(cx: Complex) -> LaurentPoly:
    """The same polynomial as T(t+1, 1) of the associated demimatroid;
    cross-checked against the face counts.

    A Tutte term x^a y^b becomes (t+1)^a = sum_i C(a, i) t^i, gathered in
    one term sum.
    """
    terms = expandable_terms(tutte(core.complex_to_demimatroid(cx)), x="t + 1")
    via_tutte = term_sum(
        ((0, 0, e + i), c * comb(a, i)) for (a, _, e), c in terms.items() for i in range(a + 1)
    )
    return cross_checked("f-polynomial", "Tutte", via_tutte, "face-count", f_polynomial(cx))


def f_polynomial_via_hamming(cx: Complex) -> LaurentPoly:
    """f from the three-variable enumerator at t=0:

        (u+1)^n u^(-eta) W(1, (u+1)^(-1), 0)

    realized on W's t^0 terms, so no genuine rational function ever appears:
    with W homogeneous of degree n, a term x^a y^(n-a) becomes
    sum_i C(a, i) t^(i-eta), gathered in one term sum.  A negative t power
    has no value at t = 0 and raises UnsupportedSubstitutionError.
    Cross-checked against the face counts.
    """
    from . import hamming  # local import; hamming depends on this module

    table = core.complex_to_demimatroid(cx)
    eta = table.total_nullity
    terms = expandable_terms(hamming.hamming_subset_sum(table), t="0")
    total = term_sum(
        ((0, 0, i - eta), c * comb(a, i))
        for (a, _, e), c in terms.items() if not e for i in range(a + 1)
    )
    return cross_checked("f-polynomial", "Hamming", total, "face-count", f_polynomial(cx))


def h_polynomial(cx: Complex) -> LaurentPoly:
    """h(t) = f(t-1), each term c t^e written as the binomial row c (t-1)^e."""
    return binomial_expansion(
        (c, {"x": a, "y": b}, (("t", None, e),))
        for (a, b, e), c in f_polynomial(cx).terms().items()
    )
