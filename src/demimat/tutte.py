"""Tutte and Whitney polynomials, characteristic polynomial, f/h-polynomials.

The corank-nullity sum is accumulated in the (x-1, y-1) basis first: the
exponent pair of a subset A is (rho(E) - rho(A), |A| - rho(A)), which depends
only on |A| and rho(A), so the pairs are read off the table's size-rank
profile and the binomial expansion happens once per distinct pair.  Those
counts, ``corank_nullity_counts``, are a read-only view computed once per
table from that table's own profile.  The evaluations T(1-t, 0) and
T(t+1, 1) and h(t) = f(t-1) are written in closed form, from binomial rows
or one term sum; the first two read T's terms as they are, since ``tutte``
refuses a negative corank or nullity.  The deletion-contraction recurrences
for T, the Whitney function and W are one statement about the (size, rank)
counts, which each of the three relabels injectively: ``recurrence_profile``
merges the deletion's counts with the contraction's, each subset through p
moved to (s + 1, r + rho(p)), and the recurrences at p hold exactly when
that is the table's own profile.  The identity battery compares the two;
the tests expand each side's polynomials as their oracles.  MacWilliams
decides the duality swap of T and f.
"""

from __future__ import annotations

from math import comb

from . import core, ops
from .core import Complex, RankTable, _FrozenCounts, per_table
from .errors import MalformedInputError, RationalFunctionError
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


def recurrence_profile(table: RankTable, p: int) -> dict[tuple[int, int], int]:
    """The size-rank profile that deletion-contraction at element p gives:
    the deletion's (size, rank) counts, and the contraction's moved to
    (s + 1, r + rho(p)), as each subset through p is one of M/p plus p.

    T, f and W each relabel the (size, rank) counts injectively, so their
    recurrences at p hold exactly when this equals ``table.profile``.
    """
    bit = 1 << (p - 1)
    rho = table.ranks[bit]
    counts = dict(ops.delete(table, bit).profile)
    for (s, r), c in ops.contract(table, bit).profile.items():
        counts[s + 1, r + rho] = counts.get((s + 1, r + rho), 0) + c
    return counts


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
    via_tutte = binomial_expansion(
        ((-1) ** k * c, {"t": e}, ((None, "t", a),))
        for (a, b, e), c in tutte(table).terms().items() if not b
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
    terms = tutte(core.complex_to_demimatroid(cx)).terms()
    via_tutte = term_sum(
        ((0, 0, e + i), c * comb(a, i)) for (a, _, e), c in terms.items() for i in range(a + 1)
    )
    return cross_checked("f-polynomial", "Tutte", via_tutte, "face-count", f_polynomial(cx))


def f_polynomial_via_hamming(cx: Complex) -> LaurentPoly:
    """f from the three-variable enumerator at t=0:

        (u+1)^n u^(-eta) W(1, (u+1)^(-1), 0)

    realized on W's t^0 terms, so no genuine rational function ever appears:
    with W homogeneous of degree n, a term x^a y^(n-a) becomes
    sum_i C(a, i) t^(i-eta), gathered in one term sum.  W has no negative
    t power, as the demimatroid of a complex has rank at most |X| on each X.
    Cross-checked against the face counts.
    """
    from . import hamming  # local import; hamming depends on this module

    table = core.complex_to_demimatroid(cx)
    eta = table.total_nullity
    terms = hamming.hamming_subset_sum(table).terms()
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
