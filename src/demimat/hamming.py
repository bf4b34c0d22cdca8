"""The three-variable Hamming polynomial W(x,y,t) by every route, MacWilliams,
the coefficient polynomials P_j and A_j, and the generalized q-enumerators.

W is homogeneous of degree n in (x, y); the t slot doubles as the q of the
generalized enumerators, so a single variable stores both and the caller
chooses how to print it.  Each quantity has one implementation, and W is
expanded once per table, by the subset sum.  The definition route of the
W^(r), ``generalized_w(table, r)``, reads the W that
``hamming_via_tutte`` returns, so it checks the Tutte relabelling before it
uses W.  The definition is Z[x, y]-linear in W, so that route applies it to
each monomial t^e; its image of t^e depends only on (r, e) and is cached
per (r, e), beside ``q_binomial`` and ``angle``.  ``generalized_w_all`` is
the subset route of the whole family, and ``a_coefficients`` the one source
of the A_j; delta and c are ``formal_min_distance``'s.

W's coordinates in the basis (x-y)^a y^b t^e, ``subset_sum_coordinates``,
are a read-only view computed once per table from that table's own profile;
a derived table (the dual, a minor) reads its own.

These checks are decided on coordinates in a linearly independent basis,
which is not weaker than comparing polynomials, because the expansion is a
function of the coordinates:

- the Tutte route: the corank-nullity counts, relabelled, against the
  subset sum's coordinates;
- the P_j route: each P_j's terms t^e, moved to x^(n-j) y^j t^e, against
  the subset sum's terms (the Betti route does the same with its sums);
- MacWilliams: ``macwilliams_coordinates`` against the dual's
  ``subset_sum_coordinates``;
- the Tutte recovery (the Hamming route of T) and the recovery identity of
  ``conjecture_check`` (its q-enumerator route, a theorem): sums on
  (x-1, y-1, t) coordinates, where dividing by a power of x - 1 is an
  exponent shift, against the corank-nullity counts.

The routes among them decide through ``poly.cross_checked_coordinates``,
which expands both sides only when they disagree, so that ``cross_checked``
names the first differing monomial; the tests expand the MacWilliams
coordinates as their oracle.  W's deletion-contraction recurrence holds
exactly when T's does (``tutte``), so the battery decides it there.
"""
from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb

from . import core, ops, tutte as tutte_mod, weights
from ._records import record
from .core import RankTable, per_table
from .errors import (
    InexactDivisionError,
    InvariantViolationError,
    KindError,
    MalformedInputError,
)
from .poly import (
    LaurentPoly,
    T,
    angle,
    cross_checked,
    cross_checked_coordinates,
    monomial,
    poly_sum,
    q_binomial,
    term_sum,
    tutte_basis,
    w_basis,
)


@per_table
def subset_sum_coordinates(table: RankTable) -> dict[tuple[int, int, int], int]:
    """W's coordinates in the basis (x-y)^a y^b t^e: the count of each
    (n - |X|, |X|, eta(X)), one per (size, rank) pair of the profile;
    read-only, read once per table off its own profile."""
    n = table.n
    return core._FrozenCounts({(n - s, s, s - r): c for (s, r), c in table.profile.items()})


@per_table
def hamming_subset_sum(table: RankTable) -> LaurentPoly:
    """W as the sum of (x-y)^(n-|X|) y^|X| t^(eta(X)) over all subsets X.

    The term depends only on |X| and rho(X), so each (size, rank) pair of
    the table's profile is expanded once, times its count.  Negative
    nullities of a general combinatroid land in negative t powers, which are
    still Laurent monomials.
    """
    return w_basis(subset_sum_coordinates(table))


def hamming_via_tutte(table: RankTable) -> LaurentPoly:
    """W as the cleared Tutte substitution: the subset sum, once the Tutte
    terms, relabelled, are its coordinates.

    The (x-1, y-1) Tutte term of corank a and nullity b contributes
    (x-y)^(eta(E)+a-b) y^(rho(E)-a+b) t^b, so its count is the subset-sum
    coordinate (eta(E)+a-b, rho(E)-a+b, b) = (n-|A|, |A|, eta(A)).  Both W's
    would be the same expansion of these coordinates, so comparing them
    checks exactly the relabelling.
    """
    eta, k = table.total_nullity, table.rank
    relabelled = {(eta + a - b, k - a + b, b): c
                  for (a, b), c in tutte_mod.corank_nullity_counts(table).items()}
    cross_checked_coordinates("W", "Tutte", relabelled,
                              "subset-sum", subset_sum_coordinates(table), w_basis)
    return hamming_subset_sum(table)


# -- coefficient polynomials -----------------------------------------------------


def pj_family(table: RankTable) -> tuple[LaurentPoly, ...]:
    """(P_0, .., P_n) in closed form on the count of subsets by (size, nullity).

    Each gamma of size s lies in C(n-s, j-s) sets sigma of size j, so the
    definition P_j = sum_{|sigma|=j} sum_{gamma <= sigma} (-1)^(j-|gamma|)
    t^(eta(gamma)) is sum_{(s, e)} count(s, e) (-1)^(j-s) C(n-s, j-s) t^e.
    The count reads the table's nullities, the ranks of
    ``ops.nullity_operator``, never its profile, so the P_j route sees a
    wrong profile.  The definitional route, over the 3^n submask terms, is
    the tests' oracle ``oracles.p_j``.
    """
    n = table.n
    counts = Counter(zip(core.mask_sizes(n), ops.nullity_operator(table).ranks))
    return tuple(term_sum(((0, 0, e), (-1) ** (j - s) * comb(n - s, j - s) * c)
                          for (s, e), c in counts.items() if s <= j)
                 for j in range(n + 1))


def w_from_pj(table: RankTable) -> LaurentPoly:
    """W as sum_j P_j x^(n-j) y^j: the subset sum, once each P_j's terms t^e,
    moved to x^(n-j) y^j t^e, are its terms."""
    n = table.n
    terms = {(n - j, j, e): c for j, p in enumerate(pj_family(table))
             for (_, _, e), c in p.terms().items()}
    w = hamming_subset_sum(table)
    cross_checked_coordinates("W", "P_j", terms, "subset-sum", w.terms(), LaurentPoly)
    return w


# -- transforms --------------------------------------------------------------------


def macwilliams_coordinates(w: LaurentPoly, eta: int) -> dict[tuple[int, int, int], int]:
    """The coordinates of t^(-eta) W(x + (t-1) y, x - y, t) in the basis
    (x-y)^a y^b t^e, without zeros.

    Since x + (t-1) y = (x - y) + ty, a term x^a y^b t^e maps to
    sum_i C(a, i) (x-y)^(a+b-i) y^i t^(e+i-eta).  A negative power of x or
    y has no Laurent image and raises UnsupportedSubstitutionError.
    """
    coordinates: dict[tuple[int, int, int], int] = {}
    for (a, b, e), c in tutte_mod.expandable_terms(w, x="x + (t-1)y", y="x - y").items():
        for i in range(a + 1):
            key = (a + b - i, i, e + i - eta)
            coordinates[key] = coordinates.get(key, 0) + c * comb(a, i)
    return {key: c for key, c in coordinates.items() if c}


def macwilliams(table: RankTable) -> LaurentPoly:
    """W of the dual: its subset sum, once the MacWilliams transform of W has
    the same coordinates."""
    table.require_demimatroid("MacWilliams identity")
    dual = ops.dual(table)
    coordinates = macwilliams_coordinates(hamming_subset_sum(table), table.total_nullity)
    cross_checked_coordinates("W of the dual", "MacWilliams", coordinates,
                              "dual subset-sum", subset_sum_coordinates(dual), w_basis)
    return hamming_subset_sum(dual)


def _at_one_over_x(terms: dict, n: int):
    """x^n w(1, 1/x, t) in the basis (x-1)^i t^e, for the ``terms`` of w: a
    term x^a y^b t^e becomes x^(n-b) t^e = sum_i C(n-b, i) (x-1)^i t^e,
    yielded as ((i, e), c) pairs.  A term with b > n leaves a negative power
    of x, which no power of x - 1 clears: InexactDivisionError."""
    for (_, b, e), c in terms.items():
        if b > n:
            raise InexactDivisionError(f"x^{n - b} is not a polynomial in x - 1")
        for i in range(n - b + 1):
            yield (i, e), c * comb(n - b, i)


def _checked_against_tutte(table: RankTable, route: str, coordinates: dict, power: int) -> None:
    """Return once ``route``'s (x-1, y-1, q) coordinates of (x-1)^power T,
    shifted down by ``power`` in the first exponent, are the corank-nullity
    counts relabelled to (a, b, 0).  A nonzero coordinate below (x-1)^power
    lands at a negative first exponent, which T's side never has, so it is a
    differing coordinate like any other."""
    divided = {(a - power, b, e): c for (a, b, e), c in coordinates.items() if c}
    counts = {(a, b, 0): c for (a, b), c in tutte_mod.corank_nullity_counts(table).items()}
    cross_checked_coordinates("Tutte polynomial", route, divided,
                              "corank-nullity", counts, tutte_basis)


def tutte_from_hamming(table: RankTable) -> LaurentPoly:
    """T(x,y) = (x-1)^(-eta) x^n W(1, 1/x, (x-1)(y-1)), decided on the
    (x-1, y-1) coordinates and returned as ``tutte.tutte``.

    A term c x^a y^b t^e of W goes to sum_i c C(n-b, i) (x-1)^(i+e-eta)
    (y-1)^e, so the division by (x-1)^eta is an exponent shift, and a
    nonzero coordinate below (x-1)^eta differs from T's.  The result must
    equal the corank-nullity counts.  A negative t power has no Laurent
    image and raises UnsupportedSubstitutionError.
    """
    table.require_demimatroid("Tutte recovery")
    terms = tutte_mod.expandable_terms(hamming_subset_sum(table), t="(x-1)(y-1)")
    cleared: dict[tuple[int, int, int], int] = {}
    for (i, e), c in _at_one_over_x(terms, table.n):
        key = (i + e, e, 0)
        cleared[key] = cleared.get(key, 0) + c
    _checked_against_tutte(table, "Hamming", cleared, table.total_nullity)
    return tutte_mod.tutte(table)


# -- formal minimum distance and A-coefficients ---------------------------------------


def formal_min_distance(table: RankTable) -> tuple[int, int]:
    """(delta, c): smallest size with nullity 1 and how many subsets attain it."""
    table.require_demimatroid("formal minimum distance")
    if table.total_nullity == 0:
        raise KindError("every subset is independent; no formal minimum distance")
    delta = weights.min_size_at_nullity(table, 1)
    return delta, table.profile[delta, delta - 1]


def _uniform_a_closed_form(n: int, i: int, delta: int) -> LaurentPoly:
    inner = poly_sum(
        (-1) ** j * comb(i - 1, j) * monomial(1, t=i - delta - j)
        for j in range(i - delta + 1)
    )
    return (T - 1) * comb(n, i) * inner


def a_coefficients(table: RankTable) -> dict[int, LaurentPoly]:
    """The weight coefficients A_j read off W, as a dict by j.

    Verifies the structure the level sets force: A_j = 0 below delta and
    A_delta = c (t-1); when the table is uniform the closed form for every
    A_i is cross-checked as well.
    """
    delta, c = formal_min_distance(table)
    # A_j is the t polynomial multiplying x^(n-j) y^j: group W's terms by
    # their (x, y) exponents once.
    n = table.n
    groups: dict[tuple[int, int], list] = {}
    for (a, b, e), coeff in hamming_subset_sum(table).terms().items():
        groups.setdefault((a, b), []).append(((0, 0, e), coeff))
    coeffs = {j: term_sum(groups.get((n - j, j), ())) for j in range(1, n + 1)}
    if term_sum(groups.get((n, 0), ())) != 1:
        raise InvariantViolationError("leading coefficient of W is not x^n")
    for j in range(1, delta):
        if not coeffs[j].is_zero:
            raise InvariantViolationError(f"A_{j} should vanish below delta={delta}")
    if coeffs[delta] != c * (T - 1):
        raise InvariantViolationError("A_delta does not equal c (t-1)")
    k = table.rank
    if all(r == min(s, k) for s, r in table.profile):
        for i in range(delta, n + 1):
            if coeffs[i] != _uniform_a_closed_form(n, i, delta):
                raise InvariantViolationError(f"uniform closed form fails at A_{i}")
    return coeffs


# -- generalized enumerators -----------------------------------------------------------


def _t_slices(w: LaurentPoly) -> dict[int, dict[tuple[int, int], int]]:
    """W's terms by their t exponent: e -> {(a, b): c} for the terms c x^a y^b t^e."""
    slices: dict[int, dict[tuple[int, int], int]] = {}
    for (a, b, e), c in w.terms().items():
        slices.setdefault(e, {})[a, b] = c
    return slices


@cache
def _definition_at_t_power(r: int, e: int) -> LaurentPoly:
    """The definition of W^(r) applied to the monomial t^e:

        sum_j (-1)^(r-j) t^C(r-j, 2) [r, j]_t t^(j e), over <r>_t,

    one term sum over j and the q-binomial's terms, divided exactly by
    <r>_t.  It depends only on (r, e), so it is cached like ``q_binomial``
    and ``angle``; both are at most the ground-set cap, which bounds the
    cache at 21 x 21 values.
    """
    return term_sum(
        ((0, 0, k + comb(r - j, 2) + j * e), (-1) ** (r - j) * d)
        for j in range(r + 1)
        for (_, _, k), d in q_binomial(r, j).terms().items()
    ).divide_exact(angle(r))


def generalized_w(table: RankTable, r: int, route: str = "tutte") -> LaurentPoly:
    """r-th generalized Hamming weight enumerator by its definition.

    The definition is the alternating q-binomial combination of W(x, y, q^j)
    for j = 0 .. r, divided exactly by the angle bracket <r>_q, and it is
    cross-checked against ``generalized_w_all`` (zero above eta(E)), the
    subset route.  The definition is Z[x, y]-linear in W, so it is applied
    to each slice W_e(x, y) q^e of the W(x, y, q) that ``hamming_via_tutte``
    returns; the image of q^e is cached per (r, e).  The q variable is
    stored in the t slot.  ``route`` takes only ``"tutte"``.
    """
    table.require_demimatroid("generalized enumerator")
    if not 0 <= r <= table.n:
        raise MalformedInputError(f"need 0 <= r <= {table.n}, got {r}")
    if route != "tutte":
        raise MalformedInputError(f"unknown route {route!r}")
    family = generalized_w_all(table)
    subset = family[r] if r < len(family) else LaurentPoly()
    value = term_sum(((a, b, k), c * d)
                     for e, w_e in _t_slices(hamming_via_tutte(table)).items()
                     for (_, _, k), d in _definition_at_t_power(r, e).terms().items()
                     for (a, b), c in w_e.items())
    return cross_checked(f"W^({r})", "Tutte", value, "subset-sum", subset)


@per_table
def generalized_w_all(table: RankTable) -> tuple[LaurentPoly, ...]:
    """W^(r) for r = 0 .. eta(E), the range the recovery identity sums over.

    W^(r) = sum_{e >= r} [e, r]_q W_e(x, y), where W_e is the t^e
    coefficient of W: the definition's j-sum, taken on W_e q^(je), is
    W_e prod_{i<r} (q^e - q^i), and that product over <r>_q is [e, r]_q
    (zero for e < r).  So one W gives the family, with no substitution and
    no division.  ``generalized_w(table, r)`` is the definition route that
    checks it.
    """
    table.require_demimatroid("generalized enumerator")
    slices = _t_slices(hamming_subset_sum(table))
    return tuple(
        term_sum(((a, b, k), c * d)
                 for e, w_e in slices.items() if e >= r
                 for (_, _, k), d in q_binomial(e, r).terms().items()
                 for (a, b), c in w_e.items())
        for r in range(table.total_nullity + 1)
    )


class ConjectureReport(record("ConjectureReport", "holds error", defaults=(None,))):
    """The recovery identity's report: ``conjecture_check`` returns it once
    the identity holds, so ``holds`` is True and ``error`` None."""

    __slots__ = ()


def conjecture_check(table: RankTable) -> ConjectureReport:
    """The q-enumerator route of T: the recovery identity, a theorem on
    demimatroids (README, Conventions), decided against the corank-nullity counts.

        T(x,y) = x^n (x-1)^(k-n) * sum_r prod_{j<r}((x-1)(y-1) - q^j) W^(r)(1, 1/x, q)

    The right side is summed on its coordinates in the basis
    (x-1)^a (y-1)^b q^e, in Horner form: with u = (x-1)(y-1) and
    E_r = x^n W^(r)(1, 1/x, q) = sum C(n-b, i) (x-1)^i q^e over W^(r)'s
    terms, it is E_0 + (u - 1)(E_1 + (u - q)(E_2 + ...)), and multiplying by
    u - q^r adds two shifted copies.  Dividing by (x-1)^(n-k) shifts the
    first exponent, and any coordinate that differs from T's raises.
    """
    table.require_demimatroid("conjecture check")
    n = table.n
    rhs: dict[tuple[int, int, int], int] = {}
    family = generalized_w_all(table)
    for r in reversed(range(len(family))):
        shifted = {(a + 1, b + 1, e): c for (a, b, e), c in rhs.items()}
        for (a, b, e), c in rhs.items():  # times u - q^r
            key = a, b, e + r
            shifted[key] = shifted.get(key, 0) - c
        for (i, e), c in _at_one_over_x(family[r].terms(), n):  # plus E_r
            shifted[i, 0, e] = shifted.get((i, 0, e), 0) + c
        rhs = shifted
    _checked_against_tutte(table, "q-enumerator", rhs, n - table.rank)
    return ConjectureReport(True)
