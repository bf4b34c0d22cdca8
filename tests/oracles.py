"""The slower references the tests compare the library's routes against.

None has a caller in the package.  Each is the plain form of a quantity the
library computes on coordinates or in one walk: the term-by-term
``substitute`` behind every closed form (itself checked against sympy),
homology of one complex and the per-sigma Hochster formula behind the Betti
walk, dense Bareiss elimination behind the sparse kernel, the expansions of
the coordinates the routes and the battery decide on, the whole-polynomial
definition of the W^(r), and the Stanley-Reisner generators.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from demimat import core, hamming, simplicial, tutte
from demimat.errors import InvariantViolationError, MalformedInputError
from demimat.poly import (
    VARIABLES,
    LaurentPoly,
    angle,
    binomial_expansion,
    constant,
    monomial,
    q_binomial,
    term_sum,
    zero,
)


def substitute(p: LaurentPoly, assignments: dict) -> LaurentPoly:
    """``p`` with each named variable replaced, simultaneously, by a
    polynomial or an int: each term's residual monomial times its values'
    powers.  A negative power of a value that is not +-1 times a monomial
    raises UnsupportedSubstitutionError."""
    values = {}
    for name, value in assignments.items():
        if name not in VARIABLES:
            raise KeyError(f"unknown variable {name!r}")
        values[VARIABLES.index(name)] = value if isinstance(value, LaurentPoly) else constant(value)
    total = zero()
    for exp, coeff in p.terms().items():
        term = LaurentPoly({tuple(0 if i in values else e for i, e in enumerate(exp)): coeff})
        for i, value in values.items():
            term = term * value ** exp[i]
        total = total + term
    return total


def reduced_homology_dims(cx: core.Complex, fieldspec=simplicial.RATIONALS) -> list[int]:
    """Dimensions of the reduced homology groups, index 0 holding degree -1;
    the void complex has none."""
    if cx.is_void:
        return []
    simplicial._check_homology_cap(cx.n)
    layers: list[list[int]] = [[] for _ in range(cx.dim + 2)]
    for face in cx.faces():
        layers[face.bit_count()].append(face)
    return simplicial._homology_dims(layers, simplicial._Columns(cx.n), fieldspec.characteristic)


def restriction(cx: core.Complex, sigma: int) -> core.Complex:
    """The faces of ``cx`` inside ``sigma`` (same ambient n)."""
    return core.Complex(cx.n, frozenset(f for f in cx.face_set if not f & ~sigma))


def hochster_betti_multigraded(cx: core.Complex, sigma: int, i: int,
                               fieldspec=simplicial.RATIONALS) -> int:
    """beta_{i, sigma}: reduced homology of the restriction in degree |sigma|-i-1."""
    if sigma & ~core.full_mask(cx.n):
        raise MalformedInputError("sigma outside the ground set")
    dims = reduced_homology_dims(restriction(cx, sigma), fieldspec)
    slot = sigma.bit_count() - i
    return dims[slot] if 0 <= slot < len(dims) else 0


def minimal_non_faces(cx: core.Complex) -> tuple[int, ...]:
    """Masks of the inclusion-minimal non-faces: the Stanley-Reisner generators."""
    return tuple(
        mask for mask in range(1, 1 << cx.n)
        if mask not in cx and all(mask ^ bit in cx for bit in core.bits_of(mask))
    )


def rank_fraction_free(rows) -> int:
    """Rank over the rationals via one-step Bareiss elimination.

    All intermediate entries stay integers; the divisions are exact.
    """
    mat = [list(map(int, row)) for row in rows]
    if not mat or not mat[0]:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    pivot_row = 0
    for col in range(n_cols):
        sel = next((r for r in range(pivot_row, n_rows) if mat[r][col]), None)
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        piv = mat[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            f = mat[r][col]
            row_r = mat[r]
            row_p = mat[pivot_row]
            for c in range(col, n_cols):
                numerator = row_r[c] * piv - f * row_p[c]
                q, remainder = divmod(numerator, prev)
                if remainder:
                    raise InvariantViolationError("fraction-free elimination went inexact")
                row_r[c] = q
        prev = piv
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def macwilliams_transform(w: LaurentPoly, eta: int) -> LaurentPoly:
    """t^(-eta) W(x + (t-1) y, x - y, t): the expansion of
    ``hamming.macwilliams_coordinates``."""
    return binomial_expansion(hamming._basis_items(hamming.macwilliams_coordinates(w, eta)))


def hamming_recurrence(table: core.RankTable, p: int) -> LaurentPoly:
    """The deletion-contraction side of W at element p as a polynomial: the
    expansion of ``hamming.recurrence_coordinates``."""
    return binomial_expansion(hamming._basis_items(hamming.recurrence_coordinates(table, p)))


def tutte_recurrence(table: core.RankTable, p: int) -> LaurentPoly:
    """The deletion-contraction side of T at element p as a polynomial: the
    expansion of ``tutte.recurrence_counts``."""
    return binomial_expansion(tutte._basis_items(tutte.recurrence_counts(table, p)))


def whitney_recurrence(table: core.RankTable, p: int) -> LaurentPoly:
    """x^(eta*(p)) f(M\\p) + y^(1 - rho(p)) f(M/p): its monomials are the
    coordinates of ``tutte.recurrence_counts``, taken without that function's
    scope check, since any exponent is a Laurent monomial."""
    deleted, contracted, co, nu = tutte.deletion_contraction(table, p)
    counts = tutte._shifted_counts(tutte.corank_nullity_counts(deleted),
                                   tutte.corank_nullity_counts(contracted), co, nu)
    return term_sum(((a, b, 0), c) for (a, b), c in counts.items())


def combine_t_powers(r: int, w_at: Sequence[LaurentPoly]) -> LaurentPoly:
    """The definition of W^(r) from W(x, y, t^j) for j = 0 .. r:

        sum_j (-1)^(r-j) t^C(r-j, 2) [r, j]_t W(x, y, t^j), over <r>_t.

    The numerator is one term sum over j, the q-binomial's terms and the
    terms of W(x, y, t^j); the division by <r>_t is exact.
    """
    return term_sum(
        ((a, b, e + k + comb(r - j, 2)), (-1) ** (r - j) * d * c)
        for j in range(r + 1)
        for (_, _, k), d in q_binomial(r, j).terms().items()
        for (a, b, e), c in w_at[j].terms().items()
    ).divide_exact(angle(r))


def generalized_w_by_definition(table: core.RankTable, r: int) -> LaurentPoly:
    """W^(r) by the definition on the whole polynomial: the Tutte route's
    W(x, y, t) at t -> t^j for j = 0 .. r, by ``substitute``, combined by
    ``combine_t_powers``."""
    w = hamming._w_via_tutte_terms(table)
    return combine_t_powers(r, [substitute(w, {"t": monomial(1, t=j)}) for j in range(r + 1)])
