"""Exact sparse Laurent polynomials over Z in the fixed variable set {x, y, t}.

Terms map an exponent vector (signed integers, one slot per variable) to a
nonzero ``int`` coefficient, since every invariant here counts subsets; any
other coefficient raises TypeError.  The only units are +-1 times a
monomial: ``monomial_inverse`` and a negative power take nothing else
(UnsupportedSubstitutionError).
``divide_exact`` is exact over Z: a quotient coefficient that is not an
integer raises InexactDivisionError, which a divisor led by +-1, as every
divisor in the package is, never does.  There is no floating point anywhere.
Values are immutable by convention: every operation returns a fresh
polynomial.  Scalar products are one map over the coefficients.  Zero is
``LaurentPoly()``, and the variables ``X``, ``Y`` and ``T`` are
``monomial`` values.

``binomial_expansion`` writes products of powers of binomials such as
(x-y)^m or (x-1)^a (y-1)^b through a packed kernel (``_binomial``): each
exponent vector is one int with a fixed slot offset for negative exponents,
each factor tuple's whole product is cached once per process as pairs of a
packed delta and a coefficient, built from cached rows of ``math.comb``
values, every item is written with one loop over its product, and the
packed ints are decoded once at the end.  An exponent that would leave its
slot, or a product of more than (GROUND_SET_CAP + 1)^2 terms, raises
OverflowError before any term is written or any product is cached.  Each
basis that coordinates are kept in has one writer on it: ``w_basis``,
(x-y)^a y^b t^e, and ``tutte_basis``, (x-1)^a (y-1)^b t^e.  The changes of
variables in ``hamming`` and ``tutte`` (the Tutte side of the
characteristic polynomial, f and h, the definition route of the W^(r))
are closed forms built on them and on ``term_sum``: one pass over the
source terms into one term dict.  ``term_sum`` is the one writer of a term
dict here: the constructor, ``+``, the product of two polynomials and
``coefficient`` gather through it, and only ``divide_exact`` keeps rows of
its own, which it reads while it writes them.  The rule stops at this
module: the route accumulators of ``hamming``, ``tutte`` and ``simplicial``
(coordinates, recurrence counts, Betti sums) run on every table of the
battery and keep their inline loops, since a shared writer made each of
those functions 12-33% slower.  A route
decided on basis coordinates compares them in
``cross_checked_coordinates``, which expands both sides only on a
disagreement, for ``cross_checked`` to name its witness.  There is no
generic substitution; the tests keep a term-by-term one as the oracle of
every closed form.
The q-analogue tables ``q_binomial`` and ``angle`` are cached per argument
tuple, and so is ``hamming``'s image of each t^e under the definition of the
W^(r), per (r, e); sharing one value between callers is safe because no
operation aliases or mutates an operand's terms.  The binomial products are
cached as tuples, so no expansion shares state with the cache.

Display order is fixed so that printed polynomials are stable golden values:
terms are sorted by the exponent vector read with x least significant
(compare t, then y, then x exponents, ascending).  Negative exponents
print as ``x^-1``.  Each exponent vector's ``x^a*y^b*t^e`` text is cached
once per process; the coefficient and its sign are written per term.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cache
from operator import index

from ._binomial import _expand
from .errors import InexactDivisionError, InvariantViolationError, UnsupportedSubstitutionError

VARIABLES = ("x", "y", "t")
_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_ZERO_EXP = (0, 0, 0)


def _quotient(c: int, lead: int, divisor) -> int:
    """``c / lead`` when it is an integer; otherwise InexactDivisionError."""
    q, r = divmod(c, lead)
    if r:
        raise InexactDivisionError(
            f"inexact division by {divisor}: {c}/{lead} is not an integer", remainder=None
        )
    return q


@cache
def _monomial_text(exp: tuple) -> str:
    """The monomial of an exponent vector as ``x^a*y^b*t^e`` text, with
    exponent 1 left out and 1 as the empty string; cached per vector."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(VARIABLES, exp) if e)


def _from_terms(terms: dict) -> LaurentPoly:
    """Wrap an already clean term dict (nonzero int coefficients) without copying it."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    return p


class LaurentPoly:
    """A sparse multivariate Laurent polynomial over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        items = []
        for exp, coeff in (terms or {}).items():
            e = tuple(exp)
            if len(e) != len(VARIABLES) or not all(isinstance(k, int) for k in e):
                raise ValueError(f"bad exponent vector {exp!r}")
            items.append((e, index(coeff)))
        self._terms = term_sum(items)._terms

    # -- inspection ---------------------------------------------------------

    def terms(self) -> dict[tuple, int]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def variables(self) -> tuple[str, ...]:
        """Names of variables that occur with a nonzero exponent."""
        used = [False] * len(VARIABLES)
        for exp in self._terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for i, v in enumerate(VARIABLES) if used[i])

    def min_exponent(self, var: str) -> int:
        i = _INDEX[var]
        return min((exp[i] for exp in self._terms), default=0)

    def coefficient(self, **fixed: int) -> LaurentPoly:
        """Collect terms matching the given exponents and strip those slots.

        ``w.coefficient(x=2, y=1)`` returns the polynomial in the remaining
        variables multiplying x^2*y.
        """
        idx = {_INDEX[v]: e for v, e in fixed.items()}
        return term_sum((tuple(0 if i in idx else e for i, e in enumerate(exp)), coeff)
                        for exp, coeff in self._terms.items()
                        if all(exp[i] == e for i, e in idx.items()))

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> LaurentPoly | None:
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return constant(other)
        return None

    def __add__(self, other) -> LaurentPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return term_sum([*self._terms.items(), *o._terms.items()])

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _from_terms({exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other) -> LaurentPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> LaurentPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> LaurentPoly:
        if isinstance(other, int):
            if not other:
                return _from_terms({})
            return _from_terms({exp: other * v for exp, v in self._terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return term_sum(((e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2]), c1 * c2)
                        for e1, c1 in self._terms.items() for e2, c2 in o._terms.items())

    __rmul__ = __mul__

    def __pow__(self, power: int) -> LaurentPoly:
        if not isinstance(power, int):
            return NotImplemented
        if power < 0:
            return self.monomial_inverse() ** (-power)
        result = one()
        base = self
        k = power
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def monomial_inverse(self) -> LaurentPoly:
        """Inverse of a unit, +-1 times a monomial; nothing else is invertible."""
        if not self.is_monomial or abs(next(iter(self._terms.values()))) != 1:
            raise UnsupportedSubstitutionError(
                f"only +-1 times a monomial is invertible in the Laurent ring: {self}"
            )
        (exp, coeff), = self._terms.items()
        return _from_terms({tuple(-e for e in exp): coeff})

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- division -----------------------------------------------------------

    def divide_exact(self, divisor: LaurentPoly | int) -> LaurentPoly:
        """Exact division over Z; raises InexactDivisionError on a nonzero
        remainder or on a quotient coefficient that is not an integer (then
        with ``remainder=None``).

        The divisor must be a nonzero monomial, an integer constant, or a
        polynomial in a single variable (the cases the identities in this
        package need).  A divisor whose leading coefficient is +-1 never
        meets a non-integral quotient coefficient.
        """
        d = divisor if isinstance(divisor, LaurentPoly) else constant(divisor)
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if d.is_monomial:
            (exp, lead), = d._terms.items()
            shifted = self * _from_terms({tuple(-e for e in exp): 1})
            return _from_terms({e: _quotient(c, lead, d) for e, c in shifted._terms.items()})
        dvars = d.variables()
        if len(dvars) != 1:
            raise InexactDivisionError(
                f"divisor must be a monomial or univariate, got {d}", remainder=None
            )
        vi = _INDEX[dvars[0]]
        den = {exp[vi]: c for exp, c in d._terms.items()}
        top = max(den)
        lead = den.pop(top)
        # rows[k] holds the dividend's terms whose exponent of the divisor's
        # variable is k; rows below ``stop`` can no longer be divided.
        rows: dict[int, dict[tuple, int]] = {}
        for exp, c in self._terms.items():
            rows.setdefault(exp[vi], {})[exp] = c
        stop = min(rows, default=0) + top - min(den)
        quotient: dict[tuple, int] = {}
        for k in range(max(rows, default=0), stop - 1, -1):
            for exp, c in rows.pop(k, {}).items():
                factor = _quotient(c, lead, d)
                head, tail = exp[:vi], exp[vi + 1:]
                quotient[head + (k - top,) + tail] = factor
                for j, cj in den.items():
                    row = rows.setdefault(k - top + j, {})
                    key = head + (k - top + j,) + tail
                    value = row.get(key, 0) - factor * cj
                    if value:
                        row[key] = value
                    else:
                        row.pop(key, None)
        remainder = {exp: c for row in rows.values() for exp, c in row.items()}
        if remainder:
            rem = _from_terms(remainder)
            raise InexactDivisionError(
                f"inexact division by {d}: remainder {rem}", remainder=rem
            )
        return _from_terms(quotient)

    # -- display --------------------------------------------------------------

    def _sorted_terms(self) -> list[tuple[tuple, int]]:
        # x is least significant: compare (t, y, x) exponents ascending.
        return sorted(self._terms.items(), key=lambda kv: kv[0][::-1])

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp, coeff in self._sorted_terms():
            text = _monomial_text(exp)
            mag = abs(coeff)
            if not text:
                body = str(mag)
            elif mag == 1:
                body = text
            else:
                body = f"{mag}*{text}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


# -- constructors -------------------------------------------------------------


def one() -> LaurentPoly:
    return _from_terms({_ZERO_EXP: 1})


def constant(value: int) -> LaurentPoly:
    c = index(value)
    return _from_terms({_ZERO_EXP: c} if c else {})


def monomial(coeff: int, **exps: int) -> LaurentPoly:
    exp = [0] * len(VARIABLES)
    for name, e in exps.items():
        if not isinstance(e, int):
            raise ValueError(f"bad exponent {e!r} for {name}")
        exp[_INDEX[name]] = e
    c = index(coeff)
    return _from_terms({tuple(exp): c} if c else {})


X = monomial(1, x=1)
Y = monomial(1, y=1)
T = monomial(1, t=1)


def term_sum(items: Iterable[tuple[tuple, int]]) -> LaurentPoly:
    """Sum of coeff * x^a y^b t^c over pairs ((a, b, c), coeff) of an
    exponent vector and an int, gathered in one term dict and wrapped once;
    zero sums are dropped."""
    out: dict[tuple, int] = {}
    for exp, coeff in items:
        out[exp] = out.get(exp, 0) + coeff
    return _from_terms({exp: c for exp, c in out.items() if c})


def poly_sum(items) -> LaurentPoly:
    """Sum of polynomials, gathered in one term dict and wrapped once."""
    return term_sum(term for item in items for term in item._terms.items())


def cross_checked(invariant: str, left: str, a: LaurentPoly, right: str, b: LaurentPoly
                  ) -> LaurentPoly:
    """``a``, once it equals ``b``, the same invariant computed by another route.

    A disagreement raises with its witness: the invariant, the route pair and
    the first monomial, in display order, whose coefficients differ.
    """
    if a == b:
        return a
    exp, _ = (a - b)._sorted_terms()[0]
    term = monomial(1, **dict(zip(VARIABLES, exp)))
    raise InvariantViolationError(
        f"{invariant}: the {left} and {right} routes disagree first at {term}"
        f" ({a._terms.get(exp, 0)} against {b._terms.get(exp, 0)})"
    )


def cross_checked_coordinates(invariant: str, left: str, a: Mapping, right: str, b: Mapping,
                              basis: Callable[[Mapping], LaurentPoly]) -> None:
    """Return once ``a`` and ``b``, the same invariant's coordinates by two
    routes in one linearly independent ``basis``, without zeros, are equal.

    Equal coordinates expand to equal polynomials, and different ones to
    different polynomials, so this decides what comparing the expansions
    would.  Only a disagreement expands both sides, and ``cross_checked``
    raises with its witness, the first differing monomial.  Where a side has
    no expansion (a negative binomial power), the witness is the least
    differing coordinate instead.
    """
    if a == b:
        return
    try:
        expanded = basis(a), basis(b)
    except UnsupportedSubstitutionError as exc:
        key = min(key for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0))
        raise InvariantViolationError(
            f"{invariant}: the {left} and {right} routes disagree first at coordinate"
            f" {key} ({a.get(key, 0)} against {b.get(key, 0)})") from exc
    cross_checked(invariant, left, expanded[0], right, expanded[1])


def binomial_expansion(
    items: Iterable[tuple[int, Mapping[str, int], Sequence[tuple[str, str | None, int]]]],
) -> LaurentPoly:
    """Sum of c * mono * prod (u - v)^k over items (c, mono, factors), expanded.

    ``mono`` maps variable names to the exponents of a monomial; each factor
    (u, v, k) is the binomial u - v, with u and v variable names or None for
    1, raised to k >= 0.  The packed kernel (``_binomial``) writes each
    item with one loop over its factor tuple's cached product, so no
    intermediate polynomial is built.  A coefficient that is not an int
    raises TypeError; a negative k has no Laurent expansion and raises
    UnsupportedSubstitutionError; an exponent outside the packed slot range,
    or a factor tuple with more than (GROUND_SET_CAP + 1)^2 terms as
    written, prod (k + 1), raises OverflowError (``ExponentRangeError``).
    """
    return _from_terms(_expand(items))


def w_basis(coordinates: Mapping[tuple[int, int, int], int]) -> LaurentPoly:
    """The sum of c (x-y)^a y^b t^e over the coordinates (a, b, e) -> c: the
    basis of W's subset sum."""
    return binomial_expansion((c, {"y": b, "t": e}, (("x", "y", a),))
                              for (a, b, e), c in coordinates.items())


def tutte_basis(coordinates: Mapping[tuple[int, int, int], int]) -> LaurentPoly:
    """The sum of c (x-1)^a (y-1)^b t^e over the coordinates (a, b, e) -> c:
    the basis of the corank-nullity sum, with t the q of the recovery
    identity."""
    return binomial_expansion((c, {"t": e}, (("x", None, a), ("y", None, b)))
                              for (a, b, e), c in coordinates.items())


# -- q-analogues ---------------------------------------------------------------
#
# q is stored in the t slot.  The q-binomial satisfies
# [m,j]_q = [m-1,j]_q + q^(m-j) [m-1,j-1]_q;
# <m>_q = (q^m - 1)(q^m - q) ... (q^m - q^(m-1)), with <0>_q = 1.


@cache
def q_binomial(m: int, j: int) -> LaurentPoly:
    """Gaussian binomial coefficient, built by the Pascal-type recurrence."""
    if j < 0 or j > m:
        raise ValueError(f"q-binomial needs 0 <= j <= m, got ({m}, {j})")
    row = [one()]
    for mm in range(1, m + 1):
        new = [one()]
        for jj in range(1, mm):
            new.append(row[jj] + monomial(1, t=mm - jj) * row[jj - 1])
        new.append(one())
        row = new
    return row[j]


@cache
def angle(m: int) -> LaurentPoly:
    if m < 0:
        raise ValueError("angle bracket needs m >= 0")
    out = one()
    qm = monomial(1, t=m)
    for i in range(m):
        out = out * (qm - monomial(1, t=i))
    return out
