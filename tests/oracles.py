"""The slower references the tests compare the library's routes against.

None has a caller in the package.  Each is the plain form of a quantity the
library computes on coordinates or in one walk: the term-by-term
``substitute`` behind every closed form (itself checked against sympy),
homology of one complex and the per-sigma Hochster formula behind the Betti
walk, dense Bareiss elimination behind the sparse kernel, the expansions of
the coordinates the routes and the battery decide on, W's recurrence on the
minors' own W, the whole-polynomial definition of the W^(r), and the
Stanley-Reisner generators.  The plain
definitions behind the memoized table views are here too: the size-rank
profile counted mask by mask and the coordinate views re-read from it on
every call, the graph trichotomy tested edge by edge, and the sampler that
draws each rank by ``randint``.  So are the definitions of the table
builders of ``ops``, which run on byte views: each derived table's ranks
written mask by mask.

The references that no program path runs live here as well: the
mask-by-mask classification (``classify``, with a witness per violated
axiom) behind ``core._kind``; the definitional P_j route (``p_sigma`` and
``p_j``, over the 3^n submask terms) behind ``hamming.pj_family``; a
table's nullity at one mask; the independence and level complexes of a
table; and the itemized check of the complex/demimatroid Galois connection
(``galois_check``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import combinations
from math import comb
from operator import or_
from typing import NamedTuple

from demimat import core, hamming, simplicial, tutte, weights
from demimat.errors import InvariantViolationError, MalformedInputError
from demimat.poly import (
    VARIABLES,
    X,
    Y,
    LaurentPoly,
    angle,
    constant,
    monomial,
    poly_sum,
    q_binomial,
    term_sum,
    tutte_basis,
    w_basis,
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
    return w_basis(hamming.macwilliams_coordinates(w, eta))


def hamming_recurrence(table: core.RankTable, p: int) -> LaurentPoly:
    """The deletion-contraction side of W at element p from the minors' own
    W: (x-y) W(M\\p) + y t^(1-rho(p)) W(M/p).  Any t exponent is a Laurent
    monomial, so any table is accepted."""
    deleted, contracted, _, nu = tutte.deletion_contraction(table, p)
    return ((X - Y) * hamming.hamming_subset_sum(deleted)
            + monomial(1, y=1, t=nu) * hamming.hamming_subset_sum(contracted))


def tutte_recurrence(table: core.RankTable, p: int) -> LaurentPoly:
    """The deletion-contraction side of T at element p as a polynomial: the
    expansion of ``tutte.recurrence_counts``."""
    return tutte_basis({(a, b, 0): c for (a, b), c in tutte.recurrence_counts(table, p).items()})


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
    w = hamming.hamming_via_tutte(table)
    return combine_t_powers(r, [substitute(w, {"t": monomial(1, t=j)}) for j in range(r + 1)])


# -- the table views, re-derived on every call -----------------------------------------


def size_rank_profile(table: core.RankTable) -> Counter:
    """#{X : |X| = s, rank(X) = r} by (s, r), counted mask by mask."""
    return Counter((mask.bit_count(), table.ranks[mask]) for mask in range(1 << table.n))


def corank_nullity_counts(table: core.RankTable) -> dict[tuple[int, int], int]:
    """The (corank, nullity) counts, re-read from the mask-by-mask profile."""
    k = table.rank
    return {(k - r, s - r): c for (s, r), c in size_rank_profile(table).items()}


def subset_sum_coordinates(table: core.RankTable) -> dict[tuple[int, int, int], int]:
    """W's (x-y, y, t) coordinates, re-read from the mask-by-mask profile."""
    n = table.n
    return {(n - s, s, s - r): c for (s, r), c in size_rank_profile(table).items()}


def wei_hierarchy(table: core.RankTable) -> weights.WeiProfile:
    """The Wei numbers, re-read from the mask-by-mask profile."""
    table.require_demimatroid("Wei hierarchy")
    k = table.rank
    sizes: list[list[int]] = [[] for _ in range(k + 1)]
    for s, r in size_rank_profile(table):
        sizes[r].append(s)
    if not all(sizes):
        raise InvariantViolationError("rank image is not the full interval 0..k")
    return weights.WeiProfile(k, tuple(min(v) for v in sizes[1:]), tuple(max(v) for v in sizes))


def min_size_at_nullity(table: core.RankTable, r: int) -> int:
    """The least size with nullity r, re-read from the mask-by-mask profile."""
    sizes = [s for s, rank in size_rank_profile(table) if s - rank == r]
    if not sizes:
        raise MalformedInputError(f"no subset has nullity {r}")
    return min(sizes)


# -- the table builders, mask by mask ------------------------------------------------


def dual(table: core.RankTable) -> tuple[int, ...]:
    """rho*(X) = |X| + rho(E\\X) - rho(E)."""
    full, ranks = table.full, table.ranks
    return tuple(x.bit_count() + ranks[full ^ x] - table.rank for x in range(full + 1))


def nullity_operator(table: core.RankTable) -> tuple[int, ...]:
    """rho°(X) = |X| - rho(X)."""
    return tuple(x.bit_count() - r for x, r in enumerate(table.ranks))


def supplement(table: core.RankTable) -> tuple[int, ...]:
    """rho&(X) = rho(E) - rho(E\\X)."""
    full, ranks = table.full, table.ranks
    return tuple(table.rank - ranks[full ^ x] for x in range(full + 1))


def _compacted(n: int, removed: int) -> list[int]:
    """The masks of E disjoint from ``removed``, by their compacted index:
    the surviving elements, in order, take the bits 0, 1, ..."""
    kept = [e for e in range(n) if not removed >> e & 1]
    return [sum(1 << e for i, e in enumerate(kept) if y >> i & 1)
            for y in range(1 << len(kept))]


def delete(table: core.RankTable, removed: int) -> tuple[int, ...]:
    """rho restricted to E \\ removed, relabelled."""
    return tuple(table.ranks[x] for x in _compacted(table.n, removed))


def contract(table: core.RankTable, removed: int) -> tuple[int, ...]:
    """rho(X | A) - rho(A) on E \\ A, relabelled."""
    base = table.ranks[removed]
    return tuple(table.ranks[x | removed] - base for x in _compacted(table.n, removed))


def join(a: core.RankTable, b: core.RankTable) -> tuple[int, ...]:
    return tuple(max(a.ranks[x], b.ranks[x]) for x in range(a.full + 1))


def meet(a: core.RankTable, b: core.RankTable) -> tuple[int, ...]:
    return tuple(min(a.ranks[x], b.ranks[x]) for x in range(a.full + 1))


def elongate(table: core.RankTable, i: int) -> tuple[int, ...]:
    """min(|X|, rho(X) + i)."""
    return tuple(min(x.bit_count(), r + i) for x, r in enumerate(table.ranks))


# -- constructions, as they were first written -------------------------------------------


def graph_demimatroid(n: int, edges) -> core.RankTable:
    """rho = 0 on the empty set, 2 on a set that contains an edge, 1 on any
    other: each mask tested against every edge."""
    core.check_cap(n)
    edge_masks = []
    for a, b in edges:
        if a == b:
            raise MalformedInputError(f"self-loop at vertex {a}")
        edge_masks.append(core.mask_of((a, b), n))
    ranks = [0] * (1 << n)
    for m in range(1, 1 << n):
        ranks[m] = 2 if any(e & ~m == 0 for e in edge_masks) else 1
    return core.RankTable.build(n, ranks)


def random_demimatroid_by_randint(n: int, rng) -> list[int]:
    """The seeded sampler's ranks with every rank drawn by
    ``rng.randint(low, high)`` over its feasible interval, lower neighbours
    gathered a block at a time as in ``core.random_demimatroid``."""
    size = 1 << n
    ranks = [0] * size
    seen = [0] * size
    bit_of = (1).__lshift__
    for mask in range(size):
        if mask:
            s = seen[mask]
            ranks[mask] = rng.randint(s.bit_length() - 1, (s & -s).bit_length())
        step = (mask + 1) & ~mask
        top = slice(mask + 1, mask + 1 + step)
        if top.stop > size:
            continue
        if step == 1:
            seen[mask + 1] |= 1 << ranks[mask]
        else:
            seen[top] = map(or_, seen[top], map(bit_of, ranks[mask + 1 - step:mask + 1]))
    return ranks


# -- the classification, the P_j definition and the complexes of a table -------------

AXIOM_UNIT_STEP = "R1"
AXIOM_SUBMODULAR = "R2"


class Violation(NamedTuple):
    """A violated axiom and the subset masks that exhibit the failure."""

    axiom: str
    witnesses: tuple[int, ...]


class ValidationReport(NamedTuple):
    """The certified kind and one ``Violation`` per violated axiom."""

    kind: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def elements_of(mask: int) -> tuple[int, ...]:
    """The elements of ``mask``, ascending: element i is bit i - 1."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def classify(n: int, ranks: Sequence[int]) -> ValidationReport:
    """The kind ``core._kind`` finds, re-derived mask by mask, with the first
    witness of each violated axiom."""
    full = core.full_mask(n)

    unit_step = None
    for mask in range(full + 1):
        for bit in core.bits_of(full & ~mask):
            step = ranks[mask | bit] - ranks[mask]
            if step < 0 or step > 1:
                unit_step = Violation(AXIOM_UNIT_STEP, (mask, mask | bit))
                break
        if unit_step:
            break

    submodular = None
    for mask in range(full + 1):
        for a, b in combinations(elements_of(full & ~mask), 2):
            xa = mask | (1 << (a - 1))
            xb = mask | (1 << (b - 1))
            if ranks[xa | xb] + ranks[mask] > ranks[xa] + ranks[xb]:
                submodular = Violation(AXIOM_SUBMODULAR, (xa | xb, mask))
                break
        if submodular:
            break

    kind = (core.COMBINATROID if unit_step else
            core.DEMIMATROID if submodular else core.MATROID)
    return ValidationReport(kind, tuple(v for v in (unit_step, submodular) if v))


def nullity(table: core.RankTable, mask: int) -> int:
    """eta(X) = |X| - rho(X)."""
    return mask.bit_count() - table.ranks[mask]


def p_sigma(table: core.RankTable, sigma: int) -> LaurentPoly:
    """The alternating nullity sum over the subsets of sigma."""
    size = sigma.bit_count()
    return poly_sum((-1) ** (size - g.bit_count()) * monomial(1, t=nullity(table, g))
                    for g in core.submasks(sigma))


def p_j(table: core.RankTable, j: int) -> LaurentPoly:
    """P_j by its definition: the sum of ``p_sigma`` over the sets of size j."""
    return poly_sum(p_sigma(table, m) for m in range(table.full + 1) if m.bit_count() == j)


def independence_complex(table: core.RankTable) -> core.Complex:
    """Faces are the independent sets {X : rho(X) = |X|}."""
    table.require_demimatroid("independence complex")
    faces = [m for m in range(1 << table.n) if table.ranks[m] == m.bit_count()]
    return core.Complex.build(table.n, faces)


def level_complex(table: core.RankTable, r: int) -> core.Complex:
    """The complex of subsets of rank at most r."""
    table.require_demimatroid("level complex")
    return core.Complex.build(table.n, [m for m in range(1 << table.n) if table.ranks[m] <= r])


class GaloisReport(NamedTuple):
    """The ``(check name, passed)`` pairs of ``galois_check``, in order."""

    items: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.items)


def galois_check(cx: core.Complex, table: core.RankTable) -> GaloisReport:
    """Itemized checks of the complex/demimatroid adjunction on shared n."""
    if cx.n != table.n:
        raise MalformedInputError("complex and table must share the ground set")
    table.require_demimatroid("galois check")
    items: list[tuple[str, bool]] = []

    up = core.complex_to_demimatroid(cx) if not cx.is_void else None
    items.append(("up_down_identity", up is not None and independence_complex(up) == cx))

    ind = independence_complex(table)
    down_up = core.complex_to_demimatroid(ind)
    items.append(("down_up_below", all(a <= b for a, b in zip(down_up.ranks, table.ranks))))

    # Monotone samples: single-facet subcomplexes must map below the whole.
    up_monotone = up is None or all(
        all(a <= b for a, b in zip(core.complex_to_demimatroid(
            core.Complex.build(cx.n, [f])).ranks, up.ranks))
        for f in cx.facets)
    items.append(("up_monotone", up_monotone))

    # Restrictions of the independence complex must come from tables below.
    capped = core.RankTable.build(table.n, [min(r, max(table.rank - 1, 0)) for r in table.ranks])
    items.append(("down_monotone", independence_complex(capped).face_set <= ind.face_set))

    return GaloisReport(tuple(items))
