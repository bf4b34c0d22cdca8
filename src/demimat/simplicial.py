"""Hochster-formula Betti numbers of the elongation family by exact reduced
homology, and the Betti route to the Hamming polynomial.

Homology is exact, so every Betti number is exact.  The map from edges to
vertices is the boundary map of a graph, whose homology is free over Z (H_0
is Z^components, H_1 the cycle space), so over every field its rank is
V - (connected components); a bitmask search counts the components, and a
side with no face above its edges runs no elimination.  Each boundary map
from cardinality 3 up is a set of columns built straight from the face masks
and reduced from the top cardinality down with clearing: a pivot row of one
map names a column of the map below that must reduce to zero, so that
column is skipped.  Over F_2 and Q the columns are first reduced as bitsets by
``_linalg.rank_bit_columns``, rows numbered by their position among the
masks of their cardinality.  The F_2 rank of an integer map is at most its
rank over Q, and both fields give the same Euler characteristic, so F_2
homology in degrees of one parity only is also the homology over Q
(universal coefficients).  A complex with F_2 homology in degrees of both
parities (torsion may hide there, as in the projective plane) falls back to
``_linalg.rank_sparse_columns`` over Q on signed columns; odd p always uses
that kernel.

The Betti tables come from one walk over the filtration Delta_0 < Delta_1 <
... of the elongation complexes, each mask entering at its level, its
nullity.  A single complex's table is the r = 0 table of its demimatroid,
``betti_of_elongations(core.complex_to_demimatroid(cx), fieldspec)[0]``.
The walk visits each vertex set sigma once and, for every r below sigma's
level, reduces whichever is smaller: the restriction of Delta_r to sigma or
its Alexander dual.  One zeta transform over Kronecker-packed level indicators
counts every sigma's submasks at each level, so both sides' sizes are prefix
sums and the side is chosen before anything is listed.  A side with no edge,
{empty} or the empty set and V vertices, has reduced homology [1] or
[0, V - 1], read off its size: one of at most three members is not listed
at all, and a larger one only as far as its vertices.  A side with no face
above its edges is read off its components; none of these runs a kernel.
Any other side is grown in cardinality layers, each member from the member
without its highest element, so a restriction costs O(|sigma| * |side|),
not 2^|sigma|.  Each sigma's one-bit submasks and each face's row position
are cached per n (``_layout``), and one column cache serves the walk.  No
walk starts on more vertices than the homology cap:
``core.check_homology_cap`` checks it, beside the ground-set cap.

The Betti route to W compares its alternating Betti sums with the subset
sum's terms through ``poly.cross_checked_coordinates``, whose witness is
the first monomial of W whose coefficients differ.  W sums the homological degree i away (only sum_i (-1)^i beta_{i,j}
reaches it), so no Betti entry (r, i, j) can be named from W.

Conventions.  A restriction to a vertex set with no surviving vertices is
the complex whose only face is the empty set, with one dimension of reduced
homology in degree -1; that is what makes degree-one ideal generators
(vertices that are not faces) come out right.
"""

from __future__ import annotations

from functools import partial
from operator import add

from . import core, hamming, ops
from ._layout import _bit_lists, _positions, subset_transform
from ._linalg import is_prime, rank_bit_columns, rank_sparse_columns
from ._records import record
from .core import RankTable, per_table
from .errors import MalformedInputError
from .poly import LaurentPoly, cross_checked_coordinates, term_sum


class FieldSpec(record("FieldSpec", "characteristic")):
    """Either the rationals (characteristic 0) or a prime field F_p."""

    __slots__ = ()

    def __new__(cls, characteristic: int):
        if characteristic != 0 and not is_prime(characteristic):
            raise MalformedInputError(
                f"characteristic must be 0 or prime, got {characteristic}")
        return super().__new__(cls, characteristic)

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else str(self.characteristic)


RATIONALS = FieldSpec(0)


class BettiTable(record("BettiTable", "entries")):
    """Graded Betti numbers as a map (homological degree i, internal degree j):
    ``entries`` holds the nonzero ``((i, j), beta)`` pairs, sorted."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, data: dict[tuple[int, int], int]) -> "BettiTable":
        return cls(tuple(sorted((k, v) for k, v in data.items() if v)))

    def poly(self) -> LaurentPoly:
        return term_sum(((i, j, 0), v) for (i, j), v in self.entries)


class _Columns(dict):
    """Boundary columns by face mask, each built on first lookup.

    A face's column is ``{face minus one vertex: sign}``, the sign alternating
    over its vertices in increasing order.  ``bits`` holds the columns over
    F_2.
    """

    def __init__(self, n: int):
        super().__init__()
        self.bits = _BitColumns(_positions(n))

    def __missing__(self, face: int) -> dict[int, int]:
        column = self[face] = {}
        sign, rest = 1, face
        while rest:
            bit = rest & -rest
            column[face ^ bit] = sign
            sign, rest = -sign, rest ^ bit
        return column


class _BitColumns(dict):
    """F_2 columns by face mask: the face's position among the masks of its
    cardinality, and the int with the bit of each ``face minus v`` set.

    Numbering rows by position keeps a column within C(n, |face| - 1) bits;
    the positions label the columns too, so clearing still matches pivot
    rows of one map to columns of the next.
    """

    def __init__(self, positions: tuple[int, ...]):
        super().__init__()
        self.positions = positions

    def __missing__(self, face: int) -> tuple[int, int]:
        positions = self.positions
        column, rest = 0, face
        while rest:
            bit = rest & -rest
            column |= 1 << positions[face ^ bit]
            rest ^= bit
        entry = self[face] = (positions[face], column)
        return entry


def _components(vertices: list[int], edges: list[int]) -> int:
    """The number of connected components of the graph whose vertices are
    the one-bit masks ``vertices`` and whose edges are the two-bit masks
    ``edges``.

    Each vertex maps to the mask of its component; an edge between two
    components merges them, and the scan stops once one component is left,
    so a dense graph is settled after about V of its edges.
    """
    component = {v: v for v in vertices}
    count = len(vertices)
    for edge in edges:
        if count == 1:
            break
        low = edge & -edge
        a, b = component[low], component[edge ^ low]
        if a != b:
            merged = rest = a | b
            while rest:
                bit = rest & -rest
                component[bit] = merged
                rest ^= bit
            count -= 1
    return count


def _dims(layers: list[list[int]], edge_rank: int, rank, column) -> list[int]:
    # ranks[c] = rank of the map from faces of cardinality c to c-1: 1 from
    # the vertices, ``edge_rank`` from the edges, and from cardinality 3 up
    # the pivots of ``rank`` on the columns ``column`` gives, with clearing.
    ranks = [0, 1, edge_rank] + [0] * (len(layers) - 2)
    pivots: list[int] = []
    for c in range(len(layers) - 1, 2, -1):
        pivots = rank(dict(map(column, layers[c])), skip=set(pivots))
        ranks[c] = len(pivots)
    return [len(layer) - ranks[c] - ranks[c + 1] for c, layer in enumerate(layers)]


def _homology_dims(layers: list[list[int]], columns: _Columns, p: int) -> list[int]:
    """Reduced homology dimensions of the complex whose faces of
    cardinality c are ``layers[c]``, each layer nonempty, with an edge: a
    side with none is read off its size (``_edgeless_dims``).

    The map from edges to vertices has rank V - (connected components)
    over every field, so a side with no face above its edges (a graph)
    runs no kernel.  Above the edges, the bitset kernel is exact over
    F_2; over Q its dimensions stand when their nonzero degrees share one
    parity, and otherwise the signed columns are reduced over Q.
    """
    vertices, edges = layers[1], layers[2]
    edge_rank = len(vertices) - _components(vertices, edges)
    if len(layers) == 3:
        return [0, len(vertices) - 1 - edge_rank, len(edges) - edge_rank]
    if p in (0, 2):
        dims = _dims(layers, edge_rank, rank_bit_columns, columns.bits.__getitem__)
        if p or len({slot % 2 for slot, d in enumerate(dims) if d}) < 2:
            return dims
    return _dims(layers, edge_rank, partial(rank_sparse_columns, p=p),
                 lambda face: (face, columns[face]))


def _level_counts(n: int, levels: tuple[int, ...]) -> list[int]:
    """Each mask's submasks counted by level, as one packed int per mask.

    Digit k of entry sigma, n + 1 bits wide, is the number of submasks X of
    sigma with ``levels[X] == k``.  One zeta transform sums the packed
    indicators ``2^((n + 1) levels[X])``; a count is at most 2^n, so no
    digit carries into the next.
    """
    width = n + 1
    return subset_transform([1 << width * level for level in levels], add)


def _restrictions(n: int, levels: tuple[int, ...]):
    """Yield ``(sigma, r, dual, size, layers)`` for each sigma > 0,
    ascending, and each r below sigma's level.

    The side is the smaller of the restriction ``{X subset of sigma :
    levels[X] <= r}`` and, when more than half of the 2^|sigma| submasks
    are faces (``dual``), its Alexander dual ``{sigma - X : levels[X] >
    r}``; ``size`` counts its members.  The side sizes are prefix sums of
    the packed level counts, so the side is chosen before any member is
    listed.  ``layers`` is None for a side with no edge: the empty set and
    size - 1 vertices.  A side of at most three members has none, and
    nothing of it is listed.  Otherwise its vertices come from |sigma|
    lookups, over sigma's bits from ``_bit_lists``, of the singletons or,
    on the dual side, of sigma minus one element; when they and the empty
    set fill the side, it has no edge either.  Any other side is listed:
    ``layers[c]`` holds its members of cardinality c, grown layer by layer,
    each member from the member without its highest element, which is in
    the side because both sides are down-closed, until the count is
    reached.
    """
    width = n + 1
    digit = (1 << width) - 1
    counts = _level_counts(n, levels)
    bit_lists = _bit_lists(n)
    for sigma in range(1, 1 << n):
        level = levels[sigma]
        if level <= 0:
            continue
        bits = bit_lists[sigma]
        half = 1 << (len(bits) - 1)
        packed, faces = counts[sigma], 0
        for r in range(level):
            faces += packed >> width * r & digit
            dual = faces > half
            size = 2 * half - faces if dual else faces
            if size <= 3:  # {empty}, a point or two points
                yield sigma, r, dual, size, None
                continue
            if dual:
                layer = [b for b in bits if levels[sigma ^ b] > r]
            else:
                layer = [b for b in bits if levels[b] <= r]
            layers, found = [[0], layer], 1 + len(layer)
            while found < size:
                if dual:
                    layer = [m | b for m in layer for b in bits
                             if b > m and levels[sigma ^ m ^ b] > r]
                else:
                    layer = [m | b for m in layer for b in bits if b > m and levels[m | b] <= r]
                layers.append(layer)
                found += len(layer)
            yield sigma, r, dual, size, layers if len(layers) > 2 else None


def _edgeless_dims(size: int) -> list[int]:
    """Reduced homology of a side of ``size`` members with no edge: [1] for
    {empty}, and [0, V - 1] for the empty set and V = size - 1 vertices."""
    return [0, size - 2] if size > 1 else [1]


def _betti_walk(n: int, levels: tuple[int, ...], top: int, p: int) -> tuple[BettiTable, ...]:
    """Betti tables of Delta_0 .. Delta_(top-1), where mask X is a face of
    Delta_r when ``levels[X] <= r``; levels lie in 0..top, the empty set's
    is 0, and they do not fall along inclusion.

    Below sigma's own level r, the submasks of level <= r are the faces of
    the restriction to sigma, and the others X give its Alexander dual
    ``{sigma - X}``.  ``_restrictions`` picks the smaller of the two from
    one packed count of every sigma's submasks by level.  A side with no
    edge is answered from its size; any other is listed in cardinality
    layers, and ``_homology_dims`` answers one with no face above its edges
    from its vertex count and components, without the kernels.  From
    sigma's level up the restriction is a full simplex, with no reduced
    homology, so sigma = 0 gives only beta_{0,0} = 1 to each table.
    """
    tables: list[dict[tuple[int, int], int]] = [{(0, 0): 1} for _ in range(top)]
    columns = _Columns(n)
    for sigma, r, dual, size, layers in _restrictions(n, levels):
        j = sigma.bit_count()
        # Slot s of dims is degree s-1, and degree d of the restriction is
        # i = j-d-1.  Over any field, degree e of the dual is degree j-e-3
        # of the restriction, so i = e+2.
        table = tables[r]
        dims = _homology_dims(layers, columns, p) if layers else _edgeless_dims(size)
        for slot, d in enumerate(dims):
            if d:
                i = slot + 1 if dual else j - slot
                table[i, j] = table.get((i, j), 0) + d
    return tuple(map(BettiTable.from_dict, tables))


# -- the Betti route to W ------------------------------------------------------------


@per_table
def betti_of_elongations(table: RankTable, fieldspec: FieldSpec) -> tuple[BettiTable, ...]:
    """Betti tables of the elongation complexes for r = 0 .. eta(E), from one
    walk in which each subset enters at its nullity, its rank in
    ``ops.nullity_operator``; no complex is built."""
    core.check_homology_cap(table.n)
    table.require_demimatroid("elongation Betti tables")
    nullities = ops.nullity_operator(table).ranks
    return _betti_walk(table.n, nullities, table.total_nullity + 1, fieldspec.characteristic)


@per_table
def w_via_betti(table: RankTable, fieldspec: FieldSpec) -> LaurentPoly:
    """W rebuilt from the alternating Betti sums of the elongation family: the
    subset sum, once the two have the same terms.

    The t^r coefficient is x^n (B_r - B_{r-1})(-1, y/x), where B_r is the
    r-th Betti table as the sum of beta_{i,j} x^i y^j and B_{-1} = 0: entry
    (i, j) = v of table r adds (-1)^i v at x^(n-j) y^j t^r and, below the
    top table, subtracts it at t^(r+1)."""
    n, tables = table.n, betti_of_elongations(table, fieldspec)
    terms: dict[tuple[int, int, int], int] = {}
    for r, bt in enumerate(tables):
        for (i, j), v in bt.entries:
            signed = -v if i & 1 else v
            terms[n - j, j, r] = terms.get((n - j, j, r), 0) + signed
            if r + 1 < len(tables):
                terms[n - j, j, r + 1] = terms.get((n - j, j, r + 1), 0) - signed
    w = hamming.hamming_subset_sum(table)
    cross_checked_coordinates("W", "Betti", {key: c for key, c in terms.items() if c},
                              "subset-sum", w.terms(), LaurentPoly)
    return w
