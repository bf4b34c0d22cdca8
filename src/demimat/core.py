"""Ground sets, rank tables and simplicial complexes.

A subset of {1, .., n} is an int mask, element i on bit i-1, and
``ranks[mask]`` is its rank; the 2^n layout of a table, its byte view and
the whole-table steps on it are ``_layout``'s.

Certified kinds form a chain: every table is a combinatroid (only the
normalization rank(empty) = 0 is required); adding the unit-step monotone
axiom gives a demimatroid; adding submodularity gives a matroid.  A table
stores only ``(n, ranks)``; its kind is derived when first read, by the
big-int check ``_kind`` on its byte view; its oracle, the mask-by-mask
classification with a witness per violated axiom, is in the tests
(``oracles.classify``).  ``RankTable.build`` checks a rank list from
outside, and ``RankTable.from_view`` makes every table the package computes,
with its view.  ``profile`` counts the subsets by (size, rank) in one
C-level pass over packed int keys, and ``per_table`` memoizes a derived
value in the table's own instance dict, so a repeated call costs one dict
lookup.

Both size caps are checked here and nowhere else: ``check_cap`` bounds the
ground set before any 2^n table is allocated, and ``check_homology_cap``
bounds the Hochster sweep of ``simplicial`` and the battery's ``--n``.
"""

from __future__ import annotations

from collections import _count_elements
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property, wraps
from itertools import repeat
from operator import add, mul

from ._layout import _as_int, _byte_view, byte_operands, mask_sizes, subset_transform
from ._records import Frozen
from .errors import KindError, MalformedInputError, SizeCapError

# Caps keep the 2^n tables and the Hochster sweeps desk-sized; assign new
# values to override.
GROUND_SET_CAP = 20
HOMOLOGY_CAP = 16

COMBINATROID = "combinatroid"
DEMIMATROID = "demimatroid"
MATROID = "matroid"


# -- subset masks -------------------------------------------------------------


def popcount(mask: int) -> int:
    return mask.bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(elements: Iterable[int], n: int) -> int:
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise MalformedInputError(f"element {e} outside ground set 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def check_cap(n: int) -> None:
    if n < 0:
        raise MalformedInputError("ground-set size must be nonnegative")
    if n > GROUND_SET_CAP:
        raise SizeCapError(
            f"ground set of size {n} exceeds cap {GROUND_SET_CAP}"
            " (raise demimat.core.GROUND_SET_CAP to override)"
        )


def check_homology_cap(n: int) -> None:
    if n > HOMOLOGY_CAP:
        raise SizeCapError(
            f"homology on {n} vertices exceeds cap {HOMOLOGY_CAP}"
            " (raise demimat.core.HOMOLOGY_CAP to override)"
        )


# -- rank tables -----------------------------------------------------------------


def _kind(n: int, view: bytes | None) -> str:
    """The table's kind, by whole-table big-int steps on the view.

    Unit steps force 0 <= rank <= n, so a table without a byte view is a
    combinatroid.  Otherwise the ranks are one int T, rank(X) in byte X.  The
    masks M_e of the bytes X without element e come top element first, each
    by two shifts of the one above.  (T >> 8*2^e & M_e) - (T & M_e) is the
    step table rho(X + e) - rho(X) on M_e; every byte difference lies in
    (-128, 128), and writing an int as sum c_X 256^X with every |c_X| < 128
    is unique, so every step is 0 or 1 exactly when the difference has bits
    only where 0x0101..01 has.  Given unit steps, submodularity says each
    0/1 step table is non-increasing in every other element f: shifted down
    by f's stride and masked to M_f, it lies inside itself.  That is
    symmetric in e and f, so each step table is checked against the
    elements above it, whose masks are kept for the call only.
    """
    if view is None:
        return COMBINATROID
    table, ones = _as_int(view), byte_operands(n)[1]
    mask = (1 << (4 << n)) - 1  # the lower half: the masks without element n
    above: list[tuple[int, int]] | None = []  # (shift, mask) per element above e
    for e in reversed(range(n)):
        shift = 8 << e
        if e < n - 1:
            low = mask & (mask >> shift)
            mask = low | (low << 2 * shift)
        steps = (table >> shift & mask) - (table & mask)
        if steps | ones != ones:
            return COMBINATROID
        if above is not None:
            for up, up_mask in above:
                if steps >> up & up_mask | steps != steps:
                    above = None
                    break
            else:
                above.append((shift, mask))
    return DEMIMATROID if above is None else MATROID


class _FrozenCounts(dict):
    """A read-only dict: reads run at C speed, every mutator raises
    TypeError, and it pickles, unlike ``types.MappingProxyType``.  It holds
    a table's profile and the coordinate views read off it."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a rank table's derived counts are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _FrozenCounts, (dict(self),)


def _size_rank_profile(n: int, ranks: Sequence[int]) -> Mapping[tuple[int, int], int]:
    """#{X : |X| = s, rank(X) = r} keyed by (s, r), for any ranks at all.

    Each pair is counted as the one int r * (n + 1) + s, which hashes faster
    than a tuple, in one C-level pass, and decoded as (key % (n + 1),
    key // (n + 1)); floor division decodes negative ranks too.
    """
    base = n + 1
    packed: dict[int, int] = {}
    _count_elements(packed, map(add, map(mul, ranks, repeat(base)), mask_sizes(n)))
    return _FrozenCounts({(key % base, key // base): c for key, c in packed.items()})


class RankTable(Frozen):
    """A combinatroid as an explicit table over all 2^n subsets.

    ``kind`` is classified on first read and cached, never at build; so are
    ``profile``, the size-rank counts every subset-sum invariant reads, and
    ``view``, the ranks as bytes the kernels read, unless ``from_view`` set
    it.  Other shared derived values are memoized on the table by ``per_table``.
    """

    def __init__(self, n: int, ranks: tuple[int, ...]):
        fields = self.__dict__
        fields["n"], fields["ranks"] = n, ranks

    @classmethod
    def build(cls, n: int, ranks: Sequence[int]) -> "RankTable":
        """A rank list from outside, checked: the cap, 2^n ranks, rho(empty) = 0."""
        check_cap(n)
        values = tuple(map(int, ranks))
        if len(values) != 1 << n:
            raise MalformedInputError(
                f"rank table needs 2^{n} = {1 << n} entries, got {len(values)}"
            )
        if values[0] != 0:
            raise MalformedInputError("rank of the empty set must be 0")
        return cls(n, values)

    @classmethod
    def from_view(cls, n: int, view: bytes) -> "RankTable":
        """The table whose byte view is ``view``: one the package computed,
        capped, of 2^n bytes and 0 at the empty set by construction."""
        table = cls(n, tuple(view))
        table.__dict__["view"] = view
        return table

    @cached_property
    def view(self) -> bytes | None:
        """The ranks, one byte per mask, if all lie in 0..127 (a
        demimatroid's do); else None, and the kernels take the list path."""
        return _byte_view(self.ranks)

    @cached_property
    def kind(self) -> str:
        return _kind(self.n, self.view)

    @cached_property
    def profile(self) -> Mapping[tuple[int, int], int]:
        return _size_rank_profile(self.n, self.ranks)

    @property
    def full(self) -> int:
        return full_mask(self.n)

    @property
    def rank(self) -> int:
        return self.ranks[-1]

    @property
    def total_nullity(self) -> int:
        return self.n - self.rank

    @property
    def is_demimatroid(self) -> bool:
        return self.kind in (DEMIMATROID, MATROID)

    def require_demimatroid(self, operation: str) -> None:
        if not self.is_demimatroid:
            raise KindError(f"{operation} needs a demimatroid, table certifies {self.kind}")


def per_table(fn: Callable) -> Callable:
    """Memoize ``fn(table, *args)`` in the table's instance dict, as ``kind`` is.

    Tables never change, so each value is computed once per table object.
    Any other immutable object with an instance dict can carry a memo too: a
    ``Complex`` carries its demimatroid.  The arguments after the table are
    passed positionally, and the key is the function's name and them, as
    passed.  The tuple keys share the instance dict with the fields, so a
    hit is one dict lookup.  Values are immutable; an exception is raised
    afresh on every call, never stored.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"  # a name, so a table still pickles
    bare = (name,)

    @wraps(fn)
    def memoized(table: RankTable, *args):
        key = (name, *args) if args else bare
        try:
            return table.__dict__[key]
        except KeyError:
            pass  # computed outside the handler, so its errors chain to nothing
        value = table.__dict__[key] = fn(table, *args)
        return value

    return memoized


# -- simplicial complexes --------------------------------------------------------


class Complex(Frozen):
    """A simplicial complex on vertex set {1..n}, stored as its set of faces.

    ``face_set`` is a frozenset of masks closed under taking subsets.  The
    void complex (no faces at all) has the empty face set and is distinct
    from the complex whose only face is the empty set (``face_set == {0}``).
    """

    def __init__(self, n: int, face_set: frozenset[int]):
        fields = self.__dict__
        fields["n"], fields["face_set"] = n, face_set

    @classmethod
    def build(cls, n: int, masks: Iterable[int]) -> "Complex":
        """The down-closure of ``masks``: every subset of a given mask is a face."""
        check_cap(n)
        full = full_mask(n)
        # Supersets precede subsets in descending order, so a mask under an
        # earlier one is already a face and only maximal masks expand; masks
        # past the ground set come first and are rejected before any expands.
        faces: set[int] = set()
        for f in sorted(set(masks), reverse=True):
            if f & ~full:
                raise MalformedInputError(f"face mask {f:#x} outside ground set 1..{n}")
            if f not in faces:
                faces.update(submasks(f))
        return cls(n, frozenset(faces))

    @classmethod
    def from_facet_lists(cls, n: int, facets: Iterable[Iterable[int]]) -> "Complex":
        return cls.build(n, (mask_of(f, n) for f in facets))

    @property
    def is_void(self) -> bool:
        return not self.face_set

    def __contains__(self, mask: int) -> bool:
        return mask in self.face_set

    @property
    def dim(self) -> int:
        """Dimension; the {empty} complex has dimension -1.  Void is an error."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(popcount(f) for f in self.face_set) - 1

    def face_counts(self) -> list[int]:
        """Number of faces of each cardinality, index = cardinality."""
        if self.is_void:
            return []
        counts = [0] * (self.dim + 2)
        for f in self.face_set:
            counts[popcount(f)] += 1
        return counts


# -- a complex's demimatroid ----------------------------------------------------


@per_table
def complex_to_demimatroid(cx: Complex) -> RankTable:
    """rho(X) = size of the largest face contained in X.

    One subset-max transform of the face sizes (0 off the complex).  The
    table is memoized on the complex, so every caller shares it and its
    memoized values.
    """
    if cx.is_void:
        raise MalformedInputError("the void complex has no associated demimatroid")
    sizes = [popcount(mask) if mask in cx else 0 for mask in range(1 << cx.n)]
    return RankTable.from_view(cx.n, bytes(subset_transform(sizes, max)))


# The constructions live in ``constructions``, which imports this module, so
# they are re-exported here last: callers (tests, scripts, the benchmark) keep
# reaching them as ``core.uniform`` and the like.
from .constructions import (
    from_matroid_bases,
    from_wei_sequence,
    graph_demimatroid,
    random_demimatroid,
    random_subset,
    uniform,
)
