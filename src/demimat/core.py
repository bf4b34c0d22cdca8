"""Ground sets, rank tables and simplicial complexes.

A subset of the ground set {1, .., n} is a plain int bitmask with element i
on bit i-1; the empty set is 0 and the full set is 2^n - 1.  Rank tables are
indexed by mask value, so ``ranks[mask]`` is the rank of that subset.

Certified kinds form a chain: every table is a combinatroid (only the
normalization rank(empty) = 0 is required); adding the unit-step monotone
axiom gives a demimatroid; adding submodularity gives a matroid.  A table
stores only ``(n, ranks)``; its kind is derived when first read, by the
word-parallel check ``_kind``.  The mask-by-mask ``_classify`` finds the same
kind and names a witness per violated axiom; it backs ``validate`` and is the
tests' oracle for ``_kind``.

``subset_transform`` is the one whole-table pass over the subset lattice:
the zeta transform of the code-side rank tables and the Moebius transform of
the P_j family.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cache, cached_property, wraps
from itertools import combinations, repeat
from operator import add, mul

from ._records import Frozen, record
from .errors import KindError, MalformedInputError, SizeCapError

# Caps keep the 2^n tables and the Hochster sweeps desk-sized; assign new
# values to override.
GROUND_SET_CAP = 20
HOMOLOGY_CAP = 16

COMBINATROID = "combinatroid"
DEMIMATROID = "demimatroid"
MATROID = "matroid"

AXIOM_UNIT_STEP = "R1"
AXIOM_SUBMODULAR = "R2"


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


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _perfect_shuffle(seq):
    """Interleave the two halves: the top index bit moves to bit 0 and every
    other bit up by one, so n shuffles of a 2^n table restore mask order."""
    half = len(seq) // 2
    out = seq[:]
    out[0::2] = seq[:half]
    out[1::2] = seq[half:]
    return out


def subset_transform(values: Sequence, combine: Callable) -> list:
    """Apply ``v[X] = combine(v[X], v[X - e])`` for each element e in turn.

    With ``operator.add`` this is the zeta transform (the sum over the
    subsets of X), with ``operator.sub`` the Moebius transform (the
    alternating sum).  The pass for bit b pairs the masks with bit b set
    with those without, in blocks of 2^b: it runs over the 2^b residues
    mod 2^(b+1) as strided slices when blocks are short, and over the
    blocks as plain slices when they are long, so each of the n passes is
    at most 2^(n/2) slice assignments and no Python loop over the masks.
    """
    table = list(values)
    size = len(table)
    for b in range(size.bit_length() - 1):
        low = 1 << b
        step = low << 1
        if low * low < size:
            for r in range(low):
                top = slice(r + low, size, step)
                table[top] = map(combine, table[top], table[r:size:step])
        else:
            for start in range(0, size, step):
                top = slice(start + low, start + step)
                table[top] = map(combine, table[top], table[start:start + low])
    return table


def check_cap(n: int) -> None:
    if n < 0:
        raise MalformedInputError("ground-set size must be nonnegative")
    if n > GROUND_SET_CAP:
        raise SizeCapError(
            f"ground set of size {n} exceeds cap {GROUND_SET_CAP}"
            " (raise demimat.core.GROUND_SET_CAP to override)"
        )


# -- rank tables and validation -------------------------------------------------


class Violation(record("Violation", "axiom witnesses")):
    """A violated axiom and the subset masks that exhibit the failure."""

    __slots__ = ()


class ValidationReport(record("ValidationReport", "kind violations")):
    """The certified kind and one ``Violation`` per violated axiom."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _classify(n: int, ranks: Sequence[int]) -> ValidationReport:
    full = full_mask(n)

    unit_step = None
    for mask in range(full + 1):
        rest = full & ~mask
        for bit in bits_of(rest):
            step = ranks[mask | bit] - ranks[mask]
            if step < 0 or step > 1:
                unit_step = Violation(AXIOM_UNIT_STEP, (mask, mask | bit))
                break
        if unit_step:
            break

    submodular = None
    for mask in range(full + 1):
        rest = elements_of(full & ~mask)
        for a, b in combinations(rest, 2):
            xa = mask | (1 << (a - 1))
            xb = mask | (1 << (b - 1))
            if ranks[xa | xb] + ranks[mask] > ranks[xa] + ranks[xb]:
                submodular = Violation(AXIOM_SUBMODULAR, (xa | xb, mask))
                break
        if submodular:
            break

    kind = COMBINATROID if unit_step else DEMIMATROID if submodular else MATROID
    return ValidationReport(kind, tuple(v for v in (unit_step, submodular) if v))


@cache
def _byte_ones(length: int) -> int:
    """0x0101..01 with ``length`` bytes: the step tables whose steps are all 1."""
    return int.from_bytes(b"\x01" * length, "little")


def _zero_one_difference(low, high, ones: int) -> int | None:
    """``high - low`` read as little-endian integers, if every byte of it is
    0 or 1; else None.

    Each byte difference lies in (-128, 128), and writing an integer as
    sum c_i 256^i with every |c_i| < 128 is unique; so the difference has
    bits only where ``ones`` has (which also rules out a negative one)
    exactly when every c_i is 0 or 1.
    """
    d = int.from_bytes(high, "little") - int.from_bytes(low, "little")
    return d if d | ones == ones else None


def _kind(n: int, ranks: Sequence[int]) -> str:
    """The kind ``_classify`` finds, by whole-table byte and big-int steps.

    Unit steps force 0 <= rank <= n, so a rank outside that range settles a
    combinatroid, and otherwise the table fits in a bytearray.  Element e's
    step table rho(X + e) - rho(X) is the upper half minus the lower half
    once e sits on the top index bit, where perfect shuffles bring each
    element in turn.  Given unit steps, submodularity says each 0/1 step
    table is non-increasing in every other element; that is symmetric in
    the two elements, so each step table is checked only against the
    elements that reach the top after its own.
    """
    if min(ranks) < 0 or max(ranks) > n:
        return COMBINATROID
    table = bytearray(ranks)
    half, quarter = len(table) // 2, len(table) // 4
    submodular = True
    for done in range(n):
        d = _zero_one_difference(table[:half], table[half:], _byte_ones(half))
        if d is None:
            return COMBINATROID
        if submodular:
            # The step table is indexed by the n-1 lower bits of ``table``,
            # and the elements still to come hold its top n-1-done bits; for
            # the one on its top bit, steps(X) - steps(X + e') is 0 or 1.
            steps = bytearray(d.to_bytes(half, "little"))
            for _ in range(n - 1 - done):
                if _zero_one_difference(steps[quarter:], steps[:quarter],
                                        _byte_ones(quarter)) is None:
                    submodular = False
                    break
                steps = _perfect_shuffle(steps)
        table = _perfect_shuffle(table)
    return MATROID if submodular else DEMIMATROID


class _FrozenCounts(dict):
    """A read-only dict: reads run at C speed, every mutator raises
    TypeError, and it pickles, unlike ``types.MappingProxyType``."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a size-rank profile is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _FrozenCounts, (dict(self),)


def _size_rank_profile(n: int, ranks: Sequence[int]) -> Mapping[tuple[int, int], int]:
    """#{X : |X| = s, rank(X) = r} keyed by (s, r), for any ranks at all.

    Each pair is counted as the one int r * (n + 1) + s, which hashes faster
    than a tuple; ``divmod`` by n + 1 gives back (r, s), negative r included.
    """
    base = n + 1
    keys = map(add, map(mul, ranks, repeat(base)), map(int.bit_count, range(1 << n)))
    return _FrozenCounts({divmod(key, base)[::-1]: c for key, c in Counter(keys).items()})


class RankTable(Frozen):
    """A combinatroid as an explicit table over all 2^n subsets.

    ``kind`` is classified on first read and cached, never at build; so is
    ``profile``, the size-rank counts every subset-sum invariant reads.  Other
    shared derived values are memoized on the table by ``per_table``.
    """

    def __init__(self, n: int, ranks: tuple[int, ...]):
        fields = self.__dict__
        fields["n"], fields["ranks"] = n, ranks

    @classmethod
    def build(cls, n: int, ranks: Sequence[int]) -> "RankTable":
        check_cap(n)
        values = tuple(map(int, ranks))
        if len(values) != 1 << n:
            raise MalformedInputError(
                f"rank table needs 2^{n} = {1 << n} entries, got {len(values)}"
            )
        if values[0] != 0:
            raise MalformedInputError("rank of the empty set must be 0")
        return cls(n, values)

    @cached_property
    def kind(self) -> str:
        return _kind(self.n, self.ranks)

    @cached_property
    def profile(self) -> Mapping[tuple[int, int], int]:
        return _size_rank_profile(self.n, self.ranks)

    def nullity(self, mask: int) -> int:
        if not 0 <= mask < len(self.ranks):
            raise MalformedInputError("mask outside the ground set")
        return popcount(mask) - self.ranks[mask]

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


_REQUIRED = object()  # keys a left-out argument that has no default


def per_table(fn: Callable) -> Callable:
    """Memoize ``fn(table, *args)`` in the table's instance dict, as ``kind`` is.

    Tables never change, so each value is computed once per table object.
    Any other immutable object with an instance dict can carry a memo too: a
    ``Complex`` carries its demimatroid.  The arguments after the table are
    passed positionally, and the key is their tuple; a trailing argument
    that has a default and is left out is keyed by that default, so both
    spellings share one entry.  The defaults are ``fn.__defaults__``, which
    belong to the last of the ``fn.__code__.co_argcount`` positional
    parameters; one without a default is keyed by a private sentinel, not by
    None, so an explicit None keys an entry of its own.  Values are
    immutable; an exception is raised afresh on every call, never stored.
    """
    defaults = fn.__defaults__ or ()
    defaults = (_REQUIRED,) * (fn.__code__.co_argcount - 1 - len(defaults)) + defaults
    name = f"{fn.__module__}.{fn.__qualname__}"  # a name, so a table still pickles

    @wraps(fn)
    def memoized(table: RankTable, *args):
        memo = table.__dict__.setdefault("_memo", {})
        key = (name, *args, *defaults[len(args):])
        if key not in memo:
            memo[key] = fn(table, *args)
        return memo[key]

    return memoized


def validate(table: RankTable) -> ValidationReport:
    """Re-derive the certified kind mask by mask, with a first witness per
    violated axiom."""
    return _classify(table.n, table.ranks)


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
    def facets(self) -> tuple[int, ...]:
        """The inclusion-maximal faces, ascending by mask value."""
        full = full_mask(self.n)
        return tuple(f for f in self.faces() if all(f | b not in self for b in bits_of(full & ~f)))

    @property
    def dim(self) -> int:
        """Dimension; the {empty} complex has dimension -1.  Void is an error."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(popcount(f) for f in self.face_set) - 1

    def faces(self) -> Iterator[int]:
        """All face masks, ascending by mask value."""
        return iter(sorted(self.face_set))

    def face_counts(self) -> list[int]:
        """Number of faces of each cardinality, index = cardinality."""
        if self.is_void:
            return []
        counts = [0] * (self.dim + 2)
        for f in self.face_set:
            counts[popcount(f)] += 1
        return counts


# -- complexes and their demimatroids -----------------------------------------


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
    return RankTable.build(cx.n, subset_transform(sizes, max))


def independence_complex(table: RankTable) -> Complex:
    """Faces are the independent sets {X : rho(X) = |X|}."""
    table.require_demimatroid("independence complex")
    faces = [m for m in range(1 << table.n) if table.ranks[m] == popcount(m)]
    return Complex.build(table.n, faces)


def sharp_demimatroid(cx: Complex) -> RankTable:
    """rho(X) = |X| for faces, |X| - 1 for non-faces."""
    if cx.is_void:
        raise MalformedInputError("the void complex has no associated demimatroid")
    ranks = [
        popcount(m) if m in cx else popcount(m) - 1 for m in range(1 << cx.n)
    ]
    return RankTable.build(cx.n, ranks)


def level_complex(table: RankTable, r: int) -> Complex:
    """The complex of subsets of rank at most r."""
    table.require_demimatroid("level complex")
    if r < 0:
        raise MalformedInputError("level must be nonnegative")
    faces = [m for m in range(1 << table.n) if table.ranks[m] <= r]
    return Complex.build(table.n, faces)



# The constructions live in ``constructions``, which imports this module, so
# they are re-exported here last: callers (tests, scripts, the benchmark) keep
# reaching them as ``core.uniform`` and the like.
from .constructions import (
    GaloisReport,
    from_matroid_bases,
    from_wei_sequence,
    galois_check,
    graph_demimatroid,
    random_demimatroid,
    random_subset,
    uniform,
)
