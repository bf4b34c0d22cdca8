"""The 2^n layout of a rank table, and every whole-table step on it.

A subset of {1, .., n} is the int mask with element i on bit i-1, and a
table holds one value per mask in mask order: the masks with bit b follow
those without it in blocks of 2^b.  A table whose values lie in 0..127 has a
byte view, one byte per mask (``_byte_view``); read as one little-endian int
(``_as_int``, back by ``_to_view``) it adds and subtracts byte by byte while
no byte leaves 0..255.  ``_difference`` and ``_guard_select`` subtract with
a guard bit 0x80 in every byte; ``_shifted`` and ``_reflected`` map each
byte v to v - k or k - v by one ``bytes.translate``; ``_minor_view`` keeps
the masks without or with each removed element.  ``subset_transform`` is
the one pass over the subset lattice: the zeta transforms of ``codes`` and
of the Betti walk's level counts, the OR-zeta of a graph's edges and the
max-zeta of a complex's face sizes.

Four values are cached per ground-set size n, never per table contents,
each O(2^n): ``mask_sizes(n)``, every mask's size, one byte each (1 MB at
n = 20); ``byte_operands(n)``, those sizes and a 0x01 per mask as ints; and,
for the Betti walk, ``_positions(n)``, each mask's position among the masks
of its size, and ``_bit_lists(n)``, each mask's one-bit submasks (about
7.3 MB at n = 16, built in 0.02 s).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import cache


@cache
def mask_sizes(n: int) -> bytes:
    """|X| for every mask X, in mask order, one byte each: the masks with
    element i + 1 follow those without it, one larger each, so n doublings
    by ``bytes.translate`` build it."""
    sizes, plus_one = b"\x00", bytes(range(1, 256)) + b"\x00"
    for _ in range(n):
        sizes += sizes.translate(plus_one)
    return sizes


@cache
def byte_operands(n: int) -> tuple[int, int]:
    """``mask_sizes(n)`` and a 0x01 byte per mask, each as a packed int."""
    return _as_int(mask_sizes(n)), _as_int(b"\x01" * (1 << n))


def size_view(n: int, at_size: Iterable[int]) -> bytes:
    """The byte view of the table whose rank at X is ``at_size[|X|]``: the
    mask sizes translated through ``at_size``, each value in 0..255."""
    return mask_sizes(n).translate(bytes(at_size).ljust(256, b"\0"))


def _byte_view(ranks: Sequence[int]) -> bytes | None:
    """The ranks as one byte per mask, or None if any lies outside 0..127."""
    try:
        view = bytes(ranks)
    except ValueError:  # a rank outside 0..255
        return None
    return view if view.isascii() else None


def _as_int(view: bytes) -> int:
    return int.from_bytes(view, "little")


def _to_view(n: int, packed: int) -> bytes:
    return packed.to_bytes(1 << n, "little")


def _difference(n: int, x: int, y: int) -> int | None:
    """x - y byte by byte, for bytes in 0..127, or None if a byte of y
    exceeds x's: (x | 0x80..) - y keeps a byte's guard bit exactly where
    x >= y, and no byte borrows from the next."""
    guards = byte_operands(n)[1] << 7
    diff = (x | guards) - y
    return diff ^ guards if diff & guards == guards else None


def _guard_select(n: int, x: int, y: int, larger: bool) -> bytes:
    """The bytewise maximum (``larger``) or minimum of x and y, guarded as
    in ``_difference``: the guard bit minus its shift is 0x7F where x >= y,
    which selects x or y by XOR."""
    guards = byte_operands(n)[1] << 7
    keep = ((x | guards) - y) & guards
    pick = (x ^ y) & (keep - (keep >> 7))
    return _to_view(n, y ^ pick if larger else x ^ pick)


# ``_SHIFTED[128 - k:384 - k]`` translates v to v - k and
# ``_REFLECTED[127 - k:383 - k]`` translates v to k - v, for 0 <= k <= 127;
# each gives 0xFF where the result leaves 0..127.
_SHIFTED = b"\xff" * 128 + bytes(range(128)) + b"\xff" * 256
_REFLECTED = bytes(range(127, -1, -1)) + b"\xff" * 256


def _shifted(view: bytes, k: int) -> bytes | None:
    out = view.translate(_SHIFTED[128 - k:384 - k])
    return None if 255 in out else out


def _reflected(view: bytes, k: int) -> bytes | None:
    out = view.translate(_REFLECTED[127 - k:383 - k])
    return None if 255 in out else out


def _half(view: bytes, low: int, upper: bool) -> bytes:
    """The bytes in the lower (or upper) half of every block of 2 * low:
    the masks without (or with) the element of stride ``low``, compacted.
    Short blocks are gathered by one strided slice per residue, long ones
    by one slice per block, so at most sqrt(len(view)) slices."""
    step, start, size = 2 * low, low if upper else 0, len(view)
    if low == 1:
        return view[start::2]
    if low * low < size:
        out = bytearray(size // 2)
        for r in range(low):
            out[r::low] = view[start + r::step]
        return bytes(out)
    return b"".join([view[i:i + low] for i in range(start, size, step)])


def _minor_view(view: bytes, removed: int, upper: bool) -> bytes:
    """``_half`` for each element of ``removed``, the highest first, so
    the lower elements keep their strides."""
    while removed:
        top = 1 << removed.bit_length() - 1
        view = _half(view, top, upper)
        removed ^= top
    return view


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


@cache
def _positions(n: int) -> tuple[int, ...]:
    """Each mask's position among the masks of its cardinality, in mask order."""
    seen = [0] * (n + 1)
    positions = []
    for c in mask_sizes(n):
        positions.append(seen[c])
        seen[c] += 1
    return tuple(positions)


@cache
def _bit_lists(n: int) -> tuple[tuple[int, ...], ...]:
    """Each mask's one-bit submasks, ascending, in mask order: the masks
    below 2^e, each followed by the bit 2^e, are the masks of the next
    half.  Every tuple shares the n bit ints."""
    bits: list[tuple[int, ...]] = [()]
    for e in range(n):
        bit = (1 << e,)
        bits += [b + bit for b in bits]
    return tuple(bits)
