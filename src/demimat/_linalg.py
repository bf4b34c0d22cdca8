"""Exact matrix ranks over Q and F_p, and the one primality test.

Two kernels reduce the boundary maps of ``simplicial``, both by columns onto
their highest row and with the same clearing.  ``rank_bit_columns`` works
over F_2 on columns stored as int bitsets, so a column step is one XOR; it
is exact over F_2 and, where ``simplicial`` can certify the result, stands
in for Q.  ``rank_sparse_columns`` works on sparse integer columns over Q
and F_p: it is the kernel for odd p and the fallback over Q.  ``rref_mod_p``
serves ``codes``: one elimination per check matrix gives its rank, null space
and row space; the rank over F_p is its pivot count.  A parity matroid's rank
table is counted, not eliminated, unless the space to count has more than
8 * 2^n vectors (or more than ``codes.SUBSPACE_ENUM_CAP``); then
``rref_mod_p`` runs per column subset, as in the tests' oracle for that table.
``is_prime`` is the one primality test behind every field and check-matrix
input.
"""

from __future__ import annotations

from collections.abc import Container, Mapping, Sequence
from math import gcd

from .errors import MalformedInputError

# Miller-Rabin with the first twelve primes as bases decides primality
# exactly for every p < 2^64 (Sorenson and Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXACT_BELOW = 1 << 64


def is_prime(p: int) -> bool:
    """Exact primality for p < 2^64; larger values are rejected as input errors."""
    if p >= _EXACT_BELOW:
        raise MalformedInputError(f"{p} is at or above 2^64, beyond the exact primality test")
    if p < 2:
        return False
    if p in _WITNESSES:
        return True
    if any(p % a == 0 for a in _WITNESSES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def rref_mod_p(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and pivot columns over F_p."""
    mat = [[v % p for v in row] for row in rows]
    pivots: list[int] = []
    if not mat or not mat[0]:
        return mat, pivots
    n_rows, n_cols = len(mat), len(mat[0])
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row == n_rows:
            break
        sel = next((r for r in range(pivot_row, n_rows) if mat[r][col]), None)
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = pow(mat[pivot_row][col], p - 2, p)
        mat[pivot_row] = [(v * inv) % p for v in mat[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    return mat, pivots


def rank_sparse_columns(
    columns: Mapping[int, Mapping[int, int]], p: int = 0, skip: Container[int] = ()
) -> list[int]:
    """Pivot rows of a sparse integer matrix, by lowest-row column reduction.

    ``columns`` maps each column label to its nonzero entries ``{row: value}``
    and is reduced in its own iteration order; rows are compared as ints and
    a column's pivot is its largest row.  Columns whose label is in ``skip``
    are passed over.  ``p`` is 0 for Q or a prime for F_p.  The rank is the
    number of pivot rows returned; the input is not modified.

    Over F_p every pivot is a unit and stored columns are scaled to a leading
    1.  Over Q a pivot of +-1 gives an integer column subtraction, any other
    pivot a reduces by ``a*col - b*piv`` (same rank), and each stored column
    is divided by the gcd of its entries, so all arithmetic stays in small
    integers.
    """
    reduced: dict[int, dict[int, int]] = {}
    for label, column in columns.items():
        if label in skip:
            continue
        if p:
            col = {r: v % p for r, v in column.items() if v % p}
        else:
            col = {r: v for r, v in column.items() if v}
        while col:
            low = max(col)
            pivot = reduced.get(low)
            if pivot is None:
                if p:
                    inverse = pow(col[low], -1, p)
                    if inverse != 1:
                        col = {r: v * inverse % p for r, v in col.items()}
                else:
                    content = gcd(*col.values())
                    if content != 1:
                        col = {r: v // content for r, v in col.items()}
                reduced[low] = col
                break
            factor = col[low]
            if p:
                for r, v in pivot.items():
                    value = (col.get(r, 0) - factor * v) % p
                    if value:
                        col[r] = value
                    else:
                        del col[r]
                continue
            lead = pivot[low]
            if lead == 1 or lead == -1:
                factor *= lead
            else:
                col = {r: lead * v for r, v in col.items()}
            for r, v in pivot.items():
                value = col.get(r, 0) - factor * v
                if value:
                    col[r] = value
                else:
                    del col[r]
    return list(reduced)


def rank_bit_columns(columns: Mapping[int, int], skip: Container[int] = ()) -> list[int]:
    """Pivot rows over F_2 of columns stored as ints, bit r set for a 1 in row r.

    ``columns`` maps each column label to its bitset and is reduced in its
    own iteration order: while a column's highest set bit is the pivot of a
    stored column, the two are XORed.  Columns whose label is in ``skip``
    are passed over.  At p = 2, ``rank_sparse_columns`` returns the same
    pivot rows.
    """
    reduced: dict[int, int] = {}
    for label, col in columns.items():
        if label in skip:
            continue
        while col:
            low = col.bit_length() - 1
            pivot = reduced.get(low)
            if pivot is None:
                reduced[low] = col
                break
            col ^= pivot
    return list(reduced)
