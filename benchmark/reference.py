"""A fixed piece of pure-Python work that measures the machine's current speed.

On a shared host the CPU time of the same pass drifts by up to half between
minutes (other guests contend for the core and its caches), and CPU time
cannot see that.  ``run.py`` therefore makes one ``timed_call`` before the
first item of a pass and after every item, outside the items' timing, and
scales each item's CPU time by ``NOMINAL_CALL_S`` over the calls around it:
the calls sample the machine's speed across the same seconds as the items.
The work mimics the program's two hot kinds of code, fraction-free integer
elimination (``_linalg``) and sparse polynomial products over ``Fraction``
(``poly``), and shares no code with ``demimat``, so a change to the program
never changes it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# CPU seconds of one ``timed_call`` on the reference machine (2-vCPU shared
# x86-64 VM, Intel Xeon 2.1 GHz, Python 3.11.7), so scaled times read as
# seconds there.
NOMINAL_CALL_S = 0.015

_rng = random.Random(7)
MATRIX = [[_rng.choice((0, 0, 0, 1, -1)) for _ in range(40)] for _ in range(28)]
POLY = {(i, j, -i): Fraction(_rng.randint(-9, 9), _rng.randint(1, 6))
        for i in range(7) for j in range(7)}


def bareiss_rank(rows) -> int:
    mat = [list(row) for row in rows]
    n_rows, n_cols = len(mat), len(mat[0])
    prev, rank = 1, 0
    for col in range(n_cols):
        sel = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        pivot_row, piv = mat[rank], mat[rank][col]
        for r in range(rank + 1, n_rows):
            row, f = mat[r], mat[r][col]
            for c in range(col, n_cols):
                row[c], remainder = divmod(row[c] * piv - f * pivot_row[c], prev)
                assert remainder == 0
        prev = piv
        rank += 1
        if rank == n_rows:
            break
    return rank


def poly_square(terms: dict) -> dict:
    out: dict[tuple, Fraction] = {}
    for e1, c1 in terms.items():
        for e2, c2 in terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {exp: c for exp, c in out.items() if c}


def work() -> tuple[int, int]:
    return bareiss_rank(MATRIX), len(poly_square(POLY))


EXPECTED = work()


def timed_call() -> float:
    """CPU seconds of one call of ``work``, checked against its first result."""
    start = time.process_time()
    if work() != EXPECTED:
        raise RuntimeError("the reference work gave a different result")
    return time.process_time() - start
