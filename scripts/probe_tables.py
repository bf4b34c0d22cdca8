#!/usr/bin/env python3
"""Time the whole-table layers on inputs larger than the fixtures.

Prints JSON with the CPU time of ``RankTable.kind``, ``hamming.pj_family``,
``weights.check_wei_duality`` and ``weights.is_uniform_demimatroid`` on
``core.uniform(n, n // 2)`` for n = 12, 16, 18 and 20 and on a seeded random
demimatroid at n = 12, and of ``codes.parity_matroid`` on seeded binary
[12,6] and ternary [10,5] codes, the binary Hamming [15,11] code and a
seeded binary [20,10] code, keeping the inputs with n <= --max-n.  Each
input with n <= 12 is checked against the oracle routes: the mask-by-mask
classification of the table and of its dual, P_j by alternating submask
sums, the uniformity test's known answer (true on the uniform tables, false
on the random one), and the rank table by one elimination per mask.  A
wrong answer is listed under ``failures`` and the script exits 1.

    python scripts/probe_tables.py --max-n 12
"""

from __future__ import annotations

import argparse
import json
import random
import time

from demimat import codes, core, hamming, ops, weights
from demimat._linalg import rref_mod_p

ORACLE_MAX_N = 12

# (label, n, builder, is it uniform)
TABLES = (
    ("uniform(12,6)", 12, lambda: core.uniform(12, 6), True),
    ("random n=12 seed=1", 12, lambda: core.random_demimatroid(12, random.Random(1)), False),
    ("uniform(16,8)", 16, lambda: core.uniform(16, 8), True),
    ("uniform(18,9)", 18, lambda: core.uniform(18, 9), True),
    ("uniform(20,10)", 20, lambda: core.uniform(20, 10), True),
)


def _seeded_rows(p: int, n_rows: int, n: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [[rng.randrange(p) for _ in range(n)] for _ in range(n_rows)]


# (label, p, check-matrix rows); the code has length len(rows[0])
CODES = (
    ("binary [12,6] seed=1", 2, _seeded_rows(2, 6, 12, 1)),
    ("ternary [10,5] seed=1", 3, _seeded_rows(3, 5, 10, 1)),
    ("Hamming [15,11]", 2, [[(j >> i) & 1 for j in range(1, 16)] for i in range(4)]),
    ("binary [20,10] seed=1", 2, _seeded_rows(2, 10, 20, 1)),
)


def _timed(call):
    start = time.process_time()
    value = call()
    return value, round(time.process_time() - start, 3)


def probe_table(label: str, n: int, build, uniform: bool, failures: list[str]) -> dict:
    table = build()
    kind, kind_s = _timed(lambda: table.kind)
    family, pj_s = _timed(lambda: hamming.pj_family(table))
    duality, duality_s = _timed(lambda: weights.check_wei_duality(table))
    is_uniform, uniform_s = _timed(lambda: weights.is_uniform_demimatroid(table))
    if n <= ORACLE_MAX_N:
        dual = ops.dual(table)
        if kind != core._classify(n, table.ranks).kind:
            failures.append(f"{label}: kind differs from the mask-by-mask classification")
        if dual.kind != core._classify(n, dual.ranks).kind:
            failures.append(f"{label}: the dual's kind differs from its classification")
        if family != tuple(hamming.p_j(table, j) for j in range(n + 1)):
            failures.append(f"{label}: P_j family differs from the submask sums")
        if duality is not True:
            failures.append(f"{label}: Wei duality fails on a demimatroid")
        if is_uniform is not uniform:
            failures.append(f"{label}: the uniformity test answers {is_uniform}")
    return {"input": label, "n": n, "kind": kind, "kind_s": kind_s, "pj_family_s": pj_s,
            "check_wei_duality_s": duality_s, "is_uniform_s": uniform_s,
            "checked": n <= ORACLE_MAX_N}


def probe_code(label: str, p: int, rows, failures: list[str]) -> dict:
    matrix = codes.PrimeMatrix.build(p, rows)
    n = matrix.n_cols
    table, build_s = _timed(lambda: codes.parity_matroid(matrix))
    if n <= ORACLE_MAX_N:
        by_elimination = tuple(len(rref_mod_p(matrix.columns(m), p)[1]) for m in range(1 << n))
        if table.ranks != by_elimination:
            failures.append(f"{label}: rank table differs from elimination per mask")
    return {"input": label, "p": p, "n": n, "k": table.total_nullity,
            "parity_matroid_s": build_s, "checked": n <= ORACLE_MAX_N}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=20)
    args = parser.parse_args(argv)
    failures: list[str] = []
    tables = [probe_table(label, n, build, uniform, failures)
              for label, n, build, uniform in TABLES if n <= args.max_n]
    code_runs = [probe_code(label, p, rows, failures)
                 for label, p, rows in CODES if len(rows[0]) <= args.max_n]
    print(json.dumps({"probe": "tables", "tables": tables, "codes": code_runs,
                      "failures": failures}, indent=2))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
