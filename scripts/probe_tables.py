#!/usr/bin/env python3
"""Time the whole-table layers on inputs larger than the fixtures.

Prints JSON with the CPU time of ``RankTable.kind``, ``RankTable.profile``
(the size-rank counts, timed alone on their first read), each table builder
of ``ops`` (``dual``, ``nullity_operator``, ``supplement``, ``join`` and
``meet`` with the dual, ``elongate`` by 1, or by 0 when the nullity is 0,
and ``delete`` and ``contract`` of element 1, each built afresh: only the
three operator images are called past their per-table memo),
``hamming.pj_family``, ``weights.check_wei_duality`` and
``weights.is_uniform_demimatroid`` on ``core.uniform(n, n // 2)`` for n = 12,
16, 18 and 20 and on a demimatroid drawn by ``core.random_demimatroid`` at
n = 12, and of ``codes.parity_matroid`` on seeded binary [12,6] and ternary
[10,5] codes, the binary Hamming [15,11] code and a seeded binary [20,10]
code, keeping the inputs with n <= --max-n.  Each input with n <= 12 is
checked against the oracle routes: the mask-by-mask classification of the
table and of its dual, each builder's table against its definition written
mask by mask, the profile against a mask-by-mask count, P_j by alternating
submask sums, the uniformity test's known answer (true on the uniform
tables, false on the random one), and the rank table by one elimination per
mask.  Every reference but the uniformity answers is one of the tests'
oracles, imported from ``tests/oracles.py``.  A wrong answer, or a layer
call or oracle check that raises (named with its input, its layer and the
exception), is listed under ``failures``; the JSON is still printed, and the
script exits 1.

    python scripts/probe_tables.py --max-n 12
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from demimat import codes, core, hamming, ops, weights

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

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
    return value, round(time.process_time() - start, 5)


class _Probe:
    """Runs one input's layer calls and oracle checks, listing each wrong
    answer and each exception under ``failures`` instead of raising."""

    def __init__(self, label: str, failures: list[str]):
        self.label, self.failures = label, failures

    def run(self, layer: str, call):
        """``_timed(call)``, or (None, None) once the exception it raised is listed."""
        try:
            return _timed(call)
        except Exception as exc:  # listed with the wrong answers; the probe goes on
            self.failures.append(f"{self.label}: {layer} raised {type(exc).__name__}: {exc}")
            return None, None

    def check(self, layer: str, wrong, message: str) -> None:
        """List ``message`` when ``wrong()`` holds, or the exception it raised."""
        if self.run(f"the {layer} check", wrong)[0]:
            self.failures.append(f"{self.label}: {message}")


def _builders(table: core.RankTable):
    """(name, call, oracle call) for each table builder; only the three
    operator images are memoized, and they are called through
    ``__wrapped__``, so each call builds.  The join and meet partner is the
    table's memoized dual, and the oracle is the builder's mask-by-mask
    definition in ``tests/oracles.py``."""
    i = min(1, table.total_nullity)
    return (
        ("dual", lambda: ops.dual.__wrapped__(table), lambda: oracles.dual(table)),
        ("nullity_operator", lambda: ops.nullity_operator.__wrapped__(table),
         lambda: oracles.nullity_operator(table)),
        ("supplement", lambda: ops.supplement.__wrapped__(table),
         lambda: oracles.supplement(table)),
        ("join", lambda: ops.join(table, ops.dual(table)),
         lambda: oracles.join(table, ops.dual(table))),
        ("meet", lambda: ops.meet(table, ops.dual(table)),
         lambda: oracles.meet(table, ops.dual(table))),
        ("elongate", lambda: ops.elongate(table, i), lambda: oracles.elongate(table, i)),
        ("delete", lambda: ops.delete(table, 1), lambda: oracles.delete(table, 1)),
        ("contract", lambda: ops.contract(table, 1), lambda: oracles.contract(table, 1)),
    )


def probe_table(label: str, n: int, build, uniform: bool, failures: list[str]) -> dict:
    """One table's timings; a layer that raised has time None and no check."""
    probe, checked = _Probe(label, failures), n <= ORACLE_MAX_N
    table, _ = probe.run("build", build)
    if table is None:
        return {"input": label, "n": n, "checked": False}
    kind, kind_s = probe.run("kind", lambda: table.kind)
    profile, profile_s = probe.run("profile", lambda: table.profile)
    builders_s = {}
    for name, call, definition in _builders(table):
        built, builders_s[name] = probe.run(name, call)
        if checked and built is not None:
            probe.check(name, lambda: built.ranks != definition(),
                        f"{name} differs from its mask-by-mask definition")
    family, pj_s = probe.run("pj_family", lambda: hamming.pj_family(table))
    duality, duality_s = probe.run("check_wei_duality", lambda: weights.check_wei_duality(table))
    is_uniform, uniform_s = probe.run("is_uniform_demimatroid",
                                      lambda: weights.is_uniform_demimatroid(table))
    if checked:
        checks = (
            ("kind", kind, lambda: kind != oracles.classify(n, table.ranks).kind,
             "kind differs from the mask-by-mask classification"),
            ("dual kind", table,
             lambda: ops.dual(table).kind != oracles.classify(n, ops.dual(table).ranks).kind,
             "the dual's kind differs from its classification"),
            ("profile", profile,
             lambda: profile != oracles.size_rank_profile(table),
             "profile differs from the mask-by-mask count"),
            ("pj_family", family,
             lambda: family != tuple(oracles.p_j(table, j) for j in range(n + 1)),
             "P_j family differs from the submask sums"),
            ("check_wei_duality", duality, lambda: duality is not True,
             "Wei duality fails on a demimatroid"),
            ("is_uniform_demimatroid", is_uniform, lambda: is_uniform is not uniform,
             f"the uniformity test answers {is_uniform}"),
        )
        for layer, value, wrong, message in checks:
            if value is not None:
                probe.check(layer, wrong, message)
    return {"input": label, "n": n, "kind": kind, "kind_s": kind_s, "profile_s": profile_s,
            "builders_s": builders_s, "pj_family_s": pj_s, "check_wei_duality_s": duality_s,
            "is_uniform_s": uniform_s, "checked": checked}


def probe_code(label: str, p: int, rows, failures: list[str]) -> dict:
    probe = _Probe(label, failures)
    matrix, _ = probe.run("PrimeMatrix.build", lambda: codes.PrimeMatrix.build(p, rows))
    if matrix is None:
        return {"input": label, "p": p, "checked": False}
    n = matrix.n_cols
    table, build_s = probe.run("parity_matroid", lambda: codes.parity_matroid(matrix))
    checked = n <= ORACLE_MAX_N and table is not None
    if checked:
        probe.check("parity_matroid",
                    lambda: table.ranks != oracles.rank_table_by_elimination(matrix),
                    "rank table differs from elimination per mask")
    return {"input": label, "p": p, "n": n,
            "k": None if table is None else table.total_nullity,
            "parity_matroid_s": build_s, "checked": checked}


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
