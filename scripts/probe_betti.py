#!/usr/bin/env python3
"""Time the Betti route to W on inputs larger than the fixtures.

Prints JSON with the CPU time of ``simplicial.w_via_betti`` (over Q) on
``core.random_demimatroid(n, random.Random(seed))`` for n = 10, 12, 14, 15
and 16 and on ``core.uniform(n, n // 2)`` for n = 12, 14 and 16, keeping
the inputs with n <= --max-n (default 14, so random n = 15 and 16 and
``uniform(16,8)`` run only with ``--max-n 16``; the two random ones take
minutes).  Each call checks its W against the subset sum, so a wrong
Betti table raises and the script exits nonzero.

    python scripts/probe_betti.py --max-n 12
"""

from __future__ import annotations

import argparse
import json
import random
import time

from demimat import core, simplicial

# (label, n, builder)
INPUTS = (
    ("random n=10 seed=10", 10, lambda: core.random_demimatroid(10, random.Random(10))),
    ("random n=12 seed=1", 12, lambda: core.random_demimatroid(12, random.Random(1))),
    ("uniform(12,6)", 12, lambda: core.uniform(12, 6)),
    ("random n=14 seed=1", 14, lambda: core.random_demimatroid(14, random.Random(1))),
    ("uniform(14,7)", 14, lambda: core.uniform(14, 7)),
    ("random n=15 seed=1", 15, lambda: core.random_demimatroid(15, random.Random(1))),
    ("uniform(16,8)", 16, lambda: core.uniform(16, 8)),
    ("random n=16 seed=1", 16, lambda: core.random_demimatroid(16, random.Random(1))),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=14)
    args = parser.parse_args(argv)
    rows = []
    for label, n, build in INPUTS:
        if n > args.max_n:
            continue
        table = build()
        _ = table.kind  # classify outside the timed call
        start = time.process_time()
        simplicial.w_via_betti(table, simplicial.RATIONALS)
        rows.append({
            "input": label,
            "n": n,
            "eta": table.total_nullity,
            "cpu_s": round(time.process_time() - start, 3),
        })
    print(json.dumps({"probe": "w_via_betti", "field": "Q", "runs": rows}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
