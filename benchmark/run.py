#!/usr/bin/env python3
"""The demimat benchmark: one workload, one seed, checked outputs, named metrics.

    python3 benchmark/run.py --workload {fixtures,battery,wide} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root (or any copy of the committed files); it
imports ``demimat`` from ``src/`` next to this directory and nothing else.
``BENCHMARK.json`` lists ``fixtures`` and ``battery``; ``wide`` runs by hand
(see ``workloads.py`` for why).

Each run executes a fixed number of passes over the workload's item list in
one process and one thread.  The pass count is ``--seconds`` divided by the
workload's nominal pass time (``NOMINAL_PASS_S``, measured on the reference
machine), so two commits compared at the same ``--seconds`` do identical
work and the percentiles rest on identical sample counts.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of at least
``SETUP_RUNS`` fresh interpreters that import demimat and prepare the inputs,
spread between the passes), ``pass_s`` (median pass), ``item_p50_s`` (median
over the items of each item's median latency: fixtures items repeat in every
pass, and the median of all their samples would sit on the gap between two
items and jump with noise), ``item_tail_s`` (over all samples, the highest
percentile with at least ten samples beyond it) and ``peak_rss_mb``.

Every end-to-end time is CPU time scaled to the reference machine's speed.
CPU time (``time.process_time``, and the children's user plus system time for
``setup_s``) leaves out the time the process waited for a CPU, which on a
shared machine says nothing about the program: two busy processes on a
two-vCPU machine stretched the battery pass wall by 45 % and left its CPU time
where it was.  CPU time still drifts with the host's load, by up to half
between minutes and by a tenth between seconds, so a ``reference.timed_call``
runs before the first item of every pass and after each item.  Each item
latency is scaled by ``reference.NOMINAL_CALL_S`` over the mean of the calls
just before and after it; each pass (less its reference calls) and the set-up
probes after it, by ``NOMINAL_CALL_S`` over the pass's mean call.  Over 13
identical fixtures passes in 100 s on one machine, the coefficient of
variation of a pass fell from 12.7 % unscaled to 2.4 % scaled, and the median
one of an item from 18 % to 7.7 % (13 % if scaled by the pass's mean call).
The unscaled CPU and wall times and the mean reference call of each pass are
in the meta line.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics from the ``Tracer`` spans (wall time, unscaled), with the tracing
overhead; it also writes every span aggregate to ``.bench_out/``.  Metric
names and units come from ``BENCHMARK.json``.

Every line but the last is for people; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference
from workloads import CENSUS, WORKLOADS, import_program

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOMINAL_PASS_S = {"fixtures": 7.5, "battery": 2.5, "wide": 12.0}
SETUP_RUNS = 8
TAIL_BEYOND = 10
wall_clock = time.perf_counter
cpu_clock = time.process_time


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(workload: str, seed: int) -> float:
    """CPU time of one fresh interpreter doing the workload's set-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    start = children_cpu()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return children_cpu() - start


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(tracer, verify_names, passes: int, traced, plain, harness_s, census):
    stats = tracer.stats
    per = 1.0 / passes

    def calls(*keys):
        return sum(stats[k][0] for k in keys if k in stats) * per

    def inclusive(*keys):
        return sum(stats[k][1] for k in keys if k in stats) * per

    self_s, layer_calls = defaultdict(float), defaultdict(int)
    for key, (n_calls, _, own, _) in stats.items():
        self_s[tracer.layer[key]] += own * per
        layer_calls[tracer.layer[key]] += n_calls
    counters = tracer.counters
    poly = "poly.LaurentPoly."
    m = {f"{layer}.self_s": value for layer, value in self_s.items()}
    m.update({f"{layer}.calls": n * per for layer, n in layer_calls.items()})
    m.update({
        "cli.load_s": inclusive("cli.load_input"),
        "core.build_calls": calls("core.RankTable.build"),
        "core.build_s": inclusive("core.RankTable.build"),
        "core.masks_classified": counters["core.masks_classified"] * per,
        "core.complex_calls": calls("core.Complex.build"),
        "core.complex_s": inclusive("core.Complex.build"),
        "poly.mul_calls": calls(poly + "__mul__", poly + "__rmul__"),
        "poly.mul_s": inclusive(poly + "__mul__", poly + "__rmul__"),
        "poly.pow_calls": calls(poly + "__pow__"),
        "poly.pow_s": inclusive(poly + "__pow__"),
        "poly.substitute_calls": calls(poly + "substitute"),
        "poly.substitute_s": inclusive(poly + "substitute"),
        "poly.divide_exact_calls": calls(poly + "divide_exact"),
        "poly.divide_exact_s": inclusive(poly + "divide_exact"),
        "poly.terms_out": counters["poly.terms_out"] * per,
        "hamming.submasks_scanned": counters["hamming.submasks_scanned"] * per,
        "hamming.subset_sum_calls": calls("hamming.hamming_subset_sum"),
        "simplicial.homology_calls": calls("simplicial.reduced_homology_dims"),
        "simplicial.betti_sweeps": calls("simplicial.hochster_betti"),
        "simplicial.w_via_betti_calls": calls("simplicial.w_via_betti"),
        "linalg.eliminations": calls("linalg.rank_fraction_free", "linalg.rank_mod_p",
                                     "linalg.rref_mod_p"),
        "linalg.cells": counters["linalg.cells"] * per,
        "linalg.nonzeros": counters["linalg.nonzeros"] * per,
        "linalg.max_dim": counters["linalg.max_dim"],
        "codes.eliminations": counters["codes.eliminations"] * per,
        "trace.wall_s": statistics.fmean(traced),
        "trace.harness_s": harness_s * per,
        "trace.counting_s": tracer.counting_s * per,
        "trace.untraced_wall_s": statistics.fmean(plain),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
    })
    m.update({f"verify.{name}_s": inclusive(f"verify.{name}") for name in verify_names})
    m.update({f"census.{key.split('.')[1]}_per_item": statistics.median(census[key] or [0])
              for key in CENSUS})
    accounted = sum(self_s.values()) + m["trace.counting_s"] + m["trace.harness_s"]
    if abs(accounted - m["trace.wall_s"]) > 1e-6 * m["trace.wall_s"]:
        raise RuntimeError(
            f"layer self times add up to {accounted} s, traced wall is {m['trace.wall_s']} s"
        )
    return m, dict(self_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_1m = os.getloadavg()[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        demimat = import_program(ROOT)
    except ImportError as exc:
        print(f"cannot import demimat from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    setup_start = wall_clock()
    workload = WORKLOADS[args.workload](ROOT, args.seed, demimat)
    in_process_setup_s = wall_clock() - setup_start

    passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    rng = random.Random(args.seed)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(demimat)
        pairs = max(1, passes // 2)
        seeds = [rng.randrange(2**31) for _ in range(pairs)]
        plan = [(s, traced) for s in seeds for traced in (False, True)]
    else:
        tracer = None
        plan = [(rng.randrange(2**31), False) for _ in range(passes)]

    # Set-up is timed a few times after every untraced pass rather than all at
    # once, so its median samples the machine over the whole run.  The first,
    # untimed run writes the bytecode caches an installed copy already has.
    setup_times, raw_setup_times = [], []
    probes_per_pass = 0
    reference_calls, reference_means = [], []
    if not args.trace:
        time_setup(args.workload, args.seed)
        probes_per_pass = -(-SETUP_RUNS // len(plan))
    between = None if args.trace else lambda: reference_calls.append(reference.timed_call())
    plain_walls, plain_cpus, traced_walls = [], [], []
    pass_times = []
    latencies = defaultdict(list)  # item name -> scaled latency of each pass
    harness_s = 0.0
    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    census = defaultdict(list)  # function -> per-item call counts, items that call it
    item_census = {}
    for pass_seed, traced in plan:
        gc.collect()
        if traced:
            tracer.install()
            tracer.begin_pass()
        elif between:
            between()  # the machine's speed just before the first item
        cpu_start, start = cpu_clock(), wall_clock()
        records = workload.run_pass(pass_seed, tracer if traced else None, between)
        wall, cpu = wall_clock() - start, cpu_clock() - cpu_start
        if traced:
            harness_s += wall - tracer.end_pass()
            tracer.uninstall()
            traced_walls.append(wall)
            for rec in records:
                for key, n in rec.census.items():
                    census[key].append(n)
                item_census.setdefault(rec.name, rec.census)
        elif args.trace:
            plain_walls.append(wall)
        else:
            cpu -= sum(reference_calls[1:])
            reference_means.append(statistics.fmean(reference_calls))
            scale = reference.NOMINAL_CALL_S / reference_means[-1]
            probes = [time_setup(args.workload, args.seed) for _ in range(probes_per_pass)]
            plain_walls.append(wall)
            plain_cpus.append(cpu)
            raw_setup_times.extend(probes)
            pass_times.append(cpu * scale)
            for i, rec in enumerate(records):
                # The calls just before and after record i; an item that never
                # finished is followed by none.
                around = reference_calls[i:i + 2] or reference_calls
                latencies[rec.name].append(
                    rec.latency_s * reference.NOMINAL_CALL_S / statistics.fmean(around))
            reference_calls.clear()
            setup_times.extend(t * scale for t in probes)
        try:
            found = workload.check_pass(records)
        except Exception as exc:  # a report the checks cannot read fails the pass
            found = {rec.name: [f"{type(exc).__name__} while checking: {exc}"]
                     for rec in records}
        attempted += len(records)
        failed += len(found)
        for name, messages in found.items():
            problems.setdefault(name, messages)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_1m_at_start": load_1m,
        "pass_walls_untraced": plain_walls,  # with the reference calls at --trace 0
        "pass_walls_traced": traced_walls,
        "pass_cpus_unscaled": plain_cpus,
        "reference_call_means": reference_means,
        "setup_cpus_unscaled": raw_setup_times,
        "items_per_pass": attempted // len(plan),
        "items": len(latencies),
        "item_samples": sum(map(len, latencies.values())),
        "setup_samples": len(setup_times),
        "in_process_setup_s": in_process_setup_s,
        "fail_ratio": failed / attempted,
        "conjecture_census": getattr(workload, "census", {}),
        "problems": dict(list(problems.items())[:10]),
    }
    if args.trace:
        verify_names = [m["name"].removeprefix("verify.").removesuffix("_s")
                        for m in spec["per_layer"]
                        if m["name"].startswith("verify.") and m["name"] != "verify.self_s"]
        values, self_s = layer_metrics(tracer, verify_names, len(traced_walls), traced_walls,
                                       plain_walls, harness_s, census)
        wanted = spec["per_layer"]
        shares = {layer: s / values["trace.wall_s"] for layer, s in sorted(self_s.items())}
        meta["layer_share_of_traced_wall"] = shares
        meta["harness_share_of_traced_wall"] = values["trace.harness_s"] / values["trace.wall_s"]
        meta["item_census"] = item_census
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "meta": meta,
            "metrics": values,
            "spans": {k: dict(zip(("calls", "inclusive_s", "self_s"), v[:3]),
                              layer=tracer.layer[k], passes=len(traced_walls))
                      for k, v in sorted(tracer.stats.items()) if v[0]},
            "counters": dict(tracer.counters),
            "item_census": item_census,
        }, indent=1) + "\n")
        meta["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        tail_s, percentile = tail([t for ts in latencies.values() for t in ts])
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(pass_times),
            "item_p50_s": statistics.median(map(statistics.median, latencies.values())),
            "item_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        meta["item_tail_percentile"] = round(percentile, 2)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"meta": meta}))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'fail_ratio':40s} {failed / attempted:>16.6f} 1  ({failed} of {attempted} items)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
