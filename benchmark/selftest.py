#!/usr/bin/env python3
"""Show that every output check of the benchmark fires.

    python3 benchmark/selftest.py

Runs a short pass of each workload, confirms its checks pass on the real
outputs, then corrupts one expected value, report field or oracle result at
a time and confirms that the corruption is counted as a failed item.  Exits
1 if any check stays silent.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from workloads import Battery, Fixtures, Wide, import_program

ROOT = Path(__file__).resolve().parent.parent
missed = []


def expect_failure(label: str, problems: dict, item: str | None = None) -> None:
    fired = bool(problems) if item is None else item in problems
    print(f"{'fires ' if fired else 'MISSED'}  {label}")
    if not fired:
        missed.append(label)


def expect_clean(label: str, problems: dict) -> None:
    if problems:
        print(f"UNEXPECTED  {label}: {problems}")
        missed.append(label)


@contextmanager
def patched(module, name, value):
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def with_report(rec, edit):
    code, out, err = rec.output
    report = json.loads(out)
    edit(report)
    return replace(rec, output=(code, json.dumps(report), err))


def fixtures_cases(demimat) -> None:
    wl = Fixtures(ROOT, 0, demimat)
    keep = {"uniform_4_2", "full_rank2_n3", "chain_complex_n5", "code_6_3_a",
            "path_independence"}
    wl.files = [p for p in wl.files if p.stem in keep]
    records = wl.run_pass(0, None)
    compute = records[:-1]
    expect_clean("fixtures: real outputs", wl.check_pass(records))

    for rec in compute:
        name = rec.name.split(":", 1)[1]
        for key, want in wl.data[name]["expected"].items():
            saved = copy.deepcopy(wl.data[name])
            bad = want + ["0"] if isinstance(want, list) else (
                {**want, "0": "0"} if isinstance(want, dict) else want + " + x")
            wl.data[name]["expected"][key] = bad
            expect_failure(f"fixtures: corrupted expected {name}.{key}",
                           wl.check_pass([rec]), rec.name)
            wl.data[name] = saved

    first = compute[0]

    def false_route(report):
        report["results"]["hamming"]["routes"]["pj_route"] = False

    def false_betti(report):
        report["results"]["betti"]["agrees_with_subset_sum"] = False

    def false_ghwe(report):
        report["results"]["ghwe"]["definition_route_agrees"] = False

    for label, edit in (("route flag", false_route), ("betti agreement", false_betti),
                        ("ghwe agreement", false_ghwe)):
        expect_failure(f"fixtures: false {label}",
                       wl.check_pass([with_report(first, edit)]), first.name)
    fpoly = next(r for r in compute if r.name.endswith("chain_complex_n5"))
    expect_failure("fixtures: false fpoly agreement",
                   wl.check_pass([with_report(
                       fpoly, lambda r: r["results"]["fpoly"].update(agree=False))]),
                   fpoly.name)
    expect_failure("fixtures: nonzero exit",
                   wl.check_pass([replace(first, output=(1, "", "boom"))]), first.name)
    expect_failure("fixtures: exception", wl.check_pass([replace(first, error="boom")]),
                   first.name)
    verify = records[-1]
    expect_failure("fixtures: verify --fixtures not ok",
                   wl.check_pass([with_report(verify, lambda r: r.update(ok=False))]),
                   verify.name)
    expect_failure("fixtures: verify --fixtures read too few files",
                   wl.check_pass([with_report(verify, lambda r: r.update(files=1))]),
                   verify.name)


def battery_cases(demimat) -> None:
    wl = Battery(ROOT, 0, demimat)
    wl.N, wl.SAMPLES = 4, 3
    records = wl.run_pass(7, None)
    expect_clean("battery: real outputs", wl.check_pass(records))

    victim = records[1]

    def identity_failure(report):
        report["ok"] = False
        failures = report["identities"]["macwilliams"]["failures"]
        failures.append({"ranks": list(victim.output[0])})
        report["identities"]["macwilliams"]["passes"] -= 1

    def edit_all(edit):
        code, out, err = records[0].output[1]
        report = json.loads(out)
        edit(report)
        changed = (code, json.dumps(report), err)
        return [replace(r, output=(r.output[0], changed)) for r in records]

    problems = wl.check_pass(edit_all(identity_failure))
    expect_failure("battery: identity failure marks its sample", problems, victim.name)
    if set(problems) != {victim.name}:
        print(f"UNEXPECTED  battery: other samples failed too: {sorted(problems)}")
        missed.append("battery: identity failure isolated")
    expect_failure("battery: report not ok",
                   wl.check_pass(edit_all(lambda r: r.update(ok=False))))
    expect_failure("battery: census short",
                   wl.check_pass(edit_all(lambda r: r["conjecture_census"].update(holds=0))))
    expect_failure("battery: sample never completed",
                   wl.check_pass([replace(records[2], error="sample never completed")]))


def wide_cases(demimat) -> None:
    wl = Wide(ROOT, 1, demimat)
    records = wl.run_pass(0, None)
    outputs = {r.name: r.output for r in records}
    expect_clean("wide: real outputs", wl.oracles(outputs))

    def off_by_x(fn):
        return lambda *args, **kwargs: fn(*args, **kwargs) + demimat.poly.X

    d = demimat
    with patched(d.tutte, "tutte_uniform_closed_form", off_by_x(d.tutte.tutte_uniform_closed_form)):
        expect_failure("wide: corrupted uniform closed form", wl.oracles(outputs),
                       "uniform14_7:tutte")
    with patched(d.hamming, "generalized_w", off_by_x(d.hamming.generalized_w)):
        problems = wl.oracles(outputs)
        for key in ("rand11", "rand14"):
            expect_failure(f"wide: corrupted Tutte-route W^(1) on {key}", problems,
                           f"{key}:generalized_w_all")
    ghw = d.codes.code_ghw_bruteforce
    with patched(d.codes, "code_ghw_bruteforce", lambda *a: ghw(*a) + 1):
        expect_failure("wide: corrupted code brute force", wl.oracles(outputs),
                       "hamming15_11:generalized_w_all")
    bad = dict(outputs, **{"rand11:build": d.core.RankTable.build(
        11, [min(m.bit_count(), 1) for m in range(1 << 11)])})
    expect_failure("wide: table differs from its ranks", wl.oracles(bad), "rand11:build")

    expect_clean("wide: first pass", wl.check_pass(records))
    changed = [replace(r, output=r.output + d.poly.X) if r.name == "rand11:tutte" else r
               for r in records]
    expect_failure("wide: output differs between passes", wl.check_pass(changed),
                   "rand11:tutte")
    expect_failure("wide: exception",
                   wl.check_pass([replace(records[0], error="boom")]), records[0].name)


def main() -> int:
    demimat = import_program(ROOT)
    fixtures_cases(demimat)
    battery_cases(demimat)
    wide_cases(demimat)
    print(f"{len(missed)} check(s) missed" if missed else "every check fires")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
