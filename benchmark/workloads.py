"""The three workloads: seeded inputs, the items of one pass, and the checks.

Every workload has the same shape.  Its constructor is the set-up a fresh
interpreter does after importing ``demimat`` and before the first item can
start (``setup_s`` times both).  ``run_pass`` runs the fixed item list once
and returns one ``Record`` per item, holding the raw output; it does no
checking, so the timed region holds only program work.  If given, it calls
``between()`` after each item, outside that item's latency (``run.py`` makes a
reference call there).  Item latencies are CPU time of the process, which
``run.py`` scales to the reference machine's speed.  ``check_pass`` then
compares those outputs with the expected values and oracles and returns the
problems of each failed item.  An item fails on an exception, a nonzero exit
code, a false route or agreement flag, or an output mismatch.

``BENCHMARK.json`` lists ``fixtures`` and ``battery``.  ``wide`` runs by hand
with the same command: its two 13-second passes per run cannot give steady
medians on a two-core shared machine, so it is kept out of the listed set.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

clock = time.process_time

# Functions whose per-item call counts show duplicated work: today
# ``compute --all`` runs the Betti route twice per input.
CENSUS = (
    "simplicial.w_via_betti",
    "simplicial.betti_of_elongations",
    "hamming.hamming_subset_sum",
    "hamming.generalized_w",
)


def import_program(root: Path):
    """Import ``demimat`` (with its CLI) from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    importlib.import_module("demimat.cli")
    demimat = sys.modules["demimat"]
    if not Path(demimat.__file__).resolve().is_relative_to(src):
        raise ImportError(f"demimat was imported from {demimat.__file__}, not {src}")
    return demimat


@dataclass
class Record:
    name: str
    latency_s: float
    output: object = None
    error: str | None = None
    census: dict = field(default_factory=dict)


def census_counts(tracer) -> dict:
    return {key: tracer.calls(key) for key in CENSUS} if tracer else {}


def census_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after if after[key] - before[key]}


def run_items(items, tracer, between=None) -> list[Record]:
    records = []
    for name, thunk in items:
        before = census_counts(tracer)
        start = clock()
        try:
            output, error = thunk(), None
        except Exception as exc:  # one failed item must not stop the pass
            output, error = None, f"{type(exc).__name__}: {exc}"
        latency = clock() - start
        records.append(Record(name, latency, output, error,
                              census_delta(before, census_counts(tracer))))
        if between:
            between()
    return records


def cli_call(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``demimat.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


# -- fixtures -------------------------------------------------------------------------


class Fixtures:
    """``compute --all`` on every committed fixture, plus ``verify --fixtures``.

    The seed does not change the inputs: these are the real, fixed inputs.
    """

    def __init__(self, root: Path, seed: int, demimat):
        self.demimat = demimat
        self.dir = root / "fixtures"
        self.files = sorted(self.dir.glob("*.json"))
        if not self.files:
            raise FileNotFoundError(f"no fixture files under {self.dir}")
        self.data = {path.stem: json.loads(path.read_text()) for path in self.files}
        self.n_files = len(self.files)

    def run_pass(self, pass_seed: int, tracer, between=None) -> list[Record]:
        cli = self.demimat.cli
        items = [
            (f"compute:{path.stem}",
             lambda path=path: cli_call(cli, ["compute", "--in", str(path), "--all"]))
            for path in self.files
        ]
        items.append(("verify:fixtures",
                      lambda: cli_call(cli, ["verify", "--fixtures", str(self.dir)])))
        return run_items(items, tracer, between)

    def check_pass(self, records: list[Record]) -> dict[str, list[str]]:
        problems = {}
        for rec in records:
            if rec.error is not None:
                problems[rec.name] = [rec.error]
                continue
            code, out, err = rec.output
            if code != 0:
                problems[rec.name] = [f"exit code {code}: {err.strip()}"]
                continue
            report = json.loads(out)
            if rec.name == "verify:fixtures":
                found = check_verify_fixtures(report, self.n_files)
            else:
                found = check_compute(report, self.data[rec.name.split(":", 1)[1]])
            if found:
                problems[rec.name] = found
        return problems


# ``compute --all`` report path of each key a fixture's expected block holds.
EXPECTED_PATHS = {
    "kind": ("kind",),
    "tutte": ("tutte",),
    "hamming": ("hamming", "w"),
    "d": ("wei", "d"),
    "ghwe": ("ghwe", "w_r"),
    "fpoly": ("fpoly", "f"),
    "charpoly": ("charpoly",),
}


def _dig(results: dict, path: tuple):
    value = results
    for key in path:
        value = value[key]
    return value


def check_compute(report: dict, fixture: dict) -> list[str]:
    """Byte-equal expected values and every route/agreement flag true."""
    results = report["results"]
    problems = []
    for key, want in fixture.get("expected", {}).items():
        if key == "betti":
            got = [table["poly"] for table in results["betti"]["tables"]]
        elif key.startswith("betti/"):
            continue  # other fields: compute --all works over Q; verify item covers these
        elif key in EXPECTED_PATHS:
            got = _dig(results, EXPECTED_PATHS[key])
        else:
            problems.append(f"unknown expected key {key!r}")
            continue
        if canonical(got) != canonical(want):
            problems.append(f"{key}: got {got!r}, want {want!r}")
    flags = dict(results["hamming"]["routes"])
    flags["betti.agrees_with_subset_sum"] = results["betti"]["agrees_with_subset_sum"]
    flags["ghwe.definition_route_agrees"] = results["ghwe"]["definition_route_agrees"]
    if "fpoly" in results:
        flags["fpoly.agree"] = results["fpoly"]["agree"]
    problems.extend(f"flag {name} is false" for name, ok in flags.items() if ok is not True)
    return problems


def check_verify_fixtures(report: dict, n_files: int) -> list[str]:
    problems = list(report["problems"])
    if report["ok"] is not True:
        problems.append("verify --fixtures did not report ok")
    if report["files"] != n_files:
        problems.append(f"verify --fixtures read {report['files']} files, expected {n_files}")
    return problems


# -- battery --------------------------------------------------------------------------


class Battery:
    """The seeded identity battery through ``verify --seed S --n 5``.

    Each pass runs one battery of ``SAMPLES`` tables with its own seed, drawn
    from the workload seed, and each sampled table is one item, named by the
    pass seed and its index.  A sample's latency runs from the end of the
    previous sample (or the start of the call, or the end of the ``between``
    call after it) to the end of its ``conjecture_check``, the last call
    ``run_battery`` makes for a sample.
    """

    N = 5
    SAMPLES = 20

    def __init__(self, root: Path, seed: int, demimat):
        self.demimat = demimat
        self.census: dict[str, int] = {}

    def run_pass(self, pass_seed: int, tracer, between=None) -> list[Record]:
        hamming = self.demimat.hamming
        inner = hamming.conjecture_check
        marks = []

        def conjecture_check(table):
            try:
                return inner(table)
            finally:
                end = clock()
                if between:
                    between()
                marks.append((end, clock(), table.ranks, census_counts(tracer)))

        hamming.conjecture_check = conjecture_check
        try:
            start = clock()
            before = census_counts(tracer)
            try:
                argv = ["verify", "--seed", str(pass_seed), "--n", str(self.N),
                        "--samples", str(self.SAMPLES)]
                output, error = cli_call(self.demimat.cli, argv), None
            except Exception as exc:  # reported as failed samples
                output, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            hamming.conjecture_check = inner
        records = []
        previous, counts = start, before
        for i in range(self.SAMPLES):
            name = f"seed{pass_seed}:sample{i}"
            if i < len(marks):
                end, resume, ranks, after = marks[i]
                records.append(Record(name, end - previous, (ranks, output),
                                      error, census_delta(counts, after)))
                previous, counts = resume, after
            else:
                records.append(Record(name, 0.0, None,
                                      error or "sample never completed"))
        return records

    def check_pass(self, records: list[Record]) -> dict[str, list[str]]:
        problems = {r.name: [r.error] for r in records if r.error is not None}
        done = [r for r in records if r.error is None]
        if not done:
            return problems
        code, out, err = done[0].output[1]
        report = json.loads(out) if out else {}
        whole = check_battery(report, self.N, self.SAMPLES)
        failing = {
            tuple(f["ranks"])
            for result in report.get("identities", {}).values()
            for f in result["failures"]
        }
        flagged = [r for r in done if tuple(r.output[0]) in failing]
        if (code != 0 or report.get("ok") is not True) and not flagged:
            whole.append(f"battery not ok (exit code {code}): {err.strip()}")
        for rec in done:
            mine = ["an identity failed on this sample"] if rec in flagged else []
            if whole or mine:
                problems[rec.name] = whole + mine
        for key, value in report.get("conjecture_census", {}).items():
            self.census[key] = self.census.get(key, 0) + value
        return problems


def check_battery(report: dict, n: int, samples: int) -> list[str]:
    """Problems with the battery report as a whole; these fail every sample."""
    problems = []
    if (report.get("n"), report.get("samples")) != (n, samples):
        problems.append(f"report is for n={report.get('n')}, samples={report.get('samples')}")
    for name, result in report.get("identities", {}).items():
        if result["passes"] + len(result["failures"]) != samples:
            problems.append(f"{name}: {result['passes']} passes of {samples} samples")
    if sum(report.get("conjecture_census", {}).values()) != samples:
        problems.append("conjecture census does not cover every sample")
    return problems


# -- wide -----------------------------------------------------------------------------


def sample_demimatroid_ranks(n: int, rng: random.Random) -> list[int]:
    """Uniform-step demimatroid ranks, assigned in ascending mask order.

    The feasible interval [max rho(X - x), min rho(X - x) + 1] is never empty,
    so every draw is a valid demimatroid table.  The benchmark generates the
    ranks itself so that the program receives only the finished inputs.
    """
    ranks = [0] * (1 << n)
    for mask in range(1, 1 << n):
        lo, hi = 0, mask.bit_count()
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            r = ranks[mask ^ bit]
            lo, hi = max(lo, r), min(hi, r + 1)
        ranks[mask] = rng.randint(lo, hi)
    return ranks


# Check matrix of the binary Hamming [15,11] code: column j is j in binary.
HAMMING_15_11_ROWS = [[(j >> i) & 1 for j in range(1, 16)] for i in range(4)]
TABLE_INVARIANTS = (
    "tutte", "whitney_f", "characteristic", "wei_hierarchy",
    "macwilliams", "generalized_w_all", "conjecture_check",
)


class Wide:
    """Seeded tables at n = 11..15 through the homology-free library calls.

    ``compute --hamming`` always runs the Betti route, which cannot finish at
    n >= 10, so this workload calls the library directly.  Building each
    table is an item, and so is each (table, invariant) call.
    """

    def __init__(self, root: Path, seed: int, demimat):
        rng = random.Random(seed)
        self.ranks = {11: sample_demimatroid_ranks(11, rng),
                      14: sample_demimatroid_ranks(14, rng)}
        self.matrix = demimat.codes.PrimeMatrix.build(2, HAMMING_15_11_ROWS)
        self.demimat = demimat
        self.first: dict[str, object] | None = None
        self.census: dict[str, int] = {}

    def items(self, tables: dict):
        d = self.demimat
        calls = {
            "tutte": d.tutte.tutte,
            "whitney_f": d.tutte.whitney_f,
            "characteristic": d.tutte.characteristic,
            "wei_hierarchy": d.weights.wei_hierarchy,
            "macwilliams": d.hamming.macwilliams,
            "generalized_w_all": d.hamming.generalized_w_all,
            "conjecture_check": d.hamming.conjecture_check,
            "w_from_pj": d.hamming.w_from_pj,
        }

        def build(key, make):
            tables[key] = make()
            return tables[key]

        plan = [
            ("rand11", lambda: d.core.RankTable.build(11, self.ranks[11]),
             TABLE_INVARIANTS + ("w_from_pj",)),
            ("uniform14_7", lambda: d.core.uniform(14, 7), TABLE_INVARIANTS),
            ("rand14", lambda: d.core.RankTable.build(14, self.ranks[14]), TABLE_INVARIANTS),
            ("hamming15_11", lambda: d.codes.parity_matroid(self.matrix),
             ("wei_hierarchy", "macwilliams", "generalized_w_all")),
        ]
        for key, make, invariants in plan:
            yield f"{key}:build", lambda key=key, make=make: build(key, make)
            for inv in invariants:
                yield f"{key}:{inv}", lambda key=key, inv=inv: calls[inv](tables[key])

    def run_pass(self, pass_seed: int, tracer, between=None) -> list[Record]:
        return run_items(list(self.items({})), tracer, between)

    def oracles(self, outputs: dict) -> dict[str, list[str]]:
        """One independent oracle per table, run outside the timed region."""
        d = self.demimat
        problems: dict[str, list[str]] = {}

        def expect(item, ok, message):
            if not ok:
                problems.setdefault(item, []).append(message)

        for key, n in (("rand11", 11), ("rand14", 14)):
            table = outputs[f"{key}:build"]
            expect(f"{key}:build", table.ranks == tuple(self.ranks[n])
                   and table.kind in ("demimatroid", "matroid"), "table differs from its ranks")
            if table.total_nullity:
                oracle = d.hamming.generalized_w(table, 1, route="tutte")
                expect(f"{key}:generalized_w_all",
                       outputs[f"{key}:generalized_w_all"][1] == oracle,
                       "W^(1) differs from the Tutte-route definition")
        uniform = outputs["uniform14_7:build"]
        expect("uniform14_7:build", uniform.kind == "matroid", "uniform(14,7) is not a matroid")
        expect("uniform14_7:tutte",
               outputs["uniform14_7:tutte"] == d.tutte.tutte_uniform_closed_form(14, 7),
               "Tutte polynomial differs from the uniform closed form")
        code = outputs["hamming15_11:build"]
        expect("hamming15_11:build", code.kind == "matroid" and code.rank == 4,
               "parity matroid is not a rank-4 matroid")
        view = d.codes.LinearCodeView.from_parity(self.matrix)
        d1 = min_weight(outputs["hamming15_11:generalized_w_all"][1], code.n)
        expect("hamming15_11:generalized_w_all",
               d.codes.code_ghw_bruteforce(view, 1) == d1,
               "first generalized Hamming weight differs from the code's brute force")
        return problems

    def check_pass(self, records: list[Record]) -> dict[str, list[str]]:
        problems = {r.name: [r.error] for r in records if r.error is not None}
        if problems:
            return problems
        outputs = {r.name: r.output for r in records}
        if self.first is None:
            problems = self.oracles(outputs)
            self.first = outputs
            for name, report in outputs.items():
                if name.endswith(":conjecture_check"):
                    verdict = ("unsupported" if report.error
                               else "holds" if report.holds else "fails")
                    self.census[verdict] = self.census.get(verdict, 0) + 1
        for name, value in outputs.items():
            if value != self.first[name]:
                problems.setdefault(name, []).append("output differs from the first pass")
        return problems


def min_weight(enumerator, n: int) -> int | None:
    """Smallest j >= 1 whose x^(n-j) y^j coefficient is nonzero."""
    for j in range(1, n + 1):
        if not enumerator.coefficient(x=n - j, y=j).is_zero:
            return j
    return None


WORKLOADS = {"fixtures": Fixtures, "battery": Battery, "wide": Wide}
