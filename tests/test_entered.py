"""Every function of ``demimat`` that the CLI never enters has a decision.

One child interpreter sets a profile hook before it imports ``demimat``, so
calls made at import count, and runs the CLI in-process over the inputs the
CLI tests and CI give it: ``compute --all`` on every fixture and on the
huge-rank, wide-Tutte and combinatroid inputs, ``verify --fixtures`` and one
battery, the six ``op`` verbs on ``vamos`` and ``op dual`` on a combinatroid
whose ranks leave the byte view, and the four ``from-*`` verbs.  Each code
object the hook sees is named ``module.Class.name`` by its file and first
line: the ``def`` line, or the first decorator's, which is where Python
3.10, with no ``co_qualname``, starts a decorated function.

The functions never entered must be exactly the keys of ``NEVER_ENTERED``,
each with the reason it stays: a stale entry fails as a new function does.
``test_surface.py`` keeps its static scan beside this one.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import demimat

from conftest import FIXTURES

PACKAGE = Path(demimat.__file__).resolve().parent

GUARD = "a guard that raises on mutation, pinned by a test"
VALUE = "value semantics of an exported record: README shows a repr, test_value_types pins them"
PICKLE = "pickling (test_core::test_table_pickles_after_its_derived_values_are_read)"
ARITHMETIC = "documented LaurentPoly arithmetic (README Conventions); the tests write with it"
FALLBACK = "a fallback that only an input past a threshold takes; a test takes it"
EXPORT = "a documented export (README) that no verb builds"
BENCHMARK = "read by benchmark/ until its workloads stop; an open ROADMAP item claims it"

NEVER_ENTERED = {
    "_records.Frozen.__setattr__": GUARD,
    "_records.Frozen.__delattr__": GUARD,
    "core._FrozenCounts._read_only": GUARD,
    "_records.Frozen.__eq__": VALUE,
    "_records.Frozen.__hash__": VALUE,
    "_records.Frozen.__repr__": VALUE,
    "_records.Frozen._values": VALUE,
    "_records._same_type_eq": VALUE,
    "core._FrozenCounts.__reduce__": PICKLE,
    "poly.LaurentPoly.__init__": ARITHMETIC,
    "poly.LaurentPoly.__bool__": ARITHMETIC,
    "poly.LaurentPoly.__hash__": ARITHMETIC,
    "poly.LaurentPoly.__pow__": ARITHMETIC,
    "poly.LaurentPoly.__repr__": ARITHMETIC,
    "poly.LaurentPoly.__rsub__": ARITHMETIC,
    "poly.LaurentPoly.monomial_inverse": ARITHMETIC,
    "errors.InexactDivisionError.__init__": ARITHMETIC + "; test_poly_properties reads remainder",
    "codes.PrimeMatrix.columns": FALLBACK + " (test_codes sets SUBSPACE_ENUM_CAP to 0)",
    "cli._Parser.error": FALLBACK + " (a usage error; test_cli exits 2 on one)",
    "constructions.from_matroid_bases": EXPORT,
    "weights.generalized_hamming_weights": EXPORT + " (ROADMAP item 13)",
    "poly.LaurentPoly.coefficient": BENCHMARK,
    "tutte.tutte_uniform_closed_form": BENCHMARK,
    "codes.LinearCodeView.from_parity": BENCHMARK,
    "codes.code_ghw_bruteforce": BENCHMARK,
    "codes.subcode_support_sizes": BENCHMARK + "; code_ghw_bruteforce calls it",
    "codes._rref_representatives": BENCHMARK + "; code_ghw_bruteforce calls it",
}

CHILD = """
import contextlib, io, json, os, sys
package, runs = os.path.realpath(sys.argv[1]), json.loads(sys.argv[2])
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
sys.path.insert(0, os.path.dirname(package))
from demimat import cli
status = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        status.append([argv, cli.main(argv), err.getvalue()])
sys.setprofile(None)
lines = sorted({(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered})
print(json.dumps({"status": status, "entered": [[f, n] for f, n in lines if f.startswith(package)]}))
"""


def functions(package: Path) -> dict[str, set[tuple[str, int]]]:
    """Each function and method of ``package``, named ``module.Class.name``
    (a nested function as ``module.outer.name``), with the (file, line)
    pairs its code object may start at: the ``def`` line and the first
    decorator's line."""
    found: dict[str, set[tuple[str, int]]] = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    lines = {child.lineno, *(d.lineno for d in child.decorator_list[:1])}
                    found.setdefault(name, set()).update((path, line) for line in lines)
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for source in sorted(package.glob("*.py")):
        path = str(source.resolve())
        visit(ast.parse(source.read_text()), source.stem, path)
    return found


def never_entered(package: Path, runs: list[list[str]]) -> tuple[set[str], list]:
    """The functions of ``package`` that no run enters, and each run's
    [argv, exit code, stderr]."""
    child = subprocess.run([sys.executable, "-c", CHILD, str(package), json.dumps(runs)],
                           capture_output=True, text=True, check=True)
    report = json.loads(child.stdout)
    entered = {tuple(pair) for pair in report["entered"]}
    return {name for name, starts in functions(package).items() if not starts & entered}, \
        report["status"]


def _runs(tmp: Path) -> list[list[str]]:
    inputs = {
        "huge_rank": {"n": 1, "ranks": [0, 1000000]},
        "wide_tutte": {"n": 2, "ranks": [0, -600, 0, 2]},
        "combinatroid": {"n": 2, "ranks": [0, 2, 0, 1]},
    }
    for name, payload in inputs.items():
        (tmp / f"{name}.json").write_text(json.dumps(payload))
    vamos = str(FIXTURES / "vamos.json")
    return [
        *(["compute", "--all", "--in", str(path)] for path in sorted(FIXTURES.glob("*.json"))),
        ["verify", "--fixtures", str(FIXTURES)],
        ["verify", "--seed", "1", "--n", "5", "--samples", "20"],
        ["op", "dual", "--in", vamos],
        ["op", "nullity", "--in", vamos],
        ["op", "supplement", "--in", vamos],
        ["op", "delete", "--elements", "1,3", "--in", vamos],
        ["op", "contract", "--elements", "2", "--in", vamos],
        ["op", "elongate", "--i", "2", "--in", vamos],
        ["from-code", "--in", str(FIXTURES / "hamming_7_4.json")],
        ["from-facets", "--in", str(FIXTURES / "chain_complex_n5.json")],
        ["from-graph", "--in", str(FIXTURES / "almost_wheel_graph.json")],
        ["from-wei", "--in", str(FIXTURES / "wei_n3.json")],
        *(["compute", "--all", "--in", str(tmp / f"{name}.json")] for name in inputs),
        ["op", "dual", "--in", str(tmp / "wide_tutte.json")],
    ]


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    return never_entered(PACKAGE, _runs(tmp_path_factory.mktemp("inputs")))


def test_every_run_exits_0(probe):
    _, status = probe
    assert [(argv, code, err) for argv, code, err in status if code != 0] == []


def test_the_functions_never_entered_are_the_listed_ones(probe):
    missing, _ = probe
    assert sorted(missing - NEVER_ENTERED.keys()) == []  # entered by no run, and not listed
    assert sorted(NEVER_ENTERED.keys() - missing) == []  # listed, but a run enters it


def test_a_planted_function_is_never_entered(tmp_path):
    copy = tmp_path / "demimat"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "ops.py", "a") as module:
        module.write("\n\ndef planted():\n    return 0\n")
    missing, status = never_entered(copy, [["op", "dual", "--in", str(FIXTURES / "vamos.json")]])
    assert [code for _, code, _ in status] == [0]
    assert "ops.planted" in missing
