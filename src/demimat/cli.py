"""Command-line front end: file-driven, deterministic, JSON in and out.

Verbs: compute, verify, op, from-code, from-facets, from-graph, from-wei.
Exit codes: 0 ok, 1 invariant/verification failure, 2 usage or input error
(an input over the ground-set cap, a golden whose exponents leave the
polynomial kernel's range, and an ``--out`` path that cannot be written are
input errors), 141 (128 + SIGPIPE) when the reader closes stdout before the
report is written, with nothing on stderr.  A ``compute`` block whose
invariant the input's kind does not have (a KindError or
RationalFunctionError), or whose route is over a size cap (a SizeCapError:
the homology cap, which the Betti route checks before any work, or the
exponent range, an ExponentRangeError), reports
``{"error": ..., "detail": ...}`` in its own place and leaves the exit code
alone; so does each entry of the Hamming block's ``routes``, so a
combinatroid, which has no Betti route, still gets its W.

Routes are never compared here.  Each library function that computes an
invariant by a second route checks it against the primary route
(``poly.cross_checked``) and raises on a disagreement, which exits 1 with
the invariant, the route pair and the first differing monomial.  So every
route flag in a report is ``true``, or the error of a route the input does
not have.

Input files are JSON and are recognized by their keys:
  rank table   {"n": 3, "ranks": [0, 0, 0, 1, 0, 1, 1, 2]}   (mask order)
  complex      {"n": 5, "facets": [[1, 2], [2, 3, 4], [3, 4, 5]]}
  graph        {"n": 6, "edges": [[1, 2], [1, 3]]}
  Wei sequence {"n": 3, "d": [2, 3]}
  check matrix {"p": 2, "rows": [[1, 0, 1], [0, 1, 1]]}
A fixture file may also carry "name" and "expected" blocks; they are ignored
by compute and consumed by ``verify --fixtures``.

Every invariant is one entry of the ``INVARIANTS`` registry: the input it
needs, its ``compute`` report block and its golden value.  ``compute`` runs
the blocks; ``verify --fixtures`` compares the goldens only; and
``scripts/gen_fixtures.py`` writes the goldens through the same loader
(``interpret_input``), regenerating ``fixtures/`` byte-identically.  Adding an
invariant means adding one entry.  Entries call the library on the loaded
input and the field; what several share (W, P_j, Tutte, the dual, the Betti
tables) is memoized on the rank table, so each is computed once per input.

Each call starts a fresh interpreter, so importing this module loads only
what every verb needs.  ``demimat.verify`` (the identity battery) is
imported by the battery branch of ``cmd_verify`` alone; ``run_battery`` is
still looked up through the module at call time, so replacing it on
``demimat.verify`` reaches the CLI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from functools import cache
from pathlib import Path

from . import codes, core, hamming, ops, simplicial, tutte, weights
from ._records import record
from .errors import (
    DemimatError,
    KindError,
    MalformedInputError,
    RationalFunctionError,
    SizeCapError,
)
from .poly import LaurentPoly

# -- input handling ----------------------------------------------------------------


class LoadedInput(record("LoadedInput", "construction table cx", defaults=(None,))):
    """The construction an input names, its ``RankTable`` (None for a void
    complex) and, for a complex input, its ``Complex``."""

    __slots__ = ()


def _read_json(path) -> object:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise MalformedInputError(f"no such input file: {path}") from exc
    except OSError as exc:  # a directory, an unreadable file
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    # Bad JSON, bytes that are not UTF-8, too deep a nesting, too long an integer.
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc


def load_input(path: str) -> LoadedInput:
    return interpret_input(_read_json(path))


def _int(data: dict, key: str) -> int:
    value = data.get(key)
    if type(value) is not int:
        raise MalformedInputError(f"{key!r} must be an integer, got {value!r}")
    return value


def _ints(value, what: str) -> list[int]:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise MalformedInputError(f"{what} must be a list of integers, got {value!r}")
    return value


def _int_rows(value, what: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise MalformedInputError(f"{what} must be a list of integer lists, got {value!r}")
    return [_ints(row, f"each entry of {what}") for row in value]


def interpret_input(data: dict) -> LoadedInput:
    """Build the input a JSON object describes, rejecting any malformed shape."""
    if not isinstance(data, dict):
        raise MalformedInputError("input must be a JSON object")
    if "ranks" in data:
        table = core.RankTable.build(_int(data, "n"), _ints(data["ranks"], "ranks"))
        return LoadedInput("rank-table", table)
    if "facets" in data:
        cx = core.Complex.from_facet_lists(_int(data, "n"), _int_rows(data["facets"], "facets"))
        table = None if cx.is_void else core.complex_to_demimatroid(cx)
        return LoadedInput("complex-up", table, cx=cx)
    if "edges" in data:
        edges = [tuple(e) for e in _int_rows(data["edges"], "edges")]
        if any(len(e) != 2 for e in edges):
            raise MalformedInputError("each edge must be a pair of vertices")
        return LoadedInput("graph", core.graph_demimatroid(_int(data, "n"), edges))
    if "d" in data:
        table = core.from_wei_sequence(_int(data, "n"), _ints(data["d"], "d"))
        return LoadedInput("wei-sequence", table)
    if "rows" in data:
        matrix = codes.PrimeMatrix.build(_int(data, "p"), _int_rows(data["rows"], "rows"))
        return LoadedInput("parity-matroid", codes.parity_matroid(matrix))
    raise MalformedInputError(
        "unrecognized input: expected one of the keys ranks/facets/edges/d/rows"
    )


def table_json(table: core.RankTable) -> dict:
    return {"n": table.n, "ranks": list(table.ranks), "kind": table.kind}


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as exc:  # a directory, a missing parent, no permission
            raise MalformedInputError(f"cannot write {out}: {exc}") from exc
    else:
        print(text, flush=True)  # a closed pipe raises here, inside ``main``


def _field_from_flag(flag: str) -> simplicial.FieldSpec:
    if flag.upper() in ("Q", "0"):
        return simplicial.RATIONALS
    try:
        p = int(flag)
    except ValueError:
        raise MalformedInputError(f"field must be Q or a prime, got {flag!r}") from None
    return simplicial.FieldSpec.prime(p)


# -- the invariant registry ---------------------------------------------------------


def _wei_block(loaded: LoadedInput, fieldspec: simplicial.FieldSpec) -> dict:
    table = loaded.table
    profile = weights.wei_hierarchy(table)
    return {
        "k": profile.k,
        "d": list(profile.d),
        "d_up": list(profile.d_up),
        "wei_duality": weights.check_wei_duality(table),
        "full": weights.is_full(table),
        "uniform": weights.is_uniform_demimatroid(table),
    }


def _error(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "detail": str(exc)}


def _recorded(compute: Callable, *args):
    """``compute(*args)``, or the error of an invariant or route that this
    input does not have (a KindError or RationalFunctionError) or that is
    over a size cap (a SizeCapError).  A route disagreement still
    raises and fails the whole run."""
    try:
        return compute(*args)
    except (KindError, RationalFunctionError, SizeCapError) as exc:
        return _error(exc)


def _ran(route: Callable, *args) -> bool:
    """True once ``route`` returns: a second route raises when it disagrees
    with the primary one, so returning is agreeing."""
    route(*args)
    return True


def _hamming_block(loaded: LoadedInput, fieldspec: simplicial.FieldSpec) -> dict:
    table = loaded.table
    w = hamming.hamming_subset_sum(table)
    routes = {
        "tutte_route": _recorded(_ran, hamming.hamming_via_tutte, table),
        "pj_route": _recorded(_ran, hamming.w_from_pj, table),
        "betti_route": _recorded(_ran, simplicial.w_via_betti, table, fieldspec),
    }
    try:
        data = hamming.hamming_data(table)
    except KindError:  # no formal minimum distance
        data = None
    return {
        "w": str(w),
        "routes": routes,
        "delta": data.delta if data else None,
        "c": data.c if data else None,
        "a": {str(j): str(p) for j, p in sorted(data.a.items())} if data else {},
    }


def _fpoly_block(loaded: LoadedInput, fieldspec: simplicial.FieldSpec) -> dict:
    return {
        "f": str(tutte.f_polynomial(loaded.cx)),
        "via_tutte": str(tutte.f_polynomial_via_tutte(loaded.cx)),
        "via_hamming": str(tutte.f_polynomial_via_hamming(loaded.cx)),
        "agree": True,  # both routes returned, so both equal the face counts
        "h": str(tutte.h_polynomial(loaded.cx)),
    }


def _betti_block(loaded: LoadedInput, fieldspec: simplicial.FieldSpec) -> dict:
    table = loaded.table
    w = simplicial.w_via_betti(table, fieldspec)
    return {
        "field": str(fieldspec),
        "tables": [
            {
                "r": r,
                "poly": str(bt.poly()),
                "entries": {f"{i},{j}": v for (i, j), v in bt.entries},
            }
            for r, bt in enumerate(simplicial.betti_of_elongations(table, fieldspec))
        ],
        "w_via_betti": str(w),
        "agrees_with_subset_sum": True,  # the Betti route checks itself
    }


def _enumerators(polys) -> dict:
    return {str(r): str(p) for r, p in enumerate(polys)}


def _ghwe_block(loaded: LoadedInput, fieldspec: simplicial.FieldSpec) -> dict:
    table = loaded.table
    return {
        "w_r": _enumerators(hamming.generalized_w_all(table)),
        "definition_route_agrees": _ran(hamming.generalized_w_all, table, "tutte"),
    }


def _conjecture_block(loaded: LoadedInput, fieldspec: simplicial.FieldSpec) -> dict:
    verdict = hamming.conjecture_check(loaded.table)
    return {
        "holds": verdict.holds,
        "residual": None if verdict.residual is None else str(verdict.residual),
        "error": verdict.error,
    }


TABLE = "a rank-table-backed input"
COMPLEX = "a nonvoid complex input"


class Invariant(record("Invariant", "needs block golden")):
    """One registry entry.

    ``needs`` names the input the entry needs (``TABLE`` or ``COMPLEX``).
    ``block`` gives the entry's ``compute`` report block; ``golden`` gives the
    value a fixture's ``expected`` block freezes.  Both take the loaded input
    and the field.  Either is None where the entry has no such form.
    """

    __slots__ = ()


def _polynomial(compute: Callable[[core.RankTable], LaurentPoly]) -> Invariant:
    """An entry whose report block and golden are both str(compute(table))."""
    return Invariant(TABLE, lambda loaded, field: str(compute(loaded.table)),
                     lambda loaded, field: str(compute(loaded.table)))


# Library functions are looked up through their module at call time, so that
# replacing a module attribute (a test's monkeypatch, a profiler's wrapper)
# reaches every call.  Entries with a block are the compute flags, in report
# order.
INVARIANTS = {
    "kind": Invariant(TABLE, None, lambda loaded, field: loaded.table.kind),
    "tutte": _polynomial(lambda table: tutte.tutte(table)),
    "whitney": _polynomial(lambda table: tutte.whitney_f(table)),
    "charpoly": _polynomial(lambda table: tutte.characteristic(table)),
    "fpoly": Invariant(COMPLEX, _fpoly_block,
                       lambda loaded, field: str(tutte.f_polynomial(loaded.cx))),
    "hamming": Invariant(TABLE, _hamming_block,
                         lambda loaded, field: str(hamming.hamming_subset_sum(loaded.table))),
    "macwilliams": _polynomial(lambda table: hamming.macwilliams(table)),
    "ghwe": Invariant(TABLE, _ghwe_block,
                      lambda loaded, field: _enumerators(hamming.generalized_w_all(loaded.table))),
    "conjecture": Invariant(TABLE, _conjecture_block, None),
    "betti": Invariant(TABLE, _betti_block, lambda loaded, field: [
        str(bt.poly()) for bt in simplicial.betti_of_elongations(loaded.table, field)]),
    "wei": Invariant(TABLE, _wei_block, None),
    "d": Invariant(TABLE, None,
                   lambda loaded, field: list(weights.wei_hierarchy(loaded.table).d)),
}
INVARIANT_FLAGS = tuple(name for name, entry in INVARIANTS.items() if entry.block)


def _entry(name: str, loaded: LoadedInput) -> Invariant:
    """The registry entry ``name``, once the input it needs is checked."""
    entry = INVARIANTS[name]
    if entry.needs == TABLE:
        met = loaded.table is not None
    else:
        met = loaded.cx is not None and not loaded.cx.is_void
    if not met:
        raise MalformedInputError(f"{name} needs {entry.needs}")
    return entry


def golden(loaded: LoadedInput, fieldspec: simplicial.FieldSpec, key: str):
    """The value a fixture's ``expected`` block freezes under ``key``.

    ``betti/p`` is the Betti golden over F_p; a bare key uses ``fieldspec``.
    """
    name, _, field = key.partition("/")
    if name not in INVARIANTS or INVARIANTS[name].golden is None:
        raise MalformedInputError(f"unknown expected key {key!r}")
    if field:
        fieldspec = _field_from_flag(field)
    return _entry(name, loaded).golden(loaded, fieldspec)


# -- compute ------------------------------------------------------------------------


def cmd_compute(args) -> int:
    loaded = load_input(args.input)
    fieldspec = _field_from_flag(args.field)
    requested = [f for f in INVARIANT_FLAGS if getattr(args, f)]
    if args.all:
        requested = [
            f for f in INVARIANT_FLAGS
            if INVARIANTS[f].needs == TABLE or loaded.cx is not None
        ]
    if not requested:
        raise MalformedInputError("no invariants requested; pass --all or flags")

    manifest = {
        "command": "compute",
        "input": args.input,
        "construction": loaded.construction,
        "invariants": requested,
        "field": str(fieldspec),
        "out": args.out,
    }
    results: dict = {}
    if loaded.table is not None:
        results["kind"] = loaded.table.kind
        results["n"] = loaded.table.n
    for name in requested:
        results[name] = _recorded(_entry(name, loaded).block, loaded, fieldspec)
    _emit({"manifest": manifest, "results": results}, args.out)
    return 0


# -- verify -------------------------------------------------------------------------


def _check_fixture(path: Path, fieldspec) -> list[str]:
    data = _read_json(path)
    loaded = interpret_input(data)
    expected = data.get("expected", {})
    if not isinstance(expected, dict):
        raise MalformedInputError(f"{path.name}: \"expected\" must be a JSON object")
    problems = []
    for key, want in expected.items():
        try:
            got = golden(loaded, fieldspec, key)
        except MalformedInputError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if got != want:
            problems.append(f"{path.name}: {key}: got {got!r}, want {want!r}")
    return problems


def cmd_verify(args) -> int:
    if args.fixtures:
        fieldspec = _field_from_flag(args.field)
        root = Path(args.fixtures)
        files = sorted(root.glob("*.json"))
        if not files:
            raise MalformedInputError(f"no fixture files under {root}")
        problems = []
        for path in files:
            problems.extend(_check_fixture(path, fieldspec))
        payload = {
            "manifest": {"command": "verify", "fixtures": str(root)},
            "files": len(files),
            "ok": not problems,
            "problems": problems,
        }
        _emit(payload, args.out)
        return 0 if not problems else 1

    for flag, value in (("--n", args.n), ("--samples", args.samples)):
        if value < 1:
            raise MalformedInputError(f"{flag} must be at least 1, got {value}")
    # The battery's Hamming routes include the Betti route, so the homology
    # cap bounds --n as well.
    for name, cap in (("ground-set", core.GROUND_SET_CAP), ("homology", core.HOMOLOGY_CAP)):
        if args.n > cap:
            raise MalformedInputError(f"--n {args.n} exceeds the {name} cap {cap}")
    from . import verify  # only the battery needs it

    report = verify.run_battery(args.seed, args.n, args.samples)
    payload = {"manifest": {"command": "verify", "seed": args.seed, "n": args.n,
                            "samples": args.samples}}
    payload.update(report.as_dict())
    _emit(payload, args.out)
    return 0 if report.ok else 1


# -- operators and converters ----------------------------------------------------------


def cmd_op(args) -> int:
    loaded = load_input(args.input)
    table = loaded.table
    if table is None:
        raise MalformedInputError("operator verbs need a rank-table-backed input")
    verb = args.operator
    payload: dict
    if verb in ("dual", "nullity", "supplement"):
        payload = table_json(ops.apply_operator(verb, table))
    elif verb in ("delete", "contract"):
        if not args.elements:
            raise MalformedInputError(f"{verb} needs --elements")
        mask = core.mask_of(args.elements, table.n)
        result = ops.delete(table, mask) if verb == "delete" else ops.contract(table, mask)
        payload = table_json(result)
        payload["labels"] = list(ops.surviving_labels(table.n, mask))
    elif verb == "elongate":
        if args.i is None:
            raise MalformedInputError("elongate needs --i")
        payload = table_json(ops.elongate(table, args.i))
    else:
        raise MalformedInputError(f"unknown operator verb {verb!r}")
    payload["manifest"] = {"command": "op", "operator": verb, "input": args.input}
    _emit(payload, args.out)
    return 0


def _cmd_convert(args, expected_key: str, construction: str) -> int:
    loaded = load_input(args.input)
    if loaded.construction != construction:
        raise MalformedInputError(
            f"expected a {expected_key} input for this converter, got {loaded.construction}"
        )
    payload = table_json(loaded.table)
    payload["manifest"] = {"command": construction, "input": args.input}
    _emit(payload, args.out)
    return 0


# -- entry point ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 2, error JSON)."""

    def error(self, message):
        raise MalformedInputError(f"{self.prog}: {message}")


_CONVERTERS = {
    "from-code": ("check matrix", "parity-matroid"),
    "from-facets": ("facets", "complex-up"),
    "from-graph": ("graph", "graph"),
    "from-wei": ("Wei sequence", "wei-sequence"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    It records only the verb in ``command``; ``main`` picks the ``cmd_*``
    function at call time, so a replaced module attribute is still reached.
    """
    parser = _Parser(
        prog="demimat",
        description="Exact invariants of demimatroids and combinatroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute invariants of one input file")
    p_compute.add_argument("--in", dest="input", required=True)
    p_compute.add_argument("--out")
    p_compute.add_argument("--field", default="Q")
    p_compute.add_argument("--all", action="store_true")
    for flag in INVARIANT_FLAGS:
        p_compute.add_argument(f"--{flag}", action="store_true")

    p_verify = sub.add_parser("verify", help="run the identity battery or fixture goldens")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--n", type=int, default=5)
    p_verify.add_argument("--samples", type=int, default=20)
    p_verify.add_argument("--fixtures", help="directory of golden fixture files")
    p_verify.add_argument("--field", default="Q")
    p_verify.add_argument("--out")

    p_op = sub.add_parser("op", help="apply an operator, emit the resulting table")
    p_op.add_argument(
        "operator",
        choices=["dual", "nullity", "supplement", "delete", "contract", "elongate"],
    )
    p_op.add_argument("--in", dest="input", required=True)
    p_op.add_argument("--elements", type=lambda s: [int(v) for v in s.split(",")])
    p_op.add_argument("--i", type=int)
    p_op.add_argument("--out")

    for name, (key, _) in _CONVERTERS.items():
        p = sub.add_parser(name, help=f"build a rank table from a {key} file")
        p.add_argument("--in", dest="input", required=True)
        p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command in _CONVERTERS:
            return _cmd_convert(args, *_CONVERTERS[args.command])
        return {"compute": cmd_compute, "verify": cmd_verify, "op": cmd_op}[args.command](args)
    except (MalformedInputError, SizeCapError) as exc:
        print(json.dumps({"error": "malformed-input", "detail": str(exc)}), file=sys.stderr)
        return 2
    except DemimatError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
