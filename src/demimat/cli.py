"""Command-line front end: file-driven, deterministic, JSON in and out.

Verbs: compute, verify, op, from-code, from-facets, from-graph, from-wei.
Exit codes: 0 ok, 1 invariant/verification failure, 2 usage or input error
(an input over the ground-set cap, a golden whose binomial product is over
the term bound, a ``betti`` golden over the homology cap, and an
``--out`` path that cannot be written are input errors), 141 (128 +
SIGPIPE) when the reader closes stdout before the report is written, with
nothing on stderr.  A ``compute`` block that the
input does not have, or that is over a size cap, is recorded in its own
place and leaves the exit code alone (``registry.recorded``).

Input files and their format are ``inputs``; the invariants that ``compute``
reports and ``verify --fixtures`` checks are ``registry``.

Each call starts a fresh interpreter, so importing this module loads only
what every verb needs.  ``demimat.verify`` (the identity battery) is
imported by the battery branch of ``cmd_verify`` alone; ``run_battery`` is
still looked up through the module at call time, so replacing it on
``demimat.verify`` reaches the CLI.

Reports are written by ``_write_json``, not ``json.dumps(indent=2)``:
CPython's C encoder ignores ``indent``, so an indented dump runs the
pure-Python encoder.  The writer spells a report byte for byte as that dump
does, for the types reports hold, with the C string escaper.  The one-line
error JSON on stderr keeps ``json.dumps``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from . import core, ops
from .errors import (DemimatError, KindError, MalformedInputError, RationalFunctionError,
                     SizeCapError)
from .inputs import LoadedInput, field_from_flag, interpret_input, read_json
from .registry import INVARIANT_FLAGS, entry_for, golden, has_input, recorded

# -- input and output ----------------------------------------------------------------


def load_input(path: str) -> LoadedInput:
    return interpret_input(read_json(path))


def table_json(table: core.RankTable) -> dict:
    return {"n": table.n, "ranks": list(table.ranks), "kind": table.kind}


def _write_json(value, indent: str, parts: list[str]) -> None:
    """Append ``value`` to ``parts`` as ``json.dumps(value, indent=2)`` spells
    it, ``indent`` being the current line's indentation.  Only the types a
    report holds are written: dicts with str keys, lists, str, int, bool and
    None; any other value raises TypeError."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner = indent + "  "
        head = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {type(key).__name__}")
            parts += (head, encode_basestring_ascii(key), ": ")
            _write_json(item, inner, parts)
            head = ",\n" + inner
        parts.append("\n" + indent + "}" if value else "{}")
    elif isinstance(value, list):
        inner = indent + "  "
        head = "[\n" + inner
        for item in value:
            parts.append(head)
            _write_json(item, inner, parts)
            head = ",\n" + inner
        parts.append("\n" + indent + "]" if value else "[]")
    else:
        raise TypeError(f"a report cannot hold {type(value).__name__}")


def _emit(payload: dict, out: str | None) -> None:
    parts: list[str] = []
    _write_json(payload, "", parts)
    text = "".join(parts)
    if out:
        try:
            with open(out, "w") as sink:
                sink.write(text + "\n")
        except OSError as exc:  # a directory, a missing parent, no permission
            raise MalformedInputError(f"cannot write {out}: {exc}") from exc
    else:
        print(text, flush=True)  # a closed pipe raises here, inside ``main``


# -- compute ------------------------------------------------------------------------


def cmd_compute(args) -> int:
    loaded = load_input(args.input)
    fieldspec = field_from_flag(args.field)
    requested = [f for f in INVARIANT_FLAGS if getattr(args, f)]
    if args.all:
        requested = [f for f in INVARIANT_FLAGS if has_input(f, loaded)]
        if not requested:  # only a void complex has neither a table nor faces
            raise MalformedInputError("the void complex has no invariant to compute")
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
        results[name] = recorded(entry_for(name, loaded).block, loaded, fieldspec)
    _emit({"manifest": manifest, "results": results}, args.out)
    return 0


# -- verify -------------------------------------------------------------------------


def _check_fixture(path: str, fieldspec) -> list[str]:
    data = read_json(path)
    loaded = interpret_input(data)
    expected = data.get("expected", {})
    name = os.path.basename(path)
    if not isinstance(expected, dict):
        raise MalformedInputError(f"{name}: \"expected\" must be a JSON object")
    problems = []
    for key, want in expected.items():
        try:
            got = golden(loaded, fieldspec, key)
        except MalformedInputError as exc:
            problems.append(f"{name}: {exc}")
        except (KindError, RationalFunctionError) as exc:  # an invariant this input lacks
            problems.append(f"{name}: {key}: {type(exc).__name__}: {exc}")
        else:
            if got != want:
                problems.append(f"{name}: {key}: got {got!r}, want {want!r}")
    return problems


# The battery's run when its flags are left out.  The parser's defaults are
# None, so that ``--fixtures``, which reads none of them, can refuse them.
_BATTERY_RUN = {"seed": 1, "n": 5, "samples": 20}


def cmd_verify(args) -> int:
    fieldspec = field_from_flag(args.field)
    given = {name: getattr(args, name) for name in _BATTERY_RUN
             if getattr(args, name) is not None}
    if args.fixtures:
        if given:
            raise MalformedInputError(f"verify --fixtures does not read --{', --'.join(given)}")
        root = os.path.normpath(args.fixtures)
        try:
            files = sorted(os.path.join(root, name) for name in os.listdir(root)
                           if name.endswith(".json"))
        except OSError:  # a missing directory, a plain file
            files = []
        if not files:
            raise MalformedInputError(f"no fixture files under {root}")
        problems = []
        for path in files:
            problems.extend(_check_fixture(path, fieldspec))
        payload = {
            "manifest": {"command": "verify", "fixtures": root},
            "files": len(files),
            "ok": not problems,
            "problems": problems,
        }
        _emit(payload, args.out)
        return 0 if not problems else 1

    if fieldspec.characteristic:
        raise MalformedInputError(f"the battery runs over Q, not --field {args.field}")
    run = {**_BATTERY_RUN, **given}
    for flag in ("n", "samples"):
        if run[flag] < 1:
            raise MalformedInputError(f"--{flag} must be at least 1, got {run[flag]}")
    # The battery's Hamming routes include the Betti route, so the homology
    # cap bounds --n as well.
    core.check_cap(run["n"])
    core.check_homology_cap(run["n"])
    from . import verify  # only the battery needs it

    report = verify.run_battery(**run)
    payload = {"manifest": {"command": "verify", **run}}
    payload.update(report)
    _emit(payload, args.out)
    return 0 if report["ok"] else 1


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
        if not table.is_demimatroid:  # the input's fault, as an out-of-range --i is
            raise MalformedInputError(
                f"elongation needs a demimatroid, table certifies {table.kind}")
        payload = table_json(ops.elongate(table, args.i))
    payload["manifest"] = {"command": "op", "operator": verb, "input": args.input}
    _emit(payload, args.out)
    return 0


def _cmd_convert(args, expected_key: str, construction: str) -> int:
    loaded = load_input(args.input)
    if loaded.construction != construction:
        raise MalformedInputError(
            f"expected a {expected_key} input for this converter, got {loaded.construction}"
        )
    if loaded.table is None:
        raise MalformedInputError("the void complex has no rank table")
    payload = table_json(loaded.table)
    payload["manifest"] = {"command": construction, "input": args.input}
    _emit(payload, args.out)
    return 0


# -- entry point ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 2, error JSON)."""

    def error(self, message):
        raise MalformedInputError(f"{self.prog}: {message}")


def _elements(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expects comma-separated element numbers") from None


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
    for name, default in _BATTERY_RUN.items():
        p_verify.add_argument(f"--{name}", type=int, help=f"battery only (default {default})")
    p_verify.add_argument("--fixtures", help="directory of golden fixture files")
    p_verify.add_argument("--field", default="Q")
    p_verify.add_argument("--out")

    p_op = sub.add_parser("op", help="apply an operator, emit the resulting table")
    p_op.add_argument(
        "operator",
        choices=["dual", "nullity", "supplement", "delete", "contract", "elongate"],
    )
    p_op.add_argument("--in", dest="input", required=True)
    p_op.add_argument("--elements", type=_elements)
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
