"""Reading and checking the CLI's input files, and its ``--field`` flag.

Input files are JSON and are recognized by their keys:
  rank table   {"n": 3, "ranks": [0, 0, 0, 1, 0, 1, 1, 2]}   (mask order)
  complex      {"n": 5, "facets": [[1, 2], [2, 3, 4], [3, 4, 5]]}
  graph        {"n": 6, "edges": [[1, 2], [1, 3]]}
  Wei sequence {"n": 3, "d": [2, 3]}
  check matrix {"p": 2, "rows": [[1, 0, 1], [0, 1, 1]]}
A fixture file may also carry "name" and "expected" blocks; they are ignored
by compute and consumed by ``verify --fixtures``.
"""

from __future__ import annotations

import json

from . import codes, constructions, core, simplicial
from ._records import record
from .errors import MalformedInputError


class LoadedInput(record("LoadedInput", "construction table cx", defaults=(None,))):
    """The construction an input names, its ``RankTable`` (None for a void
    complex) and, for a complex input, its ``Complex``."""

    __slots__ = ()


def read_json(path) -> object:
    try:
        with open(path) as source:
            return json.load(source)
    except FileNotFoundError as exc:
        raise MalformedInputError(f"no such input file: {path}") from exc
    except OSError as exc:  # a directory, an unreadable file
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    # Bad JSON, bytes that are not UTF-8, too deep a nesting, too long an integer.
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc


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
        return LoadedInput("graph", constructions.graph_demimatroid(_int(data, "n"), edges))
    if "d" in data:
        table = constructions.from_wei_sequence(_int(data, "n"), _ints(data["d"], "d"))
        return LoadedInput("wei-sequence", table)
    if "rows" in data:
        matrix = codes.PrimeMatrix.build(_int(data, "p"), _int_rows(data["rows"], "rows"))
        return LoadedInput("parity-matroid", codes.parity_matroid(matrix))
    raise MalformedInputError(
        "unrecognized input: expected one of the keys ranks/facets/edges/d/rows"
    )


def field_from_flag(flag: str) -> simplicial.FieldSpec:
    if flag.upper() in ("Q", "0"):
        return simplicial.RATIONALS
    try:
        p = int(flag)
    except ValueError:
        raise MalformedInputError(f"field must be Q or a prime, got {flag!r}") from None
    return simplicial.FieldSpec.prime(p)
