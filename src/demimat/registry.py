"""The invariant registry: one entry per invariant, for every caller.

Every invariant is one entry of the ``INVARIANTS`` registry: the input it
needs, its ``compute`` report block and its golden value.  ``compute`` runs
the blocks; ``verify --fixtures`` compares the goldens only; and
``scripts/gen_fixtures.py`` writes the goldens through the same loader
(``inputs.interpret_input``), regenerating ``fixtures/`` byte-identically.
Adding an invariant means adding one entry.  Entries call the library on the
loaded input and the field; what several share (W, P_j, Tutte, the dual,
the W^(r) family, the Betti tables) is memoized on the rank table, so each
is computed once per input; the definition route's image of each t^e is
cached per (r, e) in the process.

A ``compute`` block whose invariant the input's kind does not have (a
KindError or RationalFunctionError), or whose route is over a size cap (a
SizeCapError: the homology cap, which the Betti route checks before any
work, or the term bound of a binomial product, an ExponentRangeError), reports
``{"error": ..., "detail": ...}`` in its own place and leaves the exit code
alone; so does each entry of the Hamming block's ``routes``, so a
combinatroid, which has no Betti route, still gets its W.

Routes are never compared here.  Each library function that computes an
invariant by a second route (the GHWE block runs the definition route of
each W^(r), ``hamming.generalized_w(table, r)``, and the
``conjecture`` flag the q-enumerator route of T, ``hamming.conjecture_check``)
checks it against the primary route (``poly.cross_checked``) and raises on a
disagreement, which exits 1 with the invariant, the route pair and the first
differing monomial.  ``weights.check_wei_duality`` likewise raises naming
the duality that fails.  So every route flag in a report is ``true``, or
the error of a route the input does not have.
"""

from __future__ import annotations

from collections.abc import Callable

from . import core, hamming, simplicial, tutte, weights
from ._records import record
from .errors import KindError, MalformedInputError, RationalFunctionError, SizeCapError
from .inputs import LoadedInput, field_from_flag
from .poly import LaurentPoly


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


def recorded(compute: Callable, *args):
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
        "tutte_route": recorded(_ran, hamming.hamming_via_tutte, table),
        "pj_route": recorded(_ran, hamming.w_from_pj, table),
        "betti_route": recorded(_ran, simplicial.w_via_betti, table, fieldspec),
    }
    try:
        delta, c = hamming.formal_min_distance(table)
    except KindError:  # no formal minimum distance
        delta = c = None
        a = {}
    else:
        a = hamming.a_coefficients(table)
    return {
        "w": str(w),
        "routes": routes,
        "delta": delta,
        "c": c,
        "a": {str(j): str(p) for j, p in sorted(a.items())},
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
    family = hamming.generalized_w_all(table)
    return {
        "w_r": _enumerators(family),
        "definition_route_agrees": all(_ran(hamming.generalized_w, table, r)
                                       for r in range(len(family))),
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
    "conjecture": Invariant(
        TABLE, lambda loaded, field: _ran(hamming.conjecture_check, loaded.table), None),
    "betti": Invariant(TABLE, _betti_block, lambda loaded, field: [
        str(bt.poly()) for bt in simplicial.betti_of_elongations(loaded.table, field)]),
    "wei": Invariant(TABLE, _wei_block, None),
    "d": Invariant(TABLE, None,
                   lambda loaded, field: list(weights.wei_hierarchy(loaded.table).d)),
}
INVARIANT_FLAGS = tuple(name for name, entry in INVARIANTS.items() if entry.block)


def has_input(name: str, loaded: LoadedInput) -> bool:
    """Whether ``loaded`` is the input the entry ``name`` needs: a rank table
    (a void complex has none) or a nonvoid complex."""
    if INVARIANTS[name].needs == TABLE:
        return loaded.table is not None
    return loaded.cx is not None and not loaded.cx.is_void


def entry_for(name: str, loaded: LoadedInput) -> Invariant:
    """The registry entry ``name``, once the input it needs is checked."""
    entry = INVARIANTS[name]
    if not has_input(name, loaded):
        raise MalformedInputError(f"{name} needs {entry.needs}")
    return entry


def golden(loaded: LoadedInput, fieldspec: simplicial.FieldSpec, key: str):
    """The value a fixture's ``expected`` block freezes under ``key``.

    ``betti/p`` is the Betti golden over F_p, and no other key takes a
    suffix; a bare key uses ``fieldspec``.
    """
    name, slash, field = key.partition("/")
    if (name not in INVARIANTS or INVARIANTS[name].golden is None
            or slash and (name != "betti" or not field)):
        raise MalformedInputError(f"unknown expected key {key!r}")
    if field:
        fieldspec = field_from_flag(field)
    return entry_for(name, loaded).golden(loaded, fieldspec)
