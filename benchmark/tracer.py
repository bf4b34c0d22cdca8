"""Per-layer spans recorded from outside the program.

A ``Tracer`` wraps the public functions, classmethods and ``LaurentPoly``
operators of every ``demimat`` submodule, and patches each wrapper into every
place the original is bound: the defining module, every module that imported
it by name (``simplicial.rank_fraction_free``, ``codes.rank_mod_p``,
``poly_sum`` in ``hamming``/``tutte``/``simplicial``), dict tables such as
``ops._APPLY``, and the ``verify.IDENTITIES`` battery.  ``uninstall`` puts
every original back, so untraced passes run the program unmodified.

A layer is the module a function is defined in (``_linalg`` reports as
``linalg``).  Spans are aggregated in memory as they close: a span's self time
is its duration minus the durations of its child spans, and time spent in
unwrapped helpers (``Fraction`` arithmetic, private functions, the mask
helpers listed in ``UNWRAPPED``) counts toward the calling layer.  The pass's
root span is the harness, so over one pass

    sum of every layer's self time + counting time + harness time = pass wall

holds exactly.  Counting time is what the argument-derived counters below
(cells, nonzeros, 2^n, 2^|sigma|, terms out) cost; it is kept out of every
layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

# Mask and table-lookup helpers run millions of times per pass in inner
# loops; a span around each would measure the tracer, not the program.
UNWRAPPED = {
    "core": {"popcount", "full_mask", "mask_of", "elements_of", "submasks", "bits_of"},
    "core.RankTable": {"rho", "nullity", "require_demimatroid"},
    "poly.LaurentPoly": {"terms"},
}
# Operators are the polynomial layer's work, so they get spans too.
WRAPPED_DUNDERS = {
    "poly.LaurentPoly": {
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__pow__", "__eq__", "__str__",
    },
}


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _matrix_counts(rows) -> tuple[int, int, int]:
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    nonzeros = sum(1 for row in rows for v in row if v)
    return n_rows, n_cols, nonzeros


class Tracer:
    """Install with ``install()``; each pass runs between ``begin_pass`` and
    ``end_pass``; ``uninstall()`` restores the program."""

    def __init__(self, package):
        self.package = package
        # ``__main__`` runs the CLI when imported, so it is never loaded here.
        self.modules = [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
            if not info.name.endswith(".__main__")
        ]
        self._patches: list[tuple[object, str, object]] = []
        self._dict_patches: list[tuple[dict, object, object]] = []
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive_s, self_s, depth]
        self.layer: dict[str, str] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.counting_s = 0.0
        self._stack: list[list] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        originals: dict[int, object] = {}
        for mod in self.modules:
            layer = layer_of(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if name.startswith("_") or name in UNWRAPPED.get(layer, ()):
                        continue
                    if inspect.isgeneratorfunction(obj):
                        continue
                    key = f"{layer}.{name}"
                    originals[id(obj)] = self._wrap(obj, key, layer)
                elif inspect.isclass(obj):
                    self._install_class(obj, layer)
        # Rebind every module-level reference, including names imported by
        # value into other modules and functions stored in dict tables.
        for mod in [self.package, *self.modules]:
            for name, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        wrapper = originals.get(id(v))
                        if wrapper is not None:
                            self._dict_patches.append((value, k, v))
                            value[k] = wrapper
        verify = next(m for m in self.modules if layer_of(m.__name__) == "verify")
        for name, check in list(verify.IDENTITIES.items()):
            self._dict_patches.append((verify.IDENTITIES, name, check))
            verify.IDENTITIES[name] = self._wrap(check, f"verify.{name}", "verify")

    def _install_class(self, cls, layer: str) -> None:
        skip = UNWRAPPED.get(f"{layer}.{cls.__name__}", ())
        dunders = WRAPPED_DUNDERS.get(f"{layer}.{cls.__name__}", ())
        for name, raw in list(vars(cls).items()):
            if name in skip or (name.startswith("_") and name not in dunders):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, key, layer))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, key, layer))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                wrapped = self._wrap(raw, key, layer)
            else:
                continue
            self._patches.append((cls, name, raw))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        for table, k, original in reversed(self._dict_patches):
            table[k] = original
        self._patches.clear()
        self._dict_patches.clear()

    # -- spans -------------------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        self.layer[key] = layer
        count = COUNTERS.get(key)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[2] += duration - frame[0]
                if not stat[3]:
                    stat[1] += duration
                parent[0] += duration
            if count is not None:
                begin = clock()
                count(tracer.counters, args, result, parent[1])
                spent = clock() - begin
                tracer.counting_s += spent
                parent[0] += spent
            return result

        return span

    def begin_pass(self) -> None:
        self._stack[:] = [[0.0, "harness"]]

    def end_pass(self) -> float:
        """Time the pass's top-level spans covered; the rest of the pass wall
        is harness time."""
        covered = self._stack[0][0]
        self._stack.clear()
        return covered

    def calls(self, key: str) -> int:
        stat = self.stats.get(key)
        return stat[0] if stat else 0


# -- counters computed from call arguments at the boundary -----------------------


def _count_build(c, args, result, caller):
    c["core.masks_classified"] += 1 << int(args[1])


def _count_p_sigma(c, args, result, caller):
    c["hamming.submasks_scanned"] += 1 << int(args[1]).bit_count()


def _count_elimination(c, args, result, caller):
    n_rows, n_cols, nonzeros = _matrix_counts(args[0])
    c["linalg.cells"] += n_rows * n_cols
    c["linalg.nonzeros"] += nonzeros
    c["linalg.max_dim"] = max(c["linalg.max_dim"], n_rows, n_cols)
    if caller == "codes":
        c["codes.eliminations"] += 1


def _count_terms(c, args, result, caller):
    c["poly.terms_out"] += len(result.terms())


COUNTERS = {
    "core.RankTable.build": _count_build,
    "hamming.p_sigma": _count_p_sigma,
    "linalg.rank_fraction_free": _count_elimination,
    "linalg.rank_mod_p": _count_elimination,
    "linalg.rref_mod_p": _count_elimination,
    **{
        f"poly.LaurentPoly.{op}": _count_terms
        for op in ("__mul__", "__rmul__", "__pow__", "substitute", "divide_exact")
    },
}
