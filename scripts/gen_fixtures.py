#!/usr/bin/env python3
"""Regenerate the golden fixture files under fixtures/.

Inputs are written from first principles (facet lists, check matrices, rank
tables).  Each payload is then loaded through ``inputs.interpret_input``, the
loader `demimat verify --fixtures fixtures` uses, and its expected block holds
the goldens ``registry.golden`` gives for the listed keys, so verify catches
regressions byte-exactly and a rerun reproduces fixtures/ byte for byte.  The
worked-example values themselves are asserted against independent oracles in
tests/.

    python scripts/gen_fixtures.py
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

from demimat import core, inputs, registry, simplicial

ROOT = Path(__file__).resolve().parent.parent / "fixtures"

ALMOST_WHEEL_EDGES = [
    [1, 2], [1, 3], [1, 4], [1, 5], [1, 6],
    [2, 3], [3, 4], [4, 5], [5, 6],
]
PROJECTIVE_PLANE_FACETS = [
    [1, 2, 4], [2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5],
    [2, 5, 6], [2, 3, 6], [1, 3, 6], [1, 4, 6], [4, 5, 6],
]
GOLDENS = ("kind", "tutte", "hamming", "d")


def ranks(name, table):
    return {"name": name, "n": table.n, "ranks": list(table.ranks)}


def facets(name, n, facet_lists):
    return {"name": name, "n": n, "facets": facet_lists}


def check_matrix(name, rows):
    return {"name": name, "p": 2, "rows": rows}


def fixtures():
    """(input payload, golden keys of its expected block) for every fixture."""
    yield ranks("full_rank2_n3", core.from_wei_sequence(3, [2, 3])), GOLDENS + ("charpoly",)
    yield ranks("two_basis_matroid_n3", core.from_matroid_bases(3, [[1, 2], [1, 3]])), GOLDENS
    five_basis = core.from_matroid_bases(4, [[1, 2], [1, 3], [1, 4], [2, 3], [3, 4]])
    yield ranks("five_basis_matroid_n4", five_basis), GOLDENS
    yield facets("almost_wheel", 6, ALMOST_WHEEL_EDGES), GOLDENS + ("betti",)
    ind_facets = [[1], [2, 5], [3, 5], [3, 6], [2, 4, 6]]
    yield facets("almost_wheel_independence", 6, ind_facets), GOLDENS + ("betti",)
    yield {"name": "almost_wheel_graph", "n": 6, "edges": ALMOST_WHEEL_EDGES}, ()
    pp = facets("projective_plane", 6, PROJECTIVE_PLANE_FACETS)
    pp["notes"] = {
        # documented constant only; no operation in the library produces it
        "duursma_zeta": "P_q(t) = (1/2)*(1 + (1-q)*t + q*t^2)",
        "weight_enumerator_caveat": "the x^2*y^4 slot is negative for t > 1,"
        " so W is not the enumerator of any linear code",
    }
    yield pp, GOLDENS + ("betti/2", "betti/3")
    path_facets = [[1, 3, 5], [1, 4], [2, 4], [2, 5]]
    yield facets("path_independence", 5, path_facets), GOLDENS + ("betti",)
    chain_facets = [[1, 2], [2, 3, 4], [3, 4, 5]]
    yield facets("chain_complex_n5", 5, chain_facets), GOLDENS + ("fpoly",)
    h84_rows = [
        [1, 0, 0, 0, 0, 1, 1, 1],
        [0, 1, 0, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 0, 1],
        [0, 0, 0, 1, 1, 1, 1, 0],
    ]
    yield check_matrix("hamming_8_4", h84_rows), GOLDENS + ("betti",)
    for name, rows in (
        ("code_6_3_a", [[1, 1, 1, 1, 0, 0], [1, 1, 1, 0, 1, 0], [1, 1, 1, 0, 0, 1]]),
        ("code_6_3_b", [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]),
        ("hamming_7_4", [[0, 1, 1, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [1, 1, 0, 1, 0, 0, 1]]),
    ):
        yield check_matrix(name, rows), GOLDENS + ("ghwe",)
    non_bases = [{1, 2, 3, 4}, {2, 3, 5, 6}, {1, 4, 5, 6}, {2, 3, 7, 8}, {1, 4, 7, 8}]
    bases = [c for c in combinations(range(1, 9), 4) if set(c) not in non_bases]
    yield ranks("vamos", core.from_matroid_bases(8, bases)), GOLDENS
    yield ranks("uniform_4_2", core.uniform(4, 2)), GOLDENS
    yield {"name": "wei_n3", "n": 3, "d": [2, 3]}, ()
    yield facets("simplex_n3", 3, [[1, 2, 3]]), ()


def expected_for(payload, keys):
    loaded = inputs.interpret_input(payload)
    return {key: registry.golden(loaded, simplicial.RATIONALS, key) for key in keys}


def write(name, payload):
    path = ROOT / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print("wrote", path)


def main():
    ROOT.mkdir(exist_ok=True)
    for payload, keys in fixtures():
        if keys:
            payload["expected"] = expected_for(payload, keys)
        write(payload["name"], payload)


if __name__ == "__main__":
    main()
