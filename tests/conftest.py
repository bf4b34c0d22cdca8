"""Shared builders and reference values for the worked examples.

Rank-table oracles are entered as label->rank maps (labels like "13" mean the
subset {1,3}) so the mask-order conversion happens in exactly one place.
Polynomial oracles are built from expressions in the exported variables.
The call recorders and the repository paths live here too, so that each
test module reads them from one place.
"""

from __future__ import annotations

import functools
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import settings

from demimat import codes, core
from demimat.poly import T, X, Y, one

# Property tests draw the same examples on every run and stay few, so the
# suite is deterministic and its runtime flat.
settings.register_profile(
    "demimat", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("demimat")


def table_from_labels(n: int, labels: dict[str, int]) -> core.RankTable:
    """Build a rank table from {"13": 2, ...}; every subset must be present."""
    ranks = [None] * (1 << n)
    for label, value in labels.items():
        elements = [int(ch) for ch in label]
        ranks[core.mask_of(elements, n)] = value
    assert all(r is not None for r in ranks), "missing subsets in oracle table"
    return core.RankTable.build(n, ranks)


def ranks_from_labels(n: int, labels: dict[str, int]) -> tuple[int, ...]:
    return table_from_labels(n, labels).ranks


def minus_x2_y_t_minus_3(coordinates_of):
    """A fault for ``hamming.macwilliams_coordinates``: the transform minus
    x^2 y t^-3, subtracted as that monomial's coordinates
    ((x-y) + y)^2 y t^-3 in the basis (x-y)^a y^b t^e."""
    def corrupted(w, eta):
        coordinates = dict(coordinates_of(w, eta))
        for key, c in {(2, 1, -3): 1, (1, 2, -3): 2, (0, 3, -3): 1}.items():
            coordinates[key] = coordinates.get(key, 0) - c
        return coordinates
    return corrupted


def counts_plus(extra):
    """A fault for ``tutte.corank_nullity_counts`` that moves the Tutte
    route's W by ``extra(table)``, a polynomial of degree n in (x, y): its
    term x^a y^b t^e is sum_i C(a, i) (x-y)^(a-i) y^(b+i) t^e, and the route
    relabels the count of corank a - i - eta(E) + e and nullity e to the
    coordinate (a-i, b+i, e)."""
    def fault(counts_of):
        def corrupted(table):
            counts = dict(counts_of(table))
            for (a, _, e), c in extra(table).terms().items():
                for i in range(a + 1):
                    key = a - i - table.total_nullity + e, e
                    counts[key] = counts.get(key, 0) + c * comb(a, i)
            return counts
        return corrupted
    return fault


def top_w_r_plus(extra):
    """A fault for ``hamming.generalized_w_all``: the top W^(r) plus
    ``extra(n, k)``.  With (x-y)^(n-k) y^k, which x^n W(1, 1/x, q) sends to
    (x-1)^(n-k), the recovery sum still clears and T moves by the top
    product; with y^n, sent to 1, the division by (x-1)^(n-k) is inexact
    once k < n."""
    def fault(family_of):
        def corrupted(table):
            *rest, top = family_of(table)
            return (*rest, top + extra(table.n, table.rank))
        return corrupted
    return fault


REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def count_calls(monkeypatch, owner, name, counts):
    """Count each call of ``owner.name`` during the test in ``counts[name]``."""
    original = getattr(owner, name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def record_calls(monkeypatch, owner, name, entry):
    """The list of ``entry(*args)`` for each call of ``owner.name`` during the test."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args):
        calls.append(entry(*args))
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


@pytest.fixture
def classify_calls(monkeypatch):
    """Ground-set sizes of every ``core._kind`` call (the classification
    ``RankTable.kind`` runs on the table's byte view) made during a test."""
    return record_calls(monkeypatch, core, "_kind", lambda n, view: n)


@pytest.fixture
def profile_calls(monkeypatch):
    """The rank tuple of every ``core._size_rank_profile`` call made during a test."""
    return record_calls(monkeypatch, core, "_size_rank_profile", lambda n, ranks: ranks)


@pytest.fixture
def build_calls(monkeypatch):
    """The n of every ``RankTable.build`` call made during a test."""
    return record_calls(monkeypatch, core.RankTable, "build", lambda n, ranks: n)


# -- small operator-table fixtures --------------------------------------------

# matroid on {1,2,3} with bases {1,2} and {1,3}
TWO_BASIS_RHO = {"": 0, "1": 1, "2": 1, "3": 1, "12": 2, "13": 2, "23": 1, "123": 2}
TWO_BASIS_DUAL = {"": 0, "1": 0, "2": 1, "3": 1, "12": 1, "13": 1, "23": 1, "123": 1}
TWO_BASIS_NULL = {"": 0, "1": 0, "2": 0, "3": 0, "12": 0, "13": 0, "23": 1, "123": 1}
TWO_BASIS_SUPP = {"": 0, "1": 1, "2": 0, "3": 0, "12": 1, "13": 1, "23": 1, "123": 2}

# matroid on {1,2,3,4} with bases 12, 13, 14, 23, 34
FIVE_BASIS_BASES = [[1, 2], [1, 3], [1, 4], [2, 3], [3, 4]]
FIVE_BASIS_RHO = {
    "": 0, "1": 1, "2": 1, "3": 1, "4": 1,
    "12": 2, "13": 2, "14": 2, "23": 2, "24": 1, "34": 2,
    "123": 2, "124": 2, "134": 2, "234": 2, "1234": 2,
}
FIVE_BASIS_DUAL = {
    "": 0, "1": 1, "2": 1, "3": 1, "4": 1,
    "12": 2, "13": 1, "14": 2, "23": 2, "24": 2, "34": 2,
    "123": 2, "124": 2, "134": 2, "234": 2, "1234": 2,
}
FIVE_BASIS_NULL = {
    "": 0, "1": 0, "2": 0, "3": 0, "4": 0,
    "12": 0, "13": 0, "14": 0, "23": 0, "24": 1, "34": 0,
    "123": 1, "124": 1, "134": 1, "234": 1, "1234": 2,
}
FIVE_BASIS_SUPP = {
    "": 0, "1": 0, "2": 0, "3": 0, "4": 0,
    "12": 0, "13": 1, "14": 0, "23": 0, "24": 0, "34": 0,
    "123": 1, "124": 1, "134": 1, "234": 1, "1234": 2,
}

# the full demimatroid of rank 2 on 3 elements (Wei numbers 2, 3)
FULL23_RHO = {"": 0, "1": 0, "2": 0, "3": 0, "12": 1, "13": 1, "23": 1, "123": 2}
FULL23_DUAL = {"": 0, "1": 0, "2": 0, "3": 0, "12": 0, "13": 0, "23": 0, "123": 1}
FULL23_NULL = {"": 0, "1": 1, "2": 1, "3": 1, "12": 1, "13": 1, "23": 1, "123": 1}
FULL23_SUPP = {"": 0, "1": 1, "2": 1, "3": 1, "12": 2, "13": 2, "23": 2, "123": 2}

# the full demimatroid of rank 2 on 4 elements, whose nullity is uniform(4,2)
FULL24_RHO = {
    "": 0, "1": 0, "2": 0, "3": 0, "4": 0,
    "12": 0, "13": 0, "14": 0, "23": 0, "24": 0, "34": 0,
    "123": 1, "124": 1, "134": 1, "234": 1, "1234": 2,
}


@pytest.fixture
def two_basis():
    return table_from_labels(3, TWO_BASIS_RHO)


@pytest.fixture
def five_basis():
    return table_from_labels(4, FIVE_BASIS_RHO)


@pytest.fixture
def full23():
    return table_from_labels(3, FULL23_RHO)


# -- graph-based fixtures ------------------------------------------------------

# hub vertex 1 joined to 2..6 plus the rim path 2-3-4-5-6 (a wheel minus one
# rim edge); its edge complex and independence complex drive several examples
ALMOST_WHEEL_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
    (2, 3), (3, 4), (4, 5), (5, 6),
]
ALMOST_WHEEL_IND_FACETS = [[1], [2, 5], [3, 5], [3, 6], [2, 4, 6]]

PROJECTIVE_PLANE_FACETS = [
    [1, 2, 4], [2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5],
    [2, 5, 6], [2, 3, 6], [1, 3, 6], [1, 4, 6], [4, 5, 6],
]

CHAIN_FACETS = [[1, 2], [2, 3, 4], [3, 4, 5]]

PATH_IND_FACETS = [[1, 3, 5], [1, 4], [2, 4], [2, 5]]


@pytest.fixture
def almost_wheel_complex():
    return core.Complex.from_facet_lists(6, [list(e) for e in ALMOST_WHEEL_EDGES])


@pytest.fixture
def almost_wheel(almost_wheel_complex):
    return core.complex_to_demimatroid(almost_wheel_complex)


@pytest.fixture
def almost_wheel_ind_complex():
    return core.Complex.from_facet_lists(6, ALMOST_WHEEL_IND_FACETS)


@pytest.fixture
def almost_wheel_ind(almost_wheel_ind_complex):
    return core.complex_to_demimatroid(almost_wheel_ind_complex)


@pytest.fixture
def projective_plane_complex():
    return core.Complex.from_facet_lists(6, PROJECTIVE_PLANE_FACETS)


@pytest.fixture
def projective_plane(projective_plane_complex):
    return core.complex_to_demimatroid(projective_plane_complex)


@pytest.fixture
def chain_complex():
    return core.Complex.from_facet_lists(5, CHAIN_FACETS)


# -- code fixtures ----------------------------------------------------------------

HAMMING84_ROWS = [
    [1, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1, 0],
]
CODE63A_ROWS = [[1, 1, 1, 1, 0, 0], [1, 1, 1, 0, 1, 0], [1, 1, 1, 0, 0, 1]]
CODE63B_ROWS = [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
HAMMING74_ROWS = [[0, 1, 1, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [1, 1, 0, 1, 0, 0, 1]]


@pytest.fixture
def hamming84_matrix():
    return codes.PrimeMatrix.build(2, HAMMING84_ROWS)


@pytest.fixture
def hamming84(hamming84_matrix):
    return codes.parity_matroid(hamming84_matrix)


@pytest.fixture
def code63a_matrix():
    return codes.PrimeMatrix.build(2, CODE63A_ROWS)


@pytest.fixture
def code63b_matrix():
    return codes.PrimeMatrix.build(2, CODE63B_ROWS)


@pytest.fixture
def hamming74_matrix():
    return codes.PrimeMatrix.build(2, HAMMING74_ROWS)


def vamos_table() -> core.RankTable:
    non_bases = [
        {1, 2, 3, 4}, {2, 3, 5, 6}, {1, 4, 5, 6}, {2, 3, 7, 8}, {1, 4, 7, 8},
    ]
    bases = [c for c in combinations(range(1, 9), 4) if set(c) not in non_bases]
    return core.from_matroid_bases(8, bases)


@pytest.fixture
def vamos():
    return vamos_table()


# -- printed polynomial oracles ------------------------------------------------------


def full23_tutte():
    return X - 2 * X**2 + Y - 3 * X * Y + 3 * X**2 * Y


def full23_hamming():
    return X**3 + 3 * (T - 1) * X**2 * Y + 3 * (1 - T) * X * Y**2 + (T - 1) * Y**3


def almost_wheel_tutte():
    return -X + X**2 - Y + 4 * X * Y + 2 * Y**2 + X * Y**2 + 2 * Y**3 + Y**4


def almost_wheel_hamming():
    return (
        X**6
        + 6 * (-1 + T) * X**4 * Y**2
        + (4 - 5 * T + T**2) * X**3 * Y**3
        + 3 * (3 - 7 * T + 4 * T**2) * X**2 * Y**4
        + 3 * (-4 + 11 * T - 9 * T**2 + 2 * T**3) * X * Y**5
        + (4 - 13 * T + 14 * T**2 - 6 * T**3 + T**4) * Y**6
    )


def almost_wheel_ind_tutte():
    return (
        X - 2 * X**2 + X**3 + Y - 2 * X * Y + X**2 * Y
        + Y**2 - 5 * X * Y**2 + 4 * X**2 * Y**2 - 2 * Y**3 + 3 * X * Y**3
    )


def almost_wheel_ind_hamming():
    return (
        X**6
        + 9 * (-1 + T) * X**4 * Y**2
        + (17 - 21 * T + 4 * T**2) * X**3 * Y**3
        + 12 * (-1 + T) * X**2 * Y**4
        + 3 * (1 + T - 3 * T**2 + T**3) * X * Y**5
        + T * (-3 + 5 * T - 2 * T**2) * Y**6
    )


def hamming84_tutte():
    return (
        6 * X + 10 * X**2 + 4 * X**3 + X**4
        + 6 * Y + 14 * X * Y + 10 * Y**2 + 4 * Y**3 + Y**4
    )


def hamming84_hamming():
    return (
        X**8
        + 14 * (-1 + T) * X**4 * Y**4
        + 28 * (2 - 3 * T + T**2) * X**2 * Y**6
        + 8 * (-8 + 14 * T - 7 * T**2 + T**3) * X * Y**7
        + (21 - 42 * T + 28 * T**2 - 8 * T**3 + T**4) * Y**8
    )


def projective_plane_tutte():
    return -4 * X + 3 * X**2 + X**3 - 4 * Y + 10 * X * Y + 3 * Y**2 + Y**3


def projective_plane_hamming():
    return (
        X**6
        + 10 * (-1 + T) * X**3 * Y**3
        - 15 * (-1 + T) * X**2 * Y**4
        + 6 * (-1 + T**2) * X * Y**5
        + T * (5 - 6 * T + T**2) * Y**6
    )


def vamos_tutte():
    return (
        X**4 + 4 * X**3 + 10 * X**2 + 15 * X + 5 * X * Y
        + 15 * Y + 10 * Y**2 + 4 * Y**3 + Y**4
    )


def vamos_hamming():
    return (
        X**8
        + 5 * (-1 + T) * X**4 * Y**4
        + 36 * (-1 + T) * X**3 * Y**5
        + 2 * (55 - 69 * T + 14 * T**2) * X**2 * Y**6
        + 4 * (-25 + 37 * T - 14 * T**2 + 2 * T**3) * X * Y**7
        + (30 - 51 * T + 28 * T**2 - 8 * T**3 + T**4) * Y**8
    )


def chain_tutte():
    return (
        X - 2 * X**2 + X**3 + Y - 4 * X * Y + 4 * X**2 * Y - Y**2 + 2 * X * Y**2
    )


def chain_hamming():
    return (
        X**5
        + 4 * (T - 1) * X**3 * Y**2
        + 4 * (1 - T) * X**2 * Y**3
        + (-1 - T + 2 * T**2) * X * Y**4
        + (1 - T) * T * Y**5
    )


def uniform31_tutte():
    return X + Y + Y**2


def uniform31_hamming():
    return X**3 + 3 * (T - 1) * X * Y**2 + (2 - 3 * T + T**2) * Y**3


def uniform42_tutte():
    return 2 * X + X**2 + 2 * Y + Y**2


def uniform42_hamming():
    return X**4 + 4 * (T - 1) * X * Y**3 + (3 - 4 * T + T**2) * Y**4


def code63a_tutte():
    return (
        X + X**2 + X**3 + Y + X * Y + X**2 * Y
        + Y**2 + X * Y**2 + X**2 * Y**2 + Y**3
    )


def code63a_wr():
    return [
        X**6,
        3 * X**4 * Y**2 + (-2 + T) * X**3 * Y**3 + 3 * X**2 * Y**4
        + 3 * (-2 + T) * X * Y**5 + (3 - 3 * T + T**2) * Y**6,
        X**3 * Y**3 + 3 * X * Y**5 + (-3 + T + T**2) * Y**6,
        Y**6,
    ]


def code63b_tutte():
    return X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3


def code63b_wr():
    return [
        X**6,
        3 * X**4 * Y**2 + 3 * (-1 + T) * X**2 * Y**4 + (-1 + T) ** 2 * Y**6,
        3 * X**2 * Y**4 + (-2 + T + T**2) * Y**6,
        Y**6,
    ]


def hamming74_tutte():
    return (
        3 * X + 4 * X**2 + X**3 + 3 * Y + 7 * X * Y + 6 * Y**2 + 3 * Y**3 + Y**4
    )


def hamming74_wr():
    return [
        X**7,
        7 * X**4 * Y**3 + 7 * X**3 * Y**4 + 21 * (-2 + T) * X**2 * Y**5
        + 7 * (6 - 5 * T + T**2) * X * Y**6 + (-13 + 15 * T - 6 * T**2 + T**3) * Y**7,
        21 * X**2 * Y**5 + 7 * (-5 + T + T**2) * X * Y**6
        + (15 - 6 * T - 5 * T**2 + T**3 + T**4) * Y**7,
        7 * X * Y**6 + (-6 + T + T**2 + T**3) * Y**7,
        Y**7,
    ]


# -- printed Betti polynomial oracles (in the x, y slots) ------------------------------


ALMOST_WHEEL_BETTI = [
    1 + 6 * X * Y**2 + 4 * X * Y**3 + 8 * X**2 * Y**3 + 12 * X**2 * Y**4
    + 3 * X**3 * Y**4 + 12 * X**3 * Y**5 + 4 * X**4 * Y**6,
    1 + X * Y**3 + 12 * X * Y**4 + 21 * X**2 * Y**5 + 9 * X**3 * Y**6,
    1 + 6 * X * Y**5 + 5 * X**2 * Y**6,
    1 + X * Y**6,
    one(),
]

ALMOST_WHEEL_IND_BETTI = [
    1 + 9 * X * Y**2 + 17 * X**2 * Y**3 + X**2 * Y**4 + 13 * X**3 * Y**4
    + 2 * X**3 * Y**5 + 5 * X**4 * Y**5 + X**4 * Y**6 + X**5 * Y**6,
    1 + 4 * X * Y**3 + 3 * X * Y**4 + 3 * X**2 * Y**4 + 6 * X**2 * Y**5
    + 3 * X**3 * Y**6,
    1 + 3 * X * Y**5 + 2 * X**2 * Y**6,
    one(),
]

HAMMING84_BETTI = [
    1 + 14 * X * Y**4 + 56 * X**2 * Y**6 + 64 * X**3 * Y**7 + 21 * X**4 * Y**8,
    1 + 28 * X * Y**6 + 48 * X**2 * Y**7 + 21 * X**3 * Y**8,
    1 + 8 * X * Y**7 + 7 * X**2 * Y**8,
    1 + X * Y**8,
    one(),
]

PROJECTIVE_PLANE_BETTI_CHAR2 = [
    1 + 10 * X * Y**3 + 15 * X**2 * Y**4 + 6 * X**3 * Y**5 + X**3 * Y**6
    + X**4 * Y**6,
    1 + 6 * X * Y**5 + 5 * X**2 * Y**6,
    1 + X * Y**6,
    one(),
]

PROJECTIVE_PLANE_BETTI_CHAR3 = [
    1 + 10 * X * Y**3 + 15 * X**2 * Y**4 + 6 * X**3 * Y**5,
    1 + 6 * X * Y**5 + 5 * X**2 * Y**6,
    1 + X * Y**6,
    one(),
]

PATH_IND_BETTI_R0 = (
    1 + 4 * X * Y**2 + 3 * X**2 * Y**3 + X**2 * Y**4 + X**3 * Y**5
)
