"""The sparse column-reduction kernel against the dense elimination oracles,
and the bitset F_2 kernel against the sparse one.

``oracles.rank_fraction_free`` (Bareiss) is the oracle over Q and the pivot
count of ``rref_mod_p`` the oracle over F_p.  Entries run over -3..3, so the
kernel's non-unit pivot branch over Q and the entries that vanish mod p both
occur.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat._linalg import rank_bit_columns, rank_sparse_columns, rref_mod_p

from oracles import rank_fraction_free

PRIMES = (2, 3, 5, 65537)


def sparse_columns(rows):
    n_cols = len(rows[0]) if rows else 0
    return {c: {r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(n_cols)}


@st.composite
def integer_matrices(draw):
    """Matrices with entries in -3..3, widened by zero columns and by integer
    combinations of earlier columns, so dependent columns are common."""
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 7))
    cols = [draw(st.lists(st.integers(-3, 3), min_size=n_rows, max_size=n_rows))
            for _ in range(n_cols)]
    for _ in range(draw(st.integers(0, 3))):
        if cols and draw(st.booleans()):
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(cols),
                                    max_size=len(cols)))
            extra = [sum(w * col[r] for w, col in zip(weights, cols)) for r in range(n_rows)]
        else:
            extra = [0] * n_rows
        cols.insert(draw(st.integers(0, len(cols))), extra)
    return [[col[r] for col in cols] for r in range(n_rows)]


def assert_ranks_match(rows):
    columns = sparse_columns(rows)
    assert len(rank_sparse_columns(columns, 0)) == rank_fraction_free(rows)
    for p in PRIMES:
        assert len(rank_sparse_columns(columns, p)) == len(rref_mod_p(rows, p)[1])


@given(integer_matrices())
def test_kernel_matches_dense_elimination(rows):
    assert_ranks_match(rows)


@pytest.mark.parametrize("rows", [
    [],                                      # no rows, no columns
    [[], []],                                # rows but no columns
    [[0, 0, 0], [0, 0, 0]],                  # zero columns only
    [[2, 4, 6], [3, 6, 9]],                  # all columns multiples of one
    [[2, 3], [3, 2]],                        # full rank over Q and F_2, not F_5
    [[1, 1, 0], [-1, 0, 1], [0, -1, -1]],    # boundary of a triangle: rank 2
])
def test_kernel_edge_cases(rows):
    assert_ranks_match(rows)


def test_kernel_takes_raw_zero_entries_and_leaves_its_input_alone():
    columns = {0: {0: 2, 1: 0}, 1: {0: 0}, 2: {0: 4, 1: 2}}
    snapshot = {k: dict(v) for k, v in columns.items()}
    assert sorted(rank_sparse_columns(columns, 0)) == [0, 1]
    assert sorted(rank_sparse_columns(columns, 2)) == []
    assert columns == snapshot


def test_skipped_columns_are_not_reduced():
    columns = {0: {0: 1}, 1: {1: 1}, 2: {0: 1, 1: 1}}
    assert sorted(rank_sparse_columns(columns, 0)) == [0, 1]
    assert rank_sparse_columns(columns, 0, skip={0, 1}) == [1]


@st.composite
def column_sets(draw):
    """Columns with entries in -3..3 under distinct labels, and a set of
    labels to pass over (empty about half the time)."""
    n_rows = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, 30), unique=True, max_size=10))
    columns = {label: draw(st.dictionaries(st.integers(0, n_rows - 1), st.integers(-3, 3),
                                           max_size=n_rows))
               for label in labels}
    skip = draw(st.sets(st.sampled_from(labels))) if labels and draw(st.booleans()) else set()
    return columns, skip


@given(column_sets())
def test_bit_kernel_matches_the_sparse_kernel_over_f2(case):
    columns, skip = case
    bits = {label: sum(1 << r for r, v in col.items() if v % 2) for label, col in columns.items()}
    for cleared in (set(), skip):
        expected = rank_sparse_columns(columns, 2, cleared)
        # Both reduce the same columns in the same order onto their highest
        # row, so the pivot rows agree, not only their number.
        assert sorted(rank_bit_columns(bits, cleared)) == sorted(expected)


def test_bit_kernel_edge_cases():
    assert rank_bit_columns({}) == []
    assert rank_bit_columns({0: 0, 1: 0}) == []
    # boundary of the triangle over F_2: columns 0b011, 0b101, 0b110 have rank 2
    assert sorted(rank_bit_columns({3: 0b011, 5: 0b101, 6: 0b110})) == [1, 2]
    assert rank_bit_columns({3: 0b011, 5: 0b101, 6: 0b110}, skip={3, 5}) == [2]
