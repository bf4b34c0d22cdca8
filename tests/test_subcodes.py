"""The code side of W^(r): at t = p, W^(r) of a parity matroid counts the
r-dimensional subcodes of C = ker H by support size, and the codeword
listing those counts read is checked against a plain enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import codes, hamming
from demimat._linalg import rref_mod_p
from demimat.errors import MalformedInputError, SizeCapError
from demimat.poly import LaurentPoly, monomial

from conftest import CODE63A_ROWS, CODE63B_ROWS, HAMMING74_ROWS, HAMMING84_ROWS
from oracles import substitute
from test_codes import brute_force_codewords, code_and_matroid_hierarchies

CODE_FIXTURES = [HAMMING84_ROWS, CODE63A_ROWS, CODE63B_ROWS, HAMMING74_ROWS]


@st.composite
def check_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 6))
    n_rows = draw(st.integers(1, n + 1))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                         min_size=n_rows, max_size=n_rows))
    return codes.PrimeMatrix.build(p, rows)


def subcode_enumerators_agree(matrix) -> None:
    code = codes.LinearCodeView.from_parity(matrix)
    family = hamming.generalized_w_all(codes.parity_matroid(matrix))
    assert len(family) == code.k + 1
    for r, w in enumerate(family):
        counted = sum((monomial(a, x=code.n - size, y=size)
                       for size, a in codes.subcode_support_sizes(code, r).items()),
                      LaurentPoly())
        assert substitute(w, {"t": code.p}) == counted


@pytest.mark.parametrize("rows", CODE_FIXTURES,
                         ids=["hamming_8_4", "code_6_3_a", "code_6_3_b", "hamming_7_4"])
def test_w_r_at_t_p_counts_the_subcodes_of_the_code_fixtures(rows):
    subcode_enumerators_agree(codes.PrimeMatrix.build(2, rows))


@given(check_matrices())
def test_w_r_at_t_p_counts_the_subcodes_of_check_matrices(matrix):
    subcode_enumerators_agree(matrix)


@given(check_matrices())
def test_the_support_listing_matches_the_codewords(matrix):
    code = codes.LinearCodeView.from_parity(matrix)
    supports = codes._span_supports(code.generator, code.n, code.p)
    assert len(supports) == code.p ** code.k
    words = brute_force_codewords(code)
    assert len(words) == len(supports)  # the generator rows are independent
    assert sorted(supports) == sorted(
        sum(1 << i for i, a in enumerate(w) if a) for w in words)
    # Index i lists the combination whose coefficient on row j is digit j of i.
    for i, support in enumerate(supports):
        word = [0] * code.n
        for j, row in enumerate(code.generator):
            c = i // code.p ** j % code.p
            word = [(a + c * b) % code.p for a, b in zip(word, row)]
        assert support == sum(1 << pos for pos, a in enumerate(word) if a)


def test_weight_hierarchy_agreement_eliminates_once(monkeypatch):
    eliminations = []

    def counted(rows, p):
        eliminations.append(len(rows))
        return rref_mod_p(rows, p)

    monkeypatch.setattr(codes, "rref_mod_p", counted)
    code_side, matroid_side = code_and_matroid_hierarchies(
        codes.PrimeMatrix.build(2, HAMMING84_ROWS))
    assert code_side == matroid_side == (4, 6, 7, 8)
    assert eliminations == [4]


def test_subcode_support_sizes_of_the_extended_hamming_code():
    code = codes.LinearCodeView.from_parity(codes.PrimeMatrix.build(2, HAMMING84_ROWS))
    assert codes.subcode_support_sizes(code, 0) == {0: 1}
    assert codes.subcode_support_sizes(code, 1) == {4: 14, 8: 1}
    assert codes.subcode_support_sizes(code, 4) == {8: 1}


def test_subcode_support_sizes_validates_r_before_the_cap():
    big = codes.LinearCodeView(2, 30, 25, tuple())
    with pytest.raises(MalformedInputError):
        codes.subcode_support_sizes(big, 26)
    with pytest.raises(SizeCapError):
        codes.subcode_support_sizes(big, 0)
