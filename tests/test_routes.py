"""Every second route checks itself against its primary route.

Each case corrupts one route by monkeypatching and expects the library
function that computes it to raise the ``poly.cross_checked`` witness: the
invariant, the route pair and the first differing monomial, or the least
differing coordinate where a side has no expansion.  Where
``compute`` reaches the route, the run exits 1 with that error and prints no
report.
"""

import json
from pathlib import Path

import pytest

from demimat import cli, core, hamming, ops, simplicial, tutte
from demimat.errors import InvariantViolationError
from demimat.poly import T, X, Y, monomial

from conftest import counts_plus, minus_x2_y_t_minus_3, top_w_r_plus

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


ETA_ONE = core.from_wei_sequence(3, [2, 3])  # n = 3, eta = 1
FREE = core.uniform(3, 3)  # eta = 0: no formal minimum distance
# eta = 2 >= rho(E) = 1, so every swapped (x-y) exponent eta + b - a is >= 0.
RANK_ONE = core.uniform(3, 1)
CHAIN = FIXTURES / "chain_complex_n5.json"


def _swapped_counts(original):
    # The Tutte relabelling with the corank and the nullity exchanged.
    return lambda table: {(b, a): c for (a, b), c in original(table).items()}


def _w_at_t_plus_a_multiple_of_t_minus_1(original):
    # W(x, y, t) changes by (t - 1) x^n, which the definition sends to 0 for
    # r = 0 and to x^n for r = 1, since [0, 1]_t = 0 and [1, 1]_t = 1; so
    # W^(0) stays and W^(1) moves by x^n.
    def corrupted(table):
        return original(table) + (T - 1) * monomial(1, x=table.n)
    return corrupted


def _top_p_plus_t7(original):
    def corrupted(table):
        *rest, top = original(table)
        return (*rest, top + monomial(1, t=7))
    return corrupted


def _extra_beta_00(original):
    def corrupted(table, fieldspec):
        *rest, last = original(table, fieldspec)
        entries = dict(last.entries)
        entries[(0, 0)] = entries.get((0, 0), 0) + 1
        return (*rest, simplicial.BettiTable.from_dict(entries))
    return corrupted


def _extra_beta_12_below_the_top(original):
    # Below the top table an entry reaches two powers of t, with opposite signs.
    def corrupted(table, fieldspec):
        first, *rest = original(table, fieldspec)
        entries = dict(first.entries)
        entries[(1, 2)] = entries.get((1, 2), 0) + 3
        return (simplicial.BettiTable.from_dict(entries), *rest)
    return corrupted


def _w_plus_one_after_recovery(original):
    # (x - y)^eta y^(n - eta) adds exactly 1 to the Tutte polynomial and the
    # f-polynomial recovered from W, so both clearing divisions stay exact.
    def corrupted(table):
        eta = table.total_nullity
        return original(table) + (X - Y) ** eta * Y ** (table.n - eta)
    return corrupted


def _plus_one(original):
    return lambda table: original(table) + 1


# (module, name, corruption, input, route, compute flag or None, message)
CASES = [
    pytest.param(
        tutte, "corank_nullity_counts", counts_plus(lambda table: monomial(1, x=table.n)),
        ETA_ONE, lambda loaded: hamming.hamming_via_tutte(loaded.table), "--hamming",
        "W: the Tutte and subset-sum routes disagree first at x^3 (2 against 1)",
        id="W by Tutte"),
    pytest.param(
        tutte, "corank_nullity_counts", _swapped_counts, RANK_ONE,
        lambda loaded: hamming.hamming_via_tutte(loaded.table), "--hamming",
        "W: the Tutte and subset-sum routes disagree first at x^4*y^-1 (1 against 0)",
        id="W by Tutte, corank and nullity swapped"),
    pytest.param(
        tutte, "corank_nullity_counts", _swapped_counts, ETA_ONE,
        lambda loaded: hamming.hamming_via_tutte(loaded.table), "--hamming",
        "W: the Tutte and subset-sum routes disagree first at coordinate (-1, 4, 2)"
        " (1 against 0)",
        id="W by Tutte, corank and nullity swapped, a negative (x-y) exponent"),
    pytest.param(
        hamming, "pj_family", _top_p_plus_t7, ETA_ONE,
        lambda loaded: hamming.w_from_pj(loaded.table), "--hamming",
        "W: the P_j and subset-sum routes disagree first at y^3*t^7 (1 against 0)",
        id="W by P_j"),
    pytest.param(
        hamming, "pj_family", _top_p_plus_t7, FREE,
        lambda loaded: hamming.w_from_pj(loaded.table), "--hamming",
        "W: the P_j and subset-sum routes disagree first at y^3*t^7 (1 against 0)",
        id="W by P_j, eta = 0"),
    pytest.param(
        simplicial, "betti_of_elongations", _extra_beta_00, ETA_ONE,
        lambda loaded: simplicial.w_via_betti(loaded.table, simplicial.RATIONALS), "--betti",
        "W: the Betti and subset-sum routes disagree first at x^3*t (1 against 0)",
        id="W by Betti"),
    pytest.param(
        hamming, "macwilliams_coordinates", minus_x2_y_t_minus_3, ETA_ONE,
        lambda loaded: hamming.macwilliams(loaded.table), "--macwilliams",
        "W of the dual: the MacWilliams and dual subset-sum routes disagree first"
        " at x^2*y*t^-3 (-1 against 0)",
        id="MacWilliams"),
    pytest.param(
        tutte, "tutte", _plus_one, ETA_ONE,
        lambda loaded: tutte.characteristic(loaded.table), "--charpoly",
        "characteristic polynomial: the subset-sum and Tutte routes disagree first"
        " at 1 (-1 against 0)",
        id="characteristic"),
    pytest.param(
        tutte, "corank_nullity_counts", counts_plus(lambda table: monomial(1, x=table.n)),
        ETA_ONE, lambda loaded: hamming.generalized_w(loaded.table, 1), "--ghwe",
        "W: the Tutte and subset-sum routes disagree first at x^3 (2 against 1)",
        id="W^(r) by definition reads the checked Tutte route"),
    pytest.param(
        hamming, "hamming_via_tutte", _w_at_t_plus_a_multiple_of_t_minus_1, ETA_ONE,
        lambda loaded: [hamming.generalized_w(loaded.table, r)
                        for r in range(loaded.table.total_nullity + 1)], "--ghwe",
        "W^(1): the Tutte and subset-sum routes disagree first at x^3 (1 against 0)",
        id="W^(r) family by definition"),
    pytest.param(
        hamming, "hamming_via_tutte", _w_at_t_plus_a_multiple_of_t_minus_1, ETA_ONE,
        lambda loaded: hamming.generalized_w(loaded.table, 1), None,
        "W^(1): the Tutte and subset-sum routes disagree first at x^3 (1 against 0)",
        id="W^(1) by definition"),
    pytest.param(
        tutte, "tutte", _plus_one, CHAIN,
        lambda loaded: tutte.f_polynomial_via_tutte(loaded.cx), "--fpoly",
        "f-polynomial: the Tutte and face-count routes disagree first at 1 (3 against 2)",
        id="f by Tutte"),
    pytest.param(
        hamming, "hamming_subset_sum", _w_plus_one_after_recovery, CHAIN,
        lambda loaded: tutte.f_polynomial_via_hamming(loaded.cx), "--fpoly",
        "f-polynomial: the Hamming and face-count routes disagree first at 1 (3 against 2)",
        id="f by Hamming"),
    pytest.param(
        hamming, "hamming_subset_sum", _w_plus_one_after_recovery, ETA_ONE,
        lambda loaded: hamming.tutte_from_hamming(loaded.table), None,
        "Tutte polynomial: the Hamming and corank-nullity routes disagree first"
        " at 1 (1 against 0)",
        id="Tutte by Hamming"),
    pytest.param(
        hamming, "generalized_w_all", top_w_r_plus(lambda n, k: (X - Y) ** (n - k) * Y ** k),
        ETA_ONE,
        lambda loaded: hamming.conjecture_check(loaded.table), "--conjecture",
        "Tutte polynomial: the q-enumerator and corank-nullity routes disagree first"
        " at x (0 against 1)",
        id="Tutte by q-enumerators"),
    pytest.param(
        hamming, "generalized_w_all", top_w_r_plus(lambda n, k: monomial(1, y=n)),
        FIXTURES / "vamos.json",
        lambda loaded: hamming.conjecture_check(loaded.table), "--conjecture",
        "Tutte polynomial: the q-enumerator and corank-nullity routes disagree first"
        " at coordinate (-4, 0, 6) (1 against 0)",
        id="Tutte by q-enumerators, a coordinate below the divisor"),
]


@pytest.mark.parametrize("module, name, corruption, source, route, flag, message", CASES)
def test_a_corrupted_second_route_raises_its_witness(
    tmp_path, monkeypatch, capsys, module, name, corruption, source, route, flag, message
):
    path = source
    if isinstance(source, core.RankTable):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"n": source.n, "ranks": list(source.ranks)}))
    monkeypatch.setattr(module, name, corruption(getattr(module, name)))
    with pytest.raises(InvariantViolationError) as exc:
        route(cli.load_input(str(path)))
    assert str(exc.value) == message
    if flag is None:
        return
    code = cli.main(["compute", "--in", str(path), flag])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert json.loads(out.err) == {"error": "InvariantViolationError", "detail": message}


# The P_j and Betti routes compare term dicts and expand both sides only on a
# disagreement, which must still name the witness that comparing the expanded
# polynomials names, here on a fixture with eta = 4.
@pytest.mark.parametrize("module, name, corruption, route, message", [
    pytest.param(
        hamming, "pj_family", _top_p_plus_t7, lambda table: hamming.w_from_pj(table),
        "W: the P_j and subset-sum routes disagree first at y^8*t^7 (1 against 0)",
        id="P_j"),
    pytest.param(
        simplicial, "betti_of_elongations", _extra_beta_00,
        lambda table: simplicial.w_via_betti(table, simplicial.RATIONALS),
        "W: the Betti and subset-sum routes disagree first at x^8*t^4 (1 against 0)",
        id="Betti, top table"),
    pytest.param(
        simplicial, "betti_of_elongations", _extra_beta_12_below_the_top,
        lambda table: simplicial.w_via_betti(table, simplicial.RATIONALS),
        "W: the Betti and subset-sum routes disagree first at x^6*y^2 (-3 against 0)",
        id="Betti, first table"),
])
def test_a_route_decided_on_terms_keeps_its_witness_on_a_fixture(
    monkeypatch, module, name, corruption, route, message
):
    monkeypatch.setattr(module, name, corruption(getattr(module, name)))
    with pytest.raises(InvariantViolationError) as exc:
        route(cli.load_input(str(FIXTURES / "vamos.json")).table)
    assert str(exc.value) == message


def _planted_nullity(original):
    # The last mask whose nullity is below eta(E) gets one more, so the
    # nullities still lie in 0..eta(E) and never fall along inclusion.
    def corrupted(table):
        nullities = list(original(table).ranks)
        last = max(m for m, e in enumerate(nullities) if e < table.total_nullity)
        nullities[last] += 1
        return core.RankTable.from_view(table.n, bytes(nullities))
    return corrupted


# The P_j and Betti routes read every subset's nullity from the nullity
# operator, so a wrong nullity fails both: on vamos, E - {1} moves from
# nullity 3 to 4, one subset fewer at (x-y) y^7 t^3.
@pytest.mark.parametrize("route, message", [
    pytest.param(
        lambda table: hamming.w_from_pj(table),
        "W: the P_j and subset-sum routes disagree first at x*y^7*t^3 (7 against 8)",
        id="P_j"),
    pytest.param(
        lambda table: simplicial.w_via_betti(table, simplicial.RATIONALS),
        "W: the Betti and subset-sum routes disagree first at x*y^7*t^3 (7 against 8)",
        id="Betti"),
])
def test_a_planted_nullity_fails_the_routes_that_read_nullities(monkeypatch, route, message):
    monkeypatch.setattr(ops, "nullity_operator", _planted_nullity(ops.nullity_operator))
    with pytest.raises(InvariantViolationError) as exc:
        route(cli.load_input(str(FIXTURES / "vamos.json")).table)
    assert str(exc.value) == message
