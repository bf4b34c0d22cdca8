import random

import pytest

from demimat import core, ops, tutte
from demimat.errors import InvariantViolationError, MalformedInputError, RationalFunctionError
from demimat.poly import T, X, Y, monomial, one

import conftest as ref
from oracles import independence_complex, substitute, tutte_recurrence


def test_printed_tutte_values(
    full23, almost_wheel, almost_wheel_ind, hamming84, projective_plane, vamos
):
    assert tutte.tutte(full23) == ref.full23_tutte()
    assert tutte.tutte(almost_wheel) == ref.almost_wheel_tutte()
    assert tutte.tutte(almost_wheel_ind) == ref.almost_wheel_ind_tutte()
    assert tutte.tutte(hamming84) == ref.hamming84_tutte()
    assert tutte.tutte(projective_plane) == ref.projective_plane_tutte()
    assert tutte.tutte(vamos) == ref.vamos_tutte()
    assert tutte.tutte(core.uniform(3, 1)) == ref.uniform31_tutte()
    assert tutte.tutte(core.uniform(4, 2)) == ref.uniform42_tutte()


def test_chain_complex_tutte(chain_complex):
    table = core.complex_to_demimatroid(chain_complex)
    assert tutte.tutte(table) == ref.chain_tutte()


def test_free_table_tutte():
    free = core.RankTable.build(4, [core.popcount(m) for m in range(16)])
    assert tutte.tutte(free) == X**4
    assert tutte.tutte(ops.dual(free)) == Y**4


def test_recurrence_pieces_full23(full23):
    p = core.mask_of([3], 3)
    assert tutte.tutte(ops.delete(full23, p)) == -X - Y + 2 * X * Y
    assert tutte.tutte(ops.contract(full23, p)) == X**2
    # the recurrence combination reproduces T term for term
    combined = (X - 1) * (-X - Y + 2 * X * Y) + (Y - 1) * X**2
    assert combined == ref.full23_tutte()
    assert tutte_recurrence(full23, 3) == ref.full23_tutte()


def test_recurrence_every_element(full23, almost_wheel):
    for table in (full23, almost_wheel):
        expected = tutte.tutte(table)
        for p in range(1, table.n + 1):
            assert tutte_recurrence(table, p) == expected
    with pytest.raises(MalformedInputError):
        tutte_recurrence(full23, 4)


def test_single_element_base_case():
    loop_free = core.RankTable.build(1, [0, 1])
    assert tutte.tutte(loop_free) == X
    assert tutte_recurrence(loop_free, 1) == X
    loop = core.RankTable.build(1, [0, 0])
    assert tutte.tutte(loop) == Y


def test_dual_check(two_basis):
    # Dualizing swaps the variables of T and of the Whitney function.
    rng = random.Random(47)
    for table in [two_basis] + [core.random_demimatroid(5, rng) for _ in range(50)]:
        star = ops.dual(table)
        for invariant in (tutte.tutte, tutte.whitney_f):
            assert invariant(star) == substitute(invariant(table), {"x": Y, "y": X})


def test_combinatroid_rational_rejected():
    bad = core.RankTable.build(2, [0, 2, 2, 2])  # rank jumps by two
    with pytest.raises(RationalFunctionError):
        tutte.tutte(bad)
    # the Whitney sum stays Laurent for the same table
    f = tutte.whitney_f(bad)
    assert f.min_exponent("y") < 0


def test_whitney_examples(full23):
    # the free table has corank n-|A| and nullity 0, so f = (x+1)^n, which is
    # the only value compatible with T = f(x-1, y-1) = x^n
    free = core.RankTable.build(3, [core.popcount(m) for m in range(8)])
    assert tutte.whitney_f(free) == (X + 1) ** 3
    assert tutte.tutte(free) == X**3
    f = tutte.whitney_f(full23)
    assert substitute(f, {"x": X - 1, "y": Y - 1}) == tutte.tutte(full23)
    assert tutte.whitney_f(ops.dual(full23)) == substitute(f, {"x": Y, "y": X})
    # deletion-contraction with the exponent rules of the corank/nullity sum
    p = core.mask_of([3], 3)
    co = full23.rank - full23.ranks[full23.full & ~p]
    nu = 1 - full23.ranks[p]
    rec = monomial(1, x=co) * tutte.whitney_f(ops.delete(full23, p)) + monomial(
        1, y=nu
    ) * tutte.whitney_f(ops.contract(full23, p))
    assert rec == f


def test_characteristic_examples():
    assert tutte.characteristic(core.uniform(1, 1)) == T - 1
    assert tutte.characteristic(core.uniform(3, 1)) == T - 1
    trivial = core.RankTable.build(1, [0, 0])
    assert tutte.characteristic(trivial).is_zero
    rng = random.Random(53)
    for _ in range(30):
        tutte.characteristic(core.random_demimatroid(5, rng))


def test_uniform_closed_form():
    for n in range(0, 9):
        for k in range(n + 1):
            assert tutte.tutte_uniform_closed_form(n, k) == tutte.tutte(
                core.uniform(n, k)
            )


def test_f_polynomial_chain(chain_complex):
    # f and its two routes are acceptance criterion 07's.
    expected = T**3 + 5 * T**2 + 6 * T + 2
    assert tutte.h_polynomial(chain_complex) == substitute(expected, {"t": T - 1})


def test_f_polynomial_small_cases():
    two = core.Complex.from_facet_lists(2, [[1, 2]])
    assert tutte.f_polynomial(two) == T**2 + 2 * T + 1
    empty_only = core.Complex.build(3, [0])
    assert tutte.f_polynomial(empty_only) == one()
    with pytest.raises(MalformedInputError):
        tutte.f_polynomial(core.Complex.build(3, []))


def test_f_polynomial_routes_random():
    rng = random.Random(59)
    for _ in range(25):
        table = core.random_demimatroid(5, rng)
        cx = independence_complex(table)
        face = tutte.f_polynomial(cx)
        assert face == tutte.f_polynomial_via_tutte(cx)
        assert face == tutte.f_polynomial_via_hamming(cx)


def test_characteristic_disagreement_names_the_first_monomial(monkeypatch, full23):
    # chi = -1 + 3t - 2t^2; an extra x^2 in T adds (1 - t)^2 to the Tutte side,
    # so the constant term is the first to differ.
    original = tutte.tutte
    monkeypatch.setattr(tutte, "tutte", lambda table: original(table) + X**2)
    with pytest.raises(InvariantViolationError) as exc:
        tutte.characteristic(full23)
    assert str(exc.value) == (
        "characteristic polynomial: the subset-sum and Tutte routes disagree first"
        " at 1 (-1 against 0)"
    )
