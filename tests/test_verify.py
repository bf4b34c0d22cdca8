import functools
import inspect
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given

from demimat import cli, core, hamming, ops, poly, simplicial, tutte, verify, weights
from demimat.core import RankTable
from demimat.errors import InvariantViolationError
from demimat.poly import T, LaurentPoly, X, Y, monomial

from conftest import minus_x2_y_t_minus_3, top_w_r_plus
from strategies import all_demimatroids, demimatroid_tables

NAMES = (
    "operator_group", "minor_duality", "lattice_laws", "wei_duality",
    "wei_bounds", "wei_sequence_roundtrip", "elongation_laws",
    "tutte_identities", "hamming_routes", "macwilliams",
    "coefficient_structure", "recovery_identity",
)


def test_battery_all_identities_pass():
    report = verify.run_battery(seed=1, n=5, samples=50)
    assert report["ok"] is True
    for name, result in report["identities"].items():
        assert result == {"passes": 50, "failures": []}, name
    assert list(report) == ["seed", "n", "samples", "ok", "identities", "conjecture_census"]
    assert list(report["identities"]) == sorted(verify.IDENTITIES)
    recovery = report["identities"]["recovery_identity"]
    assert report["conjecture_census"] == {"holds": recovery["passes"],
                                           "fails": len(recovery["failures"])}
    assert list(report["conjecture_census"]) == ["holds", "fails"]


def test_the_registry_holds_plain_predicates_in_a_fixed_order():
    assert tuple(verify.IDENTITIES) == NAMES
    for check in verify.IDENTITIES.values():
        assert check.__name__ != "<lambda>"
        assert len(inspect.signature(check).parameters) == 1


@pytest.mark.parametrize("name", NAMES)
@given(table=demimatroid_tables(max_n=5))
def test_identity_holds(name, table):
    assert verify.IDENTITIES[name](table) is True


def test_the_battery_runs_on_the_empty_ground_set():
    assert verify.run_battery(seed=1, n=0, samples=3)["ok"] is True


def test_a_battery_sample_expands_each_tutte_route_w_once(monkeypatch):
    # The Tutte route of W and the definition route of W^(1) read the
    # subset-sum W, so W is expanded once per table whose W is read: the
    # sample and its dual (MacWilliams).
    expand = hamming.hamming_subset_sum.__wrapped__
    tables, expanded = [], []

    @functools.wraps(expand)
    def counted(table):
        tables.append(table)
        return expand(table)

    monkeypatch.setattr(hamming, "hamming_subset_sum", core.per_table(counted))
    _counting(monkeypatch, hamming, "w_basis", expanded)
    report = verify.run_battery(seed=1, n=5, samples=1)
    assert report["ok"] and report["identities"]["coefficient_structure"]["passes"] == 1
    assert len(tables) == len(set(map(id, tables))) == len(expanded) == 2


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_battery_sample_calls_no_substitute(monkeypatch):
    # A substitution of polynomial images raises each image to a power; no
    # identity takes any power of a polynomial.
    calls = []
    _counting(monkeypatch, LaurentPoly, "__pow__", calls)
    report = verify.run_battery(seed=1, n=5, samples=1)
    assert report["ok"] and all(r["passes"] == 1 for r in report["identities"].values())
    assert calls == []


def test_the_pj_and_betti_routes_build_no_polynomial_when_they_agree(monkeypatch):
    # No sum of polynomials and no product, as assembling W from the P_j or
    # from the Betti sums would need; the subset-sum W is the value.
    calls = []
    for module in (poly, hamming, simplicial):
        if hasattr(module, "poly_sum"):
            _counting(monkeypatch, module, "poly_sum", calls)
    _counting(monkeypatch, LaurentPoly, "__mul__", calls)
    table = RankTable.build(5, TARGET)
    w = hamming.hamming_subset_sum(table)
    assert hamming.w_from_pj(table) is w
    assert simplicial.w_via_betti(table, simplicial.RATIONALS) is w
    assert calls == []
    assert not hasattr(hamming, "assemble_w")


# -- the exhaustive walk ------------------------------------------------------------


def test_the_walk_lists_every_small_demimatroid_once():
    # Matroid counts are OEIS A058673, the labelled matroids on n elements.
    for n, (total, matroids) in enumerate([(1, 1), (2, 2), (6, 5), (38, 16), (990, 68)]):
        tables = list(all_demimatroids(n))
        assert len({table.ranks for table in tables}) == len(tables) == total
        assert all(table.is_demimatroid for table in tables)
        assert sum(table.kind == core.MATROID for table in tables) == matroids


def test_every_identity_holds_on_every_demimatroid_up_to_n4():
    failures = []
    for n in range(5):
        for table in all_demimatroids(n):
            for name, check in verify.IDENTITIES.items():
                try:
                    verdict = check(table)
                except Exception as exc:  # name the witness, keep walking
                    verdict = exc
                if verdict is not True:
                    failures.append((name, table.ranks, verdict))
    assert not failures


# -- planted faults -------------------------------------------------------------------


def _off_by_x(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + X


# For each identity, one library function it uses and a fault in it:
# (module, attribute, original -> faulty replacement).  Each faulty table
# still has rho(empty) = 0, so the identity fails, not the table builder.
FAULTS = {
    "operator_group": (ops, "apply_operator",  # the nullity tag applies the supplement
                       lambda f: lambda tag, t: f(
                           ops.SUPPLEMENT if tag == ops.NULLITY else tag, t)),
    "minor_duality": (ops, "contract", lambda f: ops.delete),
    "lattice_laws": (ops, "meet", lambda f: ops.join),
    "wei_duality": (weights, "wei_hierarchy",  # each lower number one too large
                    lambda f: lambda t: f(t)._replace(d=tuple(v + 1 for v in f(t).d))),
    "wei_bounds": (weights, "min_size_at_nullity", lambda f: lambda t, r: f(t, r) + 1),
    "wei_sequence_roundtrip": (core, "from_wei_sequence", lambda f: lambda n, d: f(n, d[1:])),
    "elongation_laws": (ops, "elongate",  # one step too far, within range
                        lambda f: lambda t, i: f(t, min(i + 1, t.total_nullity))),
    "tutte_identities": (tutte, "whitney_f", _off_by_x),
    "hamming_routes": (hamming, "hamming_subset_sum", _off_by_x),
    "macwilliams": (hamming, "macwilliams_coordinates", minus_x2_y_t_minus_3),
    "coefficient_structure": (hamming, "q_binomial", _off_by_x),
    "recovery_identity": (hamming, "generalized_w_all",
                          top_w_r_plus(lambda n, k: (X - Y) ** (n - k) * Y ** k)),
}


def _one_too_high_at_e(dual):
    def corrupted(t):
        ranks = list(dual(t).ranks)
        ranks[-1] += 1
        return RankTable(t.n, tuple(ranks))
    return corrupted


# Faults that checks no longer in the battery caught, each with a law that
# still fails on it: rank(M) + rank(M*) = n is the dual at E, and W^(0) = x^n
# is the E_0 term of the recovery sum.
DECIDED_ELSEWHERE = {
    "dual-is-the-supplement": ("operator_group", (ops, "dual", lambda f: ops.supplement)),
    "dual-one-too-high-at-E": ("operator_group", (ops, "dual", _one_too_high_at_e)),
    "q-binomial-e-0-is-1-plus-t": ("recovery_identity", (
        hamming, "q_binomial", lambda f: lambda m, j: f(m, j) + (T if j == 0 else 0))),
}

# Rank 2 and nullity 3, and not a matroid, so no fault above is masked.
TARGET = core.random_demimatroid(5, random.Random(2)).ranks


@pytest.mark.parametrize("name, planted", [
    *(pytest.param(name, FAULTS[name], id=name) for name in NAMES),
    *(pytest.param(name, planted, id=case)
      for case, (name, planted) in DECIDED_ELSEWHERE.items()),
])
def test_a_planted_fault_makes_the_identity_fail(name, planted, monkeypatch):
    check = verify.IDENTITIES[name]
    assert check(RankTable.build(5, TARGET))
    module, attribute, fault = planted
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    try:  # a fresh table, so no memoized value hides the fault
        verdict = check(RankTable.build(5, TARGET))
    except Exception:
        verdict = False
    assert verdict is False


def test_the_elongation_law_builds_each_elongation_once(monkeypatch):
    # One elongation to the top, then per i one step and one direct: the
    # distance identity reads the elongations the law has built.
    table = RankTable.build(5, TARGET)
    assert table.total_nullity == 3
    calls = []
    _counting(monkeypatch, ops, "elongate", calls)
    assert verify.IDENTITIES["elongation_laws"](table) is True
    assert len(calls) == 7


def test_a_witness_alone_reproduces_its_failure(monkeypatch):
    # A fault that only some partners meet: contracting three or more
    # elements deletes them instead.
    contract = ops.contract
    monkeypatch.setattr(ops, "contract", lambda t, a: (
        ops.delete(t, a) if core.popcount(a) >= 3 else contract(t, a)))
    report = verify.run_battery(seed=1, n=5, samples=20)
    result = report["identities"]["minor_duality"]
    assert result["passes"] and result["failures"] and report["ok"] is False
    for witness in result["failures"]:
        assert verify.IDENTITIES["minor_duality"](RankTable.build(5, witness["ranks"])) is False


@pytest.mark.parametrize("extra", [
    pytest.param(lambda n, k: (X - Y) ** (n - k) * Y ** k, id="the sum clears"),
    pytest.param(lambda n, k: monomial(1, y=n), id="the division is inexact"),
])
def test_a_wrong_w_r_family_makes_the_battery_not_ok(extra, monkeypatch, capsys):
    # Only the recovery identity reads the top W^(r) of these samples, so no
    # other identity fails, and each sample's witness is the route's raise.
    monkeypatch.setattr(hamming, "generalized_w_all",
                        top_w_r_plus(extra)(hamming.generalized_w_all))
    report = verify.run_battery(seed=1, n=5, samples=5)
    failures = report["identities"]["recovery_identity"]["failures"]
    assert len(failures) == 5
    assert not any(result["failures"] for name, result in report["identities"].items()
                   if name != "recovery_identity")
    assert report["conjecture_census"] == {"holds": 0, "fails": 5}
    assert report["ok"] is False
    for witness in failures:  # each reproduces alone, with the same message
        assert witness["error"].startswith(
            "Tutte polynomial: the q-enumerator and corank-nullity routes disagree first at ")
        with pytest.raises(InvariantViolationError) as exc:
            verify.IDENTITIES["recovery_identity"](RankTable.build(5, witness["ranks"]))
        assert str(exc.value) == witness["error"]
    assert cli.main(["verify", "--seed", "1", "--n", "5", "--samples", "5"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_each_battery_sample_ends_at_its_conjecture_check(monkeypatch):
    # The ``battery`` benchmark workload replaces ``hamming.conjecture_check``
    # and times each sample up to the end of that call.  So the battery reaches
    # it through the module, once per sample and on the sample's table, and
    # calls nothing in the package after it until it draws the next sample.
    package, battery = os.path.dirname(verify.__file__), verify.run_battery.__code__
    inner, events, drawing = hamming.conjecture_check, [], [False]

    def conjecture_check(table):
        try:
            return inner(table)
        finally:
            events.append(("end", table.ranks))

    def profile(frame, event, arg):
        code = frame.f_code
        if (event not in ("call", "return") or not code.co_filename.startswith(package)
                or code.co_name.startswith("<") or code is battery):
            return
        if code.co_name == "random_demimatroid" and frame.f_back.f_code is battery:
            drawing[0] = event == "call"  # the calls that draw a sample belong to none
            if event == "return":
                events.append(("drawn", arg.ranks))
        elif event == "call" and not drawing[0]:
            events.append(("call", code.co_name))

    monkeypatch.setattr(hamming, "conjecture_check", conjecture_check)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = verify.run_battery(seed=1, n=5, samples=5)
    finally:
        sys.setprofile(previous)
    assert report["ok"] is True
    samples = []
    for event in events:
        if event[0] == "drawn":
            samples.append([event])
        else:
            assert samples, event
            samples[-1].append(event)
    assert len(samples) == 5
    for (_, ranks), *calls in samples:
        assert ("call", "conjecture_check") in calls
        assert [event for event in calls if event[0] == "end"] == [calls[-1]] == [("end", ranks)]


def test_partners_are_the_same_in_every_process():
    # ``hash`` of a str follows PYTHONHASHSEED; a partner seed must not.
    code = ("from demimat import core, verify; "
            "print(verify._partners(core.uniform(4, 2)).random())")
    drawn = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    }
    assert len(drawn) == 1


# -- faults in the builders the identities share ------------------------------------

# Minors, operator images and elongations are memoized on their source table,
# inside the builder: a replaced builder is called afresh, so neither a fresh
# table nor one that already derived its values hides the fault.
SHARED_FAULTS = {
    "delete": lambda f: lambda t, a: ops.contract(t, a),
    "contract": lambda f: lambda t, a: ops.delete(t, a),
    "supplement": lambda f: lambda t: ops.dual(t),
    "dual": lambda f: lambda t: ops.supplement(t),
    "nullity_operator": lambda f: lambda t: f(ops.dual(t)),
}


def _verdict(check, table) -> bool:
    try:
        return check(table)
    except Exception:
        return False


@pytest.mark.parametrize("builder, name", [
    ("delete", "tutte_identities"), ("contract", "tutte_identities"),
    ("dual", "macwilliams"),
    ("supplement", "operator_group"), ("nullity_operator", "operator_group"),
])
def test_a_fault_in_a_shared_builder_still_fails_the_identity(builder, name, monkeypatch):
    check = verify.IDENTITIES[name]
    derived = RankTable.build(5, TARGET)
    for other in verify.IDENTITIES.values():  # memoize every true value on it
        assert other(derived)
    monkeypatch.setattr(ops, builder, SHARED_FAULTS[builder](getattr(ops, builder)))
    assert _verdict(check, RankTable.build(5, TARGET)) is False
    assert _verdict(check, derived) is False
