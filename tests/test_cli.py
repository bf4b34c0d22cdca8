import builtins
import errno
import functools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demimat import cli, codes, core, hamming, ops, simplicial, tutte, weights
from demimat.errors import InvariantViolationError
from demimat.poly import T, X, Y

from conftest import FIXTURES, REPO, count_calls
from oracles import independence_complex, nullity

SRC = REPO / "src"
GOLDEN = REPO / "tests" / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_all_on_rank_table(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 3, "ranks": [0, 0, 0, 1, 0, 1, 1, 2]}))
    code, out, _ = run_cli(capsys, "compute", "--in", str(path), "--all")
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["construction"] == "rank-table"
    results = payload["results"]
    assert results["kind"] == "demimatroid"
    assert results["tutte"] == str(X - 2 * X**2 + Y - 3 * X * Y + 3 * X**2 * Y)
    assert results["hamming"]["routes"] == {
        "tutte_route": True,
        "pj_route": True,
        "betti_route": True,
    }
    assert results["wei"]["d"] == [2, 3]
    assert results["conjecture"] is True
    assert results["betti"]["agrees_with_subset_sum"] is True


def test_compute_fpoly_needs_complex(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 2, "ranks": [0, 1, 1, 2]}))
    code, _, err = run_cli(capsys, "compute", "--in", str(path), "--fpoly")
    assert code == 2
    assert json.loads(err)["error"] == "malformed-input"


def test_compute_complex_input(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "--in", str(FIXTURES / "chain_complex_n5.json"), "--fpoly", "--tutte",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["fpoly"]["f"] == str(T**3 + 5 * T**2 + 6 * T + 2)
    assert results["fpoly"]["agree"] is True


def test_compute_simplex_tutte(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--in", str(FIXTURES / "simplex_n3.json"), "--tutte"
    )
    assert code == 0
    assert json.loads(out)["results"]["tutte"] == "x^3"


def test_compute_requires_some_invariant(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 1, "ranks": [0, 1]}))
    code, _, err = run_cli(capsys, "compute", "--in", str(path))
    assert code == 2


def test_compute_output_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "compute", "--in", str(FIXTURES / "uniform_4_2.json"),
        "--tutte", "--hamming", "--out", str(out_path),
    )
    assert code == 0
    first = json.loads(out_path.read_text())
    # recomputing from the same manifest input is byte-identical
    code, _, _ = run_cli(
        capsys,
        "compute", "--in", str(FIXTURES / "uniform_4_2.json"),
        "--tutte", "--hamming", "--out", str(out_path),
    )
    assert json.loads(out_path.read_text()) == first


def test_op_dual_two_basis(tmp_path, capsys):
    path = tmp_path / "m.json"
    table = core.from_matroid_bases(3, [[1, 2], [1, 3]])
    path.write_text(json.dumps({"n": 3, "ranks": list(table.ranks)}))
    code, out, _ = run_cli(capsys, "op", "dual", "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    from conftest import TWO_BASIS_DUAL, ranks_from_labels

    assert tuple(payload["ranks"]) == ranks_from_labels(3, TWO_BASIS_DUAL)
    assert payload["kind"] == "matroid"


def test_op_contract_labels(capsys):
    code, out, _ = run_cli(
        capsys,
        "op", "contract", "--in", str(FIXTURES / "full_rank2_n3.json"),
        "--elements", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [0, 1, 1, 2]
    assert payload["labels"] == [1, 2]


def test_op_elongate_to_top(capsys):
    code, out, _ = run_cli(
        capsys,
        "op", "elongate", "--in", str(FIXTURES / "full_rank2_n3.json"), "--i", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [core.popcount(m) for m in range(8)]


def test_op_elongate_on_a_combinatroid_is_an_input_error(tmp_path, capsys):
    # Only a demimatroid has elongations: like an out-of-range --i, the
    # input is at fault, so the exit is 2, not the exit 1 of a failed check.
    path = tmp_path / "combinatroid.json"
    path.write_text(json.dumps({"n": 2, "ranks": [0, 2, 0, 1]}))
    code, out, err = run_cli(capsys, "op", "elongate", "--in", str(path), "--i", "0")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "malformed-input",
        "detail": "elongation needs a demimatroid, table certifies combinatroid",
    }


def test_converters(capsys):
    code, out, _ = run_cli(capsys, "from-wei", "--in", str(FIXTURES / "wei_n3.json"))
    assert code == 0
    assert json.loads(out)["ranks"] == [0, 0, 0, 1, 0, 1, 1, 2]

    code, out, _ = run_cli(
        capsys, "from-graph", "--in", str(FIXTURES / "almost_wheel_graph.json")
    )
    assert code == 0
    assert json.loads(out)["kind"] == "demimatroid"

    code, out, _ = run_cli(
        capsys, "from-code", "--in", str(FIXTURES / "hamming_8_4.json")
    )
    assert code == 0
    assert json.loads(out)["kind"] == "matroid"

    code, out, _ = run_cli(
        capsys, "from-facets", "--in", str(FIXTURES / "simplex_n3.json")
    )
    assert code == 0
    assert json.loads(out)["ranks"] == [core.popcount(m) for m in range(8)]

    # converter verb against the wrong payload type is a usage error
    code, _, err = run_cli(
        capsys, "from-graph", "--in", str(FIXTURES / "wei_n3.json")
    )
    assert code == 2


def test_from_facets_on_the_void_complex_exits_2(tmp_path, capsys):
    path = tmp_path / "void.json"
    path.write_text(json.dumps({"n": 2, "facets": []}))
    code, out, err = run_cli(capsys, "from-facets", "--in", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "malformed-input",
                               "detail": "the void complex has no rank table"}


def test_verify_battery_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "1", "--n", "4", "--samples", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(v["passes"] == 3 for v in payload["identities"].values())


@pytest.mark.parametrize("seed, n", [(1, 5), (2, 7), (4, 10)])
def test_the_battery_report_matches_its_golden_bytes(capsys, seed, n):
    # The reports pin every verdict of the battery, and n = 10 runs the
    # sampler's strides 2^7 and above.  A report holds only counts, so the
    # draws themselves are pinned by test_core's randint check.
    code, out, err = run_cli(capsys, "verify", "--seed", str(seed), "--n", str(n),
                             "--samples", "20")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"battery_seed{seed}_n{n}.json").read_bytes()


@pytest.mark.parametrize("field", ["Q", "2", "3"])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda path: path.stem)
def test_the_compute_all_report_matches_its_golden_bytes(capsys, monkeypatch, path, field):
    # Every block of the report, not only the keys a fixture's ``expected``
    # freezes: the MacWilliams and conjecture blocks, Wei, Whitney and the
    # route flags too.  The manifest names the input as given, relative here.
    monkeypatch.chdir(FIXTURES.parent)
    code, out, err = run_cli(capsys, "compute", "--in", f"fixtures/{path.name}", "--all",
                             "--field", field)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"compute_all_{field}" / path.name).read_bytes()


@pytest.mark.parametrize("argv, homology_cap", [
    (("--n", "99", "--samples", "1"), None),
    (("--n", "0"), None),
    (("--samples", "0"), None),
    (("--samples", "-3"), None),
    # a lowered cap keeps the run small; the battery's Betti route needs it
    (("--n", "5", "--samples", "1"), 4),
], ids=["n-over-cap", "n-zero", "samples-zero", "samples-negative",
        "n-over-homology-cap"])
def test_verify_rejects_bad_run_size(capsys, monkeypatch, argv, homology_cap):
    if homology_cap is not None:
        monkeypatch.setattr(core, "HOMOLOGY_CAP", homology_cap)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "malformed-input"


@pytest.mark.parametrize("argv", [
    ("compute", "--in", str(FIXTURES / "uniform_4_2.json"), "--bogus"),
    ("verify", "--n", "abc"),
    (),
    # A flag the mode does not read is an error, not ignored: the battery's
    # Betti law runs over Q, and --fixtures reads no run size.
    ("verify", "--seed", "1", "--n", "3", "--samples", "1", "--field", "4"),
    ("verify", "--seed", "1", "--n", "3", "--samples", "1", "--field", "3"),
    ("verify", "--fixtures", str(FIXTURES), "--n", "99"),
    ("op", "delete", "--in", str(FIXTURES / "vamos.json"), "--elements", "a"),
    # argparse's choices reject a verb cmd_op has no branch for.
    ("op", "transpose", "--in", str(FIXTURES / "vamos.json")),
], ids=["unknown-flag", "non-integer-n", "missing-verb", "battery-field-not-prime",
        "battery-field-not-q", "fixtures-with-n", "non-integer-elements", "unknown-verb"])
def test_usage_errors_exit_2_with_the_error_json(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "malformed-input"
    if "--elements" in argv:
        assert json.loads(err)["detail"] == (
            "demimat op: argument --elements: expects comma-separated element numbers")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--help"])
    assert exc.value.code == 0
    assert "--all" in capsys.readouterr().out


def test_parser_is_built_once_and_dispatches_at_call_time(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ("compute", "--in", str(FIXTURES / "uniform_4_2.json"), "--tutte")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["results"]["tutte"]
    seen = []
    monkeypatch.setattr(cli, "cmd_compute", lambda args: seen.append(args.input) or 0)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == ""
    assert seen == [str(FIXTURES / "uniform_4_2.json")]


def test_verify_fixtures_mode(capsys):
    for field in ("Q", "2", "3"):
        code, out, _ = run_cli(capsys, "verify", "--fixtures", str(FIXTURES), "--field", field)
        assert code == 0, field
        payload = json.loads(out)
        assert payload["ok"] is True and payload["files"] >= 15, field


def test_verify_fixtures_detects_drift(tmp_path, capsys):
    broken = {
        "n": 2,
        "ranks": [0, 1, 1, 2],
        "expected": {"tutte": "y^2"},
    }
    (tmp_path / "broken.json").write_text(json.dumps(broken))
    code, out, _ = run_cli(capsys, "verify", "--fixtures", str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"]
    assert "broken.json" in payload["problems"][0]


def test_verify_fixtures_reports_a_golden_the_input_does_not_have(tmp_path, capsys):
    # A combinatroid has no Wei hierarchy, no Betti tables and here no Laurent
    # Tutte polynomial: each golden is that fixture's problem, and the run
    # goes on to check the other fixture.
    (tmp_path / "vamos.json").write_text((FIXTURES / "vamos.json").read_text())
    combinatroid = {"n": 2, "ranks": [0, 2, 0, 1],
                    "expected": {"d": [1], "betti": [], "tutte": "x"}}
    (tmp_path / "a_combinatroid.json").write_text(json.dumps(combinatroid))
    code, out, err = run_cli(capsys, "verify", "--fixtures", str(tmp_path))
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert (payload["files"], payload["ok"]) == (2, False)
    lacks = "needs a demimatroid, table certifies combinatroid"
    assert payload["problems"] == [
        f"a_combinatroid.json: d: KindError: Wei hierarchy {lacks}",
        f"a_combinatroid.json: betti: KindError: elongation Betti tables {lacks}",
        "a_combinatroid.json: tutte: RationalFunctionError: negative corank or nullity:"
        " the Tutte sum is a genuine rational function, which is outside Laurent scope",
    ]


def test_verify_fixtures_reads_a_field_suffix_only_on_betti(tmp_path, capsys):
    # Each key holds its bare key's golden, so only the key itself is wrong.
    fixture = json.loads((FIXTURES / "almost_wheel.json").read_text())
    expected = fixture["expected"]
    fixture["expected"] = {"tutte/2": expected["tutte"], "kind/7": expected["kind"],
                           "betti/": expected["betti"]}
    (tmp_path / "almost_wheel.json").write_text(json.dumps(fixture))
    code, out, _ = run_cli(capsys, "verify", "--fixtures", str(tmp_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["problems"] == [f"almost_wheel.json: unknown expected key {key!r}"
                                   for key in ("tutte/2", "kind/7", "betti/")]


def test_malformed_input_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "compute", "--in", str(bad), "--all")
    assert code == 2
    bad.write_text(json.dumps({"n": 2, "ranks": [0, 1, 1]}))
    code, _, err = run_cli(capsys, "compute", "--in", str(bad), "--all")
    assert code == 2
    bad.write_text(json.dumps({"mystery": 1}))
    code, _, err = run_cli(capsys, "compute", "--in", str(bad), "--all")
    assert code == 2


@pytest.mark.parametrize(
    "payload, extra",
    [
        ({"ranks": [0, 1]}, ()),
        ({"n": 1, "ranks": ["a", 1]}, ()),
        ({"n": 2, "facets": [[1, "x"]]}, ()),
        ({"n": 3, "edges": [[1, 2, 3]]}, ()),
        ({"n": 3, "edges": [[1, 2], [2, 2]]}, ()),
        ({"p": 2, "rows": [1, 0]}, ()),
        ({"n": 2, "ranks": [0, 1, 1, 2]}, ("--field", "Z")),
        (None, ("--field", "Z")),
        ({"n": 25, "ranks": [0]}, ()),
        # 18446744073709551629 is the first prime above 2^64
        ({"p": 18446744073709551629, "rows": [[1]]}, ()),
        ({"n": 2, "ranks": [0, 1, 1, 2]}, ("--field", "18446744073709551629")),
        # 2^30 column subsets: the cap must come before the first elimination
        ({"p": 2, "rows": [[1] * 30]}, ()),
        # no facets: neither a rank table nor a face to count
        ({"n": 2, "facets": []}, ()),
    ],
    ids=["no-n", "string-rank", "string-vertex", "triple-edge", "self-loop", "flat-rows",
         "compute-field", "verify-field", "over-ground-set-cap", "20-digit-p",
         "20-digit-field", "code-over-ground-set-cap", "void-complex"],
)
def test_malformed_input_exits_2(tmp_path, monkeypatch, capsys, payload, extra):
    eliminations: dict[str, int] = {}
    count_calls(monkeypatch, codes, "rref_mod_p", eliminations)
    if payload is None:
        argv = ["verify", "--fixtures", str(FIXTURES), *extra]
    else:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        argv = ["compute", "--in", str(path), "--all", *extra]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "malformed-input"
    if payload == {"n": 2, "facets": []}:
        assert json.loads(err)["detail"] == "the void complex has no invariant to compute"
    assert eliminations == {}


def _input_file(tmp_path, content: bytes) -> list[str]:
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    return ["compute", "--in", str(path), "--all"]


def _unreadable_file(tmp_path, monkeypatch) -> list[str]:
    argv = _input_file(tmp_path, b"{}")
    path = argv[2]
    os.chmod(path, 0)
    if os.access(path, os.R_OK):  # a superuser reads it anyway: refuse as the OS would
        real_open = builtins.open

        def refuse(file, *args, **kwargs):
            if str(file) == path:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refuse)
    return argv


def _fixture_directory(tmp_path, monkeypatch) -> list[str]:
    (tmp_path / "looks_like_a_fixture.json").mkdir()
    return ["verify", "--fixtures", str(tmp_path)]


@pytest.mark.parametrize("make_argv, detail", [
    (lambda tmp_path, _: ["compute", "--in", str(FIXTURES), "--all"], "cannot read"),
    (lambda tmp_path, _: _input_file(tmp_path, b"\xff\xfe{}"), "invalid JSON"),
    (lambda tmp_path, _: _input_file(tmp_path, b"[" * 100000), "invalid JSON"),
    (lambda tmp_path, _: _input_file(tmp_path, b'{"n": ' + b"7" * 5000 + b"}"), "invalid JSON"),
    (_unreadable_file, "cannot read"),
    (_fixture_directory, "cannot read"),
    (lambda tmp_path, _: ["verify", "--fixtures", str(tmp_path / "missing")], "no fixture files"),
    (lambda tmp_path, _: ["verify", "--fixtures", str(tmp_path)], "no fixture files"),
    (lambda tmp_path, _: ["verify", "--fixtures", str(FIXTURES / "uniform_4_2.json")],
     "no fixture files"),
], ids=["directory", "not-utf8", "deep-nesting", "long-integer", "unreadable",
        "fixture-directory", "missing-fixture-directory", "empty-fixture-directory",
        "fixture-file-for-directory"])
def test_unreadable_input_exits_2_without_a_traceback(tmp_path, monkeypatch, capsys, make_argv,
                                                      detail):
    code, out, err = run_cli(capsys, *make_argv(tmp_path, monkeypatch))
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "malformed-input"
    assert report["detail"].startswith(detail)


def _count_computations(monkeypatch, module, name, counts):
    # Count the values a per-table memoized function computes, not its calls:
    # a call answered from the table's memo never reaches ``counted``.
    compute = getattr(module, name).__wrapped__

    @functools.wraps(compute)
    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return compute(*args)

    monkeypatch.setattr(module, name, core.per_table(counted))


def test_compute_all_runs_each_route_once(monkeypatch, capsys):
    # vamos: n = 8, eta = 4, so the five elongation Betti tables come from
    # one filtration walk; the P_j family is built once, from one count of
    # the subsets by (size, nullity), and the P_j route and the A_j read it.
    # W is computed for vamos and for its dual (MacWilliams), and the W^(r)
    # family once.  W is expanded once per table, by the subset sum: the
    # Tutte route and the definition route of every W^(r) read that W, and
    # the MacWilliams and Tutte recoveries compare coordinates.
    counts: dict[str, int] = {}
    count_calls(monkeypatch, simplicial, "_betti_walk", counts)
    count_calls(monkeypatch, hamming, "w_basis", counts)
    for module, name in ((simplicial, "betti_of_elongations"), (hamming, "pj_family"),
                         (hamming, "hamming_subset_sum"), (hamming, "generalized_w_all"),
                         (tutte, "tutte"), (ops, "dual")):
        _count_computations(monkeypatch, module, name, counts)
    code, out, _ = run_cli(capsys, "compute", "--in", str(FIXTURES / "vamos.json"), "--all")
    assert code == 0
    assert counts == {"betti_of_elongations": 1, "_betti_walk": 1, "pj_family": 1,
                      "hamming_subset_sum": 2, "w_basis": 2, "generalized_w_all": 1,
                      "tutte": 1, "dual": 1}
    results = json.loads(out)["results"]
    assert all(results["hamming"]["routes"].values())
    assert results["betti"]["agrees_with_subset_sum"] is True
    assert results["ghwe"]["definition_route_agrees"] is True


def test_profile_is_computed_once_per_table(profile_calls, capsys):
    # vamos: the Tutte, Whitney, characteristic, W, MacWilliams, Wei and
    # fullness entries all read size-rank profiles, which were 25 separate
    # 2^n scans.  Only vamos, its dual (memoized on vamos, so MacWilliams and
    # the Wei duality share it) and the nullity table of the uniformity test
    # are scanned, once each.
    code, _, _ = run_cli(capsys, "compute", "--in", str(FIXTURES / "vamos.json"), "--all")
    assert code == 0
    assert len({id(ranks) for ranks in profile_calls}) == len(profile_calls)
    assert len(profile_calls) == 3 and len(set(profile_calls)) == 3


def test_the_closed_forms_of_a_full_table_count_no_profile(profile_calls, capsys):
    # uniform(4,2): its nullity table N is full, so the uniformity test checks
    # N, N's dual, nullity and supplement against their closed forms.  Those
    # compare bytes, so the only profiles are T's, T*'s and N's, the last for
    # N's Wei numbers.  T is self-dual, so T and T* have the same ranks.
    code, _, _ = run_cli(capsys, "compute", "--in", str(FIXTURES / "uniform_4_2.json"), "--all")
    assert code == 0
    t = tuple(min(m.bit_count(), 2) for m in range(16))
    nullity = tuple(max(m.bit_count() - 2, 0) for m in range(16))
    assert len({id(ranks) for ranks in profile_calls}) == len(profile_calls)
    assert sorted(profile_calls) == sorted([t, t, nullity])


def test_a_failing_wei_duality_exits_1_naming_it(monkeypatch, capsys):
    # Each lower Wei number one too large, as the battery's planted fault.
    original = weights.wei_hierarchy
    monkeypatch.setattr(weights, "wei_hierarchy",
                        lambda t: original(t)._replace(d=tuple(v + 1 for v in original(t).d)))
    code, out, err = run_cli(capsys, "compute", "--in", str(FIXTURES / "uniform_4_2.json"),
                             "--wei")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "InvariantViolationError",
                               "detail": "the lower Wei duality fails"}


def test_betti_sweeps_build_no_complex_per_restriction(monkeypatch, capsys):
    # vamos: the walk reads the five elongation complexes off the nullities,
    # so no complex is built at all.  A matroid's restrictions have F_2
    # homology in degrees of one parity (its elongations are shellable), so
    # the F_2 kernel certifies every rank over Q: no column is reduced over Q.
    counts: dict[str, int] = {}
    for name in ("rank_sparse_columns", "rank_bit_columns"):
        count_calls(monkeypatch, simplicial, name, counts)
    count_calls(monkeypatch, core.Complex, "build", counts)
    code, _, _ = run_cli(capsys, "compute", "--in", str(FIXTURES / "vamos.json"), "--all")
    assert code == 0
    assert counts.get("build", 0) == 0
    assert counts.get("rank_sparse_columns", 0) == 0
    assert counts["rank_bit_columns"] > 0


def test_betti_route_disagreement_names_witness(tmp_path, monkeypatch, capsys):
    # Put one extra beta_{0,0} into the last elongation's table: only the top
    # t-slice of the Betti route changes, by x^n t^eta.  W sums the degree i
    # away, so the witness is that monomial, not a Betti entry.
    table = core.from_wei_sequence(3, [2, 3])
    original = simplicial.betti_of_elongations

    def off_by_one(t, fieldspec):
        tables = original(t, fieldspec)
        last = dict(tables[-1].entries)
        last[(0, 0)] = last.get((0, 0), 0) + 1
        return (*tables[:-1], simplicial.BettiTable.from_dict(last))

    monkeypatch.setattr(simplicial, "betti_of_elongations", off_by_one)
    message = "W: the Betti and subset-sum routes disagree first at x^3*t (1 against 0)"
    with pytest.raises(InvariantViolationError) as exc:
        simplicial.w_via_betti(table, simplicial.RATIONALS)
    assert str(exc.value) == message

    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 3, "ranks": list(table.ranks)}))
    code, out, err = run_cli(capsys, "compute", "--in", str(path), "--hamming")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "InvariantViolationError", "detail": message}


def test_compute_all_reports_kind_errors_per_block(tmp_path, capsys):
    # A combinatroid whose Tutte sum is a rational function and which is not
    # a demimatroid: those blocks record their error, the rest still report.
    path = tmp_path / "combinatroid.json"
    path.write_text(json.dumps({"n": 2, "ranks": [0, 1, 2, 1]}))
    code, out, _ = run_cli(capsys, "compute", "--in", str(path), "--all")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["kind"] == "combinatroid"
    assert results["tutte"]["error"] == "RationalFunctionError"
    assert results["charpoly"]["error"] == "KindError"
    assert results["betti"] == {
        "error": "KindError",
        "detail": "elongation Betti tables needs a demimatroid, table certifies combinatroid",
    }
    assert results["whitney"] == "x^-1*y^-1 + 1 + x + y"


def test_compute_hamming_reports_w_for_a_combinatroid(tmp_path, capsys):
    # A combinatroid has no Betti route; the other routes still check W, and
    # only the Betti entry records the KindError.
    path = tmp_path / "combinatroid.json"
    path.write_text(json.dumps({"n": 2, "ranks": [0, 1, 2, 1]}))
    code, out, _ = run_cli(capsys, "compute", "--in", str(path), "--hamming")
    assert code == 0
    block = json.loads(out)["results"]["hamming"]
    assert block == {
        "w": "x*y*t^-1 - y^2*t^-1 + x^2 - x*y + y^2*t",
        "routes": {
            "tutte_route": True,
            "pj_route": True,
            "betti_route": {
                "error": "KindError",
                "detail": "elongation Betti tables needs a demimatroid,"
                          " table certifies combinatroid",
            },
        },
        "delta": None,
        "c": None,
        "a": {},
    }


def test_compute_all_on_a_complex_shares_one_table(monkeypatch, capsys):
    # The loader and both f-polynomial routes read the one demimatroid
    # memoized on the complex, so its Tutte polynomial and W are computed
    # once; the second W is the dual's, for MacWilliams.
    counts: dict[str, int] = {}
    for module, name in ((core, "complex_to_demimatroid"), (tutte, "tutte"),
                         (hamming, "hamming_subset_sum")):
        _count_computations(monkeypatch, module, name, counts)
    path = FIXTURES / "chain_complex_n5.json"
    code, _, _ = run_cli(capsys, "compute", "--in", str(path), "--all")
    assert code == 0
    assert counts == {"complex_to_demimatroid": 1, "tutte": 1, "hamming_subset_sum": 2}


def test_compute_all_over_the_homology_cap_reports_the_other_blocks(monkeypatch, capsys):
    # vamos has n = 8: over a homology cap of 4, only the Betti route and the
    # Betti block record the cap; every homology-free block still reports.
    monkeypatch.setattr(core, "HOMOLOGY_CAP", 4)
    code, out, _ = run_cli(capsys, "compute", "--in", str(FIXTURES / "vamos.json"), "--all")
    assert code == 0
    results = json.loads(out)["results"]
    over_cap = {
        "error": "SizeCapError",
        "detail": "homology on 8 vertices exceeds cap 4"
                  " (raise demimat.core.HOMOLOGY_CAP to override)",
    }
    assert results["betti"] == over_cap
    assert results["hamming"]["routes"] == {
        "tutte_route": True, "pj_route": True, "betti_route": over_cap,
    }
    assert [name for name, block in results.items()
            if isinstance(block, dict) and block.get("error")] == ["betti"]
    assert results["ghwe"]["definition_route_agrees"] is True
    assert results["conjecture"] is True
    assert results["wei"]["wei_duality"] is True


def test_compute_over_the_ground_set_cap_still_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(core, "GROUND_SET_CAP", 4)
    code, out, err = run_cli(capsys, "compute", "--in", str(FIXTURES / "vamos.json"), "--all")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "malformed-input",
        "detail": "ground set of size 8 exceeds cap 4"
                  " (raise demimat.core.GROUND_SET_CAP to override)",
    }


def test_compute_all_still_fails_on_route_disagreement(tmp_path, monkeypatch, capsys):
    original = simplicial.betti_of_elongations

    def off_by_one(t, fieldspec):
        tables = original(t, fieldspec)
        first = dict(tables[0].entries)
        first[(0, 0)] += 1
        return [simplicial.BettiTable.from_dict(first), *tables[1:]]

    monkeypatch.setattr(simplicial, "betti_of_elongations", off_by_one)
    code, out, err = run_cli(capsys, "compute", "--in", str(FIXTURES / "vamos.json"), "--all")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "InvariantViolationError"


def test_betti_sweeps_skip_faces_and_reduce_the_smaller_side(monkeypatch, capsys):
    # The one walk visits sigma in ascending order and, for each r below
    # sigma's nullity, where sigma is a non-face of the r-th elongation
    # complex, counts the smaller of the restriction and its Alexander dual.
    # A face restricts to a full simplex and is never visited.  A side with
    # no edge is read off its size: one of at most three members is not
    # listed at all, a larger one only as far as its bare vertices.  Every
    # other side is listed and reaches ``_homology_dims``.  One with no face
    # above its edges (a graph) is answered from its vertex count and
    # connected components, with no kernel run; every other side is
    # reduced, with at most half of sigma's 2^|sigma| submasks, all inside
    # sigma.
    table = cli.load_input(str(FIXTURES / "vamos.json")).table
    elongation_complexes = [independence_complex(ops.elongate(table, r))
                            for r in range(table.total_nullity + 1)]
    listed: list[tuple[int, int, int, list[list[int]] | None]] = []
    homology_calls: list[tuple[list[list[int]], bool]] = []
    kernel_runs: list[int] = []
    restrictions, homology, dims = (
        simplicial._restrictions, simplicial._homology_dims, simplicial._dims)

    def recorded_restrictions(*args):
        for sigma, r, dual, size, layers in restrictions(*args):
            listed.append((sigma, r, size, layers))
            yield sigma, r, dual, size, layers

    def recorded_homology(layers, *args):
        runs = len(kernel_runs)
        result = homology(layers, *args)
        homology_calls.append((layers, len(kernel_runs) > runs))
        return result

    def recorded_dims(*args):
        kernel_runs.append(1)
        return dims(*args)

    monkeypatch.setattr(simplicial, "_restrictions", recorded_restrictions)
    monkeypatch.setattr(simplicial, "_homology_dims", recorded_homology)
    monkeypatch.setattr(simplicial, "_dims", recorded_dims)
    code, _, _ = run_cli(capsys, "compute", "--in", str(FIXTURES / "vamos.json"), "--all")
    assert code == 0
    visited = [(sigma, r) for sigma in range(1 << table.n) for r in range(nullity(table, sigma))]
    assert [(sigma, r) for sigma, r, _, _ in listed] == visited
    assert len(visited) == 145
    assert [layers for layers, _ in homology_calls] == [
        layers for _, _, _, layers in listed if layers is not None]
    calls = iter(homology_calls)
    for sigma, r, size, layers in listed:
        assert sigma not in elongation_complexes[r]
        faces = [x for x in core.submasks(sigma) if nullity(table, x) <= r]
        if 2 * len(faces) > 2 ** core.popcount(sigma):
            faces = [sigma ^ x for x in core.submasks(sigma) if nullity(table, x) > r]
        assert size == len(faces)
        top = max(map(core.popcount, faces))
        assert (layers is None) == (top < 2)
        if layers is not None:
            _, reduced = next(calls)
            assert reduced == (top > 2)
            if reduced:
                assert all(not f & ~sigma for layer in layers for f in layer)
                assert sum(map(len, layers)) <= 2 ** (core.popcount(sigma) - 1)
    counted = sum(layers is None and size <= 3 for _, _, size, layers in listed)
    bare = sum(layers is None and size > 3 for _, _, size, layers in listed)
    reduced_count = sum(reduced for _, reduced in homology_calls)
    assert (counted, bare, len(homology_calls)) == (98, 13, 34)
    assert (len(homology_calls) - reduced_count, reduced_count, len(kernel_runs)) == (25, 9, 9)


def test_a_closed_pipe_exits_141_without_a_traceback():
    # The pipe's read end closes before the battery writes its report, as
    # ``demimat verify ... | head -c 1`` does once head has its byte.
    proc = subprocess.Popen(
        [sys.executable, "-m", "demimat", "verify", "--seed", "2", "--n", "7", "--samples", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_a_rank_far_outside_the_ground_set_is_recorded_in_compute(tmp_path, capsys):
    # Exponents of any size are exact, so the combinatroid gets its W; the
    # routes and blocks it does not have record their errors.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "ranks": [0, 1000000]}))
    code, out, _ = run_cli(capsys, "compute", "--in", str(path), "--all")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["hamming"]["w"] == "y*t^-999999 + x - y"
    assert results["hamming"]["routes"]["tutte_route"] is True
    assert results["hamming"]["routes"]["betti_route"]["error"] == "KindError"
    assert results["tutte"]["error"] == "RationalFunctionError"


WIDE_TUTTE = {"n": 2, "ranks": [0, -600, 0, 2]}


def test_a_tutte_product_above_the_term_bound_is_recorded_in_compute(tmp_path, capsys):
    # Corank 602 and nullity 601: (x-1)^602 (y-1)^601 has more terms than
    # any demimatroid's product.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE_TUTTE))
    code, out, _ = run_cli(capsys, "compute", "--in", str(path), "--all")
    assert code == 0
    assert json.loads(out)["results"]["tutte"]["error"] == "ExponentRangeError"


def test_a_golden_out_of_exponent_range_exits_2(tmp_path, capsys):
    (tmp_path / "wide.json").write_text(json.dumps({**WIDE_TUTTE, "expected": {"tutte": "x"}}))
    code, out, err = run_cli(capsys, "verify", "--fixtures", str(tmp_path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "malformed-input"


def test_a_betti_golden_over_the_homology_cap_exits_2(tmp_path, capsys):
    # n = 17 is inside the ground-set cap and one over the homology cap.
    fixture = {"n": 17, "d": [17], "expected": {"betti": []}}
    (tmp_path / "wide.json").write_text(json.dumps(fixture))
    code, out, err = run_cli(capsys, "verify", "--fixtures", str(tmp_path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": "malformed-input",
        "detail": "homology on 17 vertices exceeds cap 16"
                  " (raise demimat.core.HOMOLOGY_CAP to override)",
    }


@pytest.mark.parametrize("verb", [
    ["compute", "--in", str(FIXTURES / "uniform_4_2.json"), "--tutte"],
    ["verify", "--seed", "1", "--n", "3", "--samples", "1"],
    ["op", "dual", "--in", str(FIXTURES / "uniform_4_2.json")],
], ids=["compute", "verify", "op"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_an_unwritable_out_path_exits_2(tmp_path, capsys, verb, target):
    out_path = tmp_path if target == "directory" else tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, *verb, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "malformed-input"


_TRICKY_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                                 st.characters()))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
              st.integers(), st.integers(-10 ** 300, 10 ** 300), _TRICKY_TEXT),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_TRICKY_TEXT, children, max_size=4)),
    max_leaves=20)


def _written(value) -> str:
    parts: list[str] = []
    cli._write_json(value, "", parts)
    return "".join(parts)


@given(_JSON_VALUES)
def test_the_report_writer_spells_values_as_an_indented_dump(value):
    assert _written(value) == json.dumps(value, indent=2)


def test_the_report_writer_keeps_booleans_apart_from_zero_and_one():
    value = {"a": [True, 1, False, 0, None, [], {}], "": {"b": [[]]}}
    assert _written(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1,), {"a": [0, 2.0]}, {"a": (0,)}, {1: 0}, {None: 0}],
                         ids=repr)
def test_the_report_writer_rejects_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        _written(value)
