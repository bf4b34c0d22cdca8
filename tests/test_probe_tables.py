"""``scripts/probe_tables.py`` lists a wrong builder and every layer it
breaks under ``failures``, prints its JSON and exits 1, never a traceback.
Its kind and P_j checks read the oracles of ``tests/oracles.py``, so a
planted fault in either layer is listed too."""

import importlib.util
import json

import pytest

from demimat import core, hamming, ops
from demimat.poly import T

from conftest import REPO

SCRIPT = REPO / "scripts" / "probe_tables.py"


@pytest.fixture
def probe(monkeypatch):
    """The probe script as a module, set to run on ``uniform(4,2)`` alone."""
    spec = importlib.util.spec_from_file_location("probe_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "TABLES", (("uniform(4,2)", 4, lambda: core.uniform(4, 2), True),))
    monkeypatch.setattr(module, "CODES", ())
    return module


def _failures(probe, capsys) -> list[str]:
    assert probe.main(["--max-n", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tables"][0]["input"] == "uniform(4,2)"
    return report["failures"]


def test_a_wrong_builder_and_the_layers_it_breaks_are_failures(probe, monkeypatch, capsys):
    assert probe.main(["--max-n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []

    dual = ops.dual.__wrapped__  # planted: every rank of the dual one too high
    monkeypatch.setattr(ops, "dual", core.per_table(
        lambda table: core.RankTable(table.n, tuple(r + 1 for r in dual(table).ranks))))
    failures = _failures(probe, capsys)
    assert "uniform(4,2): dual differs from its mask-by-mask definition" in failures
    assert any(f.startswith("uniform(4,2): check_wei_duality raised InvariantViolationError: ")
               for f in failures)


def _always_a_demimatroid(monkeypatch):
    monkeypatch.setattr(core, "_kind", lambda n, view: core.DEMIMATROID)


def _pj_family_off_by_t(monkeypatch):
    family = hamming.pj_family
    monkeypatch.setattr(hamming, "pj_family",
                        lambda table: (*family(table)[:-1], family(table)[-1] + T))


@pytest.mark.parametrize("plant, failure", [
    (_always_a_demimatroid, "kind differs from the mask-by-mask classification"),
    (_pj_family_off_by_t, "P_j family differs from the submask sums"),
], ids=["kind", "pj_family"])
def test_a_layer_that_differs_from_its_oracle_is_a_failure(probe, monkeypatch, capsys,
                                                          plant, failure):
    plant(monkeypatch)
    assert f"uniform(4,2): {failure}" in _failures(probe, capsys)
