"""``scripts/probe_tables.py`` lists a wrong builder and every layer it
breaks under ``failures``, prints its JSON and exits 1, never a traceback."""

import importlib.util
import json
from pathlib import Path

from demimat import core, ops

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "probe_tables.py"


def test_a_wrong_builder_and_the_layers_it_breaks_are_failures(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("probe_tables", SCRIPT)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    monkeypatch.setattr(probe, "TABLES", (("uniform(4,2)", 4, lambda: core.uniform(4, 2), True),))
    monkeypatch.setattr(probe, "CODES", ())
    assert probe.main(["--max-n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []

    dual = ops.dual.__wrapped__  # planted: every rank of the dual one too high
    monkeypatch.setattr(ops, "dual", core.per_table(
        lambda table: core.RankTable(table.n, tuple(r + 1 for r in dual(table).ranks))))
    assert probe.main(["--max-n", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tables"][0]["input"] == "uniform(4,2)"
    failures = report["failures"]
    assert "uniform(4,2): dual differs from its mask-by-mask definition" in failures
    assert any(f.startswith("uniform(4,2): check_wei_duality raised InvariantViolationError: ")
               for f in failures)
