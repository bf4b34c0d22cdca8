"""What a fresh ``demimat`` process loads.

Every CLI call starts a new interpreter, so what importing the CLI pulls in
is paid on each call.  Under ``python -S`` (no site packages, which may
import ``typing`` themselves), importing ``demimat.cli`` loads none of
``dataclasses``, ``inspect``, ``typing``, ``random``, ``pathlib``,
``fractions``, ``decimal`` or ``numbers``, and no verb but the battery loads
``demimat.verify``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import demimat

from conftest import FIXTURES

SRC = Path(demimat.__file__).resolve().parent.parent
RANK_TABLE = FIXTURES / "uniform_4_2.json"
NOT_AT_IMPORT = ("dataclasses", "inspect", "typing", "demimat.verify", "random", "pathlib",
                 "fractions", "decimal", "numbers")

CHILD = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from demimat import cli
imported = sorted(set(sys.modules) - before)
stdout, sys.stdout = sys.stdout, io.StringIO()
compute = cli.main(["compute", "--in", sys.argv[2], "--all"])
verify_after_compute = "demimat.verify" in sys.modules
battery = cli.main(["verify", "--seed", "1", "--n", "3", "--samples", "1"])
sys.stdout = stdout
print(json.dumps({"imported": imported, "compute": compute,
                  "verify_after_compute": verify_after_compute,
                  "battery": battery, "verify_after_battery": "demimat.verify" in sys.modules}))
"""


@pytest.fixture(scope="module")
def child():
    run = subprocess.run([sys.executable, "-S", "-c", CHILD, str(SRC), str(RANK_TABLE)],
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_importing_the_cli_loads_no_dataclasses_inspect_typing_or_verify(child):
    assert "demimat.cli" in child["imported"]
    assert [m for m in NOT_AT_IMPORT if m in child["imported"]] == []


def test_compute_runs_without_loading_verify(child):
    assert child["compute"] == 0
    assert child["verify_after_compute"] is False


def test_the_battery_loads_verify(child):
    assert child["battery"] == 0
    assert child["verify_after_battery"] is True
