"""Set-up in a fresh interpreter: import demimat and prepare one workload's
inputs, then exit.  ``run.py`` times whole runs of this script for ``setup_s``.

    python3 benchmark/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, import_program

root = Path(__file__).resolve().parent.parent
WORKLOADS[sys.argv[1]](root, int(sys.argv[2]), import_program(root))
