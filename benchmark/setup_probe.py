"""Set-up of one workload in a fresh process, timed by ``run.py``.

Imports the modules a workload's replicates call and builds the
setting's constants with ``datagen.make_setting``: everything a run does
before its first sample is drawn.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cdgm import datagen, harness  # noqa: E402,F401

datagen.make_setting(sys.argv[1], seed=int(sys.argv[2]))
