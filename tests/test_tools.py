import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_artifact_digests_names_pythonpath_when_cdgm_is_missing(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if subprocess.run([sys.executable, "-c", "import cdgm"], env=env, cwd=tmp_path,
                      capture_output=True).returncode == 0:
        pytest.skip("cdgm is importable without PYTHONPATH")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
                         env=env, cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.count("\n") == 1
    assert f"PYTHONPATH={ROOT / 'src'}" in run.stderr


def test_artifact_digests_needs_the_blas_thread_count_pinned(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.count("\n") == 1
    assert "OPENBLAS_NUM_THREADS" in run.stderr
    assert not any(tmp_path.iterdir())
