"""The benchmark's own tests, run as part of this suite.

``perfbench/probes.py`` wraps program functions by name when a run is traced,
so deleting or renaming one of them breaks only traced benchmark runs; the
benchmark's tests install those probes and catch it.  They run in a
subprocess because ``perfbench/tests/conftest.py`` would shadow this
directory's ``conftest`` module when both are collected in one pytest run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tests_pass():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
