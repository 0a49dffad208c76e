"""The benchmark's own self-test, run as part of the test suite.

``perfbench/selftest.py`` drives the package through its tracer and CLI, so
a package change that breaks the benchmark fails here.  It writes only under
``perfbench/out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
