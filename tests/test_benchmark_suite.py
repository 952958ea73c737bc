"""The benchmark's own unit tests, run as part of this suite.

perfbench traces functions of the package by name, so renaming or deleting
one of them breaks `perfbench/run.py --trace 1`; its unit tests catch that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
