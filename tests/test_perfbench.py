"""The benchmark harness still runs against the program.

``perfbench/`` looks up the functions it times by module and name, so a
rename in ``src/`` breaks the benchmark without breaking any other test.
Its selftest runs every workload at a tiny size and fails on a missing name.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout.splitlines()
