"""Every walkthrough in demos/ runs to the end and prints its headline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

HEADLINES = {
    "entanglement_curves.py": "reference operating point (30 ns writing pulse):",
    "langevin_validation.py":
        "rotating-wave approximation on the mechanical conversion pulse:",
    "loss_channel_equivalence.py":
        "random 10-level state through the loss channel, three routes:",
    "transfer_walkthrough.py": "single-magnon transfer, 1 km",
}


# every script in demos/ is collected, so one without a headline fails
@pytest.mark.parametrize("script",
                         sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert HEADLINES[script] in proc.stdout.splitlines()
