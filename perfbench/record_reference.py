"""Record the program's outputs for the seeds the benchmark ships.

Usage, from the repository root:  python3 perfbench/record_reference.py

Runs one pass of every workload at each seed in SEEDS, requires it to pass
the reference-route checks, and writes perfbench/reference/<workload>.json.
Run it only at a commit whose outputs are the agreed reference: later
passes are compared against these values.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

run.pin_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402

SEEDS = (0, 1)


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        recorded = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                workload = cls(seed, Path(tmp))
                workload.reference = None
                workload.setup()
                items = workload.run_pass()
                attempted, failed, problems = workload.check(items)
            if failed or problems:
                print(f"{name} seed {seed}: {failed}/{attempted} items failed",
                      *problems[:10], sep="\n  ", file=sys.stderr)
                return 1
            recorded[str(seed)] = {it.key: workloads.reference_values(it)
                                   for it in items}
            print(f"{name} seed {seed}: {attempted} items recorded")
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
