"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Times importing ``magnomech``, building the workload's inputs (configs are
written to WORKDIR) and filling the module caches a pass uses, then prints
``{"setup_s": ...}``.  ``run.py`` starts it several times per run.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    import workloads
    workload = workloads.WORKLOADS[name](int(seed), Path(workdir))
    workload.setup()
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
