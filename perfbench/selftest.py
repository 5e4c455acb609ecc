"""Smoke test of the benchmark harness, not of the timings.

Usage, from the repository root:  python3 perfbench/selftest.py

Runs every workload at a tiny size (small truncation, a few points, one
QLE rung) through the untraced and the traced measurement and checks that
every item passes its checks, that a run makes at least the minimum
number of passes, that counters repeat exactly, that in each spanned pass
the per-layer self times recounted from the raw spans match the reported
ones and the program's spans cover nearly all of the pass wall time,
that the program's functions are restored after tracing, and that the benchmark refuses to run without the sources.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.pin_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import magnomech  # noqa: E402
import workloads  # noqa: E402

# the program's spans must cover all but this share of a spanned pass; the
# rest is the harness (config reads, CSV parsing, result capture)
MAX_UNTRACED_SHARE = 0.1


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bindings() -> dict:
    return {(mod.__name__, attr): value
            for mod in workloads.program_modules()
            for attr, value in vars(mod).items() if callable(value)}


def recount_self_times(spans: list, pass_id: int) -> dict:
    """Self time per layer of one pass, recounted from the raw spans."""
    own: dict = {}
    for index, (name, start, end, _, span_pass) in enumerate(spans):
        if span_pass != pass_id:
            continue
        children = sum(e - s for _, s, e, parent, _ in spans if parent == index)
        check(children <= end - start + 1e-9, f"children of {name} outlast it")
        layer = name.split(".")[0]
        own[layer] = own.get(layer, 0.0) + (end - start) - children
    return own


def smoke(name: str, workdir: Path) -> None:
    workload = workloads.WORKLOADS[name](0, workdir, smoke=True)
    workload.setup()
    tally = run.Tally(workload)
    measured = run.measure(workload, tally, seconds=0.0)
    check(len(measured["walls"]) == run.MIN_PASSES
          and measured["peak_rss_mb"] > 0.0,
          f"{name}: untraced measurement {measured}")
    before = bindings()
    init = magnomech.fock.FockDensityMatrix.__init__
    traced = run.trace(workload, tally, seconds=0.0, setup_misses=0)
    check(bindings() == before and
          magnomech.fock.FockDensityMatrix.__init__ is init,
          f"{name}: program functions not restored after tracing")
    check(tally.failed == 0 and not tally.problems,
          f"{name}: {tally.failed} failed items: {tally.problems[:5]}")
    spans = traced["spans"]
    for pass_id, layers in enumerate(traced["per_pass"]):
        own = recount_self_times(spans, pass_id)
        for layer in run.LAYERS:
            check(math.isclose(own.get(layer, 0.0), layers[f"{layer}.self_s"],
                               rel_tol=1e-9, abs_tol=1e-12),
                  f"{name}: {layer}.self_s {layers[f'{layer}.self_s']} != "
                  f"{own.get(layer, 0.0)} recounted from the spans")
        share = layers["trace.untraced_s"] / layers["trace.wall_s"]
        check(0.0 <= share <= MAX_UNTRACED_SHARE,
              f"{name}: spans cover {1.0 - share:.1%} of the pass")
    check(spans and all(s[1] <= s[2] for s in spans), f"{name}: bad spans")
    check(all(spans[s[3]][1] <= s[1] and s[2] <= spans[s[3]][2]
              for s in spans if s[3] >= 0), f"{name}: child outside parent")
    names = {s[0].split(".")[0] for s in spans}
    check(names <= set(run.LAYERS), f"{name}: spans outside the layers {names}")
    print(f"selftest {name}: {tally.attempted} items ok, {len(spans)} spans, "
          f"layers {sorted(names)}")


def refuses_without_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "qle_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"),
          f"ran without sources: exit {proc.returncode}, {last!r}")
    print("selftest: refuses to run without the sources")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name in workloads.WORKLOADS:
            (Path(tmp) / name).mkdir()
            smoke(name, Path(tmp) / name)
        refuses_without_sources(Path(tmp))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
