"""Benchmark of the magnomech pipelines, end to end and per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json; ``workloads.py``
says why each workload exists.  Load is a closed loop: one client runs
passes of the workload back to back in this process.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over several fresh interpreters of importing the package, building the
inputs and filling the module caches.  After set-up, passes run until S
seconds of pass time have been measured, and ``wall_s`` is their median
(at least MIN_PASSES passes, so the median also discounts what is left
of cold costs in the first pass).  ``peak_rss_mb`` is the process's peak
resident memory over set-up and the passes, read before any output is
checked.  ``--trace 1`` runs one pass under tracemalloc
(``trace.peak_traced_mb``), then alternates untraced and spanned passes
and reports per-layer self times and exact counters (see ``tracing.py``);
counters must repeat exactly between spanned passes.

Every pass's outputs are checked (``workloads.py``).  The last line of
standard output is one JSON object: correct, attempted and failed item
counts, and the metrics.  A results file with the environment, every pass
time and, when tracing, every span is written under perfbench/out/.
BLAS threads are pinned to at most two, before numpy loads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
MIN_PASSES = 3
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
LAYERS = ("fock", "propagators", "channels", "metrics", "moments", "protocol",
          "cli")
# per-layer metrics that count work exactly and must repeat between passes
COUNTS = ("calls", "bytes", "elems", "steps", "hits", "misses")


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in _read(Path("/proc/cpuinfo")).splitlines()
                if ln.startswith("model name")), platform.processor())
    caches = {}     # per instance, as cpu0 sees them
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "note": "dense working sets (5-13 MB) fit in L3; bytes are computed "
                "from array sizes, not measured bandwidth",
    }


def setup_times(workload: str, seed: int, workdir: Path) -> list[float]:
    """Set-up time in SETUP_PROBES fresh interpreters, one after another."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed),
             str(probe_dir)],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


class Tally:
    """Attempted and failed items over every pass of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, items) -> None:
        attempted, failed, problems = self.workload.check(items)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def timed_pass(workload) -> tuple[float, list]:
    gc.collect()
    start = time.perf_counter()
    items = workload.run_pass()
    return time.perf_counter() - start, items


def measure(workload, tally: Tally, seconds: float) -> dict:
    """End-to-end metrics of passes after set-up, tracing off.

    Runs at least MIN_PASSES passes.  The outputs are checked only after
    the last pass, so that the peak resident memory, read before the
    checks, leaves out the reference routes' imports and arrays.
    """
    walls, outputs = [], []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        wall, items = timed_pass(workload)
        walls.append(wall)
        outputs.append(items)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for items in outputs:
        tally.add(items)
    return {"walls": walls, "peak_rss_mb": peak_kib * 1024 / 1e6}


def traced_peak(workload, tally: Tally) -> float:
    """tracemalloc peak of one untimed pass, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        items = workload.run_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.add(items)
    return peak / 1e6


def layer_metrics(own: dict, counts, wall: float, top: float,
                  eig_hits: int, eig_misses: int) -> dict:
    m = {}
    for name in ("metrics.log_negativity_fock", "fock.dm_init",
                 "propagators.squeeze", "metrics.log_negativity_gaussian"):
        m[f"{name}.calls"] = counts[f"{name}.calls"]
    m["metrics.log_negativity_fock.elems"] = counts["metrics.log_negativity_fock.elems"]
    m["fock.dm_init.bytes"] = counts["fock.dm_init.bytes"]
    for name in ("metrics.log_negativity_fock", "fock.dm_init", "fock.pair_exp_ket",
                 "fock.partial_transpose", "fock.truncation_leak",
                 "channels.loss_kraus_operators"):
        m[f"{name}.self_s"] = own.get(name, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for name, t in own.items()
                                   if name.startswith(layer + "."))
    kinds = ("moments.integrate.static", "moments.integrate.timedep")
    m["moments.integrate.calls"] = sum(counts[f"{k}.calls"] for k in kinds)
    m["moments.integrate.steps"] = sum(counts[f"{k}.steps"] for k in kinds)
    m["moments.integrate.static_s"] = own.get(kinds[0], 0.0)
    m["moments.integrate.timedep_s"] = own.get(kinds[1], 0.0)
    m["fock.eigensystem.hits"] = eig_hits
    m["fock.eigensystem.misses"] = eig_misses
    lookups = eig_hits + eig_misses
    m["fock.eigensystem.hit_ratio"] = eig_hits / lookups if lookups else 1.0
    m["trace.wall_s"] = wall
    m["trace.untraced_s"] = wall - top
    return m


def trace(workload, tally: Tally, seconds: float, setup_misses: int) -> dict:
    """Per-layer metrics: alternate untraced and spanned passes, at least two each."""
    import magnomech
    from magnomech import fock
    from tracing import Patcher, Tracer, instrument, self_times

    import workloads

    eigensystem = fock.pair_generator_eigensystem
    tracer = Tracer()
    peak_traced = traced_peak(workload, tally)    # also the warm-up pass
    untraced, per_pass = [], []
    while len(per_pass) < 2 or sum(untraced) + sum(p["trace.wall_s"]
                                                  for p in per_pass) < seconds:
        wall, items = timed_pass(workload)
        untraced.append(wall)
        tally.add(items)
        patcher = Patcher(workloads.program_modules())
        instrument(tracer, patcher, magnomech)
        tracer.pass_id = len(per_pass)
        before = eigensystem.cache_info()
        try:
            wall, items = timed_pass(workload)
        finally:
            patcher.remove()
        after = eigensystem.cache_info()
        tally.add(items)
        own, top = self_times(tracer.spans, tracer.pass_id)
        per_pass.append(layer_metrics(own, tracer.counts[tracer.pass_id], wall,
                                      top, after.hits - before.hits,
                                      after.misses - before.misses))
    exact = [{k: v for k, v in p.items() if k.rsplit(".", 1)[-1] in COUNTS}
             for p in per_pass]
    if any(e != exact[0] for e in exact[1:]):
        tally.problems.append(f"counters differ between passes: {exact}")
    metrics = {k: (exact[0][k] if k in exact[0]
                   else statistics.median(p[k] for p in per_pass))
               for k in per_pass[0]}
    metrics["fock.eigensystem.setup_misses"] = setup_misses
    metrics["trace.peak_traced_mb"] = peak_traced
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    spans = [[s.name, s.start, s.end, s.parent, s.pass_id] for s in tracer.spans]
    return {"metrics": metrics, "untraced_walls": untraced,
            "per_pass": per_pass, "spans": spans}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "magnomech" / "__init__.py").is_file():
        print(f"error: no magnomech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from magnomech import fock

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        setup = None if args.trace else setup_times(args.workload, args.seed,
                                                    workdir)
        (workdir / "run").mkdir()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "run")
        misses = fock.pair_generator_eigensystem.cache_info().misses
        workload.setup()
        setup_misses = fock.pair_generator_eigensystem.cache_info().misses - misses
        tally = Tally(workload)
        if args.trace:
            result = trace(workload, tally, args.seconds, setup_misses)
            values = result["metrics"]
        else:
            result = measure(workload, tally, args.seconds)
            q1, median, q3 = quartiles(result["walls"])
            result.update(setup_s=setup, wall_q1=q1, wall_q3=q3)
            values = {"wall_s": median, "setup_s": statistics.median(setup),
                      "peak_rss_mb": result["peak_rss_mb"]}

    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    correct = tally.failed == 0 and not tally.problems

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads {BLAS_THREADS}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  wall_s over {len(result['walls'])} passes: median "
              f"{values['wall_s']:.4f}, quartiles {result['wall_q1']:.4f} / "
              f"{result['wall_q3']:.4f} s; setup_s over {SETUP_PROBES} "
              f"interpreters")
    print(f"  error_rate {tally.failed}/{tally.attempted} items failed")
    for problem in tally.problems[:20]:
        print(f"  FAIL {problem}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "error_rate": tally.failed / max(tally.attempted, 1),
              "problems": tally.problems, "metrics": metrics, "detail": result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
