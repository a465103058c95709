"""Solver benchmark: one workload, a closed loop, checked outputs, one JSON line.

    python3 benchmarks/bench.py --workload conv-example1 --seed 0 --seconds 38 --trace 0

One caller makes back-to-back calls into the public ``sobrlw`` API for
``--seconds`` seconds (at least one unit) and checks every output against
``pins.json``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced units and reports the per-layer split (see
tracing.py).  The last line of standard output is the JSON result; the full
record, with the machine facts and every sample, goes to
``benchmarks/results/``.  The library is imported from this checkout's
``src/``; without it the benchmark exits with an error and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(SRC))
try:
    import sobrlw
except ImportError as exc:
    raise SystemExit(f"bench: cannot import sobrlw from {SRC}: {exc}")
if SRC.resolve() not in Path(sobrlw.__file__).resolve().parents:
    raise SystemExit(f"bench: sobrlw was imported from {sobrlw.__file__}, "
                     f"not from {SRC}")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def setup_seconds(name: str, seed: int, probes: int) -> float:
    """Median over fresh processes of the time to import sobrlw and build
    the workload's problem, grid and config."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), name, str(seed)]
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_unit(wl, pins, call):
    """Time one unit; return (seconds, checked outputs or None, failure text)."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception:
        return time.perf_counter() - start, None, traceback.format_exc()
    wall = time.perf_counter() - start
    try:
        out = wl.outputs(result)
    except RuntimeError as exc:
        return wall, None, str(exc)
    bad = wl.mismatches(out, pins)
    return wall, out, f"outputs differ from pins: {bad}" if bad else ""


def measure(wl, pins, seconds: float, setup_probes: int = SETUP_PROBES) -> dict:
    """Untraced closed loop: the end-to-end metrics."""
    walls, failures = [], []
    start = time.perf_counter()
    while True:
        wall, _, failure = run_unit(wl, pins, wl.call)
        walls.append(wall)
        if failure:
            failures.append(failure)
        if time.perf_counter() - start >= seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The host runs this machine in a fast and a ~1.7x slower mode, phases of
    # 5-15 s, so the median of a run flips with the share of slow time (runs
    # spread by 17-30%); the fastest unit of a run spreads by 8-11%.
    best = min(walls)
    metrics = {"wall_s": best,
               "steps_per_s": wl.steps / best,
               "setup_s": setup_seconds(wl.name, wl.seed, setup_probes),
               "peak_rss_mb": peak_kib / 1024.0}
    return {"attempted": len(walls), "failures": failures, "metrics": metrics,
            "units": END_TO_END_UNITS, "walls": walls, "wall_stats": wall_stats(walls)}


def measure_traced(wl, pins, seconds: float, spans_path=None) -> dict:
    """Alternate untraced and traced units: the per-layer metrics.  The traced
    unit's outputs must be bit-identical to the untraced one's."""
    tracer = tracing.Tracer()
    twin = wl.with_wrap(tracer.wrap)
    run = tracer.wrap("scheme.run", sobrlw.run, tag=tracing.grid_size, keep=True)
    study = tracer.wrap("harness.study", sobrlw.convergence_study)
    plain_walls, traced_walls, failures = [], [], []
    start = time.perf_counter()
    while True:
        wall, plain_out, failure = run_unit(wl, pins, wl.call)
        plain_walls.append(wall)
        if failure:
            failures.append(failure)
        with tracer.unit_scope():
            wall, traced_out, failure = run_unit(twin, pins,
                                                 lambda: twin.call(run, study))
        traced_walls.append(wall)
        if not failure and traced_out != plain_out:
            failure = "traced outputs differ from untraced outputs"
        if failure:
            failures.append(failure)
        if time.perf_counter() - start >= seconds:
            break
    metrics, unsteady = tracing.combine(tracer.unit_metrics())
    metrics["trace.overhead_ratio"] = statistics.median(
        t / p for t, p in zip(traced_walls, plain_walls))
    if spans_path is not None:
        tracer.write(spans_path)
    return {"attempted": len(plain_walls) + len(traced_walls),
            "failures": failures, "metrics": metrics,
            "units": tracing.PER_LAYER_UNITS, "walls": plain_walls,
            "traced_walls": traced_walls, "unsteady_counts": unsteady,
            "missing_hooks": sorted(tracer.missing)}


def wall_stats(walls: list) -> dict:
    """Fastest, median, quartiles, sample count and the highest percentile
    that has at least ten samples above it (reported from 20 samples on)."""
    ordered = sorted(walls)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    stats = {"min": ordered[0], "median": statistics.median(ordered),
             "q1": q1, "q3": q3, "n": n}
    if n >= 20:
        rank = n - 10                       # 1-based; ten samples lie above it
        stats[f"p{100 * rank // n}"] = ordered[rank - 1]
    return stats


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "git_commit": git_commit(),
            "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    pins = workloads.load_pins(args.workload)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        res = measure_traced(wl, pins, args.seconds, stem.with_suffix(".spans.tsv"))
    else:
        res = measure(wl, pins, args.seconds)
    failed = len(res["failures"])
    correct = failed == 0 and not res.get("unsteady_counts")
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, failed=failed,
               fail_ratio=failed / res["attempted"],
               machine=machine_facts(args.seed))
    stem.with_suffix(".json").write_text(json.dumps(res, indent=1) + "\n")

    for failure in res["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if res.get("unsteady_counts"):
        print(f"FAILED: traced counts differ between units: "
              f"{res['unsteady_counts']}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"machine={json.dumps(res['machine'])}")
    if not args.trace:
        print(f"# wall_s stats: {json.dumps(res['wall_stats'])}")
    print(f"# fail_ratio = {res['fail_ratio']} "
          f"({failed} of {res['attempted']} units)")
    for name, value in res["metrics"].items():
        print(f"{name} = {value} {res['units'][name]}")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": failed,
        "metrics": {k: {"value": v, "unit": res["units"][k]}
                    for k, v in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
