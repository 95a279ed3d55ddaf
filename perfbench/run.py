"""buqo benchmark: time-to-decision on three workloads, traced per layer.

Usage:
    python3 perfbench/run.py [--workload {all,grid-64,reuse-map-64,map-128}]
        --seed N --seconds S [--trace {0,1}]

Run from the root of a checkout. The benchmark imports buqo from the
checkout's ``src/`` and exits with code 2 when it is missing. One
process runs one workload, one hypothesis test at a time (a closed loop
with a single client); ``--workload all`` (the default) runs each
workload in turn, each in a fresh process.

--trace 0 sets up the workload in this fresh process, then runs timed
passes, starting another only while it would end within --seconds
(always at least one), and prints the end-to-end metrics. ``setup_s``
(importing buqo and generating the inputs) is the median of set-ups taken
before and after the passes: this process's own, and more in fresh
interpreters that run this script with --setup-only. --trace 1 runs the
kernel sweep, one pass without spans and one pass with spans recorded
around every layer, and prints the per-layer metrics. Every pass is
checked; a failed check counts as a failed operation, and the exit code
is 1 when any failed.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Spans, exact counts and provenance go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1   # steadier than sharing the cores with other tenants
SETUPS_BEFORE, SETUPS_AFTER = 1, 2   # fresh-interpreter set-ups around the passes
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("grid-64", "reuse-map-64", "map-128")


def prepare_environment() -> None:
    """One BLAS thread (before numpy loads), and src/ first on the path."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "buqo").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": commit or "unavailable (not a git checkout)",
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def fresh_setup(name: str) -> float:
    """Seconds to import buqo and set ``name`` up, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", "0", "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def compare_counts(name: str, counts: dict, seed: int) -> list[str]:
    """Compare exact counts with every earlier run of the same source.

    Counts are keyed by test and kind ("bright_fb.outer_iters"); runs of
    either trace mode add the keys they can see to one record per
    workload and source digest.
    """
    digest = source_digest()
    path = OUT / "counts" / f"{name}-{digest[:16]}.json"
    record = {}
    if path.exists():
        record = json.loads(path.read_text())
    mismatches = [f"{k}: {record[k]['value']!r} (seed {record[k]['seed']}) "
                  f"!= {v!r}" for k, v in counts.items()
                  if k in record and record[k]["value"] != v]
    for k, v in counts.items():
        record.setdefault(k, {"value": v, "seed": seed})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return mismatches


def untraced(args, workloads, work: Path, t0: float) -> tuple[dict, dict]:
    wl, setup_s = workloads.timed_setup(args.workload, work / "setup0", t0)
    setups = [setup_s] + [fresh_setup(args.workload) for _ in range(SETUPS_BEFORE)]
    ledger, counts, observed, walls = workloads.Ledger(), {}, {}, []
    mismatches = []
    started = perf_counter()
    while True:
        start = perf_counter()
        wl.run(work / f"out{len(walls)}")
        walls.append(perf_counter() - start)
        pass_counts = {}
        wl.check(ledger, pass_counts, observed)
        mismatches += [f"pass {len(walls)}: {k}" for k, v in pass_counts.items()
                       if k in counts and counts[k] != v]
        counts.update(pass_counts)
        if perf_counter() - started + walls[-1] > args.seconds:
            break
    setups += [fresh_setup(args.workload) for _ in range(SETUPS_AFTER)]
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"walls_s": walls, "setups_s": setups, "counts": counts, "observed": observed,
              "ledger": ledger, "mismatches": mismatches}
    return metrics, detail


def traced(args, workloads, work: Path, t0: float) -> tuple[dict, dict]:
    import sweep
    import spans

    wl, _ = workloads.timed_setup(args.workload, work / "setup0", t0)
    # the sweep goes first: it also warms the allocator and the kernels, so
    # the untraced pass is not the colder of the two passes compared
    kernel_metrics, kernel_computed = sweep.run_sweep(args.seed)
    ledger, counts, observed = workloads.Ledger(), {}, {}
    start = perf_counter()
    wl.run(work / "out_untraced")
    wall_untraced = perf_counter() - start
    wl.check(ledger, counts, observed)

    tracer = spans.Tracer()
    tracer.install()
    try:
        wl_t, _ = workloads.timed_setup(args.workload, work / "setup_traced", perf_counter())
        start = perf_counter()
        wl_t.run(work / "out_traced")
        wall_traced = perf_counter() - start
    finally:
        tracer.uninstall()
    traced_counts = {}
    wl_t.check(ledger, traced_counts, observed)
    traced_counts.update(tracer.test_counts(wl.test_names))
    mismatches = [f"traced pass: {k}" for k, v in traced_counts.items()
                  if k in counts and counts[k] != v]
    counts.update(traced_counts)

    layer = tracer.layer_metrics()
    layer["trace.overhead_s"] = wall_traced - wall_untraced
    layer.update(kernel_metrics)
    units = unit_table()
    metrics = {k: (v, units[k]) for k, v in layer.items()}
    spans_path = OUT / "traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({
        "spans": tracer.span_records(wl.test_names),
        "leaf_calls": {k: {"calls": c, "busy_s": b} for k, (c, b) in tracer.leaf.items()},
    }))
    detail = {"walls_s": {"untraced": wall_untraced, "traced": wall_traced},
              "counts": counts, "observed": observed, "ledger": ledger,
              "mismatches": mismatches, "spans_file": str(spans_path.relative_to(ROOT)),
              "computed": kernel_computed}
    return metrics, detail


def unit_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> int:
    """Each workload in a fresh process; one combined JSON line at the end."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the seconds it took, and exit")
    args = parser.parse_args(argv)

    if not (SRC / "buqo" / "__init__.py").is_file():
        print(f"error: no buqo sources under {SRC}; run from a buqo checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    t0 = perf_counter()
    prepare_environment()
    import workloads  # imports buqo: part of the set-up time

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            print(workloads.timed_setup(args.workload, work / "setup0", t0)[1])
            return 0
        run = traced if args.trace else untraced
        metrics, detail = run(args, workloads, work, t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = detail.pop("ledger")
    detail["mismatches"] += compare_counts(args.workload, detail["counts"], args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed),
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "attempted": ledger.attempted, "failures": ledger.failures, **detail}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1, default=str))

    failed = len(ledger.failures)
    for failure in ledger.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for mismatch in detail["mismatches"]:
        print(f"count mismatch: {mismatch}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"provenance {json.dumps(record['provenance'])}")
    computed = detail.get("computed", {})
    for key, (value, unit) in metrics.items():
        extra = ", ".join(f"{k} {v:.4g}" for k, v in computed.get(key, {}).items())
        print(f"  {key} = {value:.6g} {unit}" + (f" ({extra})" if extra else ""))
    print(f"  failed_frac = {failed / ledger.attempted:.6g} ratio "
          f"({failed} of {ledger.attempted} operations)")
    print(f"  exact counts: {len(detail['counts'])} recorded, "
          f"{len(detail['mismatches'])} mismatched")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
