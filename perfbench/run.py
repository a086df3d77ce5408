"""sparseland benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload imaging --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``. The run makes its inputs from ``--seed``, repeats the
workload's batch until ``--seconds`` have passed, checks every output
and prints a summary, then as its last line one JSON object. With
``--trace 0`` that object holds the end-to-end metrics; with
``--trace 1`` the run alternates untraced and traced batches and
reports per-layer metrics from the traced ones. A run record (and, when
traced, the spans) is written under ``.perfbench/`` in the checkout.
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up samples per run: a few before the first batch, then one after
# each batch, so that slow spells of the machine do not hit them all
SETUP_SAMPLES = 9
SETUP_SAMPLES_FIRST = 3

# thread pools are sized when numpy loads, so cap them before any import
for _var in THREAD_VARS:
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > NPROC:
        os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the child imports sparseland from the checkout and times the import
# plus the workload's one-time construction
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import numpy as np
import sparseland
{setup}
elapsed = time.perf_counter() - t0
if not sparseland.__file__.startswith({src!r}):
    sys.exit("sparseland imported from " + sparseland.__file__)
print(repr(elapsed))
"""


def import_library():
    """Import sparseland from this checkout's src/, or exit without a result."""
    if not (SRC / "sparseland" / "__init__.py").is_file():
        sys.exit(f"no sparseland package under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import sparseland
    import sparseland.cli  # noqa: F401

    if not Path(sparseland.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"sparseland imported from {sparseland.__file__}, not {SRC}")
    return sparseland


def measure_setup(setup_code):
    """Seconds a fresh process takes to import and construct."""
    code = SETUP_CHILD.format(setup=setup_code, src=str(SRC.resolve()))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"set-up process failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def calibrate():
    """Median time of a bare scipy.fft.rfft2 at 512^2, in ms."""
    x = np.random.default_rng(0).standard_normal((512, 512))
    for _ in range(3):
        scipy.fft.rfft2(x)
    times = []
    for _ in range(25):
        t0 = perf_counter()
        scipy.fft.rfft2(x)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment(seed, calibration_ms):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "calibration.rfft2_512_ms": calibration_ms,
    }


def layer_metrics(tracer, traced, untraced_walls, traced_walls, calibration_ms):
    """Per-layer metrics per batch, averaged over the traced batches."""
    totals, iterations = tracing.layer_totals(tracer, traced)
    n = len(traced)

    def total(prefix, key):
        return sum(v[key] for name, v in totals.items()
                   if name == prefix or name.startswith(prefix + "."))

    solver_busy = total("solver", "busy_s")
    solver_self = total("solver", "self_s")
    in_solve_ops = sum(totals.get(f"operators.{m}", {}).get("in_solve_calls", 0)
                       for m in ("apply", "adjoint"))
    metrics = {
        "operators.apply.calls": (total("operators.apply", "calls") / n, "count"),
        "operators.apply.busy_s": (total("operators.apply", "busy_s") / n, "s"),
        "operators.adjoint.calls": (total("operators.adjoint", "calls") / n, "count"),
        "operators.adjoint.busy_s": (total("operators.adjoint", "busy_s") / n, "s"),
        "operators.calls_per_iteration": (in_solve_ops / max(iterations, 1), "calls/iter"),
        "operators.construct_s": (total("operators.construct", "busy_s") / n, "s"),
        "shrinkage.calls": (total("shrinkage", "calls") / n, "count"),
        "shrinkage.busy_s": (total("shrinkage", "busy_s") / n, "s"),
        "transforms.dwt.calls": (total("transforms.dwt", "calls") / n, "count"),
        "transforms.dwt.busy_s": (total("transforms.dwt", "busy_s") / n, "s"),
        "transforms.idwt.calls": (total("transforms.idwt", "calls") / n, "count"),
        "transforms.idwt.busy_s": (total("transforms.idwt", "busy_s") / n, "s"),
        "solver.solves": (total("solver", "calls") / n, "count"),
        "solver.iterations": (iterations / n, "count"),
        "solver.busy_s": (solver_busy / n, "s"),
        "solver.self_s": (solver_self / n, "s"),
        "solver.self_us_per_iteration": (1e6 * solver_self / max(iterations, 1), "us"),
        "gridio.calls": (total("gridio", "calls") / n, "count"),
        "gridio.busy_s": (total("gridio", "busy_s") / n, "s"),
        "cli.self_s": (total("cli", "self_s") / n, "s"),
        "experiment.self_s": (total("experiment", "self_s") / n, "s"),
        "trace.overhead_fraction": (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0, "1"),
        "calibration.rfft2_512_ms": (calibration_ms, "ms"),
    }
    # every span inside a solve belongs to operators, shrinkage or
    # transforms, so their self times and the solver's add up to its busy time
    inside = sum(v["in_solve_self_s"] for name, v in totals.items()
                 if name.split(".")[0] in ("operators", "shrinkage", "transforms"))
    problems = []
    if abs(inside + solver_self - solver_busy) > 1e-9 * max(solver_busy, 1e-9):
        problems.append(f"layer self times {inside + solver_self!r} do not add up "
                        f"to solver busy time {solver_busy!r}")
    return metrics, totals, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sparseland = import_library()
    workload = WORKLOADS[args.workload]()
    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, sparseland, workload, out_dir, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, sparseland, workload, out_dir, work_dir):
    setup_samples = [measure_setup(workload.setup) for _ in range(SETUP_SAMPLES_FIRST)]
    calibration_ms = calibrate()
    exec(workload.setup, {"np": np, "sparseland": sparseland})
    workload.prepare(args.seed, work_dir)

    tracer = tracing.Tracer()
    batches, traced = [], []
    self_test_misses = []
    start = perf_counter()
    while True:
        k = len(batches)
        layered = bool(args.trace) and k % 2 == 1
        tracer.batch = k
        restore = tracing.install(tracer, layers=layered)
        try:
            batch = workload.run(k, tracer)
        finally:
            restore()
        batches.append(batch)
        if layered:
            traced.append(k)
        if k == 0 and not batch.failures:
            self_test_misses = [label for label, msgs in workload.corruptions(k).items()
                                if not msgs]
        workload.discard(k)
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(measure_setup(workload.setup))
        done = perf_counter() - start >= args.seconds
        if done and len(batches) >= (2 if args.trace else 1):
            break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(measure_setup(workload.setup))

    attempted = sum(b.attempted for b in batches)
    failures = [msgs for b in batches for msgs in b.failures]
    problems = [f"corrupted answer passed its check: {label}" for label in self_test_misses]
    untraced = [b for i, b in enumerate(batches) if i not in traced]
    walls = [b.wall_s for b in untraced]
    latencies = [t for b in untraced for t in b.latencies_s]
    summary = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "iterations_per_s": (statistics.median(b.iterations / b.wall_s for b in untraced),
                             "1/s"),
        "solve_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"failed_fraction": (len(failures) / attempted, "1")}
    if len(latencies) >= 100:
        extra["solve_p90_ms"] = (1e3 * float(np.quantile(latencies, 0.9)), "ms")

    record = {"workload": workload.name, "trace": args.trace,
              "environment": environment(args.seed, calibration_ms),
              "setup_samples_s": setup_samples,
              "batches": [{"wall_s": b.wall_s, "iterations": b.iterations,
                           "solves": b.attempted, "capped": b.capped,
                           "traced": i in traced}
                          for i, b in enumerate(batches)],
              "solve_samples": len(latencies), "failures": failures}
    if args.trace:
        metrics, totals, trace_problems = layer_metrics(
            tracer, traced, walls, [batches[i].wall_s for i in traced], calibration_ms)
        problems += trace_problems
        for layer in workload.layers:
            if not any(name.split(".")[0] == layer and v["calls"]
                       for name, v in totals.items()):
                problems.append(f"layer {layer} is untraced: no call recorded")
        record["layers"] = totals
        spans_path = out_dir / f"spans-{workload.name}.npz"
        tracer.save(spans_path, workload.name, args.seed)
        record["spans"] = spans_path.name
    else:
        metrics = summary
    record["metrics"] = {k: v[0] for k, v in {**summary, **extra, **metrics}.items()}
    record["problems"] = problems
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    (out_dir / "runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"batches {len(batches)}  solves {attempted}  "
          f"solve samples {len(latencies)}  "
          f"at iteration cap {sum(b.capped for b in batches)}")
    for name, (value, unit) in {**summary, **extra}.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<30} {value:.6g} {unit}")
    print("environment " + json.dumps(record["environment"]))
    for msgs in failures:
        print("FAILED: " + "; ".join(msgs))
    for problem in problems:
        print("PROBLEM: " + problem)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
