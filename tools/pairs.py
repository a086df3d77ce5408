"""Compare two checkouts on one benchmark workload in alternating pairs.

Run from anywhere, with the roots of the two checkouts:

    python tools/pairs.py --parent DIR --change DIR --workload W --seed S \
        --pairs N --seconds T

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` (the command ``BENCHMARK.json`` names) once in each root, as a
fresh process with that root as its working directory. The parent runs
first in even-numbered pairs, counting from 0, and the change first in the
others. Only what ``run.py`` prints is read: its last line (the end-to-end
metrics, ``attempted`` and ``failed``) and its ``environment`` line (the
calibration timing).

For each end-to-end metric of ``BENCHMARK.json`` it reports both sides'
medians, quartiles and IQRs (numpy's default, linear quantiles), the pairs
each side won (ties count for neither), whether the change's median lies
inside the parent's interquartile range, and the change's relative loss
against the metric's bound. A metric whose parent IQR is wider than its
bound cannot show a change of that size, and is marked unresolved. The
report is printed and written as JSON, one ``workloads`` entry keyed
``<workload>_seed<seed>``, to ``<change>/.perfbench/pairs-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, command, args) -> dict:
    """One benchmark run in root: its metrics, counts and calibration timing."""
    proc = subprocess.run(
        [*command, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [line for line in lines if line.startswith("environment ")]
    try:
        last = json.loads(lines[-1])
        calibration = json.loads(env[-1][len("environment "):])["calibration.rfft2_512_ms"]
    except (IndexError, ValueError, KeyError):
        sys.exit(f"run in {root} exited {proc.returncode} without a result:\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"], "calibration_ms": calibration,
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(parent, change, better: str, bound: float) -> dict:
    """The report of one metric from its parent and change runs, pair by pair."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    change_won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    parent_won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse_rel = sign * (c_med - p_med) / p_med
    return {
        "parent_median": p_med, "parent_q1_q3": [p1, p3], "parent_iqr": p3 - p1,
        "change_median": c_med, "change_q1_q3": [c1, c3], "change_iqr": c3 - c1,
        "change_better_pairs": f"{change_won}/{len(parent)}",
        "parent_better_pairs": f"{parent_won}/{len(parent)}",
        "change_median_inside_parent_iqr": p1 <= c_med <= p3,
        "gain_beyond_parent_iqr": -sign * (c_med - p_med) > p3 - p1,
        "change_worse_rel": worse_rel,
        "bound": bound,
        "within_bound": worse_rel <= bound,
        "unresolved": (p3 - p1) / abs(p_med) > bound,
        "runs_parent": parent, "runs_change": change,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), spec["command"], args)
            runs[side].append(run)
            print(f"pair {i} {side:<6} calibration {run['calibration_ms']:.3g} ms  "
                  f"attempted {run['attempted']}  failed {run['failed']}  "
                  + "  ".join(f"{k} {v:.6g}" for k, v in run["metrics"].items()),
                  flush=True)

    entry = {
        "pairs": args.pairs,
        "pairs_parent_first": (args.pairs + 1) // 2,
        "seconds": args.seconds,
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "calibration_ms": sorted(r["calibration_ms"] for rs in runs.values() for r in rs),
        "runs": {side: [{k: r[k] for k in ("calibration_ms", "attempted", "failed")}
                        for r in rs] for side, rs in runs.items()},
        "metrics": {m["name"]: compare([r["metrics"][m["name"]] for r in runs["parent"]],
                                       [r["metrics"][m["name"]] for r in runs["change"]],
                                       m["better"], m["bound"])
                    for m in spec["end_to_end"]},
    }
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds:g}-s runs; "
          f"failed {entry['failed']}, attempted {entry['attempted']}, calibration "
          f"{entry['calibration_ms'][0]:.3g}-{entry['calibration_ms'][-1]:.3g} ms")
    for name, m in entry["metrics"].items():
        print(f"  {name:<17} parent {m['parent_median']:.6g} "
              f"[{m['parent_q1_q3'][0]:.6g}, {m['parent_q1_q3'][1]:.6g}]  "
              f"change {m['change_median']:.6g} "
              f"[{m['change_q1_q3'][0]:.6g}, {m['change_q1_q3'][1]:.6g}]  "
              f"won {m['change_better_pairs']} (parent {m['parent_better_pairs']})  "
              f"inside parent IQR {m['change_median_inside_parent_iqr']}"
              + ("  unresolved" if m["unresolved"] else ""))
    out = args.change / ".perfbench" / f"pairs-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({f"{args.workload}_seed{args.seed}": entry}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
