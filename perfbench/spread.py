#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload hyper --seeds 1 2 3 4 5

Each run measures ``run_seconds`` of ``BENCHMARK.json`` untraced, as the
gated runs do.  Spread is the distance between the first and third
quartiles of the runs' values (``statistics.quantiles(values, n=4)``)
as a share of their median, the figure each end-to-end metric's
``bound`` in ``BENCHMARK.json`` is compared with.  Runs go one after another, never
in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    declared = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    values: dict[str, list[float]] = {}
    incorrect = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(declared["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            incorrect.append(seed)
            print(f"seed {seed}: {result['failed']} of {result['attempted']} "
                  f"operations failed: " + "; ".join(
                      line for line in lines if line.startswith("FAIL")))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}"
                                          for k, v in result["metrics"].items()),
              flush=True)
    for name, vals in values.items():
        bound = bounds[name]
        print(f"{args.workload} {name}: median {statistics.median(vals):.6g} "
              f"spread {spread(vals):.4f} bound {bound} (a third: {bound / 3:.4f})")
    if incorrect:
        print(f"{args.workload}: runs with failed checks: seeds {incorrect}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
