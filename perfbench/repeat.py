#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 --seconds 40 \
        [--trace 0|1] [--out FILE]

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, which is the run-to-run spread that each end-to-end bound in
BENCHMARK.json must exceed.  --out writes the values and the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        values = {k: m["value"] for k, m in result["metrics"].items()}
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": values})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()
                                         if not args.trace or k.startswith("trace.")),
              flush=True)
    summary = {}
    if len(runs) >= 2:
        for key in runs[0]["metrics"]:
            summary[key] = summarise([r["metrics"][key] for r in runs])
            s = summary[key]
            print(f"{key}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs, "summary": summary},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
