"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/steadiness.py --runs 10 --seconds 30 [--workload W ...] [--write]

Runs ``bench/run.py`` once per seed on each workload and reports, for
every end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median.  ``--write``
appends the set to bench/STEADINESS.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    report = {
        "host": f"{os.cpu_count()} cores, {platform.machine()}, Python {platform.python_version()}",
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "seconds": args.seconds, "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            line = one_run(workload, seed, args.seconds)
            runs.append(line)
            print(workload, seed, line["failed"],
                  {k: round(v["value"], 4) for k, v in line["metrics"].items()}, flush=True)
        metrics = {name: stats([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name, st in metrics.items():
            print(f"  {workload} {name}: median {st['median']:.6g}, "
                  f"q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, spread {st['spread']:.4f}")
    if args.write:
        path = BENCH / "STEADINESS.json"
        sets = json.loads(path.read_text())["sets"] if path.exists() else []
        path.write_text(json.dumps({"sets": sets + [report]}, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
