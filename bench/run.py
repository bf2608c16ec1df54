"""Benchmark of defent: three workloads, end to end and layer by layer.

    python3 bench/run.py --workload kr-census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; defent is imported from its ``src``.  A
run generates the workload's inputs from the seed, then runs rounds of the
workload, each in a fresh interpreter (bench/worker.py), until
``--seconds`` would be exceeded.  Set-up is also timed in two set-up-only
interpreters before each round, so its samples span the run.  Every
round's outputs are checked here, outside the timed region (checks.py).
Metric names and units come from BENCHMARK.json.

With ``--trace 0`` every round is untraced and the end-to-end metrics are
the medians over rounds.  With ``--trace 1`` untraced and traced rounds
alternate; the per-layer metrics are the medians over traced rounds and
``trace.overhead_frac`` compares the two kinds.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  Scratch files go
to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES_PER_ROUND = 2  # taken before each round, so they span the run
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a round hangs

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _worker(work: Path, workload: str, result: Path, deadline: float, *extra) -> str | None:
    """Run bench/worker.py to completion; return an error text or None.

    The worker gets its own process group, so that a worker killed at the
    deadline takes its ``--jobs`` pool down with it.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--work", str(work), "--out", str(work / "out"), "--result", str(result), *extra]
    result.unlink(missing_ok=True)
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "the round reached the run's time limit and was killed"
    if proc.returncode != 0 or not result.exists():
        return f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}"
    return None


def measure_setup(work: Path, workload: str, deadline: float) -> list:
    """Set-up times of fresh interpreters; a failed one is left out (its round fails too)."""
    samples = []
    for _ in range(SETUP_SAMPLES_PER_ROUND):
        result = work / "setup.json"
        if _worker(work, workload, result, deadline, "--setup-only") is None:
            samples.append(json.loads(result.read_text())["setup_s"])
    return samples


def run_round(work: Path, workload: str, index: int, traced: bool, deadline: float):
    """One round in a fresh interpreter: (jobs, worker result or None, outputs, error)."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = work / f"round-{index}.json"
    extra = ("--trace", str(work / f"trace-{index}.json")) if traced else ()
    err = _worker(work, workload, result_path, deadline, *extra)
    result = None if err else json.loads(result_path.read_text())
    jobs = workloads.jobs(workload, out, work)
    outputs = {}
    for job in jobs:
        try:
            outputs[job.id] = json.loads(workloads.out_path(out, job).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            outputs[job.id] = None
    return jobs, result, outputs, err


def check_context(out: Path, seed: int) -> dict:
    def bruteforce(rows, m):
        # imported here, so that a defent that cannot be imported fails its
        # rounds instead of the run
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        from defent import lincong

        return lincong.image_size_bruteforce(lincong.IntMatrix.from_rows(rows), m)

    return {"out": out, "seed": seed, "bruteforce": bruteforce}


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload == "congruence-sweep":
        gen.write_congruence_inputs(seed, workloads.congruence_dir(work))
    ctx = check_context(work / "out", seed)

    setups, rounds = [], []
    modes = itertools.cycle((False, True) if trace else (False,))
    start = time.perf_counter()
    while True:
        traced = next(modes)
        t = time.perf_counter()
        setups += measure_setup(work, workload, deadline)
        jobs, result, outputs, err = run_round(work, workload, len(rounds), traced, deadline)
        verdicts = checks.judge(jobs, result and result["jobs"], outputs, ctx)
        rounds.append({"traced": traced, "jobs": jobs, "result": result, "error": err,
                       "verdicts": verdicts, "duration": time.perf_counter() - t})
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (2 if trace else 1)
        if enough and elapsed + _median([r["duration"] for r in rounds]) > seconds:
            break
    return summarize(workload, setups, rounds, trace)


def summarize(workload, setups, rounds, trace) -> dict:
    attempted = sum(len(r["jobs"]) for r in rounds)
    failures = [(job_id, problems)
                for r in rounds for job_id, problems in r["verdicts"].items() if problems]
    plain = [r for r in rounds if not r["traced"] and r["result"]]
    traced = [r for r in rounds if r["traced"] and r["result"]]

    def per_round(r):
        res, jobs = r["result"], r["jobs"]
        passed = [j for j in jobs if not r["verdicts"][j.id]]
        return {
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "assignments_per_s": sum(j.assignments for j in jobs) / res["wall_s"],
            "profiles_per_s": sum(j.profiles for j in passed) / res["wall_s"],
        }

    rows = [per_round(r) for r in plain]
    e2e = {name: _median([row[name] for row in rows]) for name in END_TO_END if name != "setup_s"}
    e2e["setup_s"] = _median(setups + [r["result"]["setup_s"] for r in plain])

    layers = dict.fromkeys([*PER_LAYER, "logval.self_s", "traced.wall_s"], 0.0)
    if traced:
        for name in PER_LAYER:
            if name == "cli.out_bytes":
                values = [r["result"]["out_bytes"] for r in traced]
            elif name == "trace.overhead_frac":
                base = e2e["wall_s"]
                values = [_median([r["result"]["wall_s"] for r in traced]) / base - 1
                          if base else 0.0]
            else:
                values = [r["result"]["layers"][name] for r in traced]
            layers[name] = _median(values)
        layers["logval.self_s"] = _median([r["result"]["layers"]["logval.self_s"] for r in traced])
        layers["traced.wall_s"] = _median([r["result"]["wall_s"] for r in traced])
    return {
        "workload": workload, "rounds": len(rounds), "traced_rounds": len(traced),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "round_errors": [r["error"] for r in rounds if r["error"]],
        "setup_samples": len(setups) + len(plain),
        "e2e": e2e, "spread": {name: (min(row[name] for row in rows), max(row[name] for row in rows))
                               for name in e2e if name != "setup_s" and rows},
        "layers": layers,
    }


def design_checks(summary) -> list:
    """The layer design the per-layer metrics are meant to confirm."""
    w, lay = summary["workload"], summary["layers"]
    wall = lay.get("traced.wall_s", 0.0)
    if w == "kr-census":
        busy = lay["enumeration.busy_s"]
        return [(busy >= wall / 2, f"enumeration.busy_s {busy:.3f} s >= half of wall_s {wall:.3f} s")]
    if w == "congruence-sweep":
        both = lay["logval.self_s"] + lay["polymatroid.self_s"]
        return [
            (lay["enumeration.calls"] == 0, f"enumeration.calls {lay['enumeration.calls']} == 0"),
            (both >= wall / 2,
             f"logval + polymatroid self time {both:.3f} s >= half of wall_s {wall:.3f} s"),
        ]
    return []


def report(summary, trace) -> dict:
    """Print the human-readable block; return the metrics of the JSON line."""
    s = summary
    print(f"== {s['workload']}: {s['rounds']} rounds ({s['traced_rounds']} traced), "
          f"{s['attempted']} jobs attempted, {s['failed']} failed, "
          f"{s['setup_samples']} set-up samples")
    for name, unit in END_TO_END.items():
        lo_hi = s["spread"].get(name)
        extra = f"   rounds {lo_hi[0]:.6g} .. {lo_hi[1]:.6g}" if lo_hi else ""
        print(f"  {name:<34} {s['e2e'][name]:>14.6g} {unit}{extra}")
    print(f"  {'fail_frac':<34} {s['failed'] / s['attempted']:>14.6g} ratio")
    for err in s["round_errors"][:1]:
        print(f"  ROUND FAILED: {err}", file=sys.stderr)
    for job_id, problems in s["failures"][:10]:
        print(f"  FAILED {job_id}: {'; '.join(problems)[:400]}", file=sys.stderr)
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {s['layers'][name]:>14.6g} {unit}")
        for ok, text in design_checks(s):
            print(f"  layer design: {text}: {'holds' if ok else 'DOES NOT HOLD'}")
    table = PER_LAYER if trace else END_TO_END
    source = s["layers"] if trace else s["e2e"]
    return {name: {"value": source[name], "unit": unit} for name, unit in table.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="defent benchmark")
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "defent" / "__init__.py").is_file():
        print(f"bench: no defent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    metrics = {s["workload"]: report(s, args.trace) for s in summaries}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics[names[0]] if len(names) == 1 else metrics}
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
