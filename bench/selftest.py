"""Checker self-test: real outputs pass, corrupted outputs fail.

    python3 bench/selftest.py

Runs one untraced round of each workload and checks its outputs as they
are; no job may fail.  Then it corrupts one output per workload (a tower
count off by one on field-census, a flipped sign on kr-census and
congruence-sweep) and checks again: exactly the corrupted job must fail,
so fail_frac rises from 0.  Exits 0 when every case behaves so.
"""

from __future__ import annotations

import shutil
import sys
import time

import checks
import gen
import run
import workloads

SEED = 1


def main() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        work = run.WORK / f"selftest-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if workload == "congruence-sweep":
            gen.write_congruence_inputs(SEED, workloads.congruence_dir(work))
        jobs, result, outputs, err = run.run_round(work, workload, 0, False,
                                                     time.monotonic() + run.RUN_LIMIT_S)
        if err:
            print(f"{workload}: round failed: {err}", file=sys.stderr)
            return 1
        ctx = run.check_context(work / "out", SEED)
        records = result["jobs"]
        clean = [j for j, p in checks.judge(jobs, records, outputs, ctx).items() if p]
        target = checks.corrupt(workload, outputs)
        dirty = checks.judge(jobs, records, outputs, ctx)
        failed = [j for j, p in dirty.items() if p]
        case_ok = not clean and failed == [target]
        ok &= case_ok
        print(f"{workload}: fail_frac {len(clean) / len(jobs):.4f} as produced, "
              f"{len(failed) / len(jobs):.4f} with {target} corrupted "
              f"({'; '.join(dirty[target])[:200]}): {'PASS' if case_ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
