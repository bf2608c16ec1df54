"""One round of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload W --work DIR --out DIR --result FILE
                            [--trace FILE] [--setup-only]

Set-up is timed from the first statement of this file to the end of
``import defent.cli`` plus reading and parsing the workload's inputs.  The
jobs then run back to back in this process; the round's wall time runs
from the first job's start to the last job's end, and its CPU time counts
this process and every ``--jobs`` worker it reaped.  API results are
written to their output files after that, outside the timed region.  With
``--trace`` the spans of bench/spans.py are installed before the inputs are
parsed and written to FILE when the round ends.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_defent() -> dict:
    """Import defent from this checkout's sources; return layer -> module."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import defent.cli  # noqa: F401  (the CLI imports every layer)
    from defent import census, cli, enumeration, extend, gf, lincong, logval, polymatroid, ringlang

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"defent imported from {cli.__file__}, not from {src}")
    return {
        "ringlang": ringlang, "gf": gf, "enumeration": enumeration, "census": census,
        "logval": logval, "polymatroid": polymatroid, "lincong": lincong,
        "extend": extend, "cli": cli,
    }


def load_inputs(workload: str, work: Path, mods: dict) -> dict:
    parsed = {
        key: mods["ringlang"].parse_set((workloads.INPUTS / name).read_text(encoding="utf-8"))
        for key, name in workloads.SET_FILES[workload].items()
    }
    if workload == "congruence-sweep":
        def matrix(path):
            return mods["lincong"].parse_matrix(Path(path).read_text(encoding="utf-8"))

        cdir = workloads.congruence_dir(work)
        parsed["paper"] = matrix(workloads.PAPER_MATRIX)
        parsed["sweep"] = [matrix(cdir / f"sweep_{i:02d}.mat") for i in range(gen.SWEEP_MATRICES)]
        parsed["torus"] = [matrix(cdir / f"torus_{i:02d}.mat") for i in range(gen.TORUS_MATRICES)]
    return parsed


# -- public-API jobs: (run, dump); run is timed, dump is not -------------------------

def _is_polymatroid_file(mods, parsed, params):
    poly = mods["polymatroid"]
    with open(params["path"], encoding="utf-8") as fh:
        profile = poly.Profile.from_json(json.load(fh))
    return poly.is_polymatroid(profile)


def _dump_check(check):
    return {"ok": check.ok, "violation": check.violation}


def _sweep(mods, parsed, params):
    lincong, poly = mods["lincong"], mods["polymatroid"]
    matrix = parsed["sweep"][params["index"]]
    subsets = workloads.four_row_subsets(matrix.labels)
    rows = []
    for m in params["moduli"]:
        h = lincong.profile_lincong(matrix, m)
        check = poly.is_polymatroid(h)
        ingleton = []
        for sub in subsets:
            value = poly.ingleton(h, *sub)
            ingleton.append((sub, value, value.sign()))
        rows.append((m, h, check, ingleton))
    return rows


def _dump_sweep(rows):
    return {
        str(m): {
            "profile": h.to_json(),
            "polymatroid": _dump_check(check),
            "ingleton": [{"subset": sub, "value": v.to_json(), "sign": s}
                         for sub, v, s in ingleton],
        }
        for m, h, check, ingleton in rows
    }


def _torus(mods, parsed, params):
    matrix = parsed["torus"][params["index"]]
    return mods["lincong"].torus_profile(matrix, mods["gf"].field(params["p"]))


API_CALLS = {
    "is_polymatroid_file": (_is_polymatroid_file, _dump_check),
    "sweep": (_sweep, _dump_sweep),
    "torus": (_torus, lambda profile: profile.to_json()),
}


def run_job(job, mods, parsed):
    """Run one job; return (record, raw API result or None)."""
    err = io.StringIO()
    raw = None
    try:
        with contextlib.redirect_stderr(err):
            if job.argv:
                rc = mods["cli"].main(list(job.argv))
            else:
                raw = API_CALLS[job.api][0](mods, parsed, job.params)
                rc = 0
    except Exception:  # a job that raises is a failed job, not a failed round
        return {"rc": None, "error": traceback.format_exc()}, None
    return {"rc": rc, "error": err.getvalue()}, raw


def _own_peak_kib() -> int:
    # RUSAGE_SELF's ru_maxrss is no use here: Linux carries the high-water
    # mark of the address space replaced by exec over into the new program,
    # so it would report the spawning parent's memory.  VmHWM is this
    # address space's own peak.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cpu_and_peak():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(_own_peak_kib(), kids.ru_maxrss) / 1024.0  # KiB -> MiB


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    mods = import_defent()
    rec = None
    if args.trace:
        import spans
        rec = spans.install(mods)
    parsed = load_inputs(args.workload, args.work, mods)
    result = {"setup_s": time.perf_counter() - T0}

    if not args.setup_only:
        jobs = workloads.jobs(args.workload, args.out, args.work)
        records, raws = [], []
        cpu0, _ = _cpu_and_peak()
        start = time.perf_counter()
        for job in jobs:
            if rec is not None:
                rec.job = job.id
            t = time.perf_counter()
            record, raw = run_job(job, mods, parsed)
            record["seconds"] = time.perf_counter() - t
            records.append(record)
            raws.append(raw)
        wall = time.perf_counter() - start
        cpu1, peak = _cpu_and_peak()

        out_bytes = 0
        for job, raw in zip(jobs, raws):
            path = workloads.out_path(args.out, job)
            if job.api and raw is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(API_CALLS[job.api][1](raw), fh, sort_keys=True)
            elif job.argv and path.exists():
                out_bytes += path.stat().st_size
        result.update(wall_s=wall, cpu_s=cpu1 - cpu0, peak_rss_mb=peak,
                      out_bytes=out_bytes, jobs=records)
        if rec is not None:
            result["layers"] = spans.layer_metrics(rec)
            rec.write(args.trace)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
