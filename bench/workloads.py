"""The benchmark's three workloads, as plain job lists.

A job is either a ``defent.cli.main`` call or a named public-API call (run
by worker.py).  Either way its output lands in ``<out>/<job id>.json`` and
is checked by ``checks.CHECKS[job.check]`` in the parent process, outside
the timed region.  This module imports nothing from defent, so the parent
can list the jobs of a round even when the round's process dies.

Why these workloads, and which layers each stresses or bypasses:

kr-census
    The paper's central construction, the 9-variable KR configuration.
    Prime fields, conjunction short-circuiting and a 0.03% yield dominate
    the enumeration; 511 sparse marginals (key space >> |X|) dominate the
    grouping; the q=7 profile is the only job large enough to use the
    ``--jobs`` process pool, and its 512-entry JSON is the largest CLI
    output.  is_polymatroid on the 9-variable profile decides 4,617 signs.
field-census
    The same enumeration layer reached through extension-field digit
    arithmetic, a non-additive quantifier loop (the cubic), the additive
    fast path (sqrt(-1)), count mode (towers without subsets) and dense
    marginals (xy=0, key space about |X|).  An engine or marginal change
    that helps one of these and costs another shows here.
congruence-sweep
    No enumeration at all.  Time goes to Smith normal form behind its
    diagonal cache, exact LogValue arithmetic and certified interval signs,
    which the other two workloads barely touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import gen

WORKLOADS = ("kr-census", "field-census", "congruence-sweep")

INPUTS = Path(__file__).resolve().parent / "inputs"
REF = Path(__file__).resolve().parent / "ref"

KR_BLOCKS = "A=a1,a2;B=b1,b2;C=c0,c1;D=d0,d1,d2"
KR_FUNCTIONALS = ("I(A:B)", "I(A:B|C)", "I(C:D|A)", "I(C:D|B)", "I(C:D)")

# set files each workload parses at set-up, by key
SET_FILES = {
    "kr-census": {"kr": "kr.set"},
    "field-census": {
        "cubic": "cubic.set",
        "cubic_exists": "cubic_exists.set",
        "sqrt_minus_one": "sqrt_minus_one.set",
        "xy0": "xy0.set",
    },
    "congruence-sweep": {},
}
PAPER_MATRIX = INPUTS / "paper_4x5.mat"


@dataclass(frozen=True)
class Job:
    id: str
    check: str                                  # key of checks.CHECKS
    params: dict = field(default_factory=dict)  # for the API call and the check
    argv: tuple = ()                            # defent.cli.main arguments
    api: str = ""                               # key of worker.API_CALLS
    assignments: int = 0                        # nominal sum of q^n enumerated
    profiles: int = 0                           # entropy profiles computed


def out_path(out: Path, job: Job) -> Path:
    return out / f"{job.id}.json"


def _cli(out: Path, job_id: str, check: str, *argv, **kw) -> Job:
    return Job(job_id, check, argv=("-o", str(out / f"{job_id}.json"), *argv), **kw)


def _kr_jobs(out: Path) -> list:
    kr = str(INPUTS / "kr.set")
    jobs = []
    for q in (5, 7):
        extra = ("--jobs", "2") if q == 7 else ()
        jobs.append(_cli(out, f"kr.profile.q{q}", "kr_profile", "profile", kr,
                         "--p", str(q), *extra,
                         params={"q": q}, assignments=q**9, profiles=1))
    for q in (5, 7):
        nine = str(out / f"kr.profile.q{q}.json")
        jobs.append(_cli(out, f"kr.factor.q{q}", "kr_factor", "factor", nine,
                         "--blocks", KR_BLOCKS, params={"q": q}, profiles=1))
        abcd = str(out / f"kr.factor.q{q}.json")
        for i, expr in enumerate(KR_FUNCTIONALS):
            jobs.append(_cli(out, f"kr.check.q{q}.{i}", "kr_functional", "check", abcd,
                             "--expr", expr, params={"q": q, "expr": expr}))
        jobs.append(_cli(out, f"kr.gmm.q{q}", "kr_gmm", "check", abcd, "--gmm",
                         params={"q": q}))
    jobs.append(_cli(out, "kr.scan", "kr_scan", "kr", "--scan", "--eps", "1/10",
                     params={"eps": "1/10"}))
    jobs.append(Job("kr.polymatroid.q7", "polymatroid_ok", api="is_polymatroid_file",
                    params={"path": str(out / "kr.profile.q7.json")}))
    return jobs


def _field_jobs(out: Path) -> list:
    sets = {k: str(INPUTS / v) for k, v in SET_FILES["field-census"].items()}
    jobs = [
        _cli(out, "field.tower.cubic_exists.p2", "cubic_exists_tower", "tower",
             sets["cubic_exists"], "--p", "2", "--emax", "6",
             params={"p": 2, "emax": 6},
             assignments=sum((2**e) ** 3 for e in range(1, 7))),
        _cli(out, "field.tower.cubic.p7", "cubic_tower", "tower", sets["cubic"],
             "--p", "7", "--emax", "2", "--subsets", "a,b,c",
             params={"p": 7, "emax": 2},
             assignments=sum((7**e) ** 4 for e in range(1, 3))),
    ]
    for p in (3, 5, 7):
        jobs.append(_cli(out, f"field.tower.sqrt.p{p}", "sqrt_tower", "tower",
                         sets["sqrt_minus_one"], "--p", str(p), "--emax", "6",
                         params={"p": p, "emax": 6},
                         assignments=sum(p**e for e in range(1, 7))))
    for q in (1009, 2003):
        jobs.append(_cli(out, f"field.profile.xy0.q{q}", "xy0_profile", "profile",
                         sets["xy0"], "--p", str(q),
                         params={"q": q}, assignments=q**2, profiles=1))
    return jobs


def _congruence_jobs(out: Path, work: Path) -> list:
    paper = str(PAPER_MATRIX)
    jobs = [
        _cli(out, "cong.paper.lincong", "paper_lincong", "lincong", paper,
             "--m", "343", "--base", "7", profiles=1),
        _cli(out, "cong.paper.snf", "paper_snf", "snf", paper,
             params={"matrix": paper}),
    ]
    moduli = list(gen.SWEEP_MODULI)
    for i in range(gen.SWEEP_MATRICES):
        jobs.append(Job(f"cong.sweep.{i:02d}", "sweep", api="sweep",
                        params={"index": i, "moduli": moduli,
                                "matrix": str(congruence_dir(work) / f"sweep_{i:02d}.mat")},
                        profiles=len(moduli)))
    for i in range(gen.TORUS_MATRICES):
        for p in gen.TORUS_PRIMES:
            jobs.append(Job(f"cong.torus.{i:02d}.p{p}", "torus", api="torus",
                            params={"index": i, "p": p,
                                    "matrix": str(congruence_dir(work) / f"torus_{i:02d}.mat")},
                            assignments=(p - 1) ** gen.TORUS_SHAPE[1], profiles=1))
    return jobs


def congruence_dir(work: Path) -> Path:
    return work / "inputs"


def jobs(workload: str, out: Path, work: Path) -> list:
    if workload == "kr-census":
        return _kr_jobs(out)
    if workload == "field-census":
        return _field_jobs(out)
    if workload == "congruence-sweep":
        return _congruence_jobs(out, work)
    raise ValueError(f"unknown workload {workload!r}")


def four_row_subsets(labels) -> list:
    """The Ingleton argument tuples (A, B, C, D) of a sweep profile."""
    return [list(c) for c in combinations(labels, 4)]
