"""Output checks, written apart from the code they check.

Expected values come from closed forms and small enumerations computed
here with integers and Fractions.  A LogValue in JSON is read as a map
prime -> Fraction and compared for equality; signs are recomputed from
those maps (structural zero, else the sign of sum c*log p).  The only
defent function used is the independent oracle ``image_size_bruteforce``,
on a seeded sample of the congruence profiles, passed in by the caller.

Each check takes (output, job, ctx) and returns a list of problems; an
empty list is a pass.  ``ctx`` holds the round's outputs by job id, the
output directory, the seed and the oracle.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import workloads

# -- exact log arithmetic on prime -> Fraction maps --------------------------------


def _factor(n: int) -> dict:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def log_rat(r) -> dict:
    r = Fraction(r)
    terms = {p: Fraction(e) for p, e in _factor(r.numerator).items()}
    for p, e in _factor(r.denominator).items():
        terms[p] = terms.get(p, 0) - e
    return {p: c for p, c in terms.items() if c}


def lin(*pairs) -> dict:
    """sum of c * t over (c, t) pairs."""
    out = {}
    for c, t in pairs:
        for p, v in t.items():
            out[p] = out.get(p, 0) + c * v
    return {p: v for p, v in out.items() if v}


def terms(obj) -> dict:
    return {int(p): Fraction(c) for p, c in obj["terms"].items()}


def sign(t: dict) -> int:
    if not t:
        return 0
    x = sum(float(c) * math.log(p) for p, c in t.items())
    if abs(x) > 1e-6:
        return 1 if x > 0 else -1
    with localcontext() as dec:
        dec.prec = 80
        x = sum(Decimal(c.numerator) / Decimal(c.denominator) * Decimal(p).ln()
                for p, c in t.items())
    return 1 if x > 0 else -1


# -- profiles as JSON ---------------------------------------------------------------


def entry(profile: dict, labels) -> dict:
    labels = set(labels)
    key = ",".join(v for v in profile["ground_set"] if v in labels)
    return terms(profile["entries"][key])


def cond_mi(h, i, j, k=()) -> dict:
    i, j, k = set(i), set(j), set(k)
    return lin((1, entry(h, i | k)), (1, entry(h, j | k)),
               (-1, entry(h, i | j | k)), (-1, entry(h, k)))


def ingleton(h, a, b, c, d) -> dict:
    return lin((1, cond_mi(h, c, d, a)), (1, cond_mi(h, c, d, b)),
               (1, cond_mi(h, a, b)), (-1, cond_mi(h, c, d)))


def _shape(profile, ground_set) -> list:
    problems = []
    if profile["ground_set"] != list(ground_set):
        problems.append(f"ground set {profile['ground_set']}")
    if len(profile["entries"]) != 1 << len(ground_set):
        problems.append(f"{len(profile['entries'])} entries")
    elif terms(profile["entries"][""]):
        problems.append("h(empty) != 0")
    return problems


def _signed(obj, want: dict, what: str) -> list:
    """An {"value", "sign"} object against the exact value it should hold."""
    problems = []
    if terms(obj["value"]) != want:
        problems.append(f"{what} = {obj['value']}, want {want}")
    if obj["sign"] != sign(want):
        problems.append(f"{what} sign {obj['sign']}, want {sign(want)}")
    return problems


# -- kr-census ------------------------------------------------------------------------

KR_VARS = ("a1", "a2", "b1", "b2", "c0", "c1", "d0", "d1", "d2")
KR_BLOCK_VARS = {"A": ("a1", "a2"), "B": ("b1", "b2"), "C": ("c0", "c1"), "D": ("d0", "d1", "d2")}


def kr_closed_forms(q: int) -> dict:
    """The enumeration-exact KR family (kr_closed_form(q, corrected=True))."""
    d = log_rat(Fraction(q, q - 1))
    return {"I(A:B)": d, "I(A:B|C)": d, "I(C:D|A)": d, "I(C:D|B)": d,
            "I(C:D)": lin((1, d), (1, log_rat(2)))}


def kr_violation(q: int, eps: Fraction) -> dict:
    return lin((2, log_rat(Fraction(q, q - 1))),
               (2 * eps, log_rat(Fraction(q - 1, q - 2))), (-eps, log_rat(2)))


def check_kr_profile(out, job, ctx):
    q = job.params["q"]
    problems = _shape(out, KR_VARS)
    if not problems and entry(out, KR_VARS) != log_rat(q**3 * (q - 1) ** 2):
        problems.append(f"h(all) = {out['entries'][','.join(KR_VARS)]}, want log q^3(q-1)^2")
    if q == 7:
        got = workloads.out_path(ctx["out"], job).read_bytes()
        if got != (workloads.REF / "kr_q7_profile.json").read_bytes():
            problems.append("--jobs 2 output differs from the stored --jobs 1 reference")
    return problems


def check_kr_factor(out, job, ctx):
    q = job.params["q"]
    problems = _shape(out, tuple(KR_BLOCK_VARS))
    nine = ctx["outputs"].get(f"kr.profile.q{q}")
    if problems or nine is None:
        return problems or ["no 9-variable profile to compare with"]
    for r in range(1, 5):
        for blocks in combinations(KR_BLOCK_VARS, r):
            union = [v for b in blocks for v in KR_BLOCK_VARS[b]]
            if entry(out, blocks) != entry(nine, union):
                problems.append(f"h({','.join(blocks)}) is not h of its variables")
    split = {"I(A:B)": ("A", "B", ""), "I(A:B|C)": ("A", "B", "C"), "I(C:D|A)": ("C", "D", "A"),
             "I(C:D|B)": ("C", "D", "B"), "I(C:D)": ("C", "D", "")}
    for name, want in kr_closed_forms(q).items():
        i, j, k = split[name]
        if cond_mi(out, i, j, k or ()) != want:
            problems.append(f"{name} differs from the closed form at q={q}")
    return problems


def check_kr_functional(out, job, ctx):
    q, expr = job.params["q"], job.params["expr"]
    problems = [] if out.get("expr") == expr else [f"expr {out.get('expr')!r}"]
    return problems + _signed(out, kr_closed_forms(q)[expr], expr)


def check_kr_gmm(out, job, ctx):
    h = ctx["outputs"].get(f"kr.factor.q{job.params['q']}")
    if h is None:
        return ["no factored profile to compare with"]
    ante = {"I(A:C|D)": cond_mi(h, "A", "C", "D"), "I(A:D|C)": cond_mi(h, "A", "D", "C"),
            "I(B:C|D)": cond_mi(h, "B", "C", "D"), "I(B:D|C)": cond_mi(h, "B", "D", "C")}
    problems = []
    if sorted(out["antecedents"]) != sorted(ante):
        return [f"antecedents {sorted(out['antecedents'])}"]
    for name, want in ante.items():
        problems += _signed(out["antecedents"][name], want, name)
    problems += _signed(out["ingleton"], ingleton(h, "A", "B", "C", "D"), "Ingleton")
    all_zero = not any(ante.values())
    if out["all_zero"] != all_zero or out["conclusive"] != all_zero:
        problems.append(f"all_zero {out['all_zero']}, want {all_zero}")
    return problems


def check_kr_scan(out, job, ctx):
    eps = Fraction(job.params["eps"])
    problems = []
    if (out["q_star"], out["prev_q"]) != (37, 31):
        return [f"q* = {out['q_star']}, prev = {out['prev_q']}; want 37 and 31"]
    problems += _signed(out["at_q_star"], kr_violation(37, eps), "violation at q*")
    problems += _signed(out["at_prev"], kr_violation(31, eps), "violation at prev")
    if out["at_q_star"]["sign"] != -1 or out["at_prev"]["sign"] < 0:
        problems.append("signs do not bracket the threshold")
    return problems


def check_polymatroid_ok(out, job, ctx):
    return [] if out == {"ok": True, "violation": None} else [f"is_polymatroid says {out}"]


# -- field-census ---------------------------------------------------------------------


def _rows(out, p, emax, count) -> list:
    rows = out["census"]["rows"]
    want = [{"e": e, "q": p**e, "count": count(e, p**e)} for e in range(1, emax + 1)]
    got = [{k: r[k] for k in ("e", "q", "count")} for r in rows]
    return [] if got == want else [f"counts {got}, want {want}"]


def _period(out, m, classes) -> list:
    per = out.get("period")
    if per is None:
        return [f"no period: {out.get('period_diagnostics')}"]
    want = {str(r): {"d": d, "mu": mu} for r, (d, mu) in classes.items()}
    if m is not None and per["m"] != m:
        return [f"period {per['m']}, want {m}"]
    return [] if per["classes"] == want else [f"classes {per['classes']}, want {want}"]


def check_cubic_exists_tower(out, job, ctx):
    p, emax = job.params["p"], job.params["emax"]
    problems = _rows(out, p, emax, lambda e, q: (2 * q**3 + q) // 3)
    # The law is (2/3) q^3 in every class.  detect_period reports m = 3 here,
    # because the estimate from q = 2, 4 is too coarse to match the others,
    # so the check is on the law each residue class carries, not on m.
    per = out.get("period") or {"m": 1}
    return problems + _period(out, None, {r: (3, "2/3") for r in range(per["m"])})


def check_cubic_tower(out, job, ctx):
    p, emax = job.params["p"], job.params["emax"]
    problems = _rows(out, p, emax, lambda e, q: q**3)
    for row in out["census"]["rows"]:
        q = row["q"]
        want = {
            "total": q**3,
            "buckets": {"1": q * q * (q - 1) // 2 + q, "2": q * (q - 1),
                        "3": q * (q - 1) * (q - 2) // 6},
            "outside": (q**3 - q) // 3,
        }
        if row.get("fibers") != {"a,b,c": want}:
            problems.append(f"GF({q}) splitting counts {row.get('fibers')}, want {want}")
    return problems + _period(out, 1, {0: (3, "1/1")})


def check_sqrt_tower(out, job, ctx):
    p, emax = job.params["p"], job.params["emax"]
    if p % 4 == 1:
        return _rows(out, p, emax, lambda e, q: q) + _period(out, 1, {0: (1, "1/1")})
    # -1 is a square in GF(p^e), p = 3 mod 4, exactly when e is even
    problems = _rows(out, p, emax, lambda e, q: 1 if e % 2 else q)
    return problems + _period(out, 2, {0: (1, "1/1"), 1: (0, "1/1")})


def check_xy0_profile(out, job, ctx):
    q = job.params["q"]
    t = 2 * q - 1
    h_axis = lin((Fraction(q, t), log_rat(Fraction(t, q))), (Fraction(q - 1, t), log_rat(t)))
    problems = _shape(out, ("x", "y"))
    if problems:
        return problems
    for labels, want in ((("x",), h_axis), (("y",), h_axis), (("x", "y"), log_rat(t))):
        if entry(out, labels) != want:
            problems.append(f"h({','.join(labels)}) at q={q} is not the closed form")
    return problems


# -- congruence-sweep -----------------------------------------------------------------

PAPER_BASE7 = {
    "": 0, "1": 3, "2": 3, "3": 3, "4": 3, "1,2": 6, "1,3": 6, "1,4": 6, "2,3": 6,
    "3,4": 6, "2,4": 5, "1,2,3": 9, "1,3,4": 9, "1,2,4": 8, "2,3,4": 8, "1,2,3,4": 11,
}


def read_matrix(path) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].split() for ln in fh]
    return [[int(x) for x in ln] for ln in lines if ln]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(m) -> Fraction:
    m = [[Fraction(x) for x in row] for row in m]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def check_paper_lincong(out, job, ctx):
    problems = []
    for key, want in PAPER_BASE7.items():
        if out["normalized"].get(key) != str(want):
            problems.append(f"base-7 h({key}) = {out['normalized'].get(key)}, want {want}")
        if terms(out["entries"][key]) != ({7: Fraction(want)} if want else {}):
            problems.append(f"h({key}) is not {want} log 7")
    return problems


def check_paper_snf(out, job, ctx):
    a = read_matrix(job.params["matrix"])
    s, t, u = out["S"], out["T"], out["U"]
    problems = []
    if _matmul(_matmul(t, a), u) != s:
        problems.append("S != T A U")
    if abs(_det(t)) != 1 or abs(_det(u)) != 1:
        problems.append("T or U is not unimodular")
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    if any(s[i][j] for i in range(len(s)) for j in range(len(s[0])) if i != j):
        problems.append("S is not diagonal")
    if any(x < 0 for x in diag) or any(
        (x == 0 and y != 0) or (x and y % x) for x, y in zip(diag, diag[1:])
    ):
        problems.append(f"diagonal {diag} is not a divisibility chain")
    if out["diagonal"] != diag:
        problems.append("reported diagonal is not the diagonal of S")
    return problems


def check_sweep(out, job, ctx):
    rows = read_matrix(job.params["matrix"])
    labels = tuple(str(i + 1) for i in range(len(rows)))
    subsets = workloads.four_row_subsets(labels)
    problems = []
    if sorted(out, key=int) != [str(m) for m in job.params["moduli"]]:
        return [f"moduli {sorted(out, key=int)}"]
    for m, rec in out.items():
        h = rec["profile"]
        problems += [f"m={m}: {p}" for p in _shape(h, labels)]
        if rec["polymatroid"] != {"ok": True, "violation": None}:
            problems.append(f"m={m}: is_polymatroid says {rec['polymatroid']}")
        if [r["subset"] for r in rec["ingleton"]] != subsets:
            problems.append(f"m={m}: Ingleton subsets {[r['subset'] for r in rec['ingleton']]}")
            continue
        for r in rec["ingleton"]:
            problems += [f"m={m}: {p}" for p in _signed(r, ingleton(h, *r["subset"]), "Ingleton")]
            if r["sign"] < 0:
                problems.append(f"m={m}: Ingleton {r['subset']} < 0 for an abelian group")
    if problems:
        return problems
    # a seeded sample of image sizes against the brute-force oracle
    rng = random.Random(f"{ctx['seed']}:{job.id}")
    m = rng.choice(job.params["moduli"])
    sub = sorted(rng.sample(range(len(rows)), rng.randint(1, len(rows))))
    size = ctx["bruteforce"]([rows[i] for i in sub], m)
    if entry(out[str(m)]["profile"], [labels[i] for i in sub]) != log_rat(size):
        problems.append(f"m={m}: h(rows {sub}) is not log of the brute-force image size {size}")
    return problems


def _image_sizes(rows, m) -> dict:
    """|image of x -> A_I x mod m| on (Z/m)^d, for every nonempty row subset I."""
    d = len(rows[0])
    points = []
    for k in range(m**d):
        x = [(k // m**j) % m for j in range(d)]
        points.append(tuple(sum(a * b for a, b in zip(row, x)) % m for row in rows))
    return {
        sub: len({tuple(pt[i] for i in sub) for pt in points})
        for r in range(1, len(rows) + 1)
        for sub in combinations(range(len(rows)), r)
    }


def check_torus(out, job, ctx):
    # the torus profile must equal the congruence profile at m = q - 1,
    # recomputed here by direct enumeration of A x mod (q - 1)
    rows = read_matrix(job.params["matrix"])
    labels = tuple(str(i + 1) for i in range(len(rows)))
    problems = _shape(out, labels)
    if problems:
        return problems
    for sub, size in _image_sizes(rows, job.params["p"] - 1).items():
        if entry(out, [labels[i] for i in sub]) != log_rat(size):
            problems.append(f"h(rows {sub}) is not log {size}")
    return problems


CHECKS = {
    "kr_profile": check_kr_profile,
    "kr_factor": check_kr_factor,
    "kr_functional": check_kr_functional,
    "kr_gmm": check_kr_gmm,
    "kr_scan": check_kr_scan,
    "polymatroid_ok": check_polymatroid_ok,
    "cubic_exists_tower": check_cubic_exists_tower,
    "cubic_tower": check_cubic_tower,
    "sqrt_tower": check_sqrt_tower,
    "xy0_profile": check_xy0_profile,
    "paper_lincong": check_paper_lincong,
    "paper_snf": check_paper_snf,
    "sweep": check_sweep,
    "torus": check_torus,
}


def judge(jobs, records, outputs, ctx) -> dict:
    """job id -> list of problems (empty for a passed job).

    ``records`` are the worker's per-job records (None when the round's
    process died); ``outputs`` maps job id -> parsed output or None.
    """
    ctx = dict(ctx, outputs=outputs)
    verdicts = {}
    for i, job in enumerate(jobs):
        rec = records[i] if records else None
        if rec is None:
            verdicts[job.id] = ["the round's process did not report this job"]
        elif rec["rc"] != 0:
            verdicts[job.id] = [f"exit {rec['rc']}: {rec['error'].strip()[-300:]}"]
        elif outputs.get(job.id) is None:
            verdicts[job.id] = ["no output"]
        else:
            try:
                verdicts[job.id] = CHECKS[job.check](outputs[job.id], job, ctx)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError,
                    ArithmeticError) as exc:
                verdicts[job.id] = [f"malformed output: {exc!r}"]
    return verdicts


# -- checker self-test: outputs corrupted on purpose ------------------------------------

CORRUPTIONS = {
    "field-census": "field.tower.cubic_exists.p2",   # one count off by one
    "congruence-sweep": "cong.sweep.00",             # one Ingleton sign flipped
    "kr-census": "kr.check.q7.0",                    # one functional sign flipped
}


def corrupt(workload: str, outputs: dict) -> str:
    """Corrupt one output of the workload in place; return its job id."""
    job_id = CORRUPTIONS[workload]
    out = outputs[job_id]
    if workload == "field-census":
        out["census"]["rows"][2]["count"] += 1
    elif workload == "congruence-sweep":
        rec = out[min(out, key=int)]["ingleton"][0]
        rec["sign"] = -rec["sign"] if rec["sign"] else -1
    else:
        out["sign"] = -out["sign"]
    return job_id
