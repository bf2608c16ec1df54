"""Spans around the public functions of each defent module, from outside.

``install`` replaces each listed function by a wrapper at every place it
is looked up: the module that defines it and every defent module (or the
package namespace) that imported it by name.  ``log_of_rat``, for example,
is wrapped in logval, census, lincong, polymatroid and extend.  Methods are
wrapped on their class.

A span is (id, name, job, start, end, parent id), kept in memory and
written out by the caller when the round ends.  A span's self time is its
duration minus the durations of its child spans; per-name counts, totals
and self times are accumulated as spans close.  A few private functions
get a counter instead of a span, to keep the overhead off hot paths.

Worker processes of a ``--jobs`` pool inherit the wrappers but their spans
stay in the worker; the span of the pool's caller covers them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped with a span ("Class.method" for methods)
LAYERS = {
    "ringlang": ("parse_set",),
    "gf": ("field",),
    "enumeration": ("count_points_vec", "collect_points_vec"),
    "census": ("entropy_profile", "fiber_histogram", "tower_census", "detect_period"),
    "logval": ("log_of_rat", "LogValue.sign"),
    "polymatroid": ("is_polymatroid", "factor", "eval_functional", "gmm_check",
                    "ingleton", "scan_threshold", "parse_functional"),
    "lincong": ("parse_matrix", "profile_lincong", "image_size", "snf", "torus_profile"),
    "extend": ("dist_entropy_profile",),
    "cli": ("main",),
}


class Recorder:
    def __init__(self):
        self.job = "setup"
        self.spans = []
        self.stack = []                 # open spans: [id, name, child seconds]
        self.next_id = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)  # named counters

    def call(self, name, fn, args, kwargs):
        sid = self.next_id
        self.next_id += 1
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [sid, name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if parent is not None:
                parent[2] += dur
            self.spans.append((sid, name, self.job, start, end,
                               parent[0] if parent is not None else -1))
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[2]

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "job", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _spanned(rec, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        result = rec.call(name, fn, args, kwargs)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _counted(fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        count(args)
        return fn(*args, **kwargs)
    return wrapper


def _rebind(old, new):
    """Point every defent module attribute bound to ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "defent" or modname.startswith("defent.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def install(defent_modules: dict) -> Recorder:
    """Wrap the functions in LAYERS; ``defent_modules`` maps layer -> module."""
    rec = Recorder()
    counts = rec.counts

    def enum_before(args):
        dset, spec = args[0], args[1]
        counts["enumeration.assignments"] += spec.q ** len(dset.free_vars)

    def enum_after(args, result):
        counts["enumeration.points"] += result if isinstance(result, int) else result.shape[1]

    def sign_before(args):
        if args[0].is_zero():
            counts["logval.sign_structural_zero"] += 1
        if (rec.parent_name() or "").startswith("polymatroid."):
            counts["polymatroid.signs"] += 1

    hooks = {
        "enumeration.count_points_vec": (enum_before, enum_after),
        "enumeration.collect_points_vec": (enum_before, enum_after),
        "logval.LogValue.sign": (sign_before, None),
    }
    for layer, names in LAYERS.items():
        mod = defent_modules[layer]
        for qual in names:
            span_name = f"{layer}.{qual.split('.')[-1]}"
            before, after = hooks.get(f"{layer}.{qual}", (None, None))
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, _spanned(rec, span_name, getattr(cls, meth), before, after))
            else:
                old = getattr(mod, qual)
                _rebind(old, _spanned(rec, span_name, old, before, after))

    census, logval = defent_modules["census"], defent_modules["logval"]

    def marginal(args):
        counts["census.marginals"] += 1
        counts["census.marginal_points"] += int(args[0].shape[1])

    def iv_eval(args):
        if rec.parent_name() == "logval.sign":
            counts["logval.iv_evals"] += 1

    census._histogram_from_points = _counted(census._histogram_from_points, marginal)
    logval._iv_eval = _counted(logval._iv_eval, iv_eval)
    return rec


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer metrics of one traced round (out_bytes is added by the caller)."""
    calls, total, self_t, counts = rec.calls, rec.total, rec.self_time, rec.counts

    def self_of(*names):
        return sum(self_t[n] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    enum_busy = total["enumeration.count_points_vec"] + total["enumeration.collect_points_vec"]
    assignments = counts["enumeration.assignments"]
    checks = calls["polymatroid.is_polymatroid"] + calls["polymatroid.gmm_check"]
    poly = [f"polymatroid.{n}" for n in LAYERS["polymatroid"]]
    lincong = [f"lincong.{n}" for n in LAYERS["lincong"] if n != "snf"]
    return {
        "ringlang.parse_s": total["ringlang.parse_set"],
        "ringlang.parse_calls": calls["ringlang.parse_set"],
        "gf.field_s": total["gf.field"],
        "enumeration.busy_s": enum_busy,
        "enumeration.calls": calls["enumeration.count_points_vec"]
        + calls["enumeration.collect_points_vec"],
        "enumeration.assignments": assignments,
        "enumeration.points": counts["enumeration.points"],
        "enumeration.assignments_per_s": ratio(assignments, enum_busy),
        "enumeration.yield": ratio(counts["enumeration.points"], assignments),
        "census.self_s": self_of("census.entropy_profile", "census.fiber_histogram",
                                 "census.tower_census"),
        "census.marginals": counts["census.marginals"],
        "census.marginal_points": counts["census.marginal_points"],
        "census.period_s": total["census.detect_period"],
        "logval.log_of_rat_calls": calls["logval.log_of_rat"],
        "logval.log_of_rat_s": total["logval.log_of_rat"],
        "logval.sign_calls": calls["logval.sign"],
        "logval.sign_s": total["logval.sign"],
        "logval.sign_structural_zero": counts["logval.sign_structural_zero"],
        "logval.iv_evals": counts["logval.iv_evals"],
        "logval.self_s": self_of("logval.log_of_rat", "logval.sign"),
        "polymatroid.self_s": self_of(*poly),
        "polymatroid.checks": checks,
        "polymatroid.signs_per_check": ratio(counts["polymatroid.signs"], checks),
        "lincong.self_s": self_of(*lincong),
        "lincong.image_size_calls": calls["lincong.image_size"],
        "lincong.snf_calls": calls["lincong.snf"],
        "lincong.snf_s": total["lincong.snf"],
        "lincong.snf_cache_hit_ratio": (
            1 - ratio(calls["lincong.snf"], calls["lincong.image_size"])
            if calls["lincong.image_size"] else 0.0
        ),
        "extend.self_s": self_of("extend.dist_entropy_profile"),
        "extend.calls": calls["extend.dist_entropy_profile"],
        "cli.self_s": self_of("cli.main"),
    }
