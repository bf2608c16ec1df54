"""Command-line surface: counts, profiles, towers, congruences, checks.

Every command is a pure function of its inputs and flags: identical
invocations produce byte-identical output for any worker count.  All JSON
output is emitted with sorted keys.  Exit codes: 0 success, 2 parse or
format error, 3 domain or precondition error, 4 work budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import census, extend, lincong, polymatroid
from .enumeration import DEFAULT_MAX_EVALS
from .errors import BudgetError, DomainError, EstimationError, ParseError, load_json
from .gf import field
from .logval import LogValue
from .polymatroid import Profile
from .ringlang import parse_set

_quote = json.encoder.encode_basestring_ascii


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_set(path: str):
    return parse_set(_read(path))


def _load_profile(path: str) -> Profile:
    return Profile.from_json(load_json(_read(path)))


def _normalized_json(profile: Profile, base: int) -> dict:
    out = {}
    order = polymatroid.label_order(profile.ground_set)
    for ks, val in profile.normalized(base).items():
        key = polymatroid.subset_key(order, ks)
        if isinstance(val, Fraction):
            out[key] = f"{val.numerator}/{val.denominator}" if val.denominator != 1 else str(val.numerator)
        else:
            out[key] = val.value
    return out


def _profile_json(profile: Profile, base=None) -> dict:
    obj = profile.to_json()
    if base:
        obj["base"] = base
        obj["normalized"] = _normalized_json(profile, base)
    return obj


_KEYWORDS = {None: "null", True: "true", False: "false"}


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _write_json(obj, newline: str, out: list) -> None:
    """Append the text of obj to out as ``json.dumps(obj, sort_keys=True, indent=2)``
    spells it, obj's first line already begun and newline the indent of its last."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_KEYWORDS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_json(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            if not isinstance(k, str):  # every command's keys are strings
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
            out += (sep, _quote(k), ": ")
            if type(v) is str:  # most leaves: skip the call
                out.append(_quote(v))
            else:
                _write_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _emit(args, obj) -> int:
    """Write obj as ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, byte for
    byte; with ``indent`` the stdlib runs its pure-Python encoder, so the text is built here."""
    out = []
    _write_json(obj, "\n", out)
    out.append("\n")
    text = "".join(out)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_blocks(text: str) -> dict:
    blocks = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DomainError(f"bad block spec {part!r} (expected NAME=v1,v2)")
        name, vs = part.split("=", 1)
        blocks[name.strip()] = tuple(v.strip() for v in vs.split(",") if v.strip())
    if not blocks:
        raise DomainError("empty blocks specification")
    return blocks


def _rational(text: str) -> str:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    return text


def _sign_json(v: LogValue) -> dict:
    return {"value": v.to_json(), "sign": v.sign(), "float": v.to_float().value}


# -- handlers ------------------------------------------------------------------

def _cmd_count(args):
    dset = _load_set(args.setfile)
    spec = field(args.p, args.e)
    c = census.count_points(dset, spec, jobs=args.jobs, max_evals=args.max_evals)
    return {
        "set": dset.name,
        "p": args.p,
        "rows": [{"e": args.e, "q": spec.q, "count": c}],
    }


def _cmd_profile(args):
    dset = _load_set(args.setfile)
    spec = field(args.p, args.e)
    prof = census.entropy_profile(dset, spec, jobs=args.jobs, max_evals=args.max_evals)
    if args.blocks is not None:
        blocks = dset.block_map() if args.blocks == "@declared" else _parse_blocks(args.blocks)
        prof = polymatroid.factor(prof, blocks)
    return _profile_json(prof, args.base)


def _cmd_tower(args):
    dset = _load_set(args.setfile)
    subsets = [s.split(",") for s in args.subsets.split(";")] if args.subsets else None
    table = census.tower_census(
        dset, args.p, args.emax, subsets, jobs=args.jobs, max_evals=args.max_evals
    )
    obj = {"census": table.to_json()}
    try:
        report = census.detect_period(table, args.period_max)
        obj["period"] = {
            "m": report.modulus,
            "classes": {
                str(res): {"d": est.d, "mu": f"{est.mu.numerator}/{est.mu.denominator}"}
                for res, est in report.classes.items()
            },
        }
    except EstimationError as exc:
        obj["period"] = None
        obj["period_diagnostics"] = str(exc)
    return obj


def _cmd_lincong(args):
    mat = lincong.parse_matrix(_read(args.matrixfile))
    prof = lincong.profile_lincong(mat, args.m)
    return _profile_json(prof, args.base)


def _cmd_snf(args):
    mat = lincong.parse_matrix(_read(args.matrixfile))
    res = lincong.snf(mat)
    return {
        "S": [list(r) for r in res.S],
        "T": [list(r) for r in res.T],
        "U": [list(r) for r in res.U],
        "diagonal": list(res.diagonal),
    }


def _cmd_torus(args):
    mat = lincong.parse_matrix(_read(args.matrixfile))
    spec = field(args.p, args.e)
    prof = lincong.torus_profile(mat, spec)
    return _profile_json(prof, args.base)


def _cmd_check(args):
    prof = _load_profile(args.profile)
    if args.gmm:
        rep = polymatroid.gmm_check(prof)
        return {
            "antecedents": {k: _sign_json(v) for k, v in rep.antecedents.items()},
            "all_zero": rep.all_zero,
            "ingleton": _sign_json(rep.ingleton_value),
            "conclusive": rep.all_zero,
        }
    if args.dfz is not None:
        f = polymatroid.dfz_family(args.dfz, corrected=args.dfz_corrected,
                                   labels=tuple(prof.ground_set))
        val = polymatroid.eval_functional(f, prof)
        return {"functional": f.render(), "s": args.dfz, **_sign_json(val)}
    f = polymatroid.parse_functional(args.expr)
    val = polymatroid.eval_functional(f, prof)
    return {"expr": args.expr, **_sign_json(val)}


def _cmd_kr(args):
    if args.scan:
        if args.eps is None:
            raise DomainError("scan needs --eps")
        res = polymatroid.scan_threshold(Fraction(args.eps), args.qmax)
        obj = {"eps": args.eps, "qmax": args.qmax, "q_star": res.q_star, "prev_q": res.prev_q}
        if res.q_star is not None:
            obj["at_q_star"] = _sign_json(res.value_at_q_star)
        if res.value_at_prev is not None:
            obj["at_prev"] = _sign_json(res.value_at_prev)
        if res.q_star is None:
            obj["message"] = "no violation in range"
        return obj
    if args.q is None:
        raise DomainError("kr needs --q or --scan")
    forms = polymatroid.kr_closed_form(args.q, corrected=not args.classical)
    obj = {"q": args.q, "closed_forms": {k: _sign_json(v) for k, v in forms.as_dict().items()}}
    if args.eps is not None:
        obj["violation"] = _sign_json(polymatroid.kr_violation(args.q, Fraction(args.eps)))
    return obj


def _parse_labels(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _cmd_extend(args):
    if args.mode == "copy":
        dist = extend.Distribution.from_json(load_json(_read(args.input)))
        res = extend.copy_product(dist, _parse_labels(args.L) if args.L else ())
        prof = extend.dist_entropy_profile(res.dist)
        base = extend.dist_entropy_profile(dist)
        chk = extend.check_extension(extend.copy_partial(base, res.shared), prof)
        return {
            "distribution": res.dist.to_json(),
            "tau": dict(sorted(res.tau.items())),
            "profile": prof.to_json(),
            "check": {"ok": chk.ok, "failure": chk.failure},
        }
    prof = _load_profile(args.input)
    labels = _parse_labels(args.L) if args.L else ()
    if args.mode == "sw":
        if args.alpha == "auto":
            if not set(labels) <= set(prof.ground_set):
                raise DomainError("L must be a subset of the ground set")
            I = frozenset(prof.ground_set) - set(labels)
            alpha = polymatroid.cond_entropy(prof, I, labels)
        elif args.alpha == "0":
            alpha = LogValue.zero()
        else:
            alpha = LogValue.from_json(load_json(args.alpha))
        pp = extend.slepian_wolf_partial(prof, labels, alpha)
    else:
        pp = extend.ak_partial(prof, labels)
    return pp.to_json()


def _cmd_factor(args):
    prof = _load_profile(args.profile)
    return _profile_json(polymatroid.factor(prof, _parse_blocks(args.blocks)), args.base)


def _cmd_convolve(args):
    h = _load_profile(args.h)
    m = _load_profile(args.m)
    return _profile_json(polymatroid.convolve(h, m), args.base)


# -- parser ------------------------------------------------------------------------

def _add_enum_flags(p):
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--max-evals", type=int, default=DEFAULT_MAX_EVALS,
                   help="work budget (default 1e9): assignments enumerated, and for a "
                        "profile 2^n marginals times its points; exceeding exits 4")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` keeps no state
    between calls, so every ``main`` call in one process shares it."""
    ap = argparse.ArgumentParser(
        prog="defent",
        description="entropy profiles of definable sets over finite fields",
    )
    ap.add_argument("-o", "--output", help="write JSON here instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count rational points of a set file")
    p.add_argument("setfile")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, default=1)
    _add_enum_flags(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("profile", help="exact entropy profile of a set file")
    p.add_argument("setfile")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--blocks", nargs="?", const="@declared",
                   help="factor by blocks (declared in the set file, or NAME=v1,v2;...)")
    p.add_argument("--base", type=int)
    _add_enum_flags(p)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("tower", help="census across extension degrees + period report")
    p.add_argument("setfile")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--emax", type=int, required=True)
    p.add_argument("--period-max", type=int, default=6)
    p.add_argument("--subsets", help="fiber subsets, e.g. 'y;a,b,c'")
    _add_enum_flags(p)
    p.set_defaults(handler=_cmd_tower)

    p = sub.add_parser("lincong", help="entropy profile of a linear congruence")
    p.add_argument("matrixfile")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--base", type=int)
    p.set_defaults(handler=_cmd_lincong)

    p = sub.add_parser("snf", help="Smith normal form with unimodular transforms")
    p.add_argument("matrixfile")
    p.set_defaults(handler=_cmd_snf)

    p = sub.add_parser("torus", help="profile of a monomial image of the torus")
    p.add_argument("matrixfile")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--base", type=int)
    p.set_defaults(handler=_cmd_torus)

    p = sub.add_parser("check", help="evaluate a functional on a profile JSON")
    p.add_argument("profile")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--expr", help="functional DSL, e.g. 'I(A:B|C)' "
                   "(grammar: defent.polymatroid.parse_functional)")
    g.add_argument("--gmm", action="store_true")
    g.add_argument("--dfz", type=int, metavar="S")
    p.add_argument("--dfz-corrected", action="store_true",
                   help="read the vanishing I(B:C|C) summand as I(B:C|D)")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("kr", help="KR closed forms / essential-conditionality scan")
    p.add_argument("--q", type=int)
    p.add_argument("--eps", type=_rational)
    p.add_argument("--classical", action="store_true",
                   help="classical D(C:D|A) = log((q-1)/(q-2)) instead of the enumeration-exact value")
    p.add_argument("--scan", action="store_true")
    p.add_argument("--qmax", type=int, default=10**4)
    p.set_defaults(handler=_cmd_kr)

    p = sub.add_parser("extend", help="copy / Slepian-Wolf / Ahlswede-Korner extensions")
    p.add_argument("mode", choices=["sw", "ak", "copy"])
    p.add_argument("input", help="profile JSON (sw, ak) or distribution JSON (copy)")
    p.add_argument("--L", help="comma-separated labels of the conditioning set")
    p.add_argument("--alpha", default="auto",
                   help="'auto' (= h(I|L)), '0', or a LogValue JSON object")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("factor", help="factor a profile by a partition into blocks")
    p.add_argument("profile")
    p.add_argument("--blocks", required=True)
    p.add_argument("--base", type=int)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("convolve", help="modular convolution of two profiles")
    p.add_argument("h")
    p.add_argument("m")
    p.add_argument("--base", type=int)
    p.set_defaults(handler=_cmd_convolve)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        obj = args.handler(args)
    except ParseError as exc:
        print(f"defent: parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"defent: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"defent: budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (DomainError, EstimationError) as exc:
        print(f"defent: {exc}", file=sys.stderr)
        return 3
    return _emit(args, obj)


if __name__ == "__main__":
    raise SystemExit(main())
