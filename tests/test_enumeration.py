"""The enumeration engine against independent references.

The references are the scalar evaluator (ringlang.eval_formula) and gf's
polynomial arithmetic (FieldSpec.add/mul/neg/pow); neither shares code
with the vectorised engine.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defent import count_points, entropy_profile, eval_formula, field, log_of_rat
from defent import enumeration
from defent import ringlang as rl
from defent.census import collect_points
from defent.enumeration import get_engine
from conftest import KR_TEXT

FUZZ_FIELDS = (field(2), field(3), field(2, 2), field(5), field(2, 3), field(3, 2))
FUZZ_WORK = 4000  # q^(free variables + nested quantifiers) the oracle may walk


@st.composite
def fuzz_cases(draw):
    """A random definable set (depth <= 4) and a field small enough for the oracle."""
    fresh = (f"b{i}" for i in itertools.count())
    nest = [0]

    def term(scope, depth):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            if draw(st.booleans()):
                return rl.Var(draw(st.sampled_from(scope)))
            return rl.Const(draw(st.integers(0, 4)))
        kind = draw(st.sampled_from(("add", "mul", "neg", "pow")))
        if kind == "neg":
            return rl.Neg(term(scope, depth - 1))
        if kind == "pow":
            return rl.Pow(term(scope, depth - 1), draw(st.integers(1, 4)))
        args = tuple(term(scope, depth - 1) for _ in range(draw(st.integers(2, 3))))
        return (rl.Add if kind == "add" else rl.Mul)(args)

    def formula(scope, depth, level):
        nest[0] = max(nest[0], level)
        kinds = ("atom", "not", "and", "or", "implies", "exists", "forall")
        kind = draw(st.sampled_from(kinds[:1] if depth == 0 else kinds))
        if kind == "atom":
            return rl.Eq0(term(scope, 2))
        if kind == "not":
            return rl.Not(formula(scope, depth - 1, level))
        if kind in ("exists", "forall"):
            v = next(fresh)
            body = formula(scope + (v,), depth - 1, level + 1)
            return (rl.Exists if kind == "exists" else rl.Forall)(v, body)
        if kind == "implies":
            return rl.Implies(formula(scope, depth - 1, level), formula(scope, depth - 1, level))
        args = tuple(formula(scope, depth - 1, level) for _ in range(draw(st.integers(2, 3))))
        return (rl.And if kind == "and" else rl.Or)(args)

    free = ("x", "y", "z")[: draw(st.integers(1, 3))]
    phi = formula(free, 4, 0)
    fits = [s for s in FUZZ_FIELDS if s.q ** (len(free) + nest[0]) <= FUZZ_WORK]
    return rl.DefinableSet("F", free, phi), draw(st.sampled_from(fits))


def oracle_points(dset, spec):
    n = len(dset.free_vars)
    pts = [
        a
        for a in itertools.product(spec.elements(), repeat=n)
        if eval_formula(dset.formula, dict(zip(dset.free_vars, a)), spec)
    ]
    return np.array(pts, dtype=np.int64).reshape(-1, n).T


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fuzz_cases())
def test_engine_matches_scalar_evaluator(case):
    dset, spec = case
    want = oracle_points(dset, spec)
    assert count_points(dset, spec) == want.shape[1]
    assert np.array_equal(collect_points(dset, spec), want)
    # tiny chunks: many chunks per grid and quantifier axes walked in blocks
    with mock.patch.object(enumeration, "_CHUNK_ELEMS", 3):
        assert count_points(dset, spec) == want.shape[1]
        assert np.array_equal(collect_points(dset, spec), want)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(fuzz_cases())
def test_printed_sets_reparse_to_the_same_points(case):
    dset, spec = case
    if set(rl.free_vars(dset.formula)) != set(dset.free_vars):
        return  # parse_set rejects declared variables that do not occur
    text = rl.set_str(dset)
    again = rl.parse_set(text)
    assert again == dset
    assert rl.set_str(again) == text
    assert np.array_equal(collect_points(again, spec), collect_points(dset, spec))


# -- eliminating defined variables ---------------------------------------------


def quantifiers(phi, level=0):
    """(variable, nesting level) of every quantifier in phi."""
    if isinstance(phi, (rl.Exists, rl.Forall)):
        return [(phi.var, level + 1)] + quantifiers(phi.body, level + 1)
    if isinstance(phi, rl.Not):
        return quantifiers(phi.arg, level)
    if isinstance(phi, (rl.And, rl.Or)):
        return [vl for a in phi.args for vl in quantifiers(a, level)]
    if isinstance(phi, rl.Implies):
        return quantifiers(phi.lhs, level) + quantifiers(phi.rhs, level)
    return []


@st.composite
def defined_cases(draw):
    """A fuzz set with the conjunct v = t or v = -t prepended.

    v is a new, a free or a quantified variable.  t sometimes names a
    quantified variable, which is then declared free as well: substituting
    t for v under that quantifier would capture it.
    """
    dset, _ = draw(fuzz_cases())
    quants = quantifiers(dset.formula)
    bound = sorted({b for b, _ in quants})
    v = draw(st.sampled_from(("v",) + dset.free_vars + tuple(bound)))
    scope = list(dset.free_vars) + [v]
    if bound and draw(st.booleans()):
        scope.append(draw(st.sampled_from(bound)))
    names = st.sampled_from(scope)
    atom = st.one_of(
        names.map(rl.Var),
        st.integers(0, 4).map(rl.Const),
        st.tuples(names, names).map(lambda ab: rl.Mul((rl.Var(ab[0]), rl.Var(ab[1])))),
    )
    t = rl.Add(tuple(draw(st.lists(atom, min_size=1, max_size=3))))
    rhs = t if draw(st.booleans()) else rl.Neg(t)  # v = -t or v = t
    phi = rl.And((rl.Eq0(rl.Add((rl.Var(v), rhs))), dset.formula))
    new = [w for w in [v, *rl.free_vars(t)] if w not in dset.free_vars]
    free = tuple(dict.fromkeys(new)) + dset.free_vars
    nest = max((level for _, level in quants), default=0)
    fits = [s for s in FUZZ_FIELDS if s.q ** (len(free) + nest) <= FUZZ_WORK]
    return rl.DefinableSet("D", free, phi), draw(st.sampled_from(fits))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(defined_cases())
def test_elimination_matches_scalar_evaluator(case):
    dset, spec = case
    want = oracle_points(dset, spec)
    assert count_points(dset, spec) == want.shape[1]
    assert np.array_equal(collect_points(dset, spec), want)
    with mock.patch.object(enumeration, "_CHUNK_ELEMS", 3):
        assert count_points(dset, spec) == want.shape[1]
        assert np.array_equal(collect_points(dset, spec), want)


def test_kr_plans_to_six_variables(kr_set):
    reduced, defs = enumeration._plan(kr_set)
    assert len(reduced.free_vars) == 6 and len(defs) == 3
    assert set(reduced.free_vars) | {v for v, _ in defs} == set(kr_set.free_vars)
    for _, t in defs:
        assert set(rl.free_vars(t)) <= set(reduced.free_vars)


def test_kr_plans_to_six_variables_through_groups():
    # the plan flattens nested And groups when it collects conjuncts
    text = KR_TEXT.replace(":= a2", ":= (a2").replace("d0\n  /\\ b2", "d0)\n  /\\ (b2")
    text = text.replace("d0\n  /\\ a1", "d0)\n  /\\ a1")
    dset = rl.parse_set(text)
    assert [type(c) for c in dset.formula.args[:2]] == [rl.And, rl.And]
    reduced, defs = enumeration._plan(dset)
    assert len(reduced.free_vars) == 6 and len(defs) == 3
    assert (reduced, defs) == enumeration._plan(rl.parse_set(KR_TEXT))


@pytest.mark.parametrize("spec", [field(2), field(5), field(3, 2)], ids=repr)
def test_every_variable_eliminated(spec):
    dset = rl.parse_set("set S(x) := x = 1")
    reduced, defs = enumeration._plan(dset)
    assert reduced.free_vars == () and [v for v, _ in defs] == ["x"]
    assert count_points(dset, spec) == 1
    assert np.array_equal(collect_points(dset, spec), [[1]])


def test_chained_definitions():
    dset = rl.parse_set("set C(u, v, x) := u = v + 1 /\\ v = x*x")
    reduced, defs = enumeration._plan(dset)
    assert reduced.free_vars == ("x",)
    assert [rl.free_vars(t) for _, t in defs] == [["x"], ["x"]]
    for spec in (field(5), field(2, 2)):
        assert count_points(dset, spec) == spec.q
        assert np.array_equal(collect_points(dset, spec), oracle_points(dset, spec))


V, Y = rl.Var("v"), rl.Var("y")


@pytest.mark.parametrize("body, count", [
    (rl.Eq0(rl.Add((rl.Mul((V, Y)), rl.Const(-1)))), 2),  # v := y would be captured
    (rl.Eq0(rl.Add((Y, rl.Neg(V), rl.Const(-1)))), 3),    # y := v stops at the binder
])
def test_definitions_do_not_capture(body, count):
    # v = y /\ exists y. body, with y both free and quantified
    dset = rl.DefinableSet("K", ("v", "y"), rl.And((rl.Eq0(rl.Add((V, rl.Neg(Y)))), rl.Exists("y", body))))
    assert enumeration._plan(dset)[0].free_vars == ("v",)
    spec = field(3)
    want = oracle_points(dset, spec)
    assert want.shape[1] == count
    assert count_points(dset, spec) == count
    assert np.array_equal(collect_points(dset, spec), want)


def test_oracle_restores_a_shadowed_free_variable():
    # (exists y. y = 0) /\ y = 1: the quantifier's y ends, the free y = 1 is read again
    phi = rl.And((rl.Exists("y", rl.Eq0(Y)), rl.Eq0(rl.Add((Y, rl.Const(-1))))))
    dset = rl.DefinableSet("S", ("y",), phi)
    spec = field(3)
    assert [y for y in spec.elements() if eval_formula(phi, {"y": y}, spec)] == [1]
    assert count_points(dset, spec) == 1
    assert np.array_equal(collect_points(dset, spec), oracle_points(dset, spec))


@pytest.mark.parametrize("text", ["set T(v) := v + v = 0", "set U(v, y) := 2*v = y"])
def test_non_definitions_keep_their_variable(text):
    # v occurs twice, or times 2: neither defines v (2*v = y does define y)
    dset = rl.parse_set(text)
    assert "v" in enumeration._plan(dset)[0].free_vars
    for spec in (field(2), field(3), field(2, 2)):
        want = oracle_points(dset, spec)
        assert count_points(dset, spec) == want.shape[1]
        assert np.array_equal(collect_points(dset, spec), want)


# -- field tables against gf ---------------------------------------------------

SMALL_FIELDS = [field(p, e) for p, e in [
    (2, 1), (3, 1), (7, 1), (61, 1),
    (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6),
]]


@pytest.mark.parametrize("spec", SMALL_FIELDS, ids=repr)
def test_tables_match_field_arithmetic_exhaustive(spec):
    eng = get_engine(spec)
    q = spec.q
    a, b = (g.astype(eng.dtype) for g in np.meshgrid(np.arange(q), np.arange(q), indexing="ij"))
    add = np.array([[spec.add(x, y) for y in range(q)] for x in range(q)])
    mul = np.array([[spec.mul(x, y) for y in range(q)] for x in range(q)])
    neg = np.array([spec.neg(x) for x in range(q)])
    assert np.array_equal(eng.add(a, b), add)
    assert np.array_equal(eng.mul(a, b), mul)
    assert np.array_equal(eng.sub(a, b), add[np.arange(q)[:, None], neg[None, :]])
    assert np.array_equal(eng.neg(a[:, 0]), neg)
    for n in (1, 2, 3, 5):
        assert np.array_equal(eng.pow(a[:, 0], n), [spec.pow(x, n) for x in range(q)])
    if spec.e > 1:
        assert eng.tables
        assert np.array_equal(eng.ADD, add) and np.array_equal(eng.MUL, mul)
        assert np.array_equal(eng._log_mul(a, b), mul)
        assert np.array_equal(eng.NEG, neg)


@pytest.mark.parametrize("spec", [field(2, 6), field(3, 4), field(7, 3)], ids=repr)
def test_log_exp_tables_match_generator_powers(spec):
    eng, g = get_engine(spec), spec.generator()
    for k in range(spec.q - 1):
        assert eng.EXP[k] == spec.pow(g, k) and eng.LOG[eng.EXP[k]] == k


@pytest.mark.parametrize("p", [3, 5, 7])
def test_tables_match_field_arithmetic_sampled(p):
    spec = field(p, 6)
    eng = get_engine(spec)
    q = spec.q
    assert eng.tables == (q <= 1024)
    exp = eng.EXP[: q - 1].astype(np.int64)
    assert np.array_equal(np.sort(exp), np.arange(1, q))
    assert np.array_equal(eng.LOG[exp], np.arange(q - 1))
    rng = np.random.default_rng(p)
    a, b = rng.integers(0, q, size=(2, 1500))
    a[:20] = 0
    b[10:30] = 0
    a, b = a.astype(eng.dtype), b.astype(eng.dtype)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert eng.add(a, b).tolist() == [spec.add(x, y) for x, y in pairs]
    assert eng.sub(a, b).tolist() == [spec.sub(x, y) for x, y in pairs]
    assert eng.mul(a, b).tolist() == [spec.mul(x, y) for x, y in pairs]
    assert eng._log_mul(a, b).tolist() == [spec.mul(x, y) for x, y in pairs]
    assert eng.neg(a).tolist() == [spec.neg(x) for x in a.tolist()]
    assert eng.pow(a, 3).tolist() == [spec.pow(x, 3) for x in a.tolist()]


def test_engine_cache_is_bounded():
    specs = [field(p) for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)]
    assert len(specs) > enumeration._ENGINE_CACHE
    engines = [get_engine(spec) for spec in specs]
    assert get_engine.cache_info().currsize == enumeration._ENGINE_CACHE
    oldest = -enumeration._ENGINE_CACHE
    assert get_engine(specs[oldest]) is engines[oldest]  # a hit makes it the newest
    get_engine(field(59))  # evicts the next oldest instead
    assert get_engine(specs[oldest]) is engines[oldest]
    assert get_engine(specs[oldest + 1]) is not engines[oldest + 1]


# -- working memory ------------------------------------------------------------

MiB = 1 << 20


def traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs, above those traced when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def traced_retained(fn) -> int:
    """Bytes still traced after fn() returns, above those traced when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def test_engine_keeps_no_per_formula_state():
    # each set has an additive split, so each count finds a decision vector of q bools
    spec = field(100003)
    get_engine(spec)

    def count_all():
        for i in range(1, 101):
            count_points(rl.parse_set(f"set S(y) := exists x. x^2 + {i}*y = 0"), spec)

    assert traced_retained(count_all) <= 1 * MiB


def test_log_exp_tables_are_built_in_bounded_memory():
    # what get_engine(field(7, 6)) builds, past its cache: 117,649 elements
    assert traced_peak(lambda: enumeration._Engine(field(7, 6))) <= 8 * MiB


@pytest.mark.parametrize("run", [count_points, collect_points], ids=["count", "collect"])
def test_enumeration_peak_is_bounded_by_the_chunk(hyp_set, run):
    # 2003^2 = 4,012,009 assignments: one int32 array over the grid would be 15.3 MiB
    spec = field(2003)
    get_engine(spec)  # built before tracing starts, as for any later set over GF(2003)
    assert traced_peak(lambda: run(hyp_set, spec)) <= 4 * MiB


OP_FIELDS = [field(7), field(7, 2), field(3, 7)]  # native % p, q x q tables, digit-wise


@pytest.mark.parametrize("spec", OP_FIELDS, ids=repr)
def test_engine_ops_never_write_into_their_operands(spec):
    # results are reduced in place: every operand is read-only, so a write raises
    eng, q = get_engine(spec), spec.q
    assert eng.tables == (spec.e == 2)
    col = enumeration._axis_range(0, min(q, 40), 0, 2, eng.dtype)       # env-style axes
    row = enumeration._axis_range(q - min(q, 30), q, 1, 2, eng.dtype)
    operands = [col, row, eng.const(3), eng.const(q - 1), eng.const(0)]  # 0-d constants
    for a in operands:
        a.setflags(write=False)
    before = [a.copy() for a in operands]

    def check(got, op, *args):
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        flat = [np.broadcast_to(a, shape).ravel().tolist() for a in args]
        want = [op(*xs) for xs in zip(*flat)]
        assert np.broadcast_to(got, shape).ravel().tolist() == want

    for a in operands:
        check(eng.neg(a), spec.neg, a)
        for n in (1, 2, 5):
            check(eng.pow(a, n), lambda x: spec.pow(x, n), a)
        for b in operands:
            check(eng.add(a, b), spec.add, a, b)
            check(eng.sub(a, b), spec.sub, a, b)
            check(eng.mul(a, b), spec.mul, a, b)
    for a, b in zip(operands, before):
        assert np.array_equal(a, b) and a.dtype == b.dtype


# -- deep formulas -------------------------------------------------------------


def deep_set_text(levels):
    """exists x. x*(x*(...(y + 1)...) + 1) = 1 with ``levels`` factors of x: height 2 levels + 4."""
    t = "y + 1"
    for _ in range(levels - 1):
        t = f"x*({t}) + 1"
    return f"set D(y) := exists x. x*({t}) = 1"


def from_depth(frames, fn):
    """fn() called from ``frames`` Python frames further down the stack."""
    return fn() if frames == 0 else from_depth(frames - 1, fn)


def test_reparsed_deep_sets_evaluate_from_a_deep_caller():
    # an equal tree parsed again must not be compared with the first one node by node
    text = deep_set_text(98)
    assert rl._height(rl.parse_set(text).formula) == rl.MAX_DEPTH
    count = count_points(rl.parse_set(text), field(5))
    profile = from_depth(300, lambda: entropy_profile(rl.parse_set(text), field(5)))
    assert profile["y"] == log_of_rat(count)
