import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_enumeration import fuzz_cases

from defent import (
    BudgetError,
    CensusRow,
    DomainError,
    EstimationError,
    LogValue,
    count_points,
    detect_period,
    entropy_profile,
    estimate_dim_measure,
    eval_formula,
    fiber_histogram,
    field,
    is_polymatroid,
    log_of_rat,
    marginal_distribution,
    parse_set,
    tower_census,
)
from defent import ringlang as rl
from defent import census
from defent.census import CensusTable, _profile_of_points, collect_points
from defent.enumeration import _chunk_plan, _plan, _Plan
from defent.polymatroid import Profile


# -- an independent oracle: scalar evaluation + full joint table --------------

def oracle_count(dset, spec):
    n = len(dset.free_vars)
    total = 0
    for a in itertools.product(spec.elements(), repeat=n):
        if eval_formula(dset.formula, dict(zip(dset.free_vars, a)), spec):
            total += 1
    return total


def oracle_profile(dset, spec):
    """Materialize the joint table and sum -p log p per subset."""
    n = len(dset.free_vars)
    support = [
        a
        for a in itertools.product(spec.elements(), repeat=n)
        if eval_formula(dset.formula, dict(zip(dset.free_vars, a)), spec)
    ]
    T = len(support)
    entries = {}
    for r in range(n + 1):
        for comb in itertools.combinations(range(n), r):
            counts = Counter(tuple(a[i] for i in comb) for a in support)
            h = LogValue.zero()
            for c in counts.values():
                p = Fraction(c, T)
                h = h + log_of_rat(1 / p).scale(p)
            entries[frozenset(dset.free_vars[i] for i in comb)] = h
    return Profile(dset.free_vars, entries)


def test_count_examples(hyp_set, sqrt_set, kr_set):
    assert count_points(hyp_set, field(5)) == 9
    assert count_points(sqrt_set, field(7)) == 1
    assert count_points(sqrt_set, field(7, 2)) == 49
    q = 5
    assert count_points(kr_set, field(5)) == q**3 * (q - 1) ** 2


def test_count_matches_oracle_small():
    F = field(3)
    sets = [
        "set A(x, y) := x*y = 0",
        "set B(x, y) := exists t. t^2 = x*y",
        "set C(x, y, z) := x + y + z = 0 /\\ x != y",
        "set D(x) := forall t. t*x = 0 -> x = 0",
        "set E(x, y) := (x = 0 -> y = 0) /\\ x^2 + y != 2",
        "set F(x, y, z) := exists u. forall v. v*(x + u) != y - z \\/ v = 0",
    ]
    for text in sets:
        d = parse_set(text)
        for spec in (field(2), field(3), field(2, 2), field(5), field(3, 2)):
            assert count_points(d, spec) == oracle_count(d, spec), (text, spec)


def test_count_matches_oracle_nested_quantifiers():
    sets = [
        "set F(x, y, z) := exists u. forall v. v*(x + u) != y - z \\/ v = 0",
        "set G(x) := forall t. t*x = 0 -> x = 0",
        "set H(x, y) := exists u. u^2 = x /\\ (forall w. w*u = y -> w != x)",
        "set J(x) := exists a. exists b. a*b = x /\\ a != b",
        "set K(x, y) := exists u. x*u^2 + y*u = 1 \\/ (u = y /\\ x = 0)",
    ]
    for text in sets:
        d = parse_set(text)
        for spec in (field(2), field(3), field(2, 2), field(3, 2)):
            assert count_points(d, spec) == oracle_count(d, spec), (text, spec)


def test_fiber_histogram_examples(hyp_set, cubic_set):
    fh = fiber_histogram(hyp_set, ["y"], field(5))
    assert fh.buckets == {5: 1, 1: 4} and fh.total == 9 and fh.outside == 0
    fh2 = fiber_histogram(cubic_set, ["a", "b", "c"], field(2))
    assert fh2.buckets == {2: 2, 1: 4} and fh2.outside == 2
    fh3 = fiber_histogram(hyp_set, ["x", "y"], field(5))
    assert fh3.buckets == {1: 9}


def test_fiber_histogram_empty_projection(hyp_set):
    fh = fiber_histogram(hyp_set, [], field(3))
    assert fh.buckets == {5: 1} and fh.outside == 0


def test_fiber_histogram_bad_subset(hyp_set):
    with pytest.raises(DomainError):
        fiber_histogram(hyp_set, ["nope"], field(3))


def test_entropy_profile_examples(hyp_set):
    prof = entropy_profile(hyp_set, field(5))
    assert prof[("x", "y")] == log_of_rat(9)
    assert prof["y"] == LogValue({3: 2, 5: Fraction(-5, 9)})
    assert prof[()] == LogValue.zero()
    assert is_polymatroid(prof)


def test_entropy_profile_empty_set_errors():
    d = parse_set("set Empty(x) := x != x + 1 /\\ x = x + 1")
    with pytest.raises(DomainError, match="empty"):
        entropy_profile(d, field(3))


def test_profile_matches_oracle():
    for text, specs in [
        ("set A(x, y) := x*y = 0", [field(3), field(2, 2), field(7)]),
        ("set B(x, y, z) := x*y = z^2", [field(3), field(5)]),
        ("set C(x, y) := exists t. x = t^2 /\\ y != t", [field(5), field(3, 2)]),
    ]:
        d = parse_set(text)
        for spec in specs:
            assert entropy_profile(d, spec) == oracle_profile(d, spec), (text, spec)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fuzz_cases())
def test_entropy_profile_matches_joint_table(case):
    dset, spec = case
    try:
        got = entropy_profile(dset, spec)
    except DomainError:
        assert oracle_count(dset, spec) == 0
        return
    want = oracle_profile(dset, spec)
    for ks in want.subsets():
        assert got[ks] == want[ks], (rl.set_str(dset), spec, sorted(ks))


# -- the marginal walk's functional-dependency pruning --------------------------

PRUNING_FIELDS = (field(2), field(3), field(5), field(7), field(2, 2), field(3, 2))

DEPENDENCY_SETS = [
    # a chain of graphs: each dependent column is a function of one earlier subset only
    "set G(x, y, z, w) := y = x^2 /\\ z = x + y /\\ w = y*z",
    # constant columns, interleaved with free ones
    "set K(x, c, y, d) := c = 1 /\\ d = 0 /\\ x*y != 1",
    # copied columns
    "set Cp(x, u, y, v, w) := u = x /\\ v = y /\\ w = x*y /\\ x != 1",
    # injective subsets: {s, t} and {x, y} determine everything in odd characteristic
    "set In(x, y, s, t, p) := s = x + y /\\ t = x - y /\\ p = x*y",
    # a column tied to the others by a relation, not a graph
    "set L(a, b, c, d, e, f) := c = a + b /\\ d = a*b /\\ e = c^2 - d /\\ exists t. t^2 = f + a",
    "set S(x, y, z, u, v, w, t) := z = x*y /\\ u = x + y /\\ v = z + u /\\ w = 0 /\\ t = v^2",
]


@pytest.mark.parametrize("text", DEPENDENCY_SETS, ids=lambda t: t.split("(")[0][4:])
def test_pruned_walk_matches_oracle_on_dependency_rich_sets(text):
    d = parse_set(text)
    specs = [s for s in PRUNING_FIELDS if s.q ** len(d.free_vars) <= 17000]
    assert len(specs) >= 3
    for spec in specs:
        assert entropy_profile(d, spec) == oracle_profile(d, spec), (text, spec)


@st.composite
def dependency_graphs(draw):
    """A set of 4-7 variables, each free, constant, a copy of an earlier one, or the sum
    or product of two earlier ones, optionally cut by x != y; a field small enough for
    the oracle."""
    spec = draw(st.sampled_from(PRUNING_FIELDS))
    n = draw(st.integers(4, 7).filter(lambda n: spec.q ** n <= 4096))
    names = [f"v{i}" for i in range(n)]
    atoms = []
    for i, v in enumerate(names):
        kind = draw(st.sampled_from(("free", "const", "copy", "sum", "product"))) if i else "free"
        if kind == "free":
            atoms.append(f"{v} = {v}")  # every declared variable must occur
        elif kind == "const":
            atoms.append(f"{v} = {draw(st.integers(0, 2))}")
        elif kind == "copy":
            atoms.append(f"{v} = {draw(st.sampled_from(names[:i]))}")
        elif kind in ("sum", "product"):
            a, b = draw(st.sampled_from(names[:i])), draw(st.sampled_from(names[:i]))
            atoms.append(f"{v} = {a} {'+' if kind == 'sum' else '*'} {b}")
    if draw(st.booleans()):
        atoms.append(f"{names[0]} != {names[-1]}")
    body = " /\\ ".join(atoms)
    return parse_set(f"set R({', '.join(names)}) := {body}"), spec


@settings(max_examples=40, derandomize=True, deadline=None)
@given(dependency_graphs())
def test_pruned_walk_matches_oracle_on_random_graphs(case):
    dset, spec = case
    try:
        got = entropy_profile(dset, spec)
    except DomainError:
        assert oracle_count(dset, spec) == 0
        return
    assert got == oracle_profile(dset, spec), (rl.set_str(dset), spec)


def counter_profile(points, labels):
    """Entropies of the uniform distribution on the columns, one Counter per subset."""
    columns = list(zip(*points.tolist()))
    total = len(columns)
    entries = {}
    for r in range(len(labels) + 1):
        for comb in itertools.combinations(range(len(labels)), r):
            counts = Counter(tuple(col[i] for i in comb) for col in columns)
            h = LogValue.zero()
            for c in counts.values():
                h = h + log_of_rat(Fraction(total, c)).scale(Fraction(c, total))
            entries[frozenset(labels[i] for i in comb)] = h
    return Profile(labels, entries)


@st.composite
def dependent_point_arrays(draw):
    """Distinct points whose columns are free, constant, copies, or tabulated functions
    of one or two earlier columns."""
    q = draw(st.sampled_from((2, 3, 5, 11)))
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(("free", "const", "copy", "function"))) if i else "free"
        m = draw(st.integers(1, 60))
        if kind == "free":
            rows.append(rng.integers(0, q, m if not rows else rows[0].shape[0]))
        elif kind == "const":
            rows.append(np.full(rows[0].shape[0], draw(st.integers(0, q - 1))))
        elif kind == "copy":
            rows.append(rows[draw(st.integers(0, i - 1))].copy())
        else:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            table = rng.integers(0, q, (q, q))
            rows.append(table[rows[a], rows[b]])
    points = np.unique(np.array(rows, dtype=np.int64), axis=1)
    return points, tuple(f"c{i}" for i in range(n)), q


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dependent_point_arrays())
def test_pruned_walk_matches_counter_oracle_on_point_arrays(case):
    points, labels, q = case
    assert _profile_of_points(points, labels, q) == counter_profile(points, labels)


def marginals_computed(monkeypatch, dset, spec):
    """How many marginals entropy_profile keys and measures."""
    calls = []
    kernel = census._histogram_from_points

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(census, "_histogram_from_points", counted)
    entropy_profile(dset, spec)
    monkeypatch.setattr(census, "_histogram_from_points", kernel)
    return len(calls)


def test_pruned_walk_counts(monkeypatch, kr_set):
    # KR's a2, b2 and d0 are functions of the other columns: 97 of 511 marginals are copies
    assert marginals_computed(monkeypatch, kr_set, field(5)) == 414
    # no column is a function of any other columns: every marginal is computed
    free = parse_set("set Free(x, y, z, w) := x*y*z*w != 1")
    assert marginals_computed(monkeypatch, free, field(3)) == 2**4 - 1


def test_marginal_distribution_examples(hyp_set):
    m = marginal_distribution(hyp_set, ["y"], field(5))
    assert m.probs[(0,)] == Fraction(5, 9)
    assert all(m.probs[(y,)] == Fraction(1, 9) for y in range(1, 5))
    assert sum(m.probs.values()) == 1
    full = marginal_distribution(hyp_set, ["x", "y"], field(5))
    assert set(full.probs.values()) == {Fraction(1, 9)}
    empty = marginal_distribution(hyp_set, [], field(5))
    assert empty.probs == {(): Fraction(1)}


def test_marginal_distribution_matches_oracle(cubic_proj_set):
    # (a, c) skips the middle column b of CubP(a, b, c)
    for spec in (field(3), field(2, 2), field(5)):
        support = [t for t in itertools.product(spec.elements(), repeat=3)
                   if eval_formula(cubic_proj_set.formula, dict(zip("abc", t)), spec)]
        counts = Counter((a, c) for a, _, c in support)
        want = {k: Fraction(n, len(support)) for k, n in sorted(counts.items())}
        got = marginal_distribution(cubic_proj_set, ["c", "a"], spec)
        assert got.ground_set == ("a", "c")
        assert list(got.probs.items()) == list(want.items())


def test_tower_census_examples(hyp_set, sqrt_set, cubic_proj_set):
    t = tower_census(sqrt_set, 7, 4)
    assert [r.count for r in t.rows] == [1, 49, 1, 2401]
    assert [r.q for r in t.rows] == [7, 49, 343, 2401]
    t2 = tower_census(hyp_set, 5, 2)
    assert [r.count for r in t2.rows] == [9, 49]
    # independent double loop over (a, b, c) then x
    spec = field(5)
    brute = 0
    for a, b, c in itertools.product(range(5), repeat=3):
        if any((x**3 + a * x**2 + b * x + c) % 5 == 0 for x in range(5)):
            brute += 1
    t3 = tower_census(cubic_proj_set, 5, 1)
    assert t3.rows[0].count == brute


def test_tower_census_with_fibers(hyp_set):
    t = tower_census(hyp_set, 3, 2, subsets=[["y"]])
    fh = t.rows[0].fibers[("y",)]
    assert fh.buckets == {3: 1, 1: 2}


def test_estimate_examples():
    est = estimate_dim_measure([CensusRow(1, 5, 9), CensusRow(2, 25, 49)])
    assert (est.d, est.mu) == (1, 2)
    est2 = estimate_dim_measure([CensusRow(2, 49, 49), CensusRow(4, 2401, 2401)])
    assert (est2.d, est2.mu) == (1, 1)
    est3 = estimate_dim_measure([CensusRow(1, 7, 1), CensusRow(3, 343, 1)])
    assert (est3.d, est3.mu) == (0, 1)
    # plain (q, count) pairs work too
    est4 = estimate_dim_measure([(7, 231), (49, 78449)])
    assert (est4.d, est4.mu) == (3, Fraction(2, 3))


def test_estimate_errors():
    with pytest.raises(EstimationError):
        estimate_dim_measure([(5, 9)])
    with pytest.raises(EstimationError):
        estimate_dim_measure([(5, 0), (25, 0)])
    with pytest.raises(EstimationError):
        estimate_dim_measure([(5, 100), (25, 1)])  # shrinking counts
    with pytest.raises(EstimationError):
        # way off any mu * q^d law at the allowed consistency
        estimate_dim_measure([(101, 303), (103, 5 * 103)])


def test_detect_period_examples(hyp_set, sqrt_set, cubic_proj_set):
    rep = detect_period(tower_census(sqrt_set, 7, 6), 6)
    assert rep.modulus == 2
    assert (rep.classes[1].d, rep.classes[1].mu) == (0, 1)
    assert (rep.classes[0].d, rep.classes[0].mu) == (1, 1)
    rep2 = detect_period(tower_census(hyp_set, 3, 4), 4)
    assert rep2.modulus == 1
    assert (rep2.classes[0].d, rep2.classes[0].mu) == (1, 2)
    rep3 = detect_period(tower_census(cubic_proj_set, 7, 2), 2)
    assert rep3.modulus == 1
    assert rep3.classes[0].mu == Fraction(2, 3)
    # count (2q^3 + q)/3 over 2^e: the (2, 4) and (4, 8) pairs read mu = 1,
    # the tail reads 2/3, so the law comes from each class's last pairs
    rep4 = detect_period(tower_census(cubic_proj_set, 2, 6), 6)
    assert rep4.modulus == 1
    assert (rep4.classes[0].d, rep4.classes[0].mu) == (3, Fraction(2, 3))


def test_detect_period_undetected():
    # the (2,3) pair shrinks a hundredfold, so m=1 errors out, and m=2
    # leaves the even class with a single row
    rows = tuple(CensusRow(e, 3**e, c) for e, c in [(1, 10), (2, 1000), (3, 10)])
    with pytest.raises(EstimationError, match="period undetected"):
        detect_period(CensusTable("bogus", 3, rows), 2)


def test_determinism_across_jobs(hyp_set, sqrt_set, kr_set):
    a = tower_census(sqrt_set, 3, 4)
    b = tower_census(sqrt_set, 3, 4, jobs=2)
    assert a == b
    assert count_points(hyp_set, field(7), jobs=3) == 13
    # a set whose reduced grid (13^6 assignments) the pool really splits
    _, chunks = _chunk_plan(_Plan(_plan(kr_set)[0], field(13)))
    assert len(chunks) > 1
    serial = collect_points(kr_set, field(13))
    assert np.array_equal(serial, collect_points(kr_set, field(13), jobs=2))
    # quantified sets over grids of 2 chunks: the pool rebuilds each plan from its pickle
    sq = parse_set("set Sq(y) := exists x. x^2 + y^2 = 0")  # an additive split
    e = parse_set("set E(a, b) := exists x. x^2 = a*x + b")  # x walks an axis
    for dset, spec in [(sq, field(524309)), (e, field(101)), (e, field(3, 4))]:
        _, chunks = _chunk_plan(_Plan(_plan(dset)[0], spec))
        assert len(chunks) > 1
        assert count_points(dset, spec, jobs=2) == count_points(dset, spec)
        assert np.array_equal(collect_points(dset, spec, jobs=2), collect_points(dset, spec))


def test_budget_guard(kr_set):
    # the budget bounds the assignments walked: 5^6 after elimination
    with pytest.raises(BudgetError):
        count_points(kr_set, field(5), max_evals=10**4)


def test_kr_counts_beyond_the_nine_variable_grid(kr_set):
    # 13^9 > 10^9 assignments, but only 13^6 are walked
    assert count_points(kr_set, field(13)) == 13**3 * 12**2


def test_census_json(hyp_set):
    t = tower_census(hyp_set, 3, 2, subsets=[["y"]])
    obj = t.to_json()
    assert obj["set"] == "Hyp" and obj["p"] == 3
    assert obj["rows"][0]["count"] == 5
    assert obj["rows"][0]["fibers"]["y"]["buckets"] == {"1": 2, "3": 1}
