import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defent import (
    Distribution,
    DomainError,
    LogValue,
    PartialProfile,
    ak_canonical_witness,
    ak_partial,
    check_extension,
    cond_entropy,
    copy_partial,
    copy_product,
    dist_entropy_profile,
    field,
    is_polymatroid,
    log_of_rat,
    marginal_distribution,
    parse_set,
    slepian_wolf_partial,
    zero_profile,
)
from defent.polymatroid import subsets

Z = LogValue.zero()
L2 = log_of_rat(2)


def bits(n):
    """n independent fair bits."""
    outcomes = list(itertools.product((0, 1), repeat=n))
    pr = Fraction(1, len(outcomes))
    return Distribution(tuple("xyz"[:n]), {o: pr for o in outcomes})


def random_dist(rng, n=None, alphabet_max=3):
    n = n or rng.randint(1, 3)
    gs = tuple("uvw"[:n])
    sizes = {v: rng.randint(2, alphabet_max) for v in gs}
    outcomes = list(itertools.product(*[range(sizes[v]) for v in gs]))
    support = rng.sample(outcomes, rng.randint(2, len(outcomes)))
    weights = [rng.randint(1, 7) for _ in support]
    tot = sum(weights)
    return Distribution(
        gs,
        {o: Fraction(w, tot) for o, w in zip(support, weights)},
        {v: tuple(range(sizes[v])) for v in gs},
    )


def test_distribution_validation():
    with pytest.raises(DomainError, match="sum"):
        Distribution(("x",), {(0,): Fraction(1, 3)})
    with pytest.raises(DomainError, match="positive"):
        Distribution(("x",), {(0,): Fraction(0), (1,): Fraction(1)})
    with pytest.raises(DomainError, match="arity"):
        Distribution(("x",), {(0, 1): Fraction(1)})


def test_distribution_json_round_trip():
    d = bits(2)
    assert Distribution.from_json(d.to_json()) == d


def test_dist_entropy_profile_examples():
    point = Distribution(("x",), {(5,): Fraction(1)})
    assert dist_entropy_profile(point) == zero_profile(("x",))
    two = dist_entropy_profile(bits(2))
    assert two["x"] == L2 and two[("x", "y")] == L2 + L2
    hyp = parse_set("set Hyp(x, y) := x*y = 0")
    m = marginal_distribution(hyp, ["y"], field(5))
    assert dist_entropy_profile(m)["y"] == LogValue({3: 2, 5: Fraction(-5, 9)})


@st.composite
def rational_distributions(draw):
    """Uniform, repeated-weight or distinct-weight distributions; rational
    weights give probabilities whose denominators do not divide one another."""
    n = draw(st.integers(1, 3))
    outcomes = list(itertools.product(range(3), repeat=n))
    support = draw(st.lists(st.sampled_from(outcomes), min_size=1, max_size=12, unique=True))
    size = len(support)
    repeated = st.sampled_from((1, 2, Fraction(1, 2), Fraction(2, 3)))
    distinct = st.fractions(Fraction(1, 6), 3, max_denominator=6)
    weights = draw(st.one_of(
        st.just([1] * size),
        st.lists(repeated, min_size=size, max_size=size),
        st.lists(distinct, min_size=size, max_size=size, unique=True),
    ))
    tot = sum(weights)
    return Distribution(tuple("uvw"[:n]), {o: Fraction(w, tot) for o, w in zip(support, weights)})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rational_distributions())
def test_dist_entropy_profile_matches_per_outcome_sum(p):
    h = dist_entropy_profile(p)
    for ks in subsets(p.ground_set):
        idx = [i for i, v in enumerate(p.ground_set) if v in ks]
        marg = {}
        for o, pr in p.probs.items():
            key = tuple(o[i] for i in idx)
            marg[key] = marg.get(key, Fraction(0)) + pr
        assert p.marginal(ks) == marg
        assert h[ks] == sum((log_of_rat(1 / pr).scale(pr) for pr in marg.values()), Z)


@st.composite
def distributions_and_subsets(draw):
    """Distributions on 1-4 labels with uniform, repeated or distinct
    probabilities over coprime denominators, and a label subset in any order."""
    n = draw(st.integers(1, 4))
    gs = tuple("uvwx"[:n])
    outcomes = list(itertools.product(range(3), repeat=n))
    support = draw(st.lists(st.sampled_from(outcomes), min_size=1, max_size=16, unique=True))
    weight = st.one_of(st.sampled_from((1, 3, Fraction(1, 5))),
                       st.fractions(Fraction(1, 7), 5, max_denominator=7))
    weights = draw(st.one_of(st.just([1] * len(support)),
                             st.lists(weight, min_size=len(support), max_size=len(support))))
    tot = sum(weights)
    p = Distribution(gs, {o: Fraction(w, tot) for o, w in zip(support, weights)})
    return p, draw(st.lists(st.sampled_from(gs), max_size=n, unique=True))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(distributions_and_subsets())
def test_marginal_matches_fraction_sum(case):
    p, I = case
    keep = [i for i, v in enumerate(p.ground_set) if v in I]
    want = {}
    for o, pr in p.probs.items():
        key = tuple(o[i] for i in keep)
        want[key] = want.get(key, Fraction(0)) + pr
    got = p.marginal(I)
    assert got == want and list(got) == list(want)
    assert all(isinstance(v, Fraction) for v in got.values()) and sum(got.values()) == 1


def test_copy_product_extremes():
    p = bits(2)
    h = dist_entropy_profile(p)
    full = copy_product(p, ("x", "y"))  # conditioning on everything: a.s. equal
    hf = dist_entropy_profile(full.dist)
    assert hf[frozenset(full.dist.ground_set)] == h[("x", "y")]
    assert full.dist.ground_set == ("x", "y")
    indep = copy_product(p, ())
    hi = dist_entropy_profile(indep.dist)
    assert hi[frozenset(indep.dist.ground_set)] == h[("x", "y")].scale(2)
    assert indep.dist.ground_set == ("x", "y", "x'", "y'")
    assert indep.tau == {"x'": "x", "y'": "y"}


def test_copy_product_census_marginal():
    hyp = parse_set("set Hyp(x, y) := x*y = 0")
    p = marginal_distribution(hyp, ["x", "y"], field(3))
    res = copy_product(p, ("y",))
    prof = dist_entropy_profile(res.dist)
    base = dist_entropy_profile(p)
    # h(N : N' | L) = 0 exactly
    n_set = frozenset(("x", "y"))
    n_copy = frozenset(("y", "x'"))
    ci = prof[n_set] + prof[n_copy] - prof[frozenset(("x", "y", "x'"))] - prof[frozenset("y")]
    assert ci == Z
    assert check_extension(copy_partial(base, ("y",)), prof)


def test_copy_product_random_suite():
    rng = random.Random(2024)
    for _ in range(12):
        p = random_dist(rng)
        h = dist_entropy_profile(p)
        gs = p.ground_set
        for r in range(len(gs) + 1):
            for L in itertools.combinations(gs, r):
                res = copy_product(p, L)
                assert sum(res.dist.probs.values()) == 1
                prof = dist_entropy_profile(res.dist)
                chk = check_extension(copy_partial(h, L), prof)
                assert chk, (L, chk.failure)


def test_copy_label_clash():
    d = Distribution(("a", "a'"), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    with pytest.raises(DomainError, match="taken"):
        copy_product(d, ())


def test_slepian_wolf_alpha_zero_and_huge():
    h = dist_entropy_profile(bits(2))
    pp0 = slepian_wolf_partial(h, ("x",), Z)
    # alpha = 0: z carries nothing, h(K u z) = h(K) for K <= L
    assert pp0.entries[frozenset("z")] == Z
    assert pp0.entries[frozenset(("x", "z"))] == h["x"]
    big = h[("x", "y")] + L2
    ppb = slepian_wolf_partial(h, ("x",), big)
    assert ppb.entries[frozenset("z")] == h["y"]          # h(I u K) branch
    assert ppb.entries[frozenset(("x", "z"))] == h[("x", "y")]


def test_slepian_wolf_auto_alpha_pins():
    rng = random.Random(7)
    for _ in range(8):
        p = random_dist(rng, n=3)
        h = dist_entropy_profile(p)
        gs = p.ground_set
        for L in [(), gs[:1], gs[:2]]:
            I = frozenset(gs) - set(L)
            alpha = cond_entropy(h, I, L)
            pp = slepian_wolf_partial(h, L, alpha)
            assert pp.entries[frozenset(["z"])] == alpha
            assert pp.entries[frozenset(L) | {"z"}] == h[frozenset(gs)]
            # pinned entries are monotone along K <= K'
            for K in itertools.combinations(L, max(0, len(L) - 1)):
                small = pp.entries[frozenset(K) | {"z"}]
                bigk = pp.entries[frozenset(L) | {"z"}]
                assert (bigk - small).sign() >= 0


def test_slepian_wolf_rejects_bad_input():
    h = dist_entropy_profile(bits(2))
    with pytest.raises(DomainError, match=">= 0"):
        slepian_wolf_partial(h, ("x",), Z - L2)
    bad = zero_profile("ab").entries()
    bad[frozenset("ab")] = Z - L2
    from defent.polymatroid import Profile

    with pytest.raises(DomainError, match="polymatroid"):
        slepian_wolf_partial(Profile("ab", bad), ("a",), Z)


def test_sw_forced_entries_above_I():
    rng = random.Random(13)
    h = dist_entropy_profile(random_dist(rng, n=3))  # ground set (u, v, w)
    pp = slepian_wolf_partial(h, ("u",), L2)
    # S >= I = {v, w}: pinned to h(S)
    assert pp.entries[frozenset(("v", "w", "z"))] == h[("v", "w")]
    assert pp.entries[frozenset(("u", "v", "w", "z"))] == h[("u", "v", "w")]
    # mixed subsets (neither K u z with K <= L nor S >= I) stay undefined
    assert pp.entries[frozenset(("v", "z"))] is None
    assert pp.entries[frozenset(("u", "v", "z"))] is None


def test_ak_constraint_count_and_zero_render():
    h = dist_entropy_profile(bits(2))
    pp = ak_partial(h, ("x", "y"))
    assert len(pp.constraints) == 2 ** 2 + 1
    rendered = [f.render() for f in pp.constraints]
    assert "0" in rendered  # the K = empty constraint is trivially 0 = 0
    pp1 = ak_partial(h, ("x",))
    assert len(pp1.constraints) == 3


def test_ak_witness_feasibility():
    rng = random.Random(31)
    for _ in range(10):
        p = random_dist(rng)
        h = dist_entropy_profile(p)
        gs = p.ground_set
        for r in range(len(gs) + 1):
            for L in itertools.combinations(gs, r):
                pp = ak_partial(h, L)
                w = ak_canonical_witness(h, L)
                chk = check_extension(pp, w, require_polymatroid=False)
                assert chk, (L, chk.failure)
                # K = L consequence: h(L) - h(z) = h(N) - h(I)
                I = frozenset(gs) - set(L)
                lhs = w[frozenset(L)] - w[frozenset("z")]
                assert lhs == h[frozenset(gs)] - h[I]


def test_check_extension_reports_first_failure():
    h = dist_entropy_profile(bits(2))
    pp = slepian_wolf_partial(h, ("x",), Z)
    # trivial extension: z adds nothing anywhere
    entries = {}
    for ks in h.subsets():
        entries[ks] = h[ks]
        entries[ks | {"z"}] = h[ks]
    from defent.polymatroid import Profile

    candidate = Profile(h.ground_set + ("z",), entries)
    assert check_extension(pp, candidate)
    # perturb one pinned entry by log 2
    entries2 = dict(entries)
    entries2[frozenset(("x", "z"))] = entries[frozenset(("x", "z"))] + L2
    bad = Profile(h.ground_set + ("z",), entries2)
    chk = check_extension(pp, bad)
    assert not chk and "x" in chk.failure and "z" in chk.failure
    with pytest.raises(DomainError, match="ground set"):
        check_extension(pp, h)


def test_partial_profile_json_round_trip():
    h = dist_entropy_profile(bits(2))
    pp = ak_partial(h, ("x",))
    blob = pp.to_json()
    back = PartialProfile.from_json(blob)
    assert back.ground_set == pp.ground_set
    assert back.entries == pp.entries
    assert [f.coeffs for f in back.constraints] == [f.coeffs for f in pp.constraints]
    assert blob["entries"]["x,y,z"] is None
    for bad in ({}, {"ground_set": ["x"], "entries": []}):
        with pytest.raises(DomainError, match="malformed partial profile JSON"):
            PartialProfile.from_json(bad)


def test_fresh_label_collision():
    h = dist_entropy_profile(bits(2))
    with pytest.raises(DomainError, match="already"):
        slepian_wolf_partial(h, ("x",), Z, z_label="y")


def test_one_point_extensions_check_L_and_z():
    h = dist_entropy_profile(bits(2))
    for extend_by_z in (lambda L, **kw: slepian_wolf_partial(h, L, Z, **kw),
                        lambda L, **kw: ak_partial(h, L, **kw),
                        lambda L, **kw: ak_canonical_witness(h, L, **kw)):
        with pytest.raises(DomainError, match="subset of the ground set"):
            extend_by_z(("x", "q"))
        with pytest.raises(DomainError, match="already"):
            extend_by_z(("x",), z_label="y")
