import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_logval import LOG2_3_CONVERGENTS

from defent import (
    DomainError,
    LogValue,
    Profile,
    cond_entropy,
    cond_mi,
    convolve,
    dfz_family,
    eval_functional,
    factor,
    gmm_check,
    ingleton,
    is_modular,
    is_polymatroid,
    kr_closed_form,
    kr_violation,
    log_of_rat,
    parse_functional,
    scan_threshold,
    zero_profile,
)
from defent.polymatroid import H, LinFunctional, _elemental_rows, label_order, subset_key, subsets

Z = LogValue.zero()
L2 = log_of_rat(2)


def make_profile(ground, table):
    """table maps joined label strings (or '' for empty) to LogValues."""
    entries = {}
    for r in range(len(ground) + 1):
        for comb in itertools.combinations(ground, r):
            entries[frozenset(comb)] = table["".join(sorted(comb))]
    return Profile(ground, entries)


@pytest.fixture
def two_bits():
    # two independent uniform bits
    return make_profile("12", {"": Z, "1": L2, "2": L2, "12": L2 + L2})


def random_entropic_profile(rng, n=3):
    """Profile of a random rational distribution (entropic, hence polymatroid)."""
    from defent import Distribution, dist_entropy_profile

    gs = tuple("uvw"[:n])
    alphabet = {v: (0, 1, 2) for v in gs}
    outcomes = list(itertools.product((0, 1, 2), repeat=n))
    support = rng.sample(outcomes, rng.randint(2, 9))
    weights = [rng.randint(1, 6) for _ in support]
    tot = sum(weights)
    return dist_entropy_profile(
        Distribution(gs, {o: Fraction(w, tot) for o, w in zip(support, weights)}, alphabet)
    )


def test_profile_validation():
    with pytest.raises(DomainError, match="all"):
        Profile("ab", {frozenset(): Z})
    with pytest.raises(DomainError, match="emptyset"):
        make_profile("1", {"": L2, "1": L2})


def test_profile_json_round_trip(two_bits):
    blob = two_bits.to_json()
    assert blob["entries"][""] == {"terms": {}}
    assert Profile.from_json(blob) == two_bits


def test_cond_entropy_examples(two_bits):
    assert cond_entropy(two_bits, "1", ()) == two_bits["1"]
    assert cond_entropy(two_bits, "1", ("1", "2")) == Z  # I inside K
    assert cond_entropy(two_bits, "1", "2") == L2


def test_cond_mi_examples(two_bits):
    assert cond_mi(two_bits, "1", (), "2") == Z
    assert cond_mi(two_bits, "1", "2") == Z
    assert kr_closed_form(7).delta_ab == log_of_rat(7) - log_of_rat(6)
    assert kr_closed_form(7).delta_ab == LogValue({7: 1, 2: -1, 3: -1})


def test_identity_between_functionals():
    rng = random.Random(3)
    for _ in range(10):
        h = random_entropic_profile(rng)
        gs = h.ground_set
        for I, J, K in itertools.product([(gs[0],), gs[:2]], repeat=3):
            lhs = cond_mi(h, I, J, K)
            rhs = cond_entropy(h, I, K) - cond_entropy(h, I, set(J) | set(K))
            assert lhs == rhs
            i, j, k, rest = (",".join(x) for x in (I, J, K, gs[2:]))
            assert eval_functional(parse_functional(f"D({i}|{k})"), h) == cond_entropy(h, I, K)
            assert eval_functional(parse_functional(f"I({i}:{j}|{k})"), h) == lhs
            assert eval_functional(parse_functional(f"ING({i}:{j}|{k}:{rest})"), h) == ingleton(
                h, I, J, K, gs[2:]
            )


def test_shannon_quantities_read_bitmasks_and_name_unknown_subsets():
    h = random_entropic_profile(random.Random(5))
    # a label, a list, a set and a tuple name the same subsets as their label sets do
    for f, args in ((cond_entropy, ("u", ["v", "w"])), (cond_mi, ({"u"}, ("v",), ["w"])),
                    (ingleton, ("u", ["v"], {"w"}, ("u", "w")))):
        sets = [frozenset((a,)) if isinstance(a, str) else frozenset(a) for a in args]
        assert f(h, *args) == eval_functional(f(H, *sets), h)
    # an unknown label names the first term's subset that leaves the ground set
    for f, args, text in ((cond_entropy, ("u", "x"), "['u', 'x']"),
                          (cond_mi, ("u", "v", ["x", "w"]), "['u', 'w', 'x']"),
                          (ingleton, ("u", "v", "w", "x"), "['u', 'x']"),
                          (ingleton, ("x", "v", "w", "u"), "['w', 'x']")):
        with pytest.raises(DomainError, match=re.escape(f"unknown subset {text}")):
            f(h, *args)


def test_ingleton_examples(two_bits):
    z = zero_profile("ABCD")
    assert ingleton(z, "A", "B", "C", "D") == Z
    # the KR closed-form family evaluates the Ingleton combination negative
    f = kr_closed_form(7)
    box = f.delta_cd_a + f.delta_cd_b + f.delta_ab - f.delta_cd
    assert box.sign() == -1


def test_is_polymatroid_examples():
    assert is_polymatroid(zero_profile("xyz"))
    dep = make_profile("12", {"": Z, "1": L2, "2": L2, "12": L2})
    assert is_polymatroid(dep)
    bad = make_profile("12", {"": Z, "1": L2, "2": L2, "12": L2.scale(3)})
    chk = is_polymatroid(bad)
    assert not chk and chk.violation == "h(1:2|empty) < 0"
    # h(i|rest) is checked first, in ground-set order
    shrinks = make_profile("yx", {"": Z, "y": L2, "x": L2, "xy": Z})
    assert is_polymatroid(shrinks).violation == "h(y|rest) < 0"
    # the first failing K is named in ground-set order, not sorted
    gs = ("z", "a", "m", "b")
    top = {ks: L2.scale(len(ks)) for ks in subsets(gs)} | {frozenset(gs): L2.scale(5)}
    assert is_polymatroid(Profile(gs, top)).violation == "h(z:a|m,b) < 0"
    # K is visited by size first: h(a:b|e) fails before h(a:b|c,d)
    gs = tuple("abcde")
    two = {ks: L2.scale(len(ks) + (ks in ({"a", "b", "e"}, {"a", "b", "c", "d"})))
           for ks in subsets(gs)}
    assert is_polymatroid(Profile(gs, two)).violation == "h(a:b|e) < 0"


def scalar_polymatroid(h):
    """Oracle: the elemental inequalities one by one through cond_entropy and cond_mi."""
    gs = h.ground_set
    full = frozenset(gs)
    for i in gs:
        if cond_entropy(h, (i,), full - {i}).sign() < 0:
            return False, f"h({i}|rest) < 0"
    for a, b in itertools.combinations(gs, 2):
        for k in subsets(v for v in gs if v not in (a, b)):
            if cond_mi(h, (a,), (b,), k).sign() < 0:
                return False, f"h({a}:{b}|{subset_key(label_order(gs), k) or 'empty'}) < 0"
    return True, None


PRIMES = (2, 3, 5, 7, 11, 13)
coefficients = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))
# |n3 log 3 - n2 log 2| ~ 1e-10: a 64-bit enclosure of such a row straddles 0
NEAR_ZERO = [LogValue({3: n3, 2: -n2}) for n3, n2 in LOG2_3_CONVERGENTS]


@st.composite
def perturbed_coverage_profiles(draw):
    """h(S) = sum of the positive weights of the blocks S meets (a polymatroid
    with many zero rows), then a few entries shifted by random or near-zero values."""
    n = draw(st.integers(2, 5))
    gs = tuple(draw(st.permutations("vwxyz"))[:n])
    weight = st.dictionaries(st.sampled_from(PRIMES), st.fractions(0, 4, max_denominator=6),
                             min_size=1, max_size=2).map(LogValue)
    blocks = draw(st.lists(st.tuples(st.sets(st.sampled_from(gs), min_size=1), weight),
                           max_size=4))
    entries = {ks: sum((w for block, w in blocks if ks & block), Z) for ks in subsets(gs)}
    shift = st.one_of(st.dictionaries(st.sampled_from(PRIMES), coefficients, max_size=3)
                      .map(LogValue), st.sampled_from(NEAR_ZERO + [-v for v in NEAR_ZERO]))
    nonempty = [ks for ks in entries if ks]
    for ks, delta in draw(st.lists(st.tuples(st.sampled_from(nonempty), shift), max_size=3)):
        entries[ks] = entries[ks] + delta
    return Profile(gs, entries)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(perturbed_coverage_profiles())
def test_is_polymatroid_matches_scalar_oracle(h):
    chk = is_polymatroid(h)
    assert (chk.ok, chk.violation) == scalar_polymatroid(h)


@pytest.mark.parametrize("n3, n2", LOG2_3_CONVERGENTS)
def test_is_polymatroid_row_past_64_bits(n3, n2):
    # I(x:y) = n3 log 3 - n2 log 2, whose 64-bit enclosure straddles 0
    eps = LogValue({3: n3, 2: -n2})
    h = make_profile("xy", {"": Z, "x": LogValue({3: n3}), "y": LogValue({2: n2}),
                            "xy": LogValue({2: 2 * n2})})
    lo, hi, _ = next(eps._enclosures())
    assert lo < 0 < hi
    chk = is_polymatroid(h)
    assert (chk.ok, chk.violation) == scalar_polymatroid(h)
    assert chk.ok == (eps.sign() > 0)


def test_factor_examples(two_bits):
    same = factor(two_bits, {"1": ("1",), "2": ("2",)})
    assert same["1"] == L2 and same[("1", "2")] == two_bits[("1", "2")]
    lumped = factor(two_bits, {"all": ("1", "2")})
    assert lumped["all"] == two_bits[("1", "2")]
    with pytest.raises(DomainError, match="partition"):
        factor(two_bits, {"a": ("1",)})


def test_factor_preserves_polymatroid():
    rng = random.Random(11)
    for _ in range(8):
        h = random_entropic_profile(rng, n=3)
        f = factor(h, {"a": h.ground_set[:2], "b": h.ground_set[2:]})
        assert is_polymatroid(f)


def pairwise_modular(m):
    """The definition: m(I) + m(J) = m(I u J) + m(I n J) for all I, J, and m monotone."""
    subs = list(m.subsets())
    full = frozenset(m.ground_set)
    return (
        m[frozenset()] == Z
        and all(m[i] + m[j] == m[i | j] + m[i & j] for i in subs for j in subs)
        and all((m[full] - m[i]).sign() >= 0 for i in subs)
    )


def test_is_modular_examples(two_bits):
    additive = make_profile("12", {"": Z, "1": L2, "2": log_of_rat(3), "12": L2 + log_of_rat(3)})
    assert is_modular(additive)
    rank1 = make_profile("12", {"": Z, "1": L2, "2": L2, "12": L2})
    assert not is_modular(rank1)
    assert is_modular(zero_profile("12"))
    # modular but not monotone: m(1) = -log 2
    neg = make_profile("12", {"": Z, "1": -L2, "2": log_of_rat(3), "12": log_of_rat(3) - L2})
    assert not is_modular(neg)
    # seeded random 3-label profiles, against the pairwise definition
    rng = random.Random(17)
    values = (Z, L2, log_of_rat(3), -L2)
    seen = set()
    for _ in range(300):
        single = {v: rng.choice(values) for v in "uvw"}
        table = {}
        for r in range(4):
            for comb in itertools.combinations("uvw", r):
                val = sum((single[v] for v in comb), Z)
                if r >= 2 and rng.random() < 0.3:
                    val = val + rng.choice(values[1:])
                table["".join(comb)] = val
        m = make_profile("uvw", table)
        want = pairwise_modular(m)
        assert is_modular(m) == want
        seen.add(want)
    assert seen == {True, False}


def test_convolve_examples(two_bits):
    h = make_profile("12", {"": Z, "1": log_of_rat(4), "2": log_of_rat(4), "12": log_of_rat(4)})
    m = make_profile("12", {"": Z, "1": L2, "2": L2, "12": L2 + L2})
    out = convolve(h, m)
    assert out[("1", "2")] == log_of_rat(4)
    assert out["1"] == L2  # min(log4, log2) at J = empty
    zero = zero_profile("12")
    assert convolve(h, zero) == zero
    # h = 0 collapses everything: the minimum sits at J = I, value m(empty) = 0
    assert convolve(zero, m) == zero
    with pytest.raises(DomainError, match="modular"):
        convolve(h, rank1_profile())


def rank1_profile():
    return make_profile("12", {"": Z, "1": L2, "2": L2, "12": L2})


def test_convolve_upper_bound():
    rng = random.Random(5)
    h = random_entropic_profile(rng)
    m_add = make_profile(
        "uvw",
        {
            "": Z, "u": L2, "v": L2, "w": L2,
            "uv": L2 + L2, "uw": L2 + L2, "vw": L2 + L2,
            "uvw": L2.scale(3),
        },
    )
    out = convolve(h, m_add)
    for ks in h.subsets():
        assert (out[ks] - h[ks]).sign() <= 0


def test_parse_functional_examples():
    f = parse_functional("I(A:B)")
    assert f.coeffs == {
        frozenset("A"): 1,
        frozenset("B"): 1,
        frozenset("AB"): -1,
    }
    g = parse_functional("H(A,B) - H(A)")
    assert g.coeffs == {frozenset("AB"): 1, frozenset("A"): -1}
    ing = parse_functional("ING(A:B|C:D)")
    assert ing.coeffs == ingleton(H, "A", "B", "C", "D").coeffs
    assert len(ing.coeffs) == 10
    scaled = parse_functional("2/3 H(x) - I(x:y|z) + 1 D(y|x)")
    assert scaled.coeffs[frozenset(["x"])] == Fraction(2, 3) - 1
    with pytest.raises(DomainError):
        parse_functional("Q(A)")
    with pytest.raises(DomainError):
        parse_functional("")


def test_functional_render_round_trip():
    for text in ["I(A:B)", "H(A,B) - H(A)", "ING(A:B|C:D)", "1/2 D(z|a,b) - 3 H(c)"]:
        f = parse_functional(text)
        assert parse_functional(f.render()).coeffs == f.coeffs
    assert parse_functional("0").coeffs == {}
    assert LinFunctional().render() == "0"


# -- the functional DSL against its grammar ---------------------------------------

DSL_ALPHABET = "HDIGN()+-:|,/ 0123456789ABxy_'\t"
_ws = st.sampled_from(["", " ", "\t", "\n", "  "])
_dsl_label = st.sampled_from(["A", "B", "x", "y'", "_z", "a1", "ING", "0", "7", "12", "007"])
_primitives = [("H", "", lambda s: H[s]),
               ("D", "|", lambda i, k: cond_entropy(H, i, k)),
               ("I", ":", lambda i, j: cond_mi(H, i, j)),
               ("I", ":|", lambda i, j, k: cond_mi(H, i, j, k)),
               ("ING", ":|:", lambda a, b, c, d: ingleton(H, a, b, c, d))]


@st.composite
def dsl_functionals(draw):
    """(text, functional): 1-4 terms, each a sign, an optional coefficient n or n/d
    and a primitive over name or integer labels, with whitespace wherever allowed."""
    text, want = "", LinFunctional()
    for first in [True] + [False] * draw(st.integers(0, 3)):
        sign = draw(st.sampled_from(["+", "-"] + ([""] if first else [])))
        num, den = draw(st.integers(0, 12)), draw(st.integers(1, 12))
        coef, c = draw(st.sampled_from([("", 1), (str(num), num),
                                        (f"{num}/{den}", Fraction(num, den))]))
        name, seps, build = draw(st.sampled_from(_primitives))
        lists = [draw(st.lists(_dsl_label, min_size=name == "H", max_size=3))
                 for _ in range(len(seps) + 1)]
        parts = [",".join(draw(_ws) + v + draw(_ws) for v in vs) or draw(_ws) for vs in lists]
        body = parts[0] + "".join(sep + part for sep, part in zip(seps, parts[1:]))
        text += "".join((draw(_ws), sign, draw(_ws), coef, draw(_ws), name, draw(_ws),
                         "(", body, ")", draw(_ws)))
        want = want + build(*map(tuple, lists)).scale(-c if sign == "-" else c)
    return text, want


@settings(max_examples=100, derandomize=True, deadline=None)
@given(dsl_functionals())
def test_parse_functional_matches_grammar(case):
    text, want = case
    assert parse_functional(text) == want


@st.composite
def dsl_mutants(draw):
    """A grammatical functional with one span replaced by text over the DSL's alphabet."""
    text, _ = draw(dsl_functionals())
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    return text[:i] + draw(st.text(DSL_ALPHABET, max_size=6)) + text[j:]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(dsl_mutants() | st.text(DSL_ALPHABET, max_size=30))
def test_parse_functional_raises_only_domain_error(text):
    try:
        parse_functional(text)
    except DomainError:
        pass


def test_eval_functional_examples(two_bits):
    assert eval_functional(LinFunctional(), two_bits) == Z
    assert eval_functional(parse_functional("I(1:2)"), two_bits) == Z
    f = kr_closed_form(7)
    assert f.delta_cd == log_of_rat(7) - log_of_rat(6) + L2
    assert f.delta_cd == log_of_rat(Fraction(7, 3))
    with pytest.raises(DomainError, match="labels"):
        eval_functional(parse_functional("H(zz)"), two_bits)


def test_kr_closed_form_values():
    f5 = kr_closed_form(5)
    assert f5.delta_ab == LogValue({5: 1, 2: -2})  # log(5/4)
    f7 = kr_closed_form(7, corrected=False)
    assert f7.delta_cd_a == log_of_rat(Fraction(6, 5))
    assert kr_closed_form(7, corrected=True).delta_cd_a == log_of_rat(Fraction(7, 6))
    assert f7.delta_cd == log_of_rat(Fraction(7, 3))
    # both readings agree on the other three functionals
    c7 = kr_closed_form(7, corrected=True)
    assert (f7.delta_ab, f7.delta_ab_c, f7.delta_cd) == (c7.delta_ab, c7.delta_ab_c, c7.delta_cd)


def test_kr_closed_form_preconditions():
    for bad in (4, 8, 16, 3, 6, 12):
        with pytest.raises(DomainError):
            kr_closed_form(bad)
    kr_closed_form(9)   # odd prime power >= 5 is fine
    kr_closed_form(25)


def test_kr_violation_examples():
    assert kr_violation(5, 1).sign() == 1
    assert kr_violation(5, 0) == log_of_rat(Fraction(5, 4)).scale(2)
    for q in (5, 9, 101):
        assert kr_violation(q, 0).sign() == 1
    # becomes negative for large q at any fixed eps
    assert kr_violation(9973, Fraction(1, 100)).sign() == -1
    with pytest.raises(DomainError):
        kr_violation(7, -1)


def test_scan_threshold():
    res = scan_threshold(Fraction(1, 10), 10**4)
    assert res.found and res.q_star == 37 and res.prev_q == 31
    assert res.value_at_q_star.sign() == -1
    assert res.value_at_prev.sign() >= 0
    none = scan_threshold(Fraction(1, 10), 29)
    assert not none.found and none.q_star is None and none.prev_q == 29
    with pytest.raises(DomainError, match="empty"):
        scan_threshold(Fraction(1, 10), 3)


def test_dfz_family():
    f = dfz_family(2)
    # the printed I(B:C|C) summand vanishes identically, so s=2 reduces to
    # ING - I(B:C|D) - I(B:D|C) + I(C:D|A) + 1/2 (I(A:C|D) + I(A:D|C) + I(B:D|C))
    w = Fraction(2, 2)  # 2^(s-1)(s-1)/(2^s - 2) at s = 2
    expected = (
        ingleton(H, "A", "B", "C", "D")
        - cond_mi(H, "B", "C", "D")
        - cond_mi(H, "B", "D", "C")
        + cond_mi(H, "C", "D", "A")
        + (
            cond_mi(H, "A", "C", "D")
            + cond_mi(H, "A", "D", "C")
            + cond_mi(H, "B", "D", "C")
        ).scale(w)
    )
    assert f.coeffs == expected.coeffs
    g = dfz_family(2, corrected=True)
    diff = LinFunctional(dict(g.coeffs)) - LinFunctional(dict(f.coeffs))
    assert diff.coeffs == cond_mi(H, "B", "C", "D").scale(w).coeffs
    with pytest.raises(DomainError):
        dfz_family(1)


def test_gmm_check_examples():
    rep = gmm_check(zero_profile("ABCD"))
    assert rep.all_zero and rep.ingleton_sign == 0
    with pytest.raises(DomainError):
        gmm_check(zero_profile("ABC"))
    # a profile with nonzero antecedents reports values but no conclusion
    from defent import IntMatrix, profile_lincong

    h = profile_lincong(IntMatrix.from_rows([(1, 0), (0, 1), (1, 1), (1, 2)], "ABCD"), 6)
    rep2 = gmm_check(h)
    assert not rep2.all_zero
    assert rep2.ingleton_sign is None
    assert len(rep2.antecedents) == 4


def test_entropy_of_builder(two_bits):
    assert eval_functional(H[("1", "2")], two_bits) == two_bits[("1", "2")]


# -- the Shannon functionals against their composition from h[...] ---------------

def _labelset(x):
    return frozenset((x,)) if isinstance(x, str) else frozenset(x)


def composed_cond_entropy(h, I, K):
    i, k = _labelset(I), _labelset(K)
    return h[i | k] - h[k]


def composed_cond_mi(h, I, J, K):
    i, j, k = _labelset(I), _labelset(J), _labelset(K)
    return h[i | k] + h[j | k] - h[i | j | k] - h[k]


def composed_ingleton(h, A, B, C, D):
    return (composed_cond_mi(h, C, D, A) + composed_cond_mi(h, C, D, B)
            + composed_cond_mi(h, A, B, ()) - composed_cond_mi(h, C, D, ()))


@st.composite
def profiles_and_label_args(draw):
    """A random profile on 2-5 labels (any entries, h(empty) = 0) and five
    overlapping label arguments, each a str (singletons only), tuple or frozenset."""
    n = draw(st.integers(2, 5))
    gs = tuple(draw(st.permutations("vwxyz"))[:n])
    value = st.dictionaries(st.sampled_from(PRIMES), coefficients, max_size=3).map(LogValue)
    pool = draw(st.lists(value, min_size=1, max_size=6))
    picks = iter(draw(st.lists(st.sampled_from(pool), min_size=2**n, max_size=2**n)))
    entries = {ks: next(picks) if ks else Z for ks in subsets(gs)}

    def arg():
        labels = draw(st.lists(st.sampled_from(gs), max_size=n, unique=True))
        forms = [tuple, frozenset] + ([lambda ls: ls[0]] if len(labels) == 1 else [])
        return draw(st.sampled_from(forms))(labels)

    return Profile(gs, entries), [arg() for _ in range(5)]


def _canonical(v):
    return all(type(c) is int or c.denominator > 1 for c in v._terms.values())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(profiles_and_label_args())
def test_functionals_match_composition(case):
    h, (a, b, c, d, e) = case
    for f, oracle, args in ((cond_entropy, composed_cond_entropy, (a, b)),
                            (cond_mi, composed_cond_mi, (a, b, c)),
                            (ingleton, composed_ingleton, (a, b, c, d)),
                            (ingleton, composed_ingleton, (e, a, e, b))):
        got = f(h, *args)
        assert got == oracle(h, *args) and _canonical(got)
        assert eval_functional(f(H, *args), h) == got
        assert f(H, *args) == oracle(H, *args)


def test_functionals_unknown_label(two_bits):
    for call in (lambda: cond_entropy(two_bits, "1", "3"),
                 lambda: cond_mi(two_bits, ("1",), frozenset("2"), "9"),
                 lambda: ingleton(two_bits, "1", "2", "1", ("2", "x"))):
        with pytest.raises(DomainError, match="unknown subset"):
            call()


def test_elemental_rows_match_a_subset_walk():
    for n in range(10):
        full = (1 << n) - 1
        want = [(full, 0, full ^ 1 << i, 0) for i in range(n)]
        for a, b in itertools.combinations(range(n), 2):
            for ks in subsets(v for v in range(n) if v not in (a, b)):
                k = sum(1 << v for v in ks)
                want.append((k | 1 << a, k | 1 << b, k | 1 << a | 1 << b, k))
        assert _elemental_rows(n) == tuple(want), n
