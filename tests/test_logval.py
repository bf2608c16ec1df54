import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defent import Approx, DomainError, LogValue, log_of_rat
from defent.extend import entropy_numerators
from defent.logval import FACTOR_CAP, _log_bounds, factorize, is_prime


def test_log_of_rat_examples():
    assert log_of_rat(1).terms == {}
    assert log_of_rat(8).terms == {2: 3}
    assert log_of_rat(Fraction(6, 5)).terms == {2: 1, 3: 1, 5: -1}


def test_log_of_rat_rejects_nonpositive():
    with pytest.raises(DomainError):
        log_of_rat(0)
    with pytest.raises(DomainError):
        log_of_rat(Fraction(-3, 7))


def test_factorization_cap():
    with pytest.raises(DomainError):
        log_of_rat(10**13)
    assert log_of_rat(10**12).terms == {2: 12, 5: 12}


def test_nonprime_key_rejected():
    with pytest.raises(DomainError):
        LogValue({4: 1})
    with pytest.raises(DomainError):
        LogValue({1: 1})


def test_add_scale_examples():
    assert (LogValue({2: 1}) + LogValue({2: -1})).terms == {}
    assert LogValue({5: Fraction(1, 3)}).scale(3).terms == {5: 1}
    assert (LogValue({2: 1}) + LogValue({3: 1})).terms == {2: 1, 3: 1}
    assert (3 * LogValue({5: Fraction(1, 3)})).terms == {5: 1}


def test_sign_examples():
    assert LogValue.zero().sign() == 0
    assert LogValue({2: 1, 3: -1}).sign() == -1      # log(2/3)
    assert LogValue({2: 3, 3: -2}).sign() == -1      # log(8/9)
    assert log_of_rat(Fraction(1001, 1000)).sign() == 1


def test_sign_close_to_zero():
    # log(2^1000000 / huge-ish) style stress: 485 log(2) - 306 log(3) is tiny
    # |485 log 2 - 306 log 3| ~ 2.1e-3; then push closer with a known good pair
    v = LogValue({2: 485, 3: -306})
    assert v.sign() == math.copysign(1, 485 * math.log(2) - 306 * math.log(3))


def test_to_float_examples():
    val, bound = LogValue({2: 1}).to_float()
    assert val == math.log(2) and bound == math.log(2) * 2**-53
    assert LogValue.zero().to_float() == Approx(0.0, 0.0)
    val, _ = LogValue({7: 3}).to_float()
    assert type(val) is float and abs(val - 3 * math.log(7)) < 1e-12


def test_to_float_error_contract():
    rng = random.Random(1)
    for _ in range(25):
        terms = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for p in (2, 3, 5, 7, 11)}
        v = LogValue({p: c for p, c in terms.items() if c})
        val, bound = v.to_float()
        scale = 1 + sum(abs(float(c)) * math.log(p) for p, c in v.terms.items())
        assert bound <= 2.0**-52 * scale
        with mpmath.workprec(300):
            assert abs(val - mpmath_value(v.terms)) <= bound


def test_normalize_base_exact():
    # integer coefficients divide to an exact Fraction, never to a float
    for v, base, expected in ((LogValue({7: 3}), 7, 3), (LogValue({2: 2}), 4, 1),
                              (LogValue.zero(), 17, 0), (log_of_rat(Fraction(1, 36)), 6, -2),
                              (log_of_rat(7**3), 49, Fraction(3, 2))):
        out = v.normalize_base(base)
        assert type(out) is Fraction and out == expected


def test_normalize_base_numeric():
    out = LogValue({2: 1, 3: 1}).normalize_base(7)
    assert isinstance(out, Approx)
    assert abs(out.value - math.log(6) / math.log(7)) <= out.bound + 1e-15
    assert abs(out.value - 0.92078) < 1e-4
    with pytest.raises(DomainError):
        LogValue({2: 1}).normalize_base(1)


def test_random_homomorphism_and_sign():
    rng = random.Random(7)
    for _ in range(50):
        r = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        s = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        assert log_of_rat(r * s) == log_of_rat(r) + log_of_rat(s)
        assert log_of_rat(r).sign() == (r > 1) - (r < 1)
        a = log_of_rat(r)
        assert (a + a.scale(-1)).sign() == 0


def test_ordering():
    assert log_of_rat(2) < log_of_rat(3)
    assert log_of_rat(Fraction(1, 2)) < LogValue.zero() <= log_of_rat(1)
    vals = [log_of_rat(n) for n in (7, 2, 5, 3)]
    assert min(vals) == log_of_rat(2)


def test_json_round_trip():
    v = LogValue({2: Fraction(-5, 9), 3: 2, 11: Fraction(7, 2)})
    blob = v.to_json()
    assert blob == {"terms": {"2": "-5/9", "3": "2/1", "11": "7/2"}}
    assert repr(v) == "LogValue(-5/9*log(2) + 2*log(3) + 7/2*log(11))"
    assert log_of_rat(Fraction(8, 9)).to_json() == {"terms": {"2": "3/1", "3": "-2/1"}}
    assert LogValue.from_json(blob) == v
    assert LogValue.from_json({"terms": {}}) == LogValue.zero()
    with pytest.raises(DomainError):
        LogValue.from_json({"nope": 1})


def test_json_decode_cache_keeps_errors():
    blob = {"terms": {"2": "-5/9", "3": "2/1", "11": "7/2"}}
    for _ in range(2):
        assert LogValue.from_json(blob) == LogValue({2: Fraction(-5, 9), 3: 2, 11: Fraction(7, 2)})
    assert LogValue.from_json({"terms": {"5": "0/3", "7": 3}}) == log_of_rat(343)
    # malformed coefficients raise every time, decoded before or not; non-strings
    # go through Fraction unchanged; every key is still checked for primality
    for terms in ({"2": "x"}, {"2": "1/0"}, {"2": "-5/9/"}, {"2": [1]}, {"2": None},
                  {"4": "-5/9"}, {"1": "2/1"}, {"x": "2/1"}):
        for _ in range(2):
            with pytest.raises(DomainError):
                LogValue.from_json({"terms": terms})


def _entropy_reference(counts, total):
    """log total - (1/total) sum k n log n as prime -> Fraction, by trial division."""
    coef = {}

    def add_log(n, w):
        d = 2
        while n > 1:
            while n % d == 0:
                coef[d] = coef.get(d, 0) + w
                n //= d
            d += 1

    add_log(total, Fraction(1))
    for n, k in counts.items():
        add_log(n, Fraction(-k * n, total))
    return {p: c for p, c in coef.items() if c}


def test_entropy_of_counts_matches_fraction_reference():
    rng = random.Random(14)
    for _ in range(300):
        counts = {rng.randint(1, 120): rng.randint(1, 40) for _ in range(rng.randint(1, 5))}
        total = sum(n * k for n, k in counts.items())
        got = {p: Fraction(c, total) for p, c in entropy_numerators(counts, total).items()}
        assert got == _entropy_reference(counts, total)
    assert entropy_numerators({1: 9}, 9) == {3: 18}  # uniform: (18/9) log 3 = log 9
    assert entropy_numerators({9: 1}, 9) == {}  # one block: a constant


def test_hash_and_eq():
    a = LogValue({2: 1, 5: Fraction(1, 2)})
    b = log_of_rat(2) + LogValue({5: Fraction(1, 2)})
    assert a == b and hash(a) == hash(b)
    assert a != LogValue({2: 1})
    assert LogValue({2: Fraction(3)}) == log_of_rat(8)
    assert hash(LogValue({2: Fraction(3)})) == hash(log_of_rat(8))


def test_factorize_and_is_prime():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert is_prime(2) and is_prime(997) and not is_prime(1) and not is_prime(91)


# -- certified signs against exact oracles ------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
exponent_maps = st.dictionaries(
    st.sampled_from(SMALL_PRIMES),
    st.fractions(min_value=-40, max_value=40, max_denominator=6),
    max_size=len(SMALL_PRIMES),
)


def integer_sign(terms) -> int:
    """Sign of sum c_p log p from integers: compare the two sides of the product."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    up = down = 1
    for p, c in terms.items():
        n = c.numerator * (den // c.denominator)
        if n > 0:
            up *= p**n
        else:
            down *= p ** -n
    return (up > down) - (up < down)


PRIMES_TO_97 = [p for p in range(2, 98) if is_prime(p)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(exponent_maps, exponent_maps)
# single-signed differences: large coefficients, many primes, Fractions
@example({p: 10**4 + i for i, p in enumerate(PRIMES_TO_97)}, {})
@example({}, {p: Fraction(3 * 10**4 + i, 6) for i, p in enumerate(PRIMES_TO_97)})
@example({5: 10**5, 7: 3}, {5: -2, 11: Fraction(-9, 2)})
@example({2: Fraction(1, 6), 97: Fraction(7, 4)}, {3: Fraction(-5, 3), 89: Fraction(-1, 5)})
@example({}, {2: Fraction(1, 2), 3: Fraction(1, 3), 5: Fraction(1, 5), 7: Fraction(1, 7)})
def test_sign_matches_integer_oracle(a_terms, b_terms):
    a, b = LogValue(a_terms), LogValue(b_terms)
    v = a - b
    s = integer_sign(v.terms)
    assert v.sign() == s
    assert (-v).sign() == -s
    assert (a < b, a == b, a > b) == (s < 0, s == 0, s > 0)


def test_single_signed_values_need_no_enclosure(monkeypatch):
    def no_enclosures(self):
        raise AssertionError(f"enclosure read for {self!r}")

    monkeypatch.setattr(LogValue, "_enclosures", no_enclosures)
    assert LogValue({2: 10**40, 3: Fraction(1, 10**40), 999983: 1}).sign() == 1
    assert LogValue({p: Fraction(-1, p) for p in PRIMES_TO_97}).sign() == -1
    assert LogValue({2: -(10**60)}) < LogValue({3: Fraction(1, 7)})
    with pytest.raises(AssertionError, match="enclosure read"):
        LogValue({2: 1, 3: -1}).sign()


def mpmath_value(terms, base=None):
    """sum c_p log p (divided by log base), as an mpmath float at the working precision."""
    total = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.log(p)
                        for p, c in terms.items())
    return total / mpmath.log(base) if base else total


def rounded(terms, base=None) -> float:
    """The correctly rounded double of the value, from 300 bits."""
    with mpmath.workprec(300):
        return float(mpmath_value(terms, base))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(exponent_maps, st.sampled_from((2, 3, 6, 7, 10, 12)))
def test_floats_are_correctly_rounded(terms, base):
    v = LogValue(terms)
    assert v.to_float().value == rounded(v.terms)
    out = v.normalize_base(base)
    assert float(out if isinstance(out, Fraction) else out.value) == rounded(v.terms, base)


def canonical(v: LogValue) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in v._terms.values())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(exponent_maps, exponent_maps, st.fractions(min_value=-6, max_value=6, max_denominator=4))
def test_ring_laws(a_terms, b_terms, k):
    a, b = LogValue(a_terms), LogValue(b_terms)
    assert a + b == b + a and (a + b) - b == a and (a - a).is_zero()
    assert -(a - b) == b - a
    assert (a + b).scale(k) == a.scale(k) + b.scale(k) == k * (a + b)
    for v in (a, a + b, a - b, -a, a.scale(k)):
        assert canonical(v), v


LOG2_3_CONVERGENTS = [(6189245291, 9809721694), (6586818670, 10439860591)]


@pytest.mark.parametrize("n3, n2", LOG2_3_CONVERGENTS)
def test_sign_escalates_past_a_straddling_enclosure(n3, n2):
    # continued-fraction convergents of log2(3): |n3 log 3 - n2 log 2| ~ 1e-10
    v = LogValue({3: n3, 2: -n2})
    (lo3, hi3), (lo2, hi2) = _log_bounds(3, 64), _log_bounds(2, 64)
    assert n3 * lo3 - n2 * hi2 <= 0 <= n3 * hi3 - n2 * lo2
    with mpmath.workprec(600):
        exact = n3 * mpmath.log(3) - n2 * mpmath.log(2)
    assert abs(exact) < 1e-10
    assert v.sign() == (1 if exact > 0 else -1)


@pytest.mark.parametrize("n3, n2", LOG2_3_CONVERGENTS)
@pytest.mark.parametrize("base", (2, 3, 6, 7, 10, 12))
def test_floats_climb_past_64_bits(n3, n2, base):
    v = LogValue({3: n3, 2: -n2})
    lo, hi, scale = next(v._enclosures())
    assert lo / scale != hi / scale      # 64 bits do not fix the double
    assert v.to_float().value == rounded(v.terms)
    assert v.normalize_base(base).value == rounded(v.terms, base)


def random_primes(count, seed):
    """Seeded primes of 2 to 40 bits below FACTOR_CAP, sizes drawn log-uniformly."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        n = rng.randrange(2, min(2 ** rng.randint(2, 40), FACTOR_CAP))
        while not is_prime(n):
            n += 1
        out.append(n)
    return out


def test_log_bounds_enclose():
    cases = [(p, 64 << i) for p in SMALL_PRIMES + (1009, 999983) + tuple(random_primes(40, seed=3))
             for i in range(7)] + [(2, 1 << 16), (3, 1 << 16)]
    for p, prec in cases:
        lo, hi = _log_bounds(p, prec)
        with mpmath.workprec(prec + 64):
            assert lo <= mpmath.ldexp(mpmath.log(p), prec) <= hi and hi - lo <= 2


# -- canonical int-or-Fraction coefficients -----------------------------------

def test_integral_coefficients_are_ints():
    half = LogValue({2: Fraction(1, 2), 3: Fraction(-3, 2)})
    for v in (log_of_rat(Fraction(8, 9)), LogValue({2: Fraction(6, 2)}), half + half,
              half.scale(6), LogValue.from_json({"terms": {"2": "4/2"}})):
        assert all(type(c) is int for c in v._terms.values()), v
    assert canonical(half) and type(half._terms[2]) is Fraction
    assert all(type(c) is Fraction for c in log_of_rat(8).terms.values())
    assert all(type(c) is Fraction for c in (half + half).terms.values())
