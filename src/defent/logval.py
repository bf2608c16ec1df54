"""Exact real numbers of the form sum_p c_p * log(p) over primes p.

Logarithms of distinct primes are linearly independent over the rationals
(a product of prime powers equals 1 only when all exponents vanish), so a
value sum_p c_p*log(p) with rational c_p is zero exactly when every
coefficient is zero.  This makes the zero test structural.

Every numeric read -- a sign, a float, a quotient by log(base) -- comes from
one ladder of integer enclosures.  For each prime p and binary precision k a
cached helper holds integers lo <= 2^k * log(p) <= hi, summed from atanh
series in plain integer arithmetic with a counted error and rounded
outward.  Scaled to integers by their common denominator, the coefficients
then bound the value from both sides at k = 64, 128, ... bits.  A sign
stops at the first rung that excludes zero, a float at the first whose ends
round to one double, so every float is correctly rounded.  Both stops are
reached: a nonzero value is the log of a rational other than 1, hence
transcendental.  Coefficients are stored as an ``int`` when integral,
otherwise as a ``Fraction`` with denominator greater than 1, so most
arithmetic stays in Python ints.

All entropies of uniform distributions on finite supports live in this
ring of values: logs of integer counts and rational probabilities.
Exactness is what allows equalities like D(A:B) = log q - log(q-1) to be
decided rather than approximated.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError

#: Trial division (``factorize``, ``is_prime``) refuses larger inputs: the system
#: writes no larger prime, and every field with q > 10^9 is over budget.
FACTOR_CAP = 10**12

_START_PREC = 64
_MAX_PREC = 1 << 20


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n <= 0:
        raise DomainError(f"cannot factor non-positive integer {n}")
    if n > FACTOR_CAP:
        raise DomainError(f"{n} exceeds the trial-division cap {FACTOR_CAP}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Primality by ``factorize``, so n > FACTOR_CAP raises DomainError before any division."""
    return n > 1 and factorize(n) == {n: 1}


class Approx(NamedTuple):
    """A certified numeric evaluation: |value - truth| <= bound.

    The value is always a float, the correctly rounded double of the truth,
    so the bound |value| * 2^-53 covers its half-ulp rounding error.
    """

    value: float
    bound: float


def _iv_eval(p: int, prec: int) -> tuple[int, int]:
    """Integers lo <= 2^prec * log(p) <= hi with hi - lo <= 2, from integer series.

    log p = 2e atanh(1/3) + 2 atanh((p - 2^e)/(p + 2^e)) for 2^e <= p < 2^(e+1),
    each x = a/b in [0, 1/3].  atanh(x) = sum_j x^(2j+1)/(2j+1) is summed at
    prec + g bits by s += t // (2j + 1), t <- t a^2 // b^2.  t stays below its exact
    value by under 1/(1 - x^2) = 9/8, so each of the j terms loses under 2 units and
    the tail after t = 0 is under 2: the sum lies in [s, s + 2j + 2].  The guard bits
    g = prec.bit_length() + e.bit_length() + 16 shrink that error below 2^-15 at 2^prec.
    """
    e = p.bit_length() - 1
    g = prec.bit_length() + e.bit_length() + 16
    lo = hi = 0
    for c, a, b in ((2 * e, 1, 3), (2, p - (1 << e), p + (1 << e))):
        t, s, j = (a << (prec + g)) // b, 0, 0
        while t:
            s += t // (2 * j + 1)
            t = t * a * a // (b * b)
            j += 1
        lo, hi = lo + c * s, hi + c * (s + 2 * j + 2)
    return lo >> g, -(-hi >> g)


@functools.lru_cache(maxsize=512)
def _log_bounds(p: int, prec: int) -> tuple[int, int]:
    """Cached ``_iv_eval``, looked up as a module global on every miss."""
    return _iv_eval(p, prec)


def _canon(c):
    """The stored form of a nonzero rational: int when integral, else Fraction."""
    return c.numerator if c.denominator == 1 else c


class LogValue:
    """An exact rational linear combination of logarithms of primes.

    Canonical form: the term map never stores a zero coefficient, stores an
    integral coefficient as ``int`` and any other as ``Fraction``, and the
    empty map is the real number 0.  Values are immutable and hashable;
    arithmetic returns new values.  Comparisons are exact (decided by the
    certified sign of the difference).
    """

    __slots__ = ("_terms", "_sign")

    def __init__(self, terms=None):
        canon: dict[int, int | Fraction] = {}
        if terms:
            for p, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c == 0:
                    continue
                if p < 2 or not is_prime(p):
                    raise DomainError(f"term key {p} is not prime")
                canon[int(p)] = _canon(c)
        self._terms = canon
        self._sign = None

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "LogValue":
        return cls()

    @classmethod
    def _raw(cls, canon: dict[int, int | Fraction]) -> "LogValue":
        v = cls.__new__(cls)
        v._terms = canon
        v._sign = None
        return v

    # -- accessors ---------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return {p: Fraction(c) for p, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ---------------------------------------------------

    def _plus(self, items) -> "LogValue":
        canon = dict(self._terms)
        for p, c in items:
            s = canon.get(p, 0) + c
            if s:
                canon[p] = s.numerator if s.denominator == 1 else s
            else:
                del canon[p]
        return LogValue._raw(canon)

    def __add__(self, other):
        if not isinstance(other, LogValue):
            return NotImplemented
        return self._plus(other._terms.items())

    def __sub__(self, other):
        if not isinstance(other, LogValue):
            return NotImplemented
        return self._plus((p, -c) for p, c in other._terms.items())

    def __neg__(self):
        return LogValue._raw({p: -c for p, c in self._terms.items()})

    def scale(self, c) -> "LogValue":
        c = Fraction(c)
        if c == 0:
            return LogValue.zero()
        c = _canon(c)
        return LogValue._raw({p: _canon(c * v) for p, v in self._terms.items()})

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    # -- enclosures, sign, comparison ----------------------------------------

    def _enclosures(self):
        """Integers (lo, hi, scale) with lo <= scale * value <= hi, ever tighter.

        The coefficients are scaled to integers n_p by their common
        denominator den, and the cached enclosures lo_p <= 2^k log(p) <= hi_p
        bound den * 2^k times the value from both sides; k starts at 64 bits
        and doubles up to 2^20.  Callers settle the zero value (no terms) first.
        """
        den = math.lcm(*[c.denominator for c in self._terms.values()])
        prec = _START_PREC
        while prec <= _MAX_PREC:
            lo = hi = 0
            for p, c in self._terms.items():
                n = c.numerator * (den // c.denominator)
                a, b = _log_bounds(p, prec)
                if n > 0:
                    lo += n * a
                    hi += n * b
                else:
                    lo += n * b
                    hi += n * a
            yield lo, hi, den << prec
            prec *= 2
        raise RuntimeError(f"undecided at precision {_MAX_PREC}: {self!r}")

    def sign(self) -> int:
        """Certified sign in {-1, 0, +1}.

        Zero is structural (empty term map), and so is the sign of a term
        map whose coefficients all have one sign, since every log p > 0;
        otherwise the first enclosure that excludes zero decides.  The result
        is memoised.
        """
        if not self._terms:
            return 0
        if self._sign is None:
            if min(self._terms.values()) > 0:
                self._sign = 1
            elif max(self._terms.values()) < 0:
                self._sign = -1
            else:
                for lo, hi, _ in self._enclosures():
                    if lo > 0 or hi < 0:
                        self._sign = 1 if lo > 0 else -1
                        break
        return self._sign

    def __eq__(self, other):
        if isinstance(other, LogValue):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    # -- numeric evaluation --------------------------------------------------

    def to_float(self) -> Approx:
        """The correctly rounded double of the value.

        Stops at the first enclosure whose ends lo/scale and hi/scale, each a
        correctly rounded int/int division, are the same double: the value
        lies between them and so rounds there too.
        """
        if not self._terms:
            return Approx(0.0, 0.0)
        for lo, hi, scale in self._enclosures():
            value = lo / scale
            if value == hi / scale:
                return Approx(value, abs(value) * 2**-53)

    def normalize_base(self, base: int):
        """Divide by log(base); exact Fraction when possible, else Approx.

        The value is an exact rational multiple of log(base) precisely when
        the term map is proportional to the prime factorization of base.
        Otherwise the quotient is irrational, and the enclosures of the value
        and of log(base) are read together until the four endpoint quotients
        round to one double, the correctly rounded quotient.
        """
        if base < 2:
            raise DomainError("base must be an integer >= 2")
        bfact = factorize(base)
        if not self._terms:
            return Fraction(0)
        if set(self._terms) == set(bfact):
            p0, e0 = next(iter(bfact.items()))
            c = Fraction(self._terms[p0], e0)
            if all(self._terms[p] == c * e for p, e in bfact.items()):
                return c
        for (lo, hi, s), (blo, bhi, bs) in zip(self._enclosures(),
                                               LogValue._raw(bfact)._enclosures()):
            ends = {x * bs / (s * y) for x in (lo, hi) for y in (blo, bhi)}
            if len(ends) == 1:
                value = ends.pop()
                return Approx(value, abs(value) * 2**-53)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": {
                str(p): f"{c.numerator}/{c.denominator}"
                for p, c in sorted(self._terms.items())
            }
        }

    @classmethod
    def from_json(cls, obj) -> "LogValue":
        """The value ``to_json`` writes, read by ``decode_terms``: term keys are primes in
        canonical decimal ("5", not "05" or "+5"), coefficients ints or "n/d" strings."""
        return cls._raw(decode_terms(obj))

    def __repr__(self):
        if not self._terms:
            return "LogValue(0)"
        parts = [f"{c}*log({p})" for p, c in sorted(self._terms.items())]
        return "LogValue(" + " + ".join(parts) + ")"


_RATIONAL = re.compile(r"(-?[0-9]+)/(0*[1-9][0-9]*)")


def rational(v):
    """The exact rational a JSON value spells, an int or a Fraction as ``_canon`` stores
    it: an int (a bool is none) or an "n/d" string of ASCII decimals, d > 0, in any
    terms.  Anything else, a float included, raises ValueError."""
    m = _RATIONAL.fullmatch(v) if type(v) is str else None
    if m is None and type(v) is not int:
        raise ValueError(f"Invalid literal for Fraction: {v!r}")
    return v if m is None else _canon(Fraction(int(m[1]), int(m[2])))


def decode_terms(obj) -> dict:
    """The term map (prime -> nonzero ``rational`` coefficient) of LogValue JSON: an
    object whose "terms" object has primes in canonical decimal (``str(int(k)) == k``)
    as keys.  Every other spelling raises DomainError; no LogValue is built."""
    terms = obj.get("terms") if isinstance(obj, dict) else None
    if not isinstance(terms, dict):
        raise DomainError("a value must be LogValue JSON: an object with a 'terms' object")
    out = {}
    try:
        for k, v in terms.items():
            p = int(k)
            if str(p) != k or not is_prime(p):
                raise ValueError(f"term key {k!r} is not prime or not in canonical decimal")
            c = rational(v)
            if c:
                out[p] = c
    except (TypeError, ValueError) as exc:  # a DomainError of is_prime included
        raise DomainError(f"bad LogValue term in {terms!r}: {exc}") from None
    return out


@functools.lru_cache(maxsize=4096)
def log_of_rat(r) -> LogValue:
    """log of a positive rational, as the exact prime-exponent combination.

    Cached: profiles repeat the same counts, and a LogValue's terms never
    change after construction, so every caller can share one value.
    """
    r = Fraction(r)
    if r <= 0:
        raise DomainError(f"log of non-positive rational {r}")
    terms = factorize(r.numerator)
    for p, e in factorize(r.denominator).items():
        terms[p] = terms.get(p, 0) - e
    return LogValue._raw(terms)  # numerator and denominator share no prime


#: log 2, handy in several closed forms
LOG2 = log_of_rat(2)
