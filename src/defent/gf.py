"""Finite fields GF(p^e) with canonical moduli and index-encoded elements.

An element is handled as its index in the canonical enumeration: the
element with coefficient vector (c_0, ..., c_{e-1}) over F_p (constant
coefficient first) has index sum c_i * p^i.  Index 0 is the zero element
and, for prime fields, the index simply is the residue.  The modulus is
the lexicographically smallest monic irreducible of degree e (constant
term varying fastest), so (p, e) pins the field construction exactly and
results are reproducible across runs and machines.

No subfield embeddings are provided: per-degree statistics never compare
elements across different fields.
"""

from __future__ import annotations

from .errors import DomainError
from .logval import factorize, is_prime

_SPEC_CACHE: dict[tuple[int, int], "FieldSpec"] = {}


# -- dense polynomials over F_p: coefficient lists, constant term first --

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _prem(a, b, p):
    """Remainder of a mod b (b nonzero)."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while a and len(a) - 1 >= db:
        if a[-1]:
            coef = a[-1] * inv_lead % p
            shift = len(a) - 1 - db
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * c) % p
        a.pop()
    return _trim(a)


def _ppowmod(a, n, m, p):
    result = [1]
    base = _prem(a, m, p)
    while n:
        if n & 1:
            result = _prem(_pmul(result, base, p), m, p)
        base = _prem(_pmul(base, base, p), m, p)
        n >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _prem(a, b, p)
    return a


def _irreducible(f, p):
    """Rabin test: x^(p^e) = x mod f, and gcd(x^(p^k) - x, f) = 1 for k < e."""
    e = len(f) - 1
    t = [0, 1]
    for k in range(1, e + 1):
        t = _ppowmod(t, p, f, p)
        diff = list(t) + [0] * (2 - len(t))
        diff[1] = (diff[1] - 1) % p
        diff = _trim(diff)
        if k == e:
            return not diff
        if len(_pgcd(f, diff, p)) != 1:
            return False


def _canonical_modulus(p, e):
    """First monic irreducible of degree e in index order of (c_0..c_{e-1})."""
    if e == 1:
        return (0, 1)
    for idx in range(p**e):
        coeffs = []
        v = idx
        for _ in range(e):
            coeffs.append(v % p)
            v //= p
        f = coeffs + [1]
        if _irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial of this degree")  # unreachable


class FieldSpec:
    """A concrete finite field GF(p^e) with its canonical modulus.

    Immutable after construction; element operations are pure functions of
    integer indices, so specs and elements can be shared freely between
    concurrent tasks.
    """

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if e < 1:
            raise DomainError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _canonical_modulus(p, e)
        self._gen = None

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"

    def modulus_str(self) -> str:
        parts = []
        for i in range(self.e, -1, -1):
            c = self.modulus[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                parts.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(parts) if parts else "0"

    # -- element encoding ----------------------------------------------------

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def index(self, digits) -> int:
        a = 0
        for c in reversed(list(digits)):
            a = a * self.p + c
        return a

    def elements(self) -> range:
        """All q elements in canonical order; element i has digits of i base p."""
        return range(self.q)

    def element_str(self, a: int) -> str:
        return f"{a}@{self!r}"

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a + b) % p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if self.e == 1:
            return (-a) % p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += (-a) % p * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _pmul(_trim(self.digits(a)), _trim(self.digits(b)), self.p)
        prod = _prem(prod, list(self.modulus), self.p)
        return self.index(prod + [0] * (self.e - len(prod)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.e == 1:
            return pow(a, n, self.p)
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def generator(self) -> int:
        """First element in enumeration order of multiplicative order q-1."""
        if self._gen is not None:
            return self._gen
        m = self.q - 1
        if m == 1:
            self._gen = 1
            return 1
        prime_divs = list(factorize(m))
        for g in range(1, self.q):
            if all(self.pow(g, m // r) != 1 for r in prime_divs):
                self._gen = g
                return g
        raise RuntimeError("multiplicative group has no generator")  # unreachable


def field(p: int, e: int = 1) -> FieldSpec:
    """Construct (and cache) the canonical GF(p^e)."""
    key = (p, e)
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, e)
        _SPEC_CACHE[key] = spec
    return spec


def prime_power(n: int):
    """Return (p, e) with n = p^e for p prime, or None."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f) != 1:
        return None
    p, e = next(iter(f.items()))
    return p, e
