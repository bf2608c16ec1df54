"""Set functions on a finite ground set and the information-inequality algebra.

A Profile is a dense map 2^N -> LogValue with h(emptyset) = 0; entropy
profiles of uniform distributions on definable sets, linear-congruence
profiles and distribution profiles all live here.  A profile holds its
integer exponent matrix E: one row per subset, in bitmask order of the
ground set, one column per prime, all over one least common denominator;
LogValue entries are built from a row on demand.  On top of profiles the
module provides the classical functionals (conditional entropy, conditional
mutual information, the Ingleton expression), the elemental Shannon check,
factoring along a partition of the ground set, modular convolution, a small
text DSL for linear functionals (its grammar is in ``parse_functional``), and
the closed-form family attached to the Kaced-Romashchenko configuration
together with its essential-conditionality scan.

All checks are exact: a functional is zero iff its LogValue is structurally
zero, and comparisons use certified signs, never floating thresholds.  The
Shannon quantities and the elemental Shannon check are integer sums of rows
of E, read column by column at a few bitmasks.  A sum whose entries share
one sign has that sign with no enclosure (every log p > 0); the elemental
check signs each other distinct row once per call.

Subsets are walked (``subsets``), keyed in JSON and combined into Shannon
quantities (``cond_entropy``, ``cond_mi``, ``ingleton``) here and nowhere
else: one walk, one codec, each quantity defined once, as a signed sum over
profile entries that builds one result.  The codec is one key table per
ground set (``_key_table``, from ``subset_key``): what ``to_json`` writes is
all that ``_rows_from_json``, the one decode path, reads.  It maps each key
to a bitmask and each distinct terms object (``logval.decode_terms``) to an
exponent row, which ``_columns`` reads into E as it does for ``Profile(...)``;
no LogValue is built.  Evaluated on ``H``, the symbolic
profile whose entry H[S] is the functional H(S), the sum is a LinFunctional:
``cond_mi(H, I, J, K)`` is the functional I(I:J|K), and ``H[S]`` is H(S).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import BudgetError, DomainError, json_list, malformed
from .gf import prime_power
from .logval import LOG2, LogValue, _canon, decode_terms, log_of_rat

_ZERO = LogValue.zero()


def _as_labelset(labels):
    if isinstance(labels, str):
        return frozenset((labels,))
    return frozenset(labels)


def subsets(labels):
    """Every subset of labels as a frozenset: by size, then in label order."""
    labels = tuple(labels)
    for r in range(len(labels) + 1):
        for comb in itertools.combinations(labels, r):
            yield frozenset(comb)


def label_order(ground_set) -> dict:
    """label -> position in the ground set, the sort key of ``subset_key``."""
    return {v: i for i, v in enumerate(ground_set)}


def subset_key(order: dict, ks) -> str:
    """JSON key of a subset: its labels in ground-set order (``label_order``), comma-joined."""
    return ",".join(sorted(ks, key=order.get))


@functools.lru_cache(maxsize=64)
def _key_table(gs: tuple) -> dict:
    """subset_key -> bitmask for every subset of gs, smallest subsets first, then by key:
    the keys that ``to_json`` writes and the only keys that ``_rows_from_json`` reads."""
    order = label_order(gs)
    return dict(sorted(((subset_key(order, ks), mask) for ks, mask in _subset_index(gs).items()),
                       key=lambda t: (t[1].bit_count(), t[0])))


def entries_to_json(ground_set, entries) -> dict:
    """subset_key -> value JSON (None stays None) of every subset's entry, in JSON order."""
    gs = tuple(ground_set)
    values = [None if entries[ks] is None else entries[ks].to_json() for ks in _subset_index(gs)]
    return {key: values[mask] for key, mask in _key_table(gs).items()}


def _rows_from_json(obj, what: str, nullable: bool = False) -> tuple:
    """(ground set, rows) of profile-shaped JSON ``what``: rows[mask] is the term map
    (``decode_terms``) of the entry whose key the key table maps to mask, None where it
    is null if nullable.  Too few keys are refused before the table is built, so its 2^n
    keys are never more than the input's.  Each distinct terms object is decoded
    once, as a profile repeats a few entries many times; only all-string ones are kept,
    for 2, 2.0 and True are equal keys and only the int may be read."""
    with malformed(what):
        gs = _distinct(json_list(obj["ground_set"], "ground set"))
        items = obj["entries"].items()
    if len(items) < 1 << len(gs):
        raise DomainError(f"profile must define all {1 << len(gs)} subsets, got {len(items)}")
    table, decoded = _key_table(gs), {}
    rows = [None] * len(table)
    for key, v in items:
        if key not in table:
            raise DomainError(f"entry key {key!r} not within ground set {gs}: a key is "
                              "its labels in ground-set order, comma-joined, each once")
        if v is None and nullable:
            continue
        try:
            row = decoded[tuple(v["terms"].items())]
        except (KeyError, TypeError, AttributeError):  # new, or refused by decode_terms
            row = decode_terms(v)
            if all(type(c) is str for c in v["terms"].values()):
                decoded[tuple(v["terms"].items())] = row
        rows[table[key]] = row
    return gs, rows


class Profile:
    """A set function on 2^N with exact LogValue entries and h(empty) = 0.

    A profile holds its exponent matrix E: one row per subset S of the
    ground set, indexed by bitmask (bit i stands for ``ground_set[i]``), and
    one column per prime p, ascending, all over one common denominator den:
    h(S) = sum_p E[S, p] / den * log p.  E is stored column by column
    (``_cols[j][mask]`` is the entry of ``_primes[j]``) and kept canonical:
    no column is all zero and den is the least common denominator, so equal
    profiles have equal matrices.  ``h[S]`` and ``entries()`` build LogValues
    on demand.

    ``Profile(ground_set, entries)`` validates a dict of LogValue entries, one
    per subset, and hands their term maps, one row per bitmask, to ``_columns``
    (h(empty) = 0) and ``_hold``, as ``from_json`` and the entropy profiles do
    through ``_of_matrix``.  Producers that know their exponent columns
    (``profile_lincong``, ``factor``) pass them to ``_of_matrix``.
    """

    def __init__(self, ground_set, entries):
        gs = _distinct(ground_set)
        full, canon = frozenset(gs), {}
        for key, val in entries.items():
            ks = _as_labelset(key)
            if not ks <= full:
                raise DomainError(f"entry {set(ks)} not within ground set {gs}")
            if not isinstance(val, LogValue):
                raise DomainError("profile entries must be LogValue")
            canon[ks] = val._terms
        size = 1 << len(gs)
        if len(canon) != size:  # checked before the 2^n subsets are indexed
            raise DomainError(f"profile must define all {size} subsets, got {len(canon)}")
        self._hold(gs, *_columns([canon[ks] for ks in _subset_index(gs)]))

    def _hold(self, gs, primes, den, cols):
        """Hold the exponent columns cols (one entry per bitmask) over den, made
        canonical: all-zero columns dropped, den reduced.  Every constructor ends here."""
        keep = [j for j, col in enumerate(cols) if any(col)]
        if len(keep) < len(cols):
            primes, cols = [primes[j] for j in keep], [cols[j] for j in keep]
        g = math.gcd(den, *itertools.chain.from_iterable(cols)) if den > 1 else 1
        if g > 1:
            den //= g
            cols = [tuple(e // g for e in col) for col in cols]
        self.ground_set = gs
        self._index = _subset_index(gs)
        self._bits = _label_bits(gs)
        self._primes, self._den, self._cols = tuple(primes), den, tuple(cols)

    @classmethod
    def _of_matrix(cls, ground_set, primes, den, cols) -> "Profile":
        """The profile with exponent columns cols (one entry per bitmask) over den."""
        h = cls.__new__(cls)
        h._hold(_distinct(ground_set), primes, den, cols)
        return h

    def _value(self, mask) -> LogValue:
        den = self._den
        if den == 1:
            return LogValue._raw({p: col[mask] for p, col in zip(self._primes, self._cols)
                                  if col[mask]})
        return LogValue._raw({p: _canon(Fraction(col[mask], den))
                              for p, col in zip(self._primes, self._cols) if col[mask]})

    def _mask(self, ks) -> int:
        try:
            return self._index[ks]
        except KeyError:
            raise _unknown_subset(ks) from None

    def __getitem__(self, labels) -> LogValue:
        return self._value(self._mask(_as_labelset(labels)))

    def subsets(self):
        """Every subset of the ground set, in bitmask order."""
        return self._index.keys()

    def entries(self):
        return {ks: self._value(mask) for ks, mask in self._index.items()}

    def __eq__(self, other):
        if not (isinstance(other, Profile) and set(self.ground_set) == set(other.ground_set)
                and (self._primes, self._den) == (other._primes, other._den)):
            return False
        if self.ground_set == other.ground_set:
            return self._cols == other._cols
        perm = [other._index[ks] for ks in self._index]
        return all(col == tuple(map(ocol.__getitem__, perm))
                   for col, ocol in zip(self._cols, other._cols))

    def __repr__(self):
        return f"Profile(n={len(self.ground_set)}, labels={self.ground_set})"

    def to_json(self) -> dict:
        """Each entry's JSON (``LogValue.to_json``) spelled from its row: e/den in lowest
        terms.  Each distinct row is spelled once, and equal rows share that JSON object."""
        den, keys = self._den, [str(p) for p in self._primes]
        spelled = {}  # row -> its entry JSON

        def terms(mask):
            row = tuple([col[mask] for col in self._cols])
            if row not in spelled:
                out = {}
                for key, e in zip(keys, row):
                    if e:
                        g = math.gcd(e, den)
                        out[key] = f"{e // g}/{den // g}"
                spelled[row] = {"terms": out}
            return spelled[row]

        return {
            "ground_set": list(self.ground_set),
            "entries": {key: terms(mask) for key, mask in _key_table(self.ground_set).items()},
        }

    @classmethod
    def from_json(cls, obj) -> "Profile":
        """The profile ``to_json`` writes, with every check of the constructor.  Only
        these spellings are read: "ground_set" a list of distinct non-empty labels
        without ','; one "entries" key per subset, its labels in ground-set order,
        comma-joined ("" for the empty set); each entry LogValue JSON (prime keys in
        canonical decimal, int or "n/d" coefficients).  Other keys are ignored."""
        gs, rows = _rows_from_json(obj, "profile JSON")
        return cls._of_matrix(gs, *_columns(rows))

    def normalized(self, base: int):
        """Base-b rendering of every entry: exact Fraction where possible."""
        return {ks: self._value(mask).normalize_base(base) for ks, mask in self._index.items()}


def _unknown_subset(ks) -> DomainError:
    return DomainError(f"unknown subset {sorted(ks)}")


def _distinct(ground_set) -> tuple:
    """The ground set as a tuple of distinct labels, each a non-empty string without
    ',', so that every subset has one JSON key (``subset_key``)."""
    gs = tuple(ground_set)
    for v in gs:
        if not (isinstance(v, str) and v and "," not in v):
            raise DomainError(f"label {v!r} is not a non-empty string without ','")
    if len(set(gs)) != len(gs):
        raise DomainError("ground set labels must be distinct")
    return gs


def _columns(rows, den=1) -> tuple:
    """(primes, den, columns) of rows, one map prime -> coefficient times den per bitmask,
    once h(empty) = 0.  A coefficient is an int or a Fraction; the least common
    denominator of them all scales the columns to integers and den up."""
    if rows[0]:
        raise DomainError("h(emptyset) must be exactly 0")
    primes = sorted({p for row in rows for p in row})
    lcd = math.lcm(*(c.denominator for row in rows for c in row.values()))
    cols = [tuple([row.get(p, 0) for row in rows]) for p in primes]
    if lcd > 1:
        cols = [tuple([c.numerator * (lcd // c.denominator) for c in col]) for col in cols]
    return primes, den * lcd, cols


@functools.lru_cache(maxsize=64)
def _label_bits(gs: tuple) -> dict:
    """label -> its bit (bit i stands for gs[i])."""
    return {v: 1 << i for i, v in enumerate(gs)}


# Most subsets a walk over every subset of its labels may visit: 20 labels.
MAX_SUBSETS = 1 << 20


def check_subsets(n: int, what: str):
    """Refuse, before it starts, a walk of ``what`` over the 2^n subsets of n labels
    when 2^n exceeds MAX_SUBSETS."""
    if 1 << n > MAX_SUBSETS:
        raise BudgetError(f"{what} needs 2^{n} subsets (budget {MAX_SUBSETS})")


@functools.lru_cache(maxsize=64)
def _subset_index(gs: tuple) -> dict:
    """frozenset -> bitmask (bit i stands for gs[i]) for every subset of gs, in bitmask order."""
    index = {frozenset(): 0}
    for i, v in enumerate(gs):
        index.update([(ks | {v}, mask | 1 << i) for ks, mask in index.items()])
    return index


def zero_profile(ground_set) -> Profile:
    return Profile._of_matrix(ground_set, (), 1, ())


# -- basic functionals -------------------------------------------------------

def _signed_sum(h, terms):
    """sum of w * h[S] over the (w, S) in the sequence terms, w an int or a Fraction: one
    LinFunctional on ``H`` (every S a label set), one LogValue on a Profile (every S a label
    set, or every S a bitmask; each prime's column is read at the terms' bitmasks)."""
    if h is H:
        acc = {}
        for w, ks in terms:
            acc[ks] = acc.get(ks, 0) + w
        return LinFunctional(acc)
    picked = terms
    if terms and type(terms[0][1]) is not int:
        index = h._index
        try:
            picked = [(w, index[ks]) for w, ks in terms]
        except KeyError as exc:
            raise _unknown_subset(exc.args[0]) from None
    den, out = h._den, {}
    for p, col in zip(h._primes, h._cols):
        c = sum([w * col[mask] for w, mask in picked])
        if c:
            out[p] = c if den == 1 and type(c) is int else _canon(Fraction(c, den))
    return LogValue._raw(out)


def _arguments(h, args) -> list:
    """The arguments of a Shannon quantity, as bitmasks on a Profile whose ground set holds
    all their labels, else as label sets; either way ``|`` is their union."""
    if h is not H:
        bits, index = h._bits, h._index
        try:
            return [bits[x] if isinstance(x, str) else index[frozenset(x)] for x in args]
        except KeyError:
            pass  # label sets, so that _signed_sum names the first unknown subset
    return [_as_labelset(x) for x in args]


def cond_entropy(h: Profile, I, K) -> LogValue:
    """h(I|K) = h(I u K) - h(K)."""
    i, k = _arguments(h, (I, K))
    return _signed_sum(h, ((1, i | k), (-1, k)))


def cond_mi(h: Profile, I, J, K=()) -> LogValue:
    """h(I:J|K) = h(I u K) + h(J u K) - h(I u J u K) - h(K)."""
    i, j, k = _arguments(h, (I, J, K))
    return _signed_sum(h, ((1, i | k), (1, j | k), (-1, i | j | k), (-1, k)))


def ingleton(h: Profile, A, B, C, D) -> LogValue:
    """The Ingleton expression h(C:D|A) + h(C:D|B) + h(A:B) - h(C:D); h(A), h(B) cancel."""
    a, b, c, d = _arguments(h, (A, B, C, D))
    return _signed_sum(h, ((1, a | c), (1, a | d), (-1, a | c | d), (1, b | c), (1, b | d),
                           (-1, b | c | d), (-1, a | b), (-1, c), (-1, d), (1, c | d)))


@dataclass
class PolymatroidCheck:
    ok: bool
    violation: str | None = None

    def __bool__(self):
        return self.ok


@functools.lru_cache(maxsize=None)
def _elemental_rows(n: int) -> tuple:
    """Bitmask rows (S1, S2, S3, S4), value h(S1) + h(S2) - h(S3) - h(S4), in visiting
    order: h(i|rest) as (N, 0, N - i, 0), then h(a:b|K) as (aK, bK, abK, K)."""
    full = (1 << n) - 1
    rows = [(full, 0, full ^ 1 << i, 0) for i in range(n)]
    # the subsets K of n - 2 positions in ``subsets`` order, as bitmasks; for the pair
    # a < b, position i stands for the i-th of the other variables, so zero bits are
    # spread in at a and at b
    rest = [sum(comb) for r in range(n - 1)
            for comb in itertools.combinations([1 << i for i in range(n - 2)], r)]
    for a, b in itertools.combinations(range(n), 2):
        low_a, low_b, ab = (1 << a) - 1, (1 << b) - 1, 1 << a | 1 << b
        for k in rest:
            k = k & low_a | (k & ~low_a) << 1
            k = k & low_b | (k & ~low_b) << 1
            rows.append((k | 1 << a, k | 1 << b, k | ab, k))
    return tuple(rows)


def _elemental_text(gs, row) -> str:
    def names(mask):
        return [v for i, v in enumerate(gs) if mask >> i & 1]

    s1, s2, s3, k = row
    if not s2:
        return f"h({names(s1 ^ s3)[0]}|rest) < 0"
    return f"h({names(s1 ^ k)[0]}:{names(s2 ^ k)[0]}|{','.join(names(k)) or 'empty'}) < 0"


def is_polymatroid(h: Profile) -> PolymatroidCheck:
    """Elemental Shannon check: h(i|N-i) >= 0 and h(i:j|K) >= 0.

    They are equivalent to monotonicity + submodularity.  Each is an integer
    row read off the profile's exponent matrix, column by column at four
    bitmasks.  A row with no negative entry is >= 0 as it stands (log p > 0);
    any other row gets a certified sign, each distinct row once per call,
    and the first negative row in visiting order is reported.
    """
    rows = _elemental_rows(len(h.ground_set))
    sums = [[col[a] + col[b] - col[c] - col[d] for a, b, c, d in rows] for col in h._cols]
    if all(min(s) >= 0 for s in sums):
        return PolymatroidCheck(True)
    nonnegative = set()
    for masks, row in zip(rows, zip(*sums)):
        if min(row) >= 0 or row in nonnegative:
            continue
        if LogValue._raw({p: v for p, v in zip(h._primes, row) if v}).sign() < 0:
            return PolymatroidCheck(False, _elemental_text(h.ground_set, masks))
        nonnegative.add(row)
    return PolymatroidCheck(True)


def factor(h: Profile, partition) -> Profile:
    """Pullback of h along a partition of its ground set into blocks: the row of a
    set of blocks is h's row at the union of their bitmasks."""
    blocks = {b: tuple(vs) for b, vs in dict(partition).items()}
    flat = [v for vs in blocks.values() for v in vs]
    if sorted(flat) != sorted(h.ground_set):
        raise DomainError("blocks must partition the ground set")
    unions = [0]
    for vs in blocks.values():
        bits = h._mask(frozenset(vs))
        unions += [u | bits for u in unions]
    return Profile._of_matrix(tuple(blocks), h._primes, h._den,
                              [tuple(col[u] for u in unions) for col in h._cols])


def is_modular(m: Profile) -> bool:
    """m(I) + m(J) = m(I u J) + m(I n J) for all I, J, with m monotone, m(0)=0.

    Equivalently, at O(n 2^n): m(I) = sum of m(i) over i in I, all m(i) >= 0.
    """
    single = {v: m[v] for v in m.ground_set}
    if any(val.sign() < 0 for val in single.values()):
        return False
    return all(m[ks] == sum((single[v] for v in ks), _ZERO) for ks in m.subsets())


def convolve(h: Profile, m: Profile) -> Profile:
    """(h * m)(I) = min over J <= I of h(J) + m(I - J); m must be modular."""
    if set(h.ground_set) != set(m.ground_set):
        raise DomainError("convolution requires a common ground set")
    if not is_modular(m):
        raise DomainError("second argument of convolve must be modular")
    entries = {
        i_set: min(h[j_set] + m[i_set - j_set] for j_set in subsets(sorted(i_set)))
        for i_set in h.subsets()
    }
    return Profile(h.ground_set, entries)


# -- linear functionals and their DSL ------------------------------------------

@dataclass
class LinFunctional:
    """Sparse rational combination of profile entries.

    The empty set never carries a coefficient (h(emptyset) = 0 identically).
    """

    coeffs: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        canon = {}
        for ks, c in self.coeffs.items():
            ks = _as_labelset(ks)
            c = Fraction(c)
            if c and ks:
                canon[ks] = canon.get(ks, Fraction(0)) + c
        self.coeffs = {k: c for k, c in canon.items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for ks, c in other.coeffs.items():
            out[ks] = out.get(ks, Fraction(0)) + c
        return LinFunctional(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "LinFunctional":
        c = Fraction(c)
        return LinFunctional({ks: c * v for ks, v in self.coeffs.items()})

    def render(self) -> str:
        """DSL text of the functional."""
        if not self.coeffs:
            return "0"
        parts = []
        for ks, c in sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            mag = -c if c < 0 else c
            coef = "" if mag == 1 else f"{mag} "
            term = f"{coef}H({','.join(sorted(ks))})"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


class _SymbolicProfile:
    """The profile whose entry h[S] is the functional H(S)."""

    def __getitem__(self, labels) -> LinFunctional:
        return LinFunctional({_as_labelset(labels): Fraction(1)})


H = _SymbolicProfile()


_TERM = re.compile(r"\s*([+-]?)\s*(\d+(?:/\d+)?)?\s*([A-Za-z_][A-Za-z0-9_']*)\s*\(([^()]*)\)\s*")
_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|[0-9]+")


def parse_functional(text: str) -> LinFunctional:
    """Parse the functional DSL: rational-scaled sums of H, D, I and ING terms.

    Grammar, with whitespace allowed around every token:

        functional := "0" | term (("+" | "-") term)*
        term       := ["+" | "-"] [n | n/d] PRIM
        PRIM       := H(S) | D(I|K) | I(I:J) | I(I:J|K) | ING(A:B|C:D)

    n and d are decimal integers, d nonzero.  Each of S, I, J, K, A, B, C, D is
    a comma-separated list of labels, where a label matches
    ``[A-Za-z_][A-Za-z0-9_']*`` or ``[0-9]+``; every list may be empty except
    S.  ``"0"`` is the zero functional, which ``LinFunctional.render`` prints.
    Any other text raises DomainError.
    """
    if text.strip() == "0":
        return LinFunctional()
    if not text.strip():
        raise DomainError("empty functional")
    shapes = {("H", ""): lambda h, s: h[s], ("D", "|"): cond_entropy, ("I", ":"): cond_mi,
              ("I", ":|"): cond_mi, ("ING", ":|:"): ingleton}
    total, pos = LinFunctional(), 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or (pos and not m[1]):
            raise DomainError(f"bad functional syntax near {text[pos:pos + 10]!r}")
        sign, coef, name, body = m.groups()
        if name not in ("H", "D", "I", "ING"):
            raise DomainError(f"unknown functional primitive {name!r}")
        build = shapes.get((name, "".join(ch for ch in body if ch in ":|")))
        lists = [tuple(v.strip() for v in part.split(",")) if part.strip() else ()
                 for part in re.split("[:|]", body)]
        if build is None or not all(_LABEL.fullmatch(v) for vs in lists for v in vs):
            raise DomainError(f"bad arguments {name}({body}) in functional")
        if name == "H" and not lists[0]:
            raise DomainError("H() needs at least one label")
        try:
            c = Fraction(coef or 1)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in coefficient {coef!r}") from None
        total = total + build(H, *lists).scale(-c if sign == "-" else c)
        pos = m.end()
    return total


def eval_functional(f: LinFunctional, h: Profile) -> LogValue:
    """The value of f on h: sum of c * h[S] over f's coefficients, one LogValue."""
    full = frozenset(h.ground_set)
    for ks in f.coeffs:
        if not ks <= full:
            raise DomainError(f"functional uses labels {sorted(ks - full)} outside the profile")
    return _signed_sum(h, [(c, ks) for ks, c in f.coeffs.items()])


# -- the Kaced-Romashchenko closed-form family -----------------------------------

@dataclass(frozen=True)
class KRClosedForm:
    q: int
    delta_ab: LogValue      # D(A:B)
    delta_ab_c: LogValue    # D(A:B|C)
    delta_cd_a: LogValue    # D(C:D|A)
    delta_cd_b: LogValue    # D(C:D|B)
    delta_cd: LogValue      # D(C:D)

    def as_dict(self):
        return {
            "D(A:B)": self.delta_ab,
            "D(A:B|C)": self.delta_ab_c,
            "D(C:D|A)": self.delta_cd_a,
            "D(C:D|B)": self.delta_cd_b,
            "D(C:D)": self.delta_cd,
        }


def _kr_q_check(q):
    pp = prime_power(q)
    if pp is None:
        raise DomainError(f"{q} is not a prime power")
    p, _ = pp
    if p == 2:
        raise DomainError("the KR configuration needs odd characteristic")
    if q < 5:
        raise DomainError("the KR closed forms need q >= 5")
    return pp


def kr_closed_form(q: int, *, corrected: bool = True) -> KRClosedForm:
    """The five functional values of the KR configuration at field size q.

    The configuration: two points A, B with a1 != b1, the line C through
    them, and a parabola D (d2 != 0) through both, q^3 (q-1)^2 points in all.
    Given A, the line C is uniform over the q non-vertical lines through A;
    given A and D it is uniform over the q-1 of those lines that are not
    tangent to D at A.  Hence D(C:D|A) = log q - log(q-1), and D(C:D|B) the
    same by symmetry; exact enumeration agrees at q = 5 and 7.

    corrected=False gives the classical reading instead, D(C:D|A) =
    D(C:D|B) = log(q-1) - log(q-2), which counts q tangent parabolas through
    a point where only q-1 exist (the leading coefficient ranges over the q-1
    nonzero values).  The other three values are the same under both
    readings.
    """
    _kr_q_check(q)
    d_ab = log_of_rat(Fraction(q, q - 1))
    d_cd_a = d_ab if corrected else log_of_rat(Fraction(q - 1, q - 2))
    return KRClosedForm(
        q=q,
        delta_ab=d_ab,
        delta_ab_c=d_ab,
        delta_cd_a=d_cd_a,
        delta_cd_b=d_cd_a,
        delta_cd=d_ab + LOG2,
    )


def kr_violation(q: int, eps) -> LogValue:
    """D(A:B) + D(A:B|C) + eps * Ingleton(A:B|C:D) in its closed form:
    2 log(q/(q-1)) + eps (2 log((q-1)/(q-2)) - log 2).

    All three are read off kr_closed_form(q, corrected=False), so the box
    term 2 log((q-1)/(q-2)) - log 2 is the classical reading of the Ingleton
    value; on the enumerated configuration the Ingleton value is
    2 log(q/(q-1)) - log 2, checked exactly at q = 5 and 7.  At eps = 1/10
    both readings put the first violation at q* = 37, after the prime
    power 31.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise DomainError("eps must be >= 0")
    f = kr_closed_form(q, corrected=False)
    box = f.delta_cd_a + f.delta_cd_b + f.delta_ab - f.delta_cd
    return f.delta_ab + f.delta_ab_c + box.scale(eps)


def _odd_prime_powers(lo, hi):
    for q in range(lo, hi + 1):
        pp = prime_power(q)
        if pp and pp[0] != 2:
            yield q


@dataclass(frozen=True)
class ThresholdScan:
    eps: Fraction
    q_star: int | None          # first q in range with negative value
    prev_q: int | None          # preceding prime power in the scanned range
    value_at_q_star: LogValue | None
    value_at_prev: LogValue | None

    @property
    def found(self):
        return self.q_star is not None


def scan_threshold(eps, q_max: int) -> ThresholdScan:
    """Scan odd prime powers 5 <= q <= q_max for the first negative kr_violation value.

    Also certifies the sign at the preceding prime power in the range.
    Finding no violation is reported, not an error.
    """
    if q_max < 5:
        raise DomainError("empty scan range")
    eps = Fraction(eps)
    prev_q = None
    prev_val = None
    for q in _odd_prime_powers(5, q_max):
        val = kr_violation(q, eps)
        if val.sign() < 0:
            return ThresholdScan(eps, q, prev_q, val, prev_val)
        prev_q, prev_val = q, val
    return ThresholdScan(eps, None, prev_q, None, prev_val)


# -- DFZ parametric functional and the GMM conditional inequality ------------------

def dfz_family(s: int, *, corrected: bool = False, labels=("A", "B", "C", "D")) -> LinFunctional:
    """The parametric four-variable functional with coefficient (2^(s-1) - 1).

    As printed, one summand is I(B:C|C), which expands to the zero
    functional; corrected=True substitutes the plausible reading I(B:C|D).
    """
    if s < 2:
        raise DomainError("the family is defined for s >= 2")
    if len(labels) != 4:
        raise DomainError(f"the family needs exactly 4 labels, got {len(labels)}")
    A, B, C, D = labels
    c1 = Fraction(2 ** (s - 1) - 1)
    w = Fraction(2 ** (s - 1) * (s - 1), 2**s - 2)
    third = cond_mi(H, B, C, D if corrected else C)
    inner = (
        ingleton(H, A, B, C, D)
        - cond_mi(H, B, C, D)
        - cond_mi(H, B, D, C)
        + cond_mi(H, C, D, A).scale(1 / c1)
        + (
            cond_mi(H, A, C, D)
            + cond_mi(H, A, D, C)
            + third
            + cond_mi(H, B, D, C)
        ).scale(w)
    )
    return inner.scale(c1)


@dataclass(frozen=True)
class GmmReport:
    antecedents: dict
    all_zero: bool
    ingleton_value: LogValue
    ingleton_sign: int | None   # only meaningful when all_zero


def gmm_check(h: Profile) -> GmmReport:
    """Evaluate the GMM conditional Ingleton inequality on a 4-block profile.

    The antecedents are I(A:C|D), I(A:D|C), I(B:C|D), I(B:D|C); when all
    vanish exactly, the report carries the certified sign of the Ingleton
    expression.  When some antecedent is nonzero nothing is concluded and
    all five values are reported (useful for essential-conditionality
    scans).  Block roles follow the ground-set order.
    """
    if len(h.ground_set) != 4:
        raise DomainError("gmm_check needs a profile on exactly 4 blocks")
    A, B, C, D = h.ground_set
    antecedents = {
        f"I({A}:{C}|{D})": cond_mi(h, A, C, D),
        f"I({A}:{D}|{C})": cond_mi(h, A, D, C),
        f"I({B}:{C}|{D})": cond_mi(h, B, C, D),
        f"I({B}:{D}|{C})": cond_mi(h, B, D, C),
    }
    box = ingleton(h, A, B, C, D)
    all_zero = all(v.is_zero() for v in antecedents.values())
    return GmmReport(antecedents, all_zero, box, box.sign() if all_zero else None)
