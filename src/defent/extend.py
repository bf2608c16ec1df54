"""Extension properties: conditional product, Slepian-Wolf, Ahlswede-Korner.

The conditional product glues a distribution to a relabeled copy of itself,
independent given the common restriction; it works on explicit rational
distributions and therefore produces exact entropy profiles.  The two
one-point extensions pin some entries of the extended profile and record
the remaining relations as linear constraints; a PartialProfile carries
pinned entries and constraints side by side, and check_extension verifies
a proposed completion exactly.

Constraints are pure linear functionals of the extended profile (constants
are eliminated by rewriting values of the base profile as entries of the
extension, which restricts to the base), so they serialize losslessly into
the functional DSL.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import repeat
from math import lcm

from .errors import BudgetError, DomainError, json_list, malformed
from .logval import LogValue, log_of_rat, rational
from .polymatroid import (
    H,
    Profile,
    _as_labelset,
    _columns,
    _distinct,
    _rows_from_json,
    _subset_index,
    check_subsets,
    cond_entropy,
    cond_mi,
    entries_to_json,
    eval_functional,
    is_polymatroid,
    label_order,
    parse_functional,
    subset_key,
    subsets,
)

_ZERO = LogValue.zero()

# Most (marginal, outcome) pairs dist_entropy_profile may walk: 2^n marginals, each
# over the whole support; the default assignment budget of the enumeration, too.
PROFILE_BUDGET = 10**9


class Distribution:
    """A jointly distributed tuple with exact positive rational probabilities.

    Only the support is stored; probabilities must sum to exactly 1, and are
    also kept as integer numerators over their common denominator.
    """

    def __init__(self, ground_set, probs, alphabets=None):
        self.ground_set = _distinct(ground_set)
        n = len(self.ground_set)
        canon = {}
        for outcome, pr in probs.items():
            outcome = tuple(outcome)
            if len(outcome) != n:
                raise DomainError(f"outcome {outcome} has wrong arity")
            pr = Fraction(pr)
            if pr <= 0:
                raise DomainError("stored probabilities must be positive")
            if outcome in canon:
                raise DomainError(f"duplicate outcome {outcome}")
            canon[outcome] = pr
        self._den = den = lcm(*(pr.denominator for pr in canon.values()))
        self._numerators = {o: pr.numerator * (den // pr.denominator) for o, pr in canon.items()}
        total = Fraction(sum(self._numerators.values()), den)
        if total != 1:
            raise DomainError(f"probabilities sum to {total}, not 1")
        self.probs = canon
        if alphabets is None:
            alphabets = {
                v: tuple(sorted({o[i] for o in canon}, key=repr))
                for i, v in enumerate(self.ground_set)
            }
        self.alphabets = {v: tuple(vals) for v, vals in alphabets.items()}
        if set(self.alphabets) != set(self.ground_set):
            raise DomainError("alphabets must be given for exactly the ground set's labels")
        if any(len(set(vals)) != len(vals) for vals in self.alphabets.values()):
            raise DomainError("alphabet symbols must be distinct")
        for i, v in enumerate(self.ground_set):
            seen = {o[i] for o in canon}
            if not seen <= set(self.alphabets.get(v, ())):
                raise DomainError(f"outcomes of {v!r} leave its alphabet")

    def __eq__(self, other):
        return (
            isinstance(other, Distribution)
            and self.ground_set == other.ground_set
            and self.probs == other.probs
        )

    def __repr__(self):
        return f"Distribution(n={len(self.ground_set)}, support={len(self.probs)})"

    def _marginal_numerators(self, I) -> dict:
        """Projected outcomes on I (in ground-set order) -> probability numerator over _den."""
        want = set(I)
        cols = [col for v, col in zip(self.ground_set, zip(*self._numerators)) if v in want]
        out: dict[tuple, int] = {}
        for key, n in zip(zip(*cols) if cols else repeat(()), self._numerators.values()):
            out[key] = out.get(key, 0) + n
        return out

    def marginal(self, I) -> dict:
        """Map from projected outcomes on I (in ground-set order) to probability."""
        return {key: Fraction(n, self._den) for key, n in self._marginal_numerators(I).items()}

    def to_json(self) -> dict:
        return {
            "ground_set": list(self.ground_set),
            "alphabets": {v: [str(a) for a in vals] for v, vals in self.alphabets.items()},
            "support": [
                {
                    "outcome": [str(x) for x in o],
                    "prob": f"{pr.numerator}/{pr.denominator}",
                }
                for o, pr in sorted(self.probs.items(), key=lambda kv: repr(kv[0]))
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "Distribution":
        """The distribution ``to_json`` writes.  Each "prob" is exact, an int or an
        "n/d" string (``logval.rational``); a float is refused.  Symbols are strings,
        and one in canonical decimal ("3", not "03") stands for its int.  "alphabets"
        may be left out, and then each label's alphabet is the symbols it takes."""
        def symbol(s):
            if type(s) is not str:
                raise ValueError(f"symbol {s!r} is not a string")
            try:
                return int(s) if str(int(s)) == s else s
            except ValueError:
                return s

        with malformed("distribution JSON"):
            gs = json_list(obj["ground_set"], "ground set")
            support = [(tuple(map(symbol, json_list(row["outcome"], "outcome"))),
                        rational(row["prob"])) for row in json_list(obj["support"], "support")]
            alphabets = {v: tuple(map(symbol, json_list(vals, "alphabet")))
                         for v, vals in obj.get("alphabets", {}).items()} or None
        probs = dict(support)
        if len(probs) != len(support):
            raise DomainError("duplicate outcome in distribution JSON")
        return cls(gs, probs, alphabets)


def entropy_numerators(counts: dict, total: int) -> dict:
    """Per prime p, total times the coefficient of log p in the entropy of ``counts``.

    ``counts`` maps a block size n to the number k of blocks of that size
    among total equal points; the entropy is log total - (1/total) sum k n log n,
    so the numerator of p over total is total e_p(total) - sum k n e_p(n),
    an integer.
    """
    num = {p: total * e for p, e in log_of_rat(total)._terms.items()}
    for n, k in counts.items():
        if n > 1:
            for p, e in log_of_rat(n)._terms.items():
                num[p] = num.get(p, 0) - e * k * n
    return {p: c for p, c in num.items() if c}


def dist_entropy_profile(p: Distribution) -> Profile:
    """Exact entropy profile: each marginal cuts den equal points into blocks of its
    numerators, one exponent row per subset over the denominator den.  Raises
    BudgetError before the walk when 2^n times the support exceeds PROFILE_BUDGET, or
    2^n exceeds MAX_SUBSETS."""
    gs = p.ground_set
    if len(p.probs) << len(gs) > PROFILE_BUDGET:
        raise BudgetError(f"entropy profile needs 2^{len(gs)} marginals of {len(p.probs)} "
                          f"outcomes (budget {PROFILE_BUDGET})")
    check_subsets(len(gs), "entropy profile")
    rows = [entropy_numerators(Counter(p._marginal_numerators(
                [v for i, v in enumerate(gs) if mask >> i & 1]).values()), p._den)
            for mask in range(1 << len(gs))]
    return Profile._of_matrix(gs, *_columns(rows, p._den))


# -- conditional product (the copy construction) -----------------------------------

@dataclass(frozen=True)
class CopyResult:
    dist: Distribution
    tau: dict          # label of the extension -> label of the original
    shared: tuple      # L, the coordinates the two halves have in common


def _primed(v: str) -> str:
    return v + "'"


def copy_product(p: Distribution, L) -> CopyResult:
    """Glue p to a primed copy, independent given the shared coordinates L.

    The output lives on N together with primed copies of N - L; for
    outcomes whose L-marginals agree the probability is
    p(u) * p(v) / p_L(u_L), and the resulting profile restricts to p's on
    both halves while h(N : N' | L) = 0 exactly.
    """
    L = tuple(L)
    n_set = set(p.ground_set)
    if not set(L) <= n_set:
        raise DomainError("L must be a subset of the ground set")
    copied = [v for v in p.ground_set if v not in set(L)]
    for v in copied:
        if _primed(v) in n_set:
            raise DomainError(f"label {_primed(v)!r} already taken")
    ground = p.ground_set + tuple(_primed(v) for v in copied)
    l_idx = [i for i, v in enumerate(p.ground_set) if v in set(L)]
    c_idx = [i for i, v in enumerate(p.ground_set) if v not in set(L)]
    marg = p.marginal(L)
    by_l: dict[tuple, list] = {}
    for o, pr in p.probs.items():
        by_l.setdefault(tuple(o[i] for i in l_idx), []).append((o, pr))
    probs = {}
    for lkey, group in by_l.items():
        pl = marg[lkey]
        for u, pu in group:
            for v, pv in group:
                outcome = u + tuple(v[i] for i in c_idx)
                probs[outcome] = pu * pv / pl
    alphabets = dict(p.alphabets)
    for v in copied:
        alphabets[_primed(v)] = p.alphabets[v]
    tau = {_primed(v): v for v in copied}
    tau.update({v: v for v in L})
    return CopyResult(Distribution(ground, probs, alphabets), tau, L)


# -- partial profiles -----------------------------------------------------------

@dataclass
class PartialProfile:
    """Pinned entries plus linear constraints on a profile over ground_set."""

    ground_set: tuple
    entries: dict                    # frozenset -> LogValue | None
    constraints: list = dc_field(default_factory=list)

    def __post_init__(self):
        full = frozenset(self.ground_set)
        canon = dict.fromkeys(subsets(self.ground_set))
        for ks, val in self.entries.items():
            ks = _as_labelset(ks)
            if not ks <= full:
                raise DomainError(f"entry {sorted(ks)} outside the ground set")
            canon[ks] = val
        if canon[frozenset()] is None:
            canon[frozenset()] = _ZERO
        if canon[frozenset()] != _ZERO:
            raise DomainError("h(emptyset) must be 0")
        self.entries = canon

    def to_json(self) -> dict:
        return {
            "ground_set": list(self.ground_set),
            "entries": entries_to_json(self.ground_set, self.entries),
            "constraints": [f.render() for f in self.constraints],
        }

    @classmethod
    def from_json(cls, obj) -> "PartialProfile":
        """The partial profile ``to_json`` writes: the keys and terms of
        ``Profile.from_json``, with null for an entry left open."""
        gs, rows = _rows_from_json(obj, "partial profile JSON", nullable=True)
        with malformed("partial profile JSON"):
            constraints = [parse_functional(s) for s in obj.get("constraints", [])]
        entries = {ks: None if row is None else LogValue._raw(row)
                   for ks, row in zip(_subset_index(gs), rows)}
        return cls(gs, entries, constraints)


def _one_point(h: Profile, L, z_label):
    """(L, I = N - L, N + z) for a one-point extension of h by z along L <= N."""
    L = tuple(L)
    if not set(L) <= set(h.ground_set):
        raise DomainError("L must be a subset of the ground set")
    if z_label in h.ground_set:
        raise DomainError(f"extension label {z_label!r} already in the ground set")
    return L, frozenset(h.ground_set) - set(L), h.ground_set + (z_label,)


def slepian_wolf_partial(h: Profile, L, alpha: LogValue, *, z_label: str = "z") -> PartialProfile:
    """One-point extension pinning h(K u z) = min(alpha + h(K), h(I u K)).

    I = N - L; z is a function of I (the constraint h(z|I) = 0 is recorded).
    Entries pinned: everything inside N; K u {z} for K <= L; and S u {z}
    with h-value h(S) for S >= I, which is forced by h(z|I) = 0 together
    with monotonicity and submodularity in any polymatroidal completion.
    Mixed subsets stay undefined.
    """
    if not is_polymatroid(h):
        raise DomainError("h must be a polymatroid")
    if alpha.sign() < 0:
        raise DomainError("alpha must be >= 0")
    L, I, ground = _one_point(h, L, z_label)
    entries = h.entries()
    for k_set in subsets(sorted(L)):
        a = alpha + h[k_set]
        b = h[I | k_set]
        entries[k_set | {z_label}] = a if (a - b).sign() <= 0 else b
    for ks in h.subsets():
        if ks >= I:
            entries[ks | {z_label}] = h[ks]
    constraints = [cond_entropy(H, (z_label,), I)]
    return PartialProfile(ground, entries, constraints)


def ak_partial(h: Profile, L, *, z_label: str = "z") -> PartialProfile:
    """One-point extension with h(z|L) = 0 and h(K|z) = h(K|I) for K <= L.

    No z-entries are forced as single values; the 2^|L| + 1 relations are
    recorded as constraints.  Since the extension restricts to h on N, the
    base values h(K u I), h(I) are written as entries of the extension
    itself, keeping every constraint a pure linear functional.
    """
    if not is_polymatroid(h):
        raise DomainError("h must be a polymatroid")
    L, I, ground = _one_point(h, L, z_label)
    entries = h.entries()
    constraints = [cond_entropy(H, (z_label,), L)]
    for k_set in subsets(sorted(L)):
        constraints.append(cond_entropy(H, k_set, (z_label,)) - cond_entropy(H, k_set, I))
    return PartialProfile(ground, entries, constraints)


def ak_canonical_witness(h: Profile, L, *, z_label: str = "z") -> Profile:
    """A concrete completion satisfying all ak_partial constraints.

    h(z) = h(L) - (h(N) - h(I)) and
    h(S u z) = max(h(z) + h((S n L) u I) - h(I), h(S)).
    Feasibility (not uniqueness): every recorded constraint holds for any
    polymatroid h by submodularity at the pair (L, K u I).
    """
    L, I, ground = _one_point(h, L, z_label)
    c = cond_mi(h, L, I)
    entries = h.entries()
    for ks in h.subsets():
        lifted = c + h[(ks & frozenset(L)) | I] - h[I]
        entries[ks | {z_label}] = lifted if (lifted - h[ks]).sign() >= 0 else h[ks]
    return Profile(ground, entries)


def copy_partial(h: Profile, L) -> PartialProfile:
    """The copy-lemma constraint set for extensions of h along L.

    Pins h on subsets of N and its pullback on subsets of the primed copy,
    and records h(N : N' | L) = 0.
    """
    L = tuple(L)
    if not set(L) <= set(h.ground_set):
        raise DomainError("L must be a subset of the ground set")
    copied = [v for v in h.ground_set if v not in set(L)]
    primed = {v: _primed(v) for v in copied}
    ground = h.ground_set + tuple(primed.values())
    entries = h.entries()
    for ks in h.subsets():
        entries[frozenset(primed.get(v, v) for v in ks)] = h[ks]
    return PartialProfile(ground, entries, [cond_mi(H, copied, primed.values(), L)])


@dataclass
class ExtensionCheck:
    ok: bool
    failure: str | None = None

    def __bool__(self):
        return self.ok


def check_extension(pp: PartialProfile, candidate: Profile, *,
                    require_polymatroid: bool = True) -> ExtensionCheck:
    """Does the candidate match every pinned entry and constraint exactly?

    By default the candidate must also be a polymatroid; pass
    require_polymatroid=False for a pure feasibility check of the linear
    system (the AK canonical witness is only guaranteed feasible).  The
    first failure is reported by name.
    """
    if set(candidate.ground_set) != set(pp.ground_set):
        raise DomainError("candidate ground set differs from the partial profile's")
    for ks, val in pp.entries.items():
        if val is not None and candidate[ks] != val:
            key = subset_key(label_order(pp.ground_set), ks)
            return ExtensionCheck(False, f"entry {{{key}}} does not match")
    for j, f in enumerate(pp.constraints):
        if eval_functional(f, candidate).sign() != 0:
            return ExtensionCheck(False, f"constraint #{j} ({f.render()}) violated")
    if require_polymatroid:
        pm = is_polymatroid(candidate)
        if not pm:
            return ExtensionCheck(False, f"not a polymatroid: {pm.violation}")
    return ExtensionCheck(True)
