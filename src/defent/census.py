"""Exhaustive rational-point censuses of definable sets.

Point counts, per-projection fiber histograms, exact entropy profiles of
the uniform distribution on the rational points, tower censuses across
extension degrees, and the recovery of the growth law count ~ mu * q^d
together with its period in the extension degree.

``count_points`` and ``collect_points`` are the enumeration engine's own
functions (``enumeration.count_points_vec`` and ``collect_points_vec``),
re-exported here under their public names.

A fiber histogram records, for a projection onto the variables I, how many
projected points have each fiber size.  Empty fibers carry probability
zero and are excluded from the buckets; the number of points of the
ambient space missed by the projection is kept separately as ``outside``
(a density diagnostic).  Entropies of uniform distributions depend only on
these bucket counts:

    h(I) = log|X| - (1/|X|) * sum_s N_s * s * log s,

an exact LogValue because all counts are integers.

Fiber sizes come from flat keys: a subset's columns read as base-q
digits.  When the key space q^|I| is at most 4|X|, ``bincount`` of the
keys gives the fiber sizes directly; sparser key spaces are sorted and
measured in runs.

``entropy_profile`` walks the subsets depth first over increasing column
tuples, so each subset's keys are its parent's keys times q plus one more
column.  Each node visits its children in decreasing column order, which
settles every proper subset of a node before the node itself.  An entry
h(S) depends only on the partition of X that the projection onto S
induces, and the walk keeps D(S), that partition's number of blocks (the
nonempty fibers).  Since S refines S - c, D(S) = D(S - c) exactly when
the two partitions are equal, that is, when the column c is a function of
the columns S - c on X.  Such a dependency holds in every superset of S.
So a subset that contains a column c found dependent in one of its
immediate subsets copies the entry and the D of S - c, and so does its
whole subtree: no keys, sort or bincount.  The copy is exact, not a
heuristic: equal block counts are equal partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .enumeration import DEFAULT_MAX_EVALS
from .enumeration import collect_points_vec as collect_points, count_points_vec as count_points
from .errors import BudgetError, DomainError, EstimationError
from .extend import Distribution, entropy_numerators
from .gf import FieldSpec, field
from .polymatroid import Profile, _columns, check_subsets
from .ringlang import DefinableSet

DENOM_CAP = 64
CONSISTENCY = 8


@dataclass(frozen=True)
class FiberHistogram:
    subset: tuple            # projection variables, in declaration order
    total: int               # |X(G)|
    buckets: dict            # fiber size s >= 1 -> number of projected points
    outside: int             # q^|I| - number of nonempty fibers

    def __post_init__(self):
        if sum(s * n for s, n in self.buckets.items()) != self.total:
            raise DomainError("fiber histogram does not account for every point")
        if any(s < 1 for s in self.buckets):
            raise DomainError("empty fibers do not belong in the buckets")

    def to_json(self):
        return {
            "total": self.total,
            "buckets": {str(s): n for s, n in sorted(self.buckets.items())},
            "outside": self.outside,
        }


@dataclass(frozen=True)
class CensusRow:
    e: int
    q: int
    count: int
    fibers: dict | None = None   # subset tuple -> FiberHistogram


@dataclass(frozen=True)
class CensusTable:
    set_name: str
    p: int
    rows: tuple

    def to_json(self):
        rows = []
        for r in self.rows:
            row = {"e": r.e, "q": r.q, "count": r.count}
            if r.fibers is not None:
                row["fibers"] = {
                    ",".join(sub): fh.to_json() for sub, fh in r.fibers.items()
                }
            rows.append(row)
        return {"set": self.set_name, "p": self.p, "rows": rows}


@dataclass(frozen=True)
class AsymptoticEstimate:
    d: int
    mu: Fraction

    def __post_init__(self):
        if self.mu <= 0:
            raise DomainError("measure must be positive")


@dataclass(frozen=True)
class PeriodReport:
    modulus: int
    classes: dict            # residue -> AsymptoticEstimate


# -- projections ------------------------------------------------------------------

def _subset_columns(dset, I):
    """Column indices and labels of the variables I, in declaration order."""
    I = list(I)
    unknown = [v for v in I if v not in dset.free_vars]
    if unknown:
        raise DomainError(f"{unknown[0]!r} is not a free variable of {dset.name}")
    if len(set(I)) != len(I):
        raise DomainError("projection variables must be distinct")
    cols = [j for j, v in enumerate(dset.free_vars) if v in set(I)]
    return cols, tuple(dset.free_vars[j] for j in cols)


def _fiber_sizes(keys, space):
    """(fiber size -> number of keys, number of distinct keys) of keys in [0, space).

    Dense key spaces count every key with ``bincount``; sparse ones sort
    the keys and measure the runs.
    """
    if space <= 4 * keys.shape[0]:
        sizes = np.bincount(keys)
    else:
        keys = np.sort(keys)
        cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        sizes = np.diff(np.concatenate(([0], cuts, [keys.shape[0]])))
    mult = np.bincount(sizes)
    nonzero = np.flatnonzero(mult[1:]) + 1
    return dict(zip(nonzero.tolist(), mult[nonzero].tolist())), int(mult[1:].sum())


def _histogram_from_points(points, cols, q, keys=None):
    """(fiber size -> number of fibers, number of nonempty fibers) of the projection
    of points onto the columns cols; ``keys`` are their flat keys if known."""
    total = int(points.shape[1])
    if not cols:
        return ({total: 1}, 1) if total else ({}, 0)
    if q ** len(cols) >= 2**62:
        raise DomainError("projection space too large to key")
    if keys is None:
        keys = points[cols[0]].astype(np.int64, copy=True)
        for c in cols[1:]:
            keys *= q
            keys += points[c]
    return _fiber_sizes(keys, q ** len(cols))


def _fiber_histograms(points, subsets, q) -> dict:
    """labels -> FiberHistogram of points projected on cols, per (cols, labels) in subsets."""
    total, out = int(points.shape[1]), {}
    for cols, labels in subsets:
        buckets, nonempty = _histogram_from_points(points, cols, q)
        out[labels] = FiberHistogram(labels, total, buckets, q ** len(cols) - nonempty)
    return out


def fiber_histogram(dset: DefinableSet, I, spec: FieldSpec) -> FiberHistogram:
    """Exact fiber-size census of the projection of X(G) onto the variables I."""
    sub = _subset_columns(dset, I)
    return _fiber_histograms(collect_points(dset, spec), [sub], spec.q)[sub[1]]


def entropy_profile(dset: DefinableSet, spec: FieldSpec, *, jobs: int = 1,
                    max_evals: int = DEFAULT_MAX_EVALS) -> Profile:
    """Exact entropy profile of the uniform distribution on X(G).

    One enumeration pass collects the points.  The 2^n - 1 marginals are
    walked depth first over increasing column tuples, so each subset's keys
    are its parent's keys times q plus one more column, and each node
    visits its children in decreasing column order, so every proper subset
    of a node is settled before the node.  Each subset S records D(S), its
    number of nonempty fibers, and the columns c of S with D(S) = D(S - c).
    S refines S - c, so equal block counts mean equal partitions: those c
    are exactly the columns that are functions of S - c on X, and they stay
    so in every superset.  A node holding such a column c of one of its
    immediate subsets copies the row and the D of S - c, exactly, and so
    does its whole subtree; only the other nodes key, sort or bincount
    their columns (``_histogram_from_points``).  A BudgetError refuses 2^n
    past MAX_SUBSETS before enumeration, and 2^n |X| past max_evals after.
    """
    n = len(dset.free_vars)
    check_subsets(n, f"profile of {dset.name}")
    points = collect_points(dset, spec, jobs=jobs, max_evals=max_evals)
    total = int(points.shape[1])
    if total == 0:
        raise DomainError(f"empty definable set: {dset.name} over {spec!r}")
    if total << n > max_evals:
        raise BudgetError(f"profile of {dset.name} over {spec!r} walks 2^{n} marginals of "
                          f"{total} points (budget {max_evals})")
    return _profile_of_points(points, dset.free_vars, spec.q)


def _profile_of_points(points, labels, q) -> Profile:
    """The marginal walk of ``entropy_profile`` over a nonempty points array: one row
    per label, entries in [0, q), the distribution uniform on the columns."""
    total, n = int(points.shape[1]), len(labels)
    rows = [{}] * (1 << n)
    blocks = [1] + [0] * ((1 << n) - 1)  # D(S); the empty projection has one block
    dependent = [0] * (1 << n)           # bits c in S with D(S) = D(S - c)
    memo = {}  # bucket items -> entropy row: marginals repeat a few fiber histograms

    def walk(cols, keys, mask):
        for c in range(n - 1, cols[-1] if cols else -1, -1):
            sub, m = cols + (c,), mask | 1 << c
            inherited = 0
            for d in sub:
                inherited |= dependent[m ^ 1 << d]
            if inherited:
                src = m ^ (inherited & -inherited)
                rows[m], blocks[m], child = rows[src], blocks[src], None
            else:  # a copied node has only copied descendants, so keys is never None here
                child = keys * q + points[c] if cols else points[c]
                buckets, blocks[m] = _histogram_from_points(points, sub, q, child)
                key = tuple(buckets.items())
                if key not in memo:
                    memo[key] = entropy_numerators(buckets, total)
                rows[m] = memo[key]
            dependent[m] = sum(1 << d for d in sub if blocks[m ^ 1 << d] == blocks[m])
            walk(sub, child, m)

    walk((), None, 0)
    return Profile._of_matrix(labels, *_columns(rows, total))


def marginal_distribution(dset: DefinableSet, I, spec: FieldSpec) -> Distribution:
    """The marginal of the uniform distribution on X(G) on the variables I."""
    cols, labels = _subset_columns(dset, I)
    points = collect_points(dset, spec)
    total = int(points.shape[1])
    if total == 0:
        raise DomainError(f"empty definable set: {dset.name} over {spec!r}")
    if not cols:
        return Distribution((), {(): Fraction(1)}, {})
    outcomes, counts = np.unique(points[cols], axis=1, return_counts=True)
    probs = {tuple(o): Fraction(c, total) for o, c in zip(outcomes.T.tolist(), counts.tolist())}
    alphabets = {v: tuple(range(spec.q)) for v in labels}
    return Distribution(tuple(labels), probs, alphabets)


def tower_census(dset: DefinableSet, p: int, e_max: int, subsets=None, *,
                 jobs: int = 1, max_evals: int = DEFAULT_MAX_EVALS) -> CensusTable:
    """Counts (and optional per-subset fiber histograms) for e = 1..e_max."""
    if e_max < 1:
        raise DomainError("e_max must be >= 1")
    subsets = [_subset_columns(dset, sub) for sub in subsets or ()]
    rows = []
    for e in range(1, e_max + 1):
        spec = field(p, e)
        if subsets:
            points = collect_points(dset, spec, jobs=jobs, max_evals=max_evals)
            rows.append(CensusRow(e, spec.q, int(points.shape[1]),
                                  _fiber_histograms(points, subsets, spec.q)))
        else:
            count = count_points(dset, spec, jobs=jobs, max_evals=max_evals)
            rows.append(CensusRow(e, spec.q, count))
    return CensusTable(dset.name, p, tuple(rows))


# -- growth-law recovery ---------------------------------------------------------

def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational in [lo, hi], 0 < lo <= hi."""
    if lo > hi:
        raise ValueError("empty interval")
    n = lo.numerator // lo.denominator  # floor
    if Fraction(n + 1) <= hi or lo == n:
        return Fraction(n if lo == n else n + 1)
    return n + 1 / _simplest_between(1 / (hi - n), 1 / (lo - n))


def _row_qc(row):
    if isinstance(row, CensusRow):
        return row.q, row.count
    q, c = row
    return int(q), int(c)


def estimate_dim_measure(rows) -> AsymptoticEstimate:
    """Recover (d, mu) with count ~ mu * q^d from two or more census rows.

    The dimension comes from the count ratio of the two largest rows; the
    measure is the smallest-denominator rational within the relative window
    1/sqrt(q2) of count/q^d, rejected if its denominator exceeds DENOM_CAP
    or if it violates |x - mu| <= mu * CONSISTENCY / sqrt(q2).
    """
    data = sorted((_row_qc(r) for r in rows), key=lambda t: t[0])
    if len(data) < 2:
        raise EstimationError("need at least two rows", rows=data)
    (q1, c1), (q2, c2) = data[-2], data[-1]
    if c1 <= 0 or c2 <= 0:
        raise EstimationError("zero counts cannot be fit", rows=data)
    if q1 == q2:
        raise EstimationError("rows must have distinct field sizes", rows=data)
    d = round(math.log(c2 / c1) / math.log(q2 / q1))
    if d < 0:
        raise EstimationError("counts decrease with the field size", rows=data)
    x = Fraction(c2, q2**d)
    s = max(math.isqrt(q2), 2)
    delta = x / s
    mu = _simplest_between(x - delta, x + delta)
    if mu <= 0 or mu.denominator > DENOM_CAP:
        raise EstimationError(
            f"no measure with denominator <= {DENOM_CAP} fits", estimate=x, rows=data
        )
    if (x - mu) ** 2 * q2 > (mu * CONSISTENCY) ** 2:
        raise EstimationError(
            "count deviates from mu*q^d beyond the allowed error",
            mu=mu, estimate=x, rows=data,
        )
    return AsymptoticEstimate(d, mu)


def detect_period(table: CensusTable, m_max: int) -> PeriodReport:
    """Smallest m with constant (d, mu) estimates in each class of e mod m.

    Every class needs at least two rows for m to be a candidate.  A class's
    law is read off its tail: the estimates from its last two adjacent pairs
    (its one pair, with two rows) must agree exactly; smaller fields are not
    consulted, as their estimates may still be off.
    """
    rows = sorted(table.rows, key=lambda r: r.e)
    failures = {}
    for m in range(1, m_max + 1):
        classes: dict[int, list] = {}
        for r in rows:
            classes.setdefault(r.e % m, []).append(r)
        if any(len(rs) < 2 for rs in classes.values()):
            failures[m] = "a residue class has fewer than two rows"
            continue
        estimates = {}
        reason = None
        for res, rs in sorted(classes.items()):
            try:
                tail = rs[-3:]
                pair_estimates = [estimate_dim_measure([a, b]) for a, b in zip(tail, tail[1:])]
            except EstimationError as exc:
                reason = f"class {res}: {exc}"
                break
            dm = {(est.d, est.mu) for est in pair_estimates}
            if len(dm) != 1:
                reason = f"class {res}: estimates vary: {sorted(dm)}"
                break
            estimates[res] = pair_estimates[-1]
        if reason is None:
            return PeriodReport(m, estimates)
        failures[m] = reason
    raise EstimationError(
        f"period undetected up to m_max={m_max}", failures=failures
    )
