"""Smith normal form over Z and entropy profiles of linear congruences.

For an integer matrix A and modulus m, the coordinates of a uniform random
element of the column span of A mod m form a quasi-uniform random vector:
every marginal is uniform on the image of the corresponding row submatrix,
so its entropy is exactly the log of an image size.  Image sizes come from
the Smith normal form S = T A U (T, U unimodular, diagonal s_1 | s_2 | ...):

    |im(A mod m)| = prod_i m / gcd(m, s_i),   with gcd(m, 0) = m.

The same machinery drives monomial (toric) maps: writing torus coordinates
as powers of a generator turns t -> (t^a_1, ..., t^a_n) into the Z/(q-1)
linear map x -> A x, so the toric profile must equal the congruence profile
at m = q - 1 (torus_profile computes it by direct enumeration instead,
which keeps the two routes independent).

One Euclidean reduction serves both computations below: the column
Hermite form (``_hermite``).  snf() alternates it on the columns and the
rows of A, and the lattice basis of A's columns is its nonzero columns.
Every snf() call verifies its postconditions algebraically: S = T A U,
|det T| = |det U| = 1, S diagonal, and a nonnegative divisibility chain
with zeros last; image_size reads that diagonal.  The diagonals of all row
subsets (profile_lincong, dirichlet_modulus) come from the minors of that
lattice basis, anchored by one such verified snf(A) per matrix: every
subset's diagonal gets the same chain checks, and the full set's must equal
the verified one.
"""

from __future__ import annotations

import functools
import itertools
import json
import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .errors import BudgetError, DomainError, json_list, malformed
from .extend import Distribution, dist_entropy_profile
from .gf import FieldSpec
from .logval import factorize, is_prime
from .polymatroid import Profile

BRUTEFORCE_BUDGET = 10**8


@dataclass(frozen=True)
class IntMatrix:
    labels: tuple
    rows: tuple

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise DomainError("matrix dimensions must be positive")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise DomainError("ragged matrix")
        if len(self.labels) != len(self.rows):
            raise DomainError("one label per row required")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("row labels must be distinct")
        for lab in self.labels:
            if not (isinstance(lab, str) and lab and "," not in lab):
                raise DomainError(f"row label {lab!r} is not a non-empty string without ','")

    @property
    def n(self):
        return len(self.rows)

    @property
    def d(self):
        return len(self.rows[0])

    @classmethod
    def from_rows(cls, rows, labels=None) -> "IntMatrix":
        rows = tuple(tuple(_entry(x) for x in r) for r in rows)
        if labels is None:
            labels = tuple(str(i + 1) for i in range(len(rows)))
        return cls(tuple(labels), rows)

    def submatrix(self, I) -> "IntMatrix":
        want = set(I)
        unknown = want - set(self.labels)
        if unknown:
            raise DomainError(f"unknown row label {sorted(unknown)[0]!r}")
        keep = [(lab, row) for lab, row in zip(self.labels, self.rows) if lab in want]
        if not keep:
            raise DomainError("empty row subset")
        return IntMatrix(tuple(l for l, _ in keep), tuple(r for _, r in keep))


def _entry(x) -> int:
    """A matrix entry as an int.  Bools, strings ("3") and non-integer numbers (1.5, 2.0)
    are refused, not converted; numpy integers are integers."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise DomainError(f"matrix entry {x!r} is not an integer")
    return int(x)


def parse_matrix(text: str) -> IntMatrix:
    """Matrix text: one row per line, optional 'label:' prefix; or JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        with malformed("matrix JSON"):
            labels = json_list(obj["labels"], "labels") if "labels" in obj else None
            return IntMatrix.from_rows(json_list(obj["rows"], "rows"), labels)
    rows = []
    labels = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            lab, rest = line.split(":", 1)
            labels.append(lab.strip())
        else:
            rest = line
            labels.append(None)
        try:
            rows.append(tuple(int(tok) for tok in rest.split()))
        except ValueError:
            raise DomainError(f"bad matrix row: {line!r}") from None
    if not rows:
        raise DomainError("empty matrix")
    if any(l is None for l in labels):
        if any(l is not None for l in labels):
            raise DomainError("either label every row or none")
        labels = None
    return IntMatrix.from_rows(rows, tuple(labels) if labels else None)


# -- Smith normal form -------------------------------------------------------------

@dataclass(frozen=True)
class SnfResult:
    S: tuple
    T: tuple
    U: tuple

    @property
    def diagonal(self):
        k = min(len(self.S), len(self.S[0]))
        return tuple(self.S[i][i] for i in range(k))


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(A, B):
    n, k, d = len(A), len(B), len(B[0])
    out = [[0] * d for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(d):
                    row[j] += a * Bt[j]
    return out


def _det(M):
    """Exact integer determinant by Bareiss elimination: each 2x2 minor divided by
    the previous pivot is exact (it is a minor of M), so no Fraction is built."""
    A = [list(row) for row in M]
    n = len(A)
    sign, prev = 1, 1
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        top = A[c]
        for r in range(c + 1, n):
            a = A[r][c]
            A[r] = [(top[c] * x - a * y) // prev for x, y in zip(A[r], top)]
        prev = top[c]
    return sign * prev


def snf(matrix) -> SnfResult:
    """Smith normal form with unimodular transforms: S = T A U.

    Column passes (column Hermite form of S, the same operations applied to
    U) alternate with row passes (the same on the rows of S and T) until S
    is diagonal, with a nonnegative diagonal and zeros last.  Where an entry
    s_i does not divide a later s_j, row j is added to row i and the passes
    resume.  Hermite passes keep S, T and U small, where pivot-and-divide
    elimination lets them swell (Kannan & Bachem, SIAM J. Comput. 8, 1979).

    Why the loop ends: let t be the first position whose row or column of S
    holds an off-diagonal entry.  A row pass leaves S[t][t] the gcd of column
    t from row t down, the next column pass the gcd of row t; so over two passes
    S[t][t] either falls or divides all of row t and column t, and then those
    are cleared for good.  A fold at the first s_i that does not divide a
    later s_j keeps s_1..s_(i-1) and lowers s_i to at most gcd(s_i, s_j).
    Positive integers cannot fall forever.  Postconditions are verified
    before returning.
    """
    A = matrix.rows if isinstance(matrix, IntMatrix) else tuple(matrix)
    n, d = len(A), len(A[0])
    S, T, U = [list(map(int, row)) for row in A], _identity(n), _identity(d)
    by_rows = False
    while True:
        if by_rows:
            ST = _hermite([s + t for s, t in zip(S, T)], d)
            S, T = [row[:d] for row in ST], [row[d:] for row in ST]
        else:
            SU = [list(row) for row in zip(*_hermite([list(c) for c in zip(*S, *U)], n))]
            S, U = SU[:n], SU[n:]
        by_rows = not by_rows
        if any(x for i, row in enumerate(S) for j, x in enumerate(row) if i != j):
            continue
        diag = [S[i][i] for i in range(min(n, d))]
        fold = next(((i, j) for i, s in enumerate(diag) for j in range(i + 1, len(diag))
                     if s and diag[j] % s), None)
        if fold is None:
            break
        i, j = fold
        S[i] = [x + y for x, y in zip(S[i], S[j])]
        T[i] = [x + y for x, y in zip(T[i], T[j])]
        by_rows = False

    result = SnfResult(
        tuple(tuple(r) for r in S), tuple(tuple(r) for r in T), tuple(tuple(r) for r in U)
    )
    _verify_snf(A, result)
    return result


def _hermite(vectors, k) -> list:
    """Column Hermite form on the first k coordinates, by unimodular operations on
    the vectors (lists, changed in place; entries past the k-th are carried along).
    Coordinate by coordinate, Euclidean reduction leaves one vector with a nonzero
    entry there; it becomes a pivot, made positive, and the pivots before it are
    reduced modulo that entry.  Returns the pivots in order of their coordinate,
    then the vectors that are zero on the first k coordinates, in their order."""
    pivots, rest = [], vectors
    for i in range(k):
        live = [v for v in rest if v[i]]
        while len(live) > 1:
            piv = min(live, key=lambda v: abs(v[i]))
            for v in live:
                if v is not piv:
                    q = v[i] // piv[i]
                    v[:] = [x - q * y for x, y in zip(v, piv)]
            live = [v for v in live if v[i]]
        if live:
            piv = live[0]
            rest = [v for v in rest if v is not piv]
            if piv[i] < 0:
                piv[:] = [-x for x in piv]
            for v in pivots:
                q = v[i] // piv[i]
                v[:] = [x - q * y for x, y in zip(v, piv)]
            pivots.append(piv)
    return pivots + rest


def _verify_snf(A, res: SnfResult):
    n, d = len(A), len(A[0])
    S, T, U = res.S, res.T, res.U
    TA = _matmul([list(r) for r in T], [list(r) for r in A])
    TAU = _matmul(TA, [list(r) for r in U])
    if tuple(tuple(r) for r in TAU) != S:
        raise AssertionError("SNF postcondition S = T*A*U failed")
    if abs(_det(T)) != 1 or abs(_det(U)) != 1:
        raise AssertionError("SNF transforms are not unimodular")
    for i in range(n):
        for j in range(d):
            if i != j and S[i][j]:
                raise AssertionError("SNF result is not diagonal")
    _check_chain(res.diagonal)


def _check_chain(diag):
    """A Smith diagonal: nonnegative, each entry divides the next, zeros last."""
    for i, s in enumerate(diag):
        if s < 0:
            raise AssertionError("SNF diagonal must be nonnegative")
        if i + 1 < len(diag) and s and diag[i + 1] % s:
            raise AssertionError("SNF divisibility chain broken")
        if i + 1 < len(diag) and s == 0 and diag[i + 1] != 0:
            raise AssertionError("SNF divisibility chain broken (zero before nonzero)")


# -- image sizes and profiles ----------------------------------------------------

@functools.lru_cache(maxsize=1 << 10)
def _subset_diagonals(matrix: IntMatrix) -> tuple:
    """SNF diagonal of every row subset, indexed by bitmask (bit i is row i).

    Unimodular column operations keep every row subset's diagonal, so the
    n x r basis H of A's column lattice (``_lattice_basis``, r the rank) has
    the diagonals of A.  The k-th determinantal divisor d_k(A_S) is the gcd
    of the k x k minors of H on rows inside S (``_minor_gcds``,
    ``_subset_gcds``); the diagonal of A_S is s_k = d_k / d_(k-1), padded
    with zeros to min(|S|, d) (M. Newman, Integral Matrices, 1972).  One
    verified snf(A) per matrix anchors them: H must have its rank, and the
    full set's diagonal must be its diagonal.
    """
    n, d = matrix.n, matrix.d
    full = snf(matrix).diagonal
    H = _lattice_basis(matrix.rows)
    if len(H[0]) != sum(1 for s in full if s):
        raise AssertionError("column reduction and SNF disagree on the rank")
    divisors = [_subset_gcds(n, g) for g in _minor_gcds(H)]
    out = [()]
    for mask in range(1, 1 << n):
        size, diag, prev = mask.bit_count(), [], 1
        for table in divisors[:size]:
            dk = table[mask]
            s = dk // prev if prev else 0
            if s * prev != dk:
                raise AssertionError("determinantal divisors do not divide")
            diag.append(s)
            prev = dk
        diag += [0] * (min(size, d) - len(diag))
        _check_chain(diag)
        out.append(tuple(diag))
    if out[-1] != full:
        raise AssertionError("subset diagonals disagree with the verified SNF")
    return tuple(out)


def _lattice_basis(rows) -> list:
    """n x r matrix whose columns are a basis of the lattice spanned by the columns of
    rows: the nonzero columns of their column Hermite form (``_hermite``), whose
    entries stay small."""
    basis = [col for col in _hermite([list(c) for c in zip(*rows)], len(rows)) if any(col)]
    return [[col[i] for col in basis] for i in range(len(rows))]


def _minor_gcds(H) -> list:
    """[g_1, ..., g_r] for an n x r matrix H: g_k[R] is the gcd of the k x k minors of H
    on the rows of bitmask R with |R| = k, and 0 at every other R.  Each k-minor is
    expanded along its last row from the (k-1)-minors on the rows before it; the
    minors of a row set are listed in the order of itertools.combinations(range(r), k)."""
    n, r = len(H), len(H[0])
    level = {1 << i: list(row) for i, row in enumerate(H)}
    out = []
    for k in range(1, r + 1):
        if k > 1:
            # per column set: (column j, sign of its last-row cofactor, index of the rest)
            rest = {cols: q for q, cols in enumerate(itertools.combinations(range(r), k - 1))}
            expand = [[(j, (-1) ** (k - 1 + p), rest[cols[:p] + cols[p + 1:]])
                       for p, j in enumerate(cols)]
                      for cols in itertools.combinations(range(r), k)]
            nxt = {}
            for i in range(k - 1, n):
                row = H[i]
                cofactors = [[(s * row[j], q) for j, s, q in terms if row[j]] for terms in expand]
                for rows, prev in level.items():
                    if rows >> i == 0:
                        nxt[rows | 1 << i] = [sum([c * prev[q] for c, q in terms])
                                              for terms in cofactors]
            level = nxt
        g = [0] * (1 << n)
        for rows, minors in level.items():
            g[rows] = gcd(*minors)
        out.append(g)
    return out


def _subset_gcds(n: int, g: list) -> list:
    """D[S] = gcd of g[R] over every R inside S: a gcd zeta transform over bitmasks."""
    D = list(g)
    for i in range(n):
        bit = 1 << i
        for S in range(1 << n):
            if S & bit:
                D[S] = gcd(D[S], D[S ^ bit])
    return D


@functools.lru_cache(maxsize=1 << 8)
def _valuations(m: int) -> tuple:
    """(p, v_p(m)) for every prime p of m, ascending."""
    return tuple(sorted(factorize(m).items()))


@functools.lru_cache(maxsize=1 << 10)
def _image_exponents(diagonal, m: int) -> tuple:
    """Exponents of prod_i m / gcd(m, s_i) over the primes of m, ascending: that of p
    is the sum over i of v_p(m) - min(v_p(m), v_p(s_i)), with v_p(0) infinite."""
    out = []
    for p, v in _valuations(m):
        e = len(diagonal) * v
        for s in diagonal:
            w = 0
            while w < v and s % p == 0:
                s //= p
                w += 1
            e -= w
        out.append(e)
    return tuple(out)


def image_size(matrix: IntMatrix, m: int) -> int:
    """Order of the column span of A mod m inside (Z/m)^n: the product of m / gcd(m, s)
    over the verified SNF diagonal s of A."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    return prod(m // gcd(m, s) for s in snf(matrix).diagonal)


def image_size_bruteforce(matrix: IntMatrix, m: int) -> int:
    """Independent oracle: enumerate all of (Z/m)^d and collect A x mod m."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    d = matrix.d
    total = m**d
    if total > BRUTEFORCE_BUDGET:
        raise BudgetError(f"bruteforce needs {total} tuples (budget {BRUTEFORCE_BUDGET})")
    A = np.array(matrix.rows, dtype=np.int64)
    seen = []
    chunk = 1 << 20
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        coords = np.empty((d, idx.shape[0]), dtype=np.int64)
        rem = idx
        for j in range(d):
            coords[j] = rem % m
            rem = rem // m
        vals = (A @ coords) % m
        key = vals[0].copy()
        for r in range(1, vals.shape[0]):
            key *= m
            key += vals[r]
        seen.append(np.unique(key))
    return int(np.unique(np.concatenate(seen)).shape[0])


def profile_lincong(matrix: IntMatrix, m: int) -> Profile:
    """Entropy profile of the uniform distribution on im(A mod m).

    h(I) = log |im(A_I mod m)| for every row subset I; quasi-uniformity
    makes each marginal exactly uniform on its image.  The exponent matrix
    is built directly, over the primes of m with denominator 1: the row of I
    holds the exponents of |im| = prod_i m / gcd(m, s_i), read from the
    valuations of m and of the SNF diagonal s of A_I (``_subset_diagonals``,
    cached per matrix), one row per (diagonal, m) in a bounded cache.
    """
    if m < 2:
        raise DomainError("modulus must be >= 2")
    rows = [_image_exponents(diag, m) for diag in _subset_diagonals(matrix)]
    primes = [p for p, _ in _valuations(m)]
    return Profile._of_matrix(matrix.labels, primes, 1, list(zip(*rows)))


def torus_profile(matrix: IntMatrix, spec: FieldSpec) -> Profile:
    """Profile of the uniform distribution on the monomial image of the torus.

    Enumerates (F_q^x)^d directly and pushes through t -> (t^a_1, ..., t^a_n);
    equals profile_lincong(A, q-1) by the generator correspondence, but is
    computed without any Smith normal form.
    """
    m = spec.q - 1
    if m < 2:
        raise DomainError("torus profile needs q >= 3")
    d = matrix.d
    total = m**d
    if total > BRUTEFORCE_BUDGET:
        raise BudgetError(f"torus enumeration needs {total} tuples (budget {BRUTEFORCE_BUDGET})")
    nonzero = [a for a in spec.elements() if a != 0]
    # power[a][t] = t^a for every nonzero t and every exponent a of the matrix
    power = {a: {t: spec.pow(t, a) for t in nonzero}
             for a in {a for row in matrix.rows for a in row if a}}
    image = {tuple(_monomial(spec, t, row, power) for row in matrix.rows)
             for t in itertools.product(nonzero, repeat=d)}
    pr = Fraction(1, len(image))
    dist = Distribution(
        matrix.labels,
        {outcome: pr for outcome in image},
        {lab: tuple(spec.elements()) for lab in matrix.labels},
    )
    return dist_entropy_profile(dist)


def _monomial(spec, t, exponents, power):
    out = 1
    for tj, a in zip(t, exponents):
        if a:
            out = spec.mul(out, power[a][tj])
    return out


def dirichlet_modulus(matrix: IntMatrix) -> int:
    """lcm of all nonzero SNF diagonal entries over all row submatrices."""
    return lcm(*(s for diag in _subset_diagonals(matrix) for s in diag if s))


def suggest_primes(s: int, count: int) -> list:
    """The first primes p = 1 (mod s), ascending (Dirichlet guarantees enough)."""
    if s < 1 or count < 0:
        raise DomainError("need s >= 1 and count >= 0")
    out = []
    p = 2
    while len(out) < count:
        if p % s == 1 % s and is_prime(p):
            out.append(p)
        p += 1
    return out
