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

Every snf() call verifies its postconditions algebraically: S = T A U,
|det T| = |det U| = 1, S diagonal, and a nonnegative divisibility chain
with zeros last.  The diagonals of all row subsets (profile_lincong,
dirichlet_modulus) come from the minors of one basis of A's column
lattice, anchored by one such verified snf(A) per matrix: every subset's
diagonal gets the same chain checks, and the full set's must equal the
verified one.
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

from .errors import BudgetError, DomainError, malformed
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
    """A matrix entry as an int.  Bools and non-integer numbers (1.5, 2.0) are refused, not
    truncated; numpy integers are integers."""
    if isinstance(x, (bool, np.bool_)) or (isinstance(x, numbers.Number)
                                            and not isinstance(x, numbers.Integral)):
        raise DomainError(f"matrix entry {x!r} is not an integer")
    return int(x)


def parse_matrix(text: str) -> IntMatrix:
    """Matrix text: one row per line, optional 'label:' prefix; or JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        with malformed("matrix JSON"):
            return IntMatrix.from_rows(obj["rows"], tuple(obj["labels"]) if "labels" in obj else None)
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

    gcd-driven row/column reduction with pivot normalization to a
    nonnegative diagonal; the divisibility chain is enforced by folding
    non-divisible entries of the trailing block into the pivot row.
    Postconditions are verified before returning.
    """
    A = matrix.rows if isinstance(matrix, IntMatrix) else tuple(matrix)
    n, d = len(A), len(A[0])
    S = [list(map(int, row)) for row in A]
    T = _identity(n)
    U = _identity(d)

    def row_add(i, j, c):
        S[i] = [x + c * y for x, y in zip(S[i], S[j])]
        T[i] = [x + c * y for x, y in zip(T[i], T[j])]

    def col_add(i, j, c):
        for r in range(n):
            S[r][i] += c * S[r][j]
        for r in range(d):
            U[r][i] += c * U[r][j]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        T[i], T[j] = T[j], T[i]

    def col_swap(i, j):
        for r in range(n):
            S[r][i], S[r][j] = S[r][j], S[r][i]
        for r in range(d):
            U[r][i], U[r][j] = U[r][j], U[r][i]

    def row_negate(i):
        S[i] = [-x for x in S[i]]
        T[i] = [-x for x in T[i]]

    k = min(n, d)
    for t in range(k):
        # smallest nonzero entry of the trailing block becomes the pivot
        best = None
        for i in range(t, n):
            for j in range(t, d):
                if S[i][j] and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            # clear column t and row t by division; remainders become pivots
            restart = False
            for i in range(t + 1, n):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    row_add(i, t, -q)
                    if S[i][t]:
                        row_swap(t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, d):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    col_add(j, t, -q)
                    if S[t][j]:
                        col_swap(t, j)
                        restart = True
            if restart:
                continue
            # fold in any trailing entry the pivot does not divide
            folded = False
            piv = S[t][t]
            for i in range(t + 1, n):
                if any(x % piv for x in S[i][t + 1:]):
                    row_add(t, i, 1)
                    folded = True
                    break
            if not folded:
                break
        if S[t][t] < 0:
            row_negate(t)

    result = SnfResult(
        tuple(tuple(r) for r in S), tuple(tuple(r) for r in T), tuple(tuple(r) for r in U)
    )
    _verify_snf(A, result)
    return result


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

@functools.lru_cache(maxsize=1 << 16)
def _snf_diagonal(rows: tuple) -> tuple:
    """Cached SNF diagonal; image sizes for many moduli share one reduction."""
    return snf(rows).diagonal


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
    rows, in column Hermite form.  Row by row, Euclidean column reduction leaves one
    column with a nonzero entry there; it joins the basis, and the basis columns before
    it are reduced modulo that entry.  Only unimodular column operations are used, and
    the entries stay small (those of A T^t, from the SNF transforms, reach thousands of
    bits on a 10 x 10 matrix)."""
    basis, rest = [], [list(col) for col in zip(*rows)]
    for i in range(len(rows)):
        live = [col for col in rest if col[i]]
        while len(live) > 1:
            piv = min(live, key=lambda col: abs(col[i]))
            for col in live:
                if col is not piv:
                    q = col[i] // piv[i]
                    col[:] = [x - q * y for x, y in zip(col, piv)]
            live = [col for col in live if col[i]]
        if live:
            piv = live[0]
            rest = [col for col in rest if col is not piv]
            if piv[i] < 0:
                piv[:] = [-x for x in piv]
            for col in basis:
                q = col[i] // piv[i]
                col[:] = [x - q * y for x, y in zip(col, piv)]
            basis.append(piv)
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


def _image_order(diagonal, m: int) -> int:
    """prod_i m / gcd(m, s_i), with gcd(m, 0) = m."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    return prod(m // gcd(m, s) for s in diagonal)


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
    """Order of the column span of A mod m inside (Z/m)^n, via SNF."""
    return _image_order(_snf_diagonal(matrix.rows), m)


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
