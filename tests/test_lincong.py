import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defent import (
    BudgetError,
    DomainError,
    FieldSpec,
    IntMatrix,
    LogValue,
    dirichlet_modulus,
    field,
    image_size,
    image_size_bruteforce,
    ingleton,
    is_polymatroid,
    log_of_rat,
    parse_matrix,
    prime_power,
    profile_lincong,
    snf,
    suggest_primes,
    torus_profile,
    zero_profile,
)
from defent import lincong, polymatroid
from defent.lincong import SnfResult, _det, _subset_diagonals, _verify_snf
from defent.polymatroid import subsets
from test_acceptance import all_subset_image_sizes_bruteforce

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
PAPER_MATRIX = IntMatrix.from_rows(
    [(1, 0, 2, 3, 0), (2, 9, 7, 7, 7), (9, 3, 3, 3, 0), (2, 2, 7, 7, 7)]
)


def test_snf_identity_and_zero():
    eye = IntMatrix.from_rows([(1, 0), (0, 1)])
    r = snf(eye)
    assert r.S == ((1, 0), (0, 1))
    z = snf(IntMatrix.from_rows([(0, 0), (0, 0)]))
    assert z.S == ((0, 0), (0, 0))
    assert z.T == ((1, 0), (0, 1)) and z.U == ((1, 0), (0, 1))


def test_snf_diag_example():
    r = snf(IntMatrix.from_rows([(2, 0), (0, 3)]))
    assert r.diagonal == (1, 6)


def test_snf_transforms_stay_small():
    """Hermite passes keep T and U small; pivot-and-divide elimination let them reach
    thousands of bits per entry on these shapes."""
    rng = random.Random(23)
    for n, d in ((10, 10), (10, 12)):
        for _ in range(3):
            r = snf([[rng.randint(-10, 10) for _ in range(d)] for _ in range(n)])
            assert max(abs(x).bit_length() for M in (r.T, r.U) for row in M for x in row) <= 256


def leibniz_det(M):
    """Oracle: the permutation sum, each term signed by its inversion count."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(M[i][perm[i]] for i in range(n))
    return total


@st.composite
def square_matrices(draw):
    """1-6 square integer matrices, some singular, some with a zero leading pivot."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    M = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(("any", "zero pivot", "repeated row", "combined row")))
    if kind == "zero pivot":
        M[0][0] = 0
    elif kind == "repeated row" and n > 1:
        M[-1] = list(M[0])
    elif kind == "combined row" and n > 2:
        M[-1] = [x - 2 * y for x, y in zip(M[0], M[1])]
    return M


@settings(max_examples=200, derandomize=True, deadline=None)
@given(square_matrices())
def test_det_matches_leibniz(M):
    assert _det(M) == leibniz_det(M)


def test_det_row_swaps():
    assert _det([[0, 1], [1, 0]]) == -1
    assert _det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert _det([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == 5 * (1 * 4 - 2 * 3)


def test_verify_snf_rejects():
    # S = T A U holds, but det T = 2
    with pytest.raises(AssertionError, match="unimodular"):
        _verify_snf(((1,),), SnfResult(((2,),), ((2,),), ((1,),)))
    eye = ((1, 0), (0, 1))
    with pytest.raises(AssertionError, match="unimodular"):
        _verify_snf(eye, SnfResult(((1, 0), (0, -2)), ((1, 0), (0, -2)), eye))
    # diagonal and unimodular, but 2 does not divide 3
    with pytest.raises(AssertionError, match="divisibility"):
        _verify_snf(((2, 0), (0, 3)), SnfResult(((2, 0), (0, 3)), eye, eye))
    _verify_snf(((2, 0), (0, 3)), snf(((2, 0), (0, 3))))


def test_image_size_examples():
    assert image_size(IntMatrix.from_rows([(0, 0), (0, 0)]), 5) == 1
    assert image_size(IntMatrix.from_rows([(1, 0), (0, 1)]), 6) == 36
    assert image_size(IntMatrix.from_rows([(2,)]), 6) == 3
    with pytest.raises(DomainError):
        image_size(IntMatrix.from_rows([(2,)]), 1)


def test_image_size_reads_only_the_snf_diagonal(monkeypatch):
    # image_size needs one diagonal; the table of every row subset's diagonal is not built
    def refuse(matrix):
        raise AssertionError("image_size built every row subset's diagonal")

    monkeypatch.setattr(lincong, "_subset_diagonals", refuse)
    rng = random.Random(23)
    big = IntMatrix.from_rows([[rng.randint(-10, 10) for _ in range(10)] for _ in range(10)])
    for mat, m in ((PAPER_MATRIX, 343), (PAPER_MATRIX, 12), (big, 12)):
        diagonal = snf(mat).diagonal
        assert image_size(mat, m) == math.prod(m // math.gcd(m, s) for s in diagonal)
    assert image_size(PAPER_MATRIX, 12) == image_size_bruteforce(PAPER_MATRIX, 12)


def test_image_size_bruteforce_examples():
    assert image_size_bruteforce(IntMatrix.from_rows([(1, 0), (0, 1)]), 4) == 16
    assert image_size_bruteforce(IntMatrix.from_rows([(2,)]), 6) == 3
    with pytest.raises(BudgetError):
        image_size_bruteforce(IntMatrix.from_rows([(1, 1, 1, 1, 1)]), 100)


def test_image_size_oracle_sample():
    rng = random.Random(99)
    for _ in range(12):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        mat = IntMatrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(d)] for _ in range(n)]
        )
        for m in (2, 3, 5, 12, 30):
            assert image_size(mat, m) == image_size_bruteforce(mat, m), (mat, m)


@st.composite
def matrices_with_repeats(draw):
    """1-4 rows of width 1-3, some of them zero rows or copies of another row."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-10, 10), min_size=d, max_size=d),
                         min_size=1, max_size=4))
    for i in range(len(rows)):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "copy")))
        if kind == "zero":
            rows[i] = [0] * d
        elif kind == "copy":
            rows[i] = list(rows[draw(st.integers(0, len(rows) - 1))])
    return IntMatrix.from_rows(rows)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(matrices_with_repeats())
def test_profile_lincong_matches_bruteforce(mat):
    for m in (2, 6, 12, 30):
        h = profile_lincong(mat, m)
        for ks in subsets(mat.labels):
            size = image_size_bruteforce(mat.submatrix(ks), m) if ks else 1
            assert h[ks] == log_of_rat(size), (mat, m, ks)
    diagonals = (snf(mat.submatrix(ks)).diagonal for ks in subsets(mat.labels) if ks)
    assert dirichlet_modulus(mat) == math.lcm(*(s for diag in diagonals for s in diag if s))


@st.composite
def combined_row_matrices(draw, max_rows, max_cols, bound):
    """1-max_rows rows of width 1-max_cols, entries up to +-bound: zero rows, copied rows,
    combined rows (rank-deficient) and wide matrices among them."""
    n, d = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    entry = st.one_of(st.integers(-3, 3), st.integers(-bound, bound))
    rows = [draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(n)]
    for i in range(n):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "copy", "combine")))
        if kind == "zero":
            rows[i] = [0] * d
        elif kind == "copy":
            rows[i] = list(rows[draw(st.integers(0, n - 1))])
        elif kind == "combine" and n > 2:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return IntMatrix.from_rows(rows)


def determinantal_diagonal(rows):
    """Oracle: s_k = d_k / d_(k-1), d_k the gcd of the k x k minors (``leibniz_det``)."""
    n, d = len(rows), len(rows[0])
    diag, prev = [], 1
    for k in range(1, min(n, d) + 1):
        dk = math.gcd(*(leibniz_det([[rows[i][j] for j in J] for i in I])
                        for I in itertools.combinations(range(n), k)
                        for J in itertools.combinations(range(d), k)))
        diag.append(dk // prev if prev else 0)
        prev = dk
    return tuple(diag)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(combined_row_matrices(5, 5, 10**6))
def test_snf_diagonal_matches_determinantal_divisors(mat):
    assert snf(mat).diagonal == determinantal_diagonal(mat.rows)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(combined_row_matrices(6, 7, 100))
def test_subset_diagonals_match_snf_of_every_subset(mat):
    diagonals = _subset_diagonals(mat)
    assert diagonals[0] == ()
    for mask in range(1, 1 << mat.n):
        rows = tuple(row for i, row in enumerate(mat.rows) if mask >> i & 1)
        assert diagonals[mask] == snf(rows).diagonal, (mat, mask)
    assert dirichlet_modulus(mat) == math.lcm(*(s for diag in diagonals for s in diag if s))


def test_subset_diagonals_reject_a_wrong_snf(monkeypatch):
    real = lincong.snf

    def wrong(matrix):
        res = real(matrix)
        S = [list(row) for row in res.S]
        S[0][0] *= 2
        return SnfResult(tuple(map(tuple, S)), res.T, res.U)

    monkeypatch.setattr(lincong, "snf", wrong)
    with pytest.raises(AssertionError, match="verified SNF"):
        _subset_diagonals.__wrapped__(PAPER_MATRIX)


def test_subset_diagonals_reject_a_corrupted_minor_table(monkeypatch):
    real = lincong._minor_gcds

    def corrupt(level, mask, change):
        def table(H):
            out = real(H)
            out[level][mask] = change(out[level][mask])
            return out
        return table

    # the 4 x 4 minors of the full row set, doubled: the full set's diagonal moves
    monkeypatch.setattr(lincong, "_minor_gcds", corrupt(3, 0b1111, lambda g: 2 * g))
    with pytest.raises(AssertionError, match="verified SNF"):
        _subset_diagonals.__wrapped__(PAPER_MATRIX)
    # rows (2, 4) and (6, 8) have row gcd 2; a 2 x 2 minor gcd of 3 is not a multiple
    monkeypatch.setattr(lincong, "_minor_gcds", corrupt(1, 0b11, lambda g: 3))
    with pytest.raises(AssertionError, match="do not divide"):
        _subset_diagonals.__wrapped__(IntMatrix.from_rows([(2, 4), (6, 8)]))


def test_intmatrix_rejects_non_integers_and_bad_labels():
    import numpy as np

    assert IntMatrix.from_rows(np.array([[2, 4], [6, 8]])).rows == ((2, 4), (6, 8))
    for rows in ([[1.5, 2]], [[True, 2]], [[2.0, 1]], [[Fraction(1, 2), 1]], [[np.bool_(True), 1]],
                 [["3", 1]]):
        with pytest.raises(DomainError, match="not an integer"):
            IntMatrix.from_rows(rows)
    for labels in ((1, 2), ("a,b", "c"), ("", "c"), (None, "c")):
        with pytest.raises(DomainError, match="row label"):
            IntMatrix.from_rows([[1], [2]], labels)
    with pytest.raises(DomainError, match="row label 'a,b'"):
        parse_matrix("a,b: 1 2\nc: 3 4\n")


def test_profile_lincong_paper_matrix():
    prof = profile_lincong(PAPER_MATRIX, 343)
    norm = prof.normalized(7)
    expected = {
        (): 0, ("1",): 3, ("2",): 3, ("3",): 3, ("4",): 3,
        ("1", "2"): 6, ("1", "3"): 6, ("1", "4"): 6, ("2", "3"): 6,
        ("3", "4"): 6, ("2", "4"): 5,
        ("1", "2", "3"): 9, ("1", "3", "4"): 9, ("1", "2", "4"): 8,
        ("2", "3", "4"): 8, ("1", "2", "3", "4"): 11,
    }
    for ks, val in expected.items():
        assert norm[frozenset(ks)] == val, ks


def test_profile_lincong_prime_modulus_is_matroid():
    rng = random.Random(4)
    for _ in range(6):
        mat = IntMatrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(3)] for _ in range(4)]
        )
        prof = profile_lincong(mat, 7)
        norm = prof.normalized(7)
        assert is_polymatroid(prof)
        for ks, val in norm.items():
            assert isinstance(val, (int, Fraction)) and Fraction(val).denominator == 1
            assert val <= len(ks)


def test_profile_lincong_zero_matrix():
    assert profile_lincong(IntMatrix.from_rows([(0, 0), (0, 0)]), 9) == zero_profile(("1", "2"))


def test_ingleton_on_congruence_profiles():
    rng = random.Random(17)
    for _ in range(8):
        d = rng.randint(1, 4)
        mat = IntMatrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(d)] for _ in range(4)]
        )
        m = rng.randint(2, 30)
        h = profile_lincong(mat, m)
        assert ingleton(h, "1", "2", "3", "4").sign() >= 0


def test_sweep_shape_profiles_match_bruteforce_counts(monkeypatch):
    """5x3 matrices with entries in [-10, 10] at m = 2, 6, 12, as the benchmark sweeps them:
    every entry is log of the enumerated image size, and the Shannon verdict and the
    Ingleton values are those of test-side sums of those logs."""
    rng = random.Random(22)
    for _ in range(10):
        mat = IntMatrix.from_rows([[rng.randint(-10, 10) for _ in range(3)] for _ in range(5)])
        labels = mat.labels
        for m in (2, 6, 12):
            h = profile_lincong(mat, m)
            logs = {frozenset(ks): log_of_rat(count)
                    for ks, count in all_subset_image_sizes_bruteforce(mat, m).items()}
            logs[frozenset()] = LogValue.zero()
            assert h.entries() == logs, (mat, m)

            def mi(a, b, k):
                return logs[a | k] + logs[b | k] - logs[a | b | k] - logs[k]

            full = frozenset(labels)
            shannon = all((logs[full] - logs[full - {v}]).sign() >= 0 for v in labels) and all(
                mi(frozenset(a), frozenset(b), k).sign() >= 0
                for a, b in itertools.combinations(labels, 2)
                for k in subsets(v for v in labels if v not in (a, b)))
            with monkeypatch.context() as patch:  # one-signed rows need no enclosure
                patch.setattr(LogValue, "_enclosures", None)
                assert is_polymatroid(h).ok == shannon
            for a, b, c, d in itertools.combinations(labels, 4):
                a, b, c, d = (frozenset(x) for x in (a, b, c, d))
                box = mi(c, d, a) + mi(c, d, b) + mi(a, b, frozenset()) - mi(c, d, frozenset())
                assert ingleton(h, a, b, c, d) == box


def test_torus_examples():
    eye = IntMatrix.from_rows([(1, 0), (0, 1)])
    prof = torus_profile(eye, field(7))
    assert prof["1"] == log_of_rat(6)
    assert prof[("1", "2")] == log_of_rat(36)
    sq = torus_profile(IntMatrix.from_rows([(2,)]), field(5))
    assert sq["1"] == log_of_rat(2)  # squares in F5^x: {1, 4}
    with pytest.raises(DomainError):
        torus_profile(eye, field(2))  # q - 1 = 1 is no modulus


def test_torus_matches_lincong():
    rng = random.Random(21)
    for _ in range(10):
        mat = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(2)] for _ in range(3)]
        )
        for spec in (field(7), field(13)):
            assert torus_profile(mat, spec) == profile_lincong(mat, spec.q - 1)


def test_torus_matches_lincong_over_extension_fields():
    rng = random.Random(8)
    for spec in (field(2, 3), field(3, 2)):
        for _ in range(8):
            mat = IntMatrix.from_rows(
                [[rng.randint(-10, 10) for _ in range(2)] for _ in range(3)]
            )
            assert torus_profile(mat, spec) == profile_lincong(mat, spec.q - 1)


PRIME_POWERS = (3, 4, 5, 7, 8, 9, 11, 13, 16)


@st.composite
def torus_matrices(draw):
    """1-4 rows of width 1-3, entries in [-10, 10], with zero rows and zero columns."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.integers(-10, 10))
    rows = [draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        rows[i] = [0] * d
    for j in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        for row in rows:
            row[j] = 0
    return IntMatrix.from_rows(rows)


@pytest.mark.parametrize("q", PRIME_POWERS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(mat=torus_matrices())
def test_torus_matches_lincong_over_every_prime_power(q, mat):
    spec = field(*prime_power(q))
    assert torus_profile(mat, spec) == profile_lincong(mat, q - 1)


def test_torus_of_the_paper_matrix_at_every_prime_power():
    # the precondition of the paper's torus claim, at every prime power q <= 13
    mat = parse_matrix((GOLDEN_INPUTS / "paper.mat").read_text())
    assert mat == PAPER_MATRIX
    for q in PRIME_POWERS[:-1]:
        assert torus_profile(mat, field(*prime_power(q))) == profile_lincong(mat, q - 1), q


@pytest.mark.parametrize("p, e", [(2, 3), (3, 2)])
def test_torus_field_multiplications_are_bounded(monkeypatch, p, e):
    """Tables of v t^a per value v: at most (q-1)^2 products per matrix entry, plus the
    powers.  One product per grid point and nonzero exponent would be 285,866 over
    GF(8) and 557,224 over GF(9) on this matrix."""
    calls = [0]
    mul = FieldSpec.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(FieldSpec, "mul", counted)  # FieldSpec.pow calls it too
    spec = field(p, e)
    prof = torus_profile(PAPER_MATRIX, spec)
    assert 0 < calls[0] <= 2000
    monkeypatch.undo()
    assert prof == profile_lincong(PAPER_MATRIX, spec.q - 1)


def test_dirichlet_examples():
    assert dirichlet_modulus(IntMatrix.from_rows([(1, 0), (0, 1)])) == 1
    assert suggest_primes(1, 3) == [2, 3, 5]
    assert dirichlet_modulus(IntMatrix.from_rows([(2, 0), (0, 3)])) == 6
    assert suggest_primes(6, 3) == [7, 13, 19]
    assert dirichlet_modulus(IntMatrix.from_rows([(2,)])) == 2
    assert suggest_primes(2, 3) == [3, 5, 7]
    assert dirichlet_modulus(IntMatrix.from_rows([(0, 0)])) == 1


def test_parse_matrix_text_and_json():
    mat = parse_matrix("1 0 2 3 0\n2 9 7 7 7\n")
    assert mat.labels == ("1", "2") and mat.rows[1] == (2, 9, 7, 7, 7)
    lab = parse_matrix("a: 1 2\nb: -3 4  # trailing comment\n")
    assert lab.labels == ("a", "b") and lab.rows == ((1, 2), (-3, 4))
    js = parse_matrix('{"labels": ["u", "v"], "rows": [[1, 2], [3, 4]]}')
    assert js.labels == ("u", "v")
    with pytest.raises(DomainError):
        parse_matrix("1 2\n3\n")
    with pytest.raises(DomainError):
        parse_matrix("a: 1 2\n3 4\n")
    with pytest.raises(DomainError):
        parse_matrix("")


def test_submatrix():
    sub = PAPER_MATRIX.submatrix(["2", "4"])
    assert sub.rows == ((2, 9, 7, 7, 7), (2, 2, 7, 7, 7))
    assert image_size(sub, 343) == 7**5
    with pytest.raises(DomainError):
        PAPER_MATRIX.submatrix(["9"])


def test_torus_budget_counts_the_image_walk(monkeypatch):
    # 12^8 grid tuples at q = 13, but the image has at most 12 points: 12 * (1 + 7 * 12) steps
    row = IntMatrix.from_rows([(1, 2, 3, 4, 5, 6, 7, 8)])
    assert torus_profile(row, field(13)) == profile_lincong(row, 12)
    monkeypatch.setattr(lincong, "BRUTEFORCE_BUDGET", 1019)
    with pytest.raises(BudgetError, match=r"needs 1020 steps \(budget 1019\)"):
        torus_profile(row, field(13))


def test_row_subset_walks_are_bounded(monkeypatch):
    # every walk over the 2^n row subsets is refused before it starts past MAX_SUBSETS
    monkeypatch.setattr(polymatroid, "MAX_SUBSETS", 8)
    rng = random.Random(31)
    three, four = ([[rng.randint(-10, 10)] for _ in range(n)] for n in (3, 4))
    assert torus_profile(IntMatrix.from_rows(three), field(7)) == \
        profile_lincong(IntMatrix.from_rows(three), 6)
    for walk in (lambda a: profile_lincong(a, 6), dirichlet_modulus,
                 lambda a: torus_profile(a, field(7))):
        with pytest.raises(BudgetError, match=r"needs 2\^4 subsets \(budget 8\)"):
            walk(IntMatrix.from_rows(four))
