import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unitlat.enumeration import shortest_vector_sq

from unitlat.lattice_core import (
    BasisMatrix,
    ContainmentError,
    FixedPointVector,
    RankError,
    dot,
    dual_basis,
    gram_schmidt,
    lambda1_dual_bounds,
    norm_sq,
    nth_root_upper,
    op_norm,
    op_norm_two_sq,
    round_half_away,
    sqrt_lower,
    sqrt_upper,
    sublattice_index,
)

F = Fraction


def rand_basis(rng, dim, lo=-9, hi=9):
    while True:
        rows = [[F(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisMatrix(rows)
        except RankError:
            continue


def bisection_nth_root_upper(x, n, bits=64):
    """Reference for nth_root_upper: the least integer h with h^n >= target,
    by bisection, over the same scaled target p q^(n-1) 2^(bits n)."""
    x = F(x)
    if x == 0 or n == 1:
        return x
    scale = 1 << bits
    p, q = x.numerator, x.denominator
    target = p * q ** (n - 1) * scale**n
    lo, hi = 0, 1 << (-(-target.bit_length() // n))
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n >= target:
            hi = mid
        else:
            lo = mid + 1
    return F(hi, q * scale)


class TestRoots:
    @given(st.fractions(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_sqrt_bounds_bracket(self, x):
        up = sqrt_upper(x)
        lo = sqrt_lower(x)
        assert lo * lo <= x <= up * up
        assert lo <= up

    @given(st.fractions(min_value=1, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_sqrt_upper_tight(self, x):
        up = sqrt_upper(x)
        # relative slack of the bound is tiny
        assert up * up <= x * (1 + F(1, 2**62))

    @given(
        st.fractions(min_value=F(1, 1000), max_value=10**6),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_nth_root_upper(self, x, n):
        up = nth_root_upper(x, n)
        assert up**n >= x

    @given(
        st.integers(min_value=1, max_value=2**2500),
        st.integers(min_value=1, max_value=2**2500),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0, 1, 8, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_nth_root_upper_matches_bisection(self, p, q, n, bits):
        """Thousands-of-bit operands: the reference value, an upper bound, and
        the documented relative error up <= x^(1/n) (1 + 2^-bits)."""
        x = F(p, q)
        up = nth_root_upper(x, n, bits)
        assert up == bisection_nth_root_upper(x, n, bits)
        assert up**n >= x
        assert up**n <= x * (1 + F(1, 2**bits)) ** n

    def test_nth_root_upper_exact_on_perfect_powers(self):
        for b in (1, 2, 3, 10**40 + 7):
            for n in (2, 3, 7):
                assert nth_root_upper(F(b**n, 5**n), n) == F(b, 5)
                assert nth_root_upper(F(b**n + 1), n) == bisection_nth_root_upper(F(b**n + 1), n)

    def test_round_half_away_ties(self):
        assert round_half_away(F(1, 2)) == 1
        assert round_half_away(F(-1, 2)) == -1
        assert round_half_away(F(3, 2)) == 2
        assert round_half_away(F(7, 3)) == 2
        assert round_half_away(F(-7, 3)) == -2


class TestFixedPoint:
    def test_roundtrip_exact(self):
        v = FixedPointVector((3, -5, 0), 4)
        assert v.to_rationals() == (F(3, 16), F(-5, 16), F(0))
        back = FixedPointVector.from_rationals(v.to_rationals(), 4)
        assert back == v

    def test_json_roundtrip(self):
        v = FixedPointVector((123456789123456789, -42), 77)
        assert FixedPointVector.from_json(v.to_json()) == v


class TestBasisMatrix:
    def test_rank_rejected(self):
        with pytest.raises(RankError):
            BasisMatrix([[F(1), F(2)], [F(2), F(4)]])

    def test_det_2x2(self):
        b = BasisMatrix([[F(1), F(2)], [F(3), F(4)]])
        assert b.det() == F(-2)

    def test_det_against_sympy(self):
        import sympy

        rng = random.Random(5)
        for _ in range(10):
            b = rand_basis(rng, 4)
            sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in b.rows])
            assert sympy.Rational(b.det()) == sm.det()

    def test_json_roundtrip(self):
        b = BasisMatrix([[F(1, 3), F(2)], [F(0), F(5, 7)]])
        assert BasisMatrix.loads(b.dumps()).rows == b.rows


def fraction_gauss_jordan(rows):
    """Reference: exact determinant and inverse via Gauss-Jordan over Fractions.

    Returns (det, inverse_rows) with inverse_rows None when singular.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            det = -det
        p = a[col][col]
        det *= p
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return det, tuple(tuple(r) for r in inv)


def rand_rational_rows(rng, m):
    """m x m rows with numerators of 2-130 bits over denominators up to 2^40;
    about one in ten has a row that is a rational combination of the others."""
    num_bits, den_bits = rng.randint(2, 130), rng.randint(0, 40)
    rows = [
        [F(rng.randint(-(2**num_bits), 2**num_bits), rng.randint(1, 2**den_bits))
         for _ in range(m)]
        for _ in range(m)
    ]
    if rng.random() < 0.1:
        i = rng.randrange(m)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        rows[i] = [
            sum((c * row[j] for k, (c, row) in enumerate(zip(coeffs, rows)) if k != i), F(0))
            for j in range(m)
        ]
    return rows


class TestIntegerGaussJordanMatchesReference:
    def test_random_rational_matrices(self):
        """det, inverse, dual, transpose and matmul equal the Fraction
        Gauss-Jordan reference on 2,000 seeded matrices of dims 1-9; singular
        ones raise RankError."""
        rng = random.Random(2026)
        singular = 0
        for _ in range(2000):
            m = rng.randint(1, 9)
            rows = rand_rational_rows(rng, m)
            det, inv = fraction_gauss_jordan(rows)
            if det == 0:
                singular += 1
                with pytest.raises(RankError):
                    BasisMatrix(rows)
                continue
            b = BasisMatrix(rows)
            assert b.det() == det
            assert b.inverse_rows() == inv
            dual = b.dual()
            assert dual.rows == tuple(zip(*inv)) and dual.det() == 1 / det
            t = b.transpose()
            assert t.rows == tuple(zip(*b.rows)) and t.det() == det
            # unit upper-triangular integer shear: det(B U) = det B
            u = BasisMatrix(
                [[F(int(i == j) if j <= i else rng.randint(-3, 3)) for j in range(m)]
                 for i in range(m)]
            )
            prod = b.matmul(u)
            assert prod.rows == tuple(
                tuple(dot(r, c) for c in zip(*u.rows)) for r in b.rows
            )
            assert prod.det() == det
        assert 150 <= singular <= 250


class TestDual:
    def test_identity_self_dual(self):
        b = BasisMatrix.identity(2)
        assert dual_basis(b).rows == b.rows

    def test_diag(self):
        b = BasisMatrix.diagonal([F(2), F(3)])
        d = dual_basis(b)
        assert d.rows == BasisMatrix.diagonal([F(1, 2), F(1, 3)]).rows
        assert d.det() * b.det() == 1

    def test_shear_example(self):
        b = BasisMatrix([[F(1), F(1)], [F(0), F(1)]])
        d = dual_basis(b)
        assert [list(r) for r in d.rows] == [[F(1), F(0)], [F(-1), F(1)]]

    def test_biorthogonality_random(self):
        rng = random.Random(7)
        for _ in range(20):
            b = rand_basis(rng, 3)
            d = dual_basis(b)
            for i in range(3):
                for j in range(3):
                    assert dot(b.rows[i], d.rows[j]) == int(i == j)

    def test_double_dual_is_identity(self):
        rng = random.Random(11)
        for _ in range(10):
            b = rand_basis(rng, 3)
            assert dual_basis(dual_basis(b)).rows == b.rows


class TestOperatorNorms:
    def test_inf_one_identity(self):
        assert op_norm(BasisMatrix.identity(3), "inf_one") == 1

    def test_inf_one_column_sums(self):
        b = BasisMatrix([[F(1), F(-2)], [F(3), F(4)]])
        assert op_norm(b, "inf_one") == 6

    def test_two_rowmax_345(self):
        b = BasisMatrix([[F(3), F(4)], [F(1), F(0)]])
        assert op_norm_two_sq(b) == 25
        assert op_norm(b, "two_rowmax") == 5


class TestLambda1DualBounds:
    def test_identity(self):
        lo, hi = lambda1_dual_bounds(BasisMatrix.identity(2))
        assert (lo, hi) == (F(1), F(1))
        assert lo <= 1 <= hi  # true 1/lambda_1* = 1

    def test_ordered_random(self):
        rng = random.Random(3)
        for _ in range(20):
            b = rand_basis(rng, 3)
            lo, hi = lambda1_dual_bounds(b)
            assert lo <= hi

    def test_upper_on_non_symmetric_example(self):
        # 1/lambda_1(L*) = 6.82 here; the former (inf,1)-norm upper gave 6.33
        b = BasisMatrix([[F(6), F(-5)], [F(-1, 4), F(-4, 3)]])
        _, hi = lambda1_dual_bounds(b)
        assert hi**2 * shortest_vector_sq(dual_basis(b)) >= 1

    def test_lower_on_skewed_example(self):
        # L = L* = Z^2, so 1/lambda_1(L*) = 1; the former 2^(-3m) times
        # (inf,1)-norm lower gave 1001/64
        b = BasisMatrix([[F(1), F(0)], [F(1000), F(1)]])
        lo, _ = lambda1_dual_bounds(b)
        assert lo**2 * shortest_vector_sq(dual_basis(b)) <= 1
        assert lo == 1

    @given(
        st.integers(2, 4).flatmap(
            lambda m: st.lists(
                st.lists(
                    st.fractions(min_value=-8, max_value=8, max_denominator=6),
                    min_size=m,
                    max_size=m,
                ),
                min_size=m,
                max_size=m,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_bounds_sound(self, rows):
        """lower <= 1/lambda_1(L*) <= upper, i.e. lower^2 lambda_1(L*)^2 <= 1
        <= upper^2 lambda_1(L*)^2, exactly, on random non-integral
        non-symmetric bases."""
        m = len(rows)
        assume(any(rows[i][j] != rows[j][i] for i in range(m) for j in range(i)))
        try:
            b = BasisMatrix(rows)
        except RankError:
            assume(False)
        lo, hi = lambda1_dual_bounds(b)
        lam_sq = shortest_vector_sq(dual_basis(b))
        assert lo**2 * lam_sq <= 1 <= hi**2 * lam_sq


class TestGramSchmidt:
    def test_orthogonal_and_reconstructs(self):
        rng = random.Random(9)
        for _ in range(15):
            b = rand_basis(rng, 4)
            gs = gram_schmidt(b)
            m = b.m
            for i in range(m):
                for j in range(i):
                    assert dot(gs.orthogonal[i], gs.orthogonal[j]) == 0
            for i in range(m):
                rec = list(gs.orthogonal[i])
                for j in range(i):
                    rec = [
                        r + gs.mu[i][j] * o
                        for r, o in zip(rec, gs.orthogonal[j])
                    ]
                assert tuple(rec) == tuple(b.rows[i])

    def test_norm_product_is_det_sq(self):
        rng = random.Random(13)
        b = rand_basis(rng, 3)
        gs = gram_schmidt(b)
        prod = F(1)
        for n in gs.norms_sq():
            prod *= n
        assert prod == b.det() ** 2


class TestSublatticeIndex:
    def test_scaled(self):
        b = BasisMatrix.identity(2)
        s = BasisMatrix.diagonal([F(2), F(3)])
        assert sublattice_index(s, b) == 6

    def test_non_sublattice_rejected(self):
        b = BasisMatrix.diagonal([F(2), F(2)])
        s = BasisMatrix.identity(2)
        with pytest.raises(ContainmentError):
            sublattice_index(s, b)
