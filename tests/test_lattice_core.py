import importlib
import inspect
import json
import math
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import unitlat
from unitlat.lattice_core import (
    BasisMatrix,
    ConfigurationError,
    ContainmentError,
    FixedPointVector,
    RankError,
    UnitlatError,
    dot,
    gram_data,
    norm_sq,
    nth_root_upper,
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
        st.builds(F, st.integers(0, 2**2000), st.integers(1, 2**2000)),
        st.sampled_from([1, 8, 64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_sqrt_relative_error_both_sides(self, x, bits):
        """lo <= sqrt(x) <= up, each within a factor 1 -+ 2^-bits of sqrt(x);
        squared, that is an exact rational comparison."""
        up, lo = sqrt_upper(x, bits), sqrt_lower(x, bits)
        eps = F(1, 2**bits)
        assert 0 <= lo and lo * lo <= x <= up * up
        assert up * up <= x * (1 + eps) ** 2
        assert lo * lo >= x * (1 - eps) ** 2

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
        """to_json keeps every mantissa digit (as a string) and the exponent,
        through a JSON text and back."""
        v = FixedPointVector((123456789123456789, -42), 77)
        obj = json.loads(json.dumps(v.to_json()))
        assert FixedPointVector([int(x) for x in obj["mantissas"]], obj["q"]) == v


class TestRecord:
    """The record base the package's value types share: fields from the
    annotations, a class attribute as default, validation on every build."""

    def test_fields_defaults_and_value_semantics(self):
        from unitlat.bdd_sampler import SamplerConfig

        cfg = SamplerConfig(F(1, 8), 0, 2)
        assert SamplerConfig._fields == ("delta", "eta", "sigma", "seed")
        assert cfg.seed == 0 and cfg.sigma == F(2)  # __post_init__ normalised it
        same = SamplerConfig(delta=F(1, 8), eta=0, sigma=2, seed=0)
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != cfg.replace(seed=1)
        v = FixedPointVector(mantissas=[3, -5], exponent=4)
        assert v == FixedPointVector((3, -5), 4) and v.mantissas == (3, -5)
        assert repr(v) == "FixedPointVector(mantissas=(3, -5), exponent=4)"

    def test_immutable_and_replace_validates(self):
        from unitlat.bdd_sampler import SamplerConfig

        cfg = SamplerConfig(F(1, 8), 0, 2)
        with pytest.raises(AttributeError):
            cfg.seed = 1
        with pytest.raises(AttributeError):
            del cfg.seed
        assert cfg.replace(seed=3).seed == 3 and cfg.seed == 0
        with pytest.raises(ConfigurationError):
            cfg.replace(delta=F(1, 2))
        with pytest.raises(ValueError):
            FixedPointVector((1,), 4).replace(exponent=-1)

    @pytest.mark.parametrize(
        "args,kwargs",
        [((F(1, 8), 0), {}), ((F(1, 8), 0, 2, 0, 9), {}),
         ((F(1, 8), 0, 2), {"delta": 0}), ((F(1, 8), 0, 2), {"colour": 1})],
        ids=["missing", "too-many", "given-twice", "unknown"],
    )
    def test_bad_fields_raise(self, args, kwargs):
        from unitlat.bdd_sampler import SamplerConfig

        with pytest.raises(TypeError):
            SamplerConfig(*args, **kwargs)


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
        assert BasisMatrix.from_json(json.loads(b.dumps())).rows == b.rows


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
            assert b.inverse_as_matrix().rows == inv
            dual = b.dual()
            assert dual.rows == tuple(zip(*inv)) and dual.det() == 1 / det
            assert dual.dual() is b
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


@st.composite
def nonsingular_rows(draw):
    """Fraction rows of a nonsingular matrix of dim 1-5, with negative
    entries and unrelated denominators."""
    m = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-30, max_value=30, max_denominator=50)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    det, _ = fraction_gauss_jordan(rows)
    assume(det != 0)
    return rows


def fractions_in(x, seen=None) -> int:
    """The Fractions reachable from x through tuples, lists and the slots
    of a BasisMatrix (a matrix and its dual point at each other)."""
    seen = set() if seen is None else seen
    if isinstance(x, Fraction):
        return 1
    if isinstance(x, (tuple, list)):
        return sum(fractions_in(y, seen) for y in x)
    if isinstance(x, BasisMatrix) and id(x) not in seen:
        seen.add(id(x))
        return sum(fractions_in(getattr(x, slot, None), seen) for slot in BasisMatrix.__slots__)
    return 0


def assert_canonical(b):
    """ints / den with den > 0, gcd(den, entries) = 1, ints only, and no
    Fraction kept anywhere in the slots."""
    assert type(b.den) is int and b.den > 0
    assert isinstance(b.ints, tuple) and all(isinstance(row, tuple) for row in b.ints)
    assert all(type(x) is int for row in b.ints for x in row)
    assert math.gcd(b.den, *(x for row in b.ints for x in row)) == 1
    assert type(b._det) is int
    assert fractions_in(b) == 0


class TestBasisMatrixStorage:
    @given(nonsingular_rows())
    @settings(max_examples=150, deadline=None)
    def test_canonical_and_rows_round_trip(self, rows):
        b = BasisMatrix(rows)
        assert b.rows == tuple(map(tuple, rows))
        for c in (b, b.dual(), b.transpose(), b.inverse_as_matrix(), b.matmul(b.dual())):
            c.rows  # a view: reading it stores nothing
            assert_canonical(c)
            assert BasisMatrix(c.rows) == c
            assert all(Fraction(x, c.den) == y for r, v in zip(c.ints, c.rows) for x, y in zip(r, v))

    def test_identity_is_the_eliminated_identity(self):
        """identity(m) takes its det from how it is made and equals the
        matrix __init__ eliminates; an empty identity is rejected as before."""
        for m in range(1, 7):
            one = BasisMatrix.identity(m)
            fresh = BasisMatrix(one.rows)
            assert (one, one._det) == (fresh, fresh._det)
        with pytest.raises(ValueError):
            BasisMatrix.identity(0)

    @given(nonsingular_rows(), st.integers(-6, 6).filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_equal_matrices_compare_and_hash_equal(self, rows, k):
        """__init__, _with_det (from a non-canonical scaling, also by a
        negative factor), matmul, dual and transpose build equal matrices
        with equal storage and equal hashes."""
        b = BasisMatrix(rows)
        m = b.m
        one = BasisMatrix.identity(m)
        scaled = BasisMatrix._with_det(
            k * b.den, [[k * x for x in row] for row in b.ints], k**m * b._det
        )
        fresh_dual = BasisMatrix(b.dual().rows)
        pairs = [
            (scaled, b),
            (b.matmul(one), b),
            (one.matmul(b), b),
            (b.transpose().transpose(), b),
            (BasisMatrix(b.rows).dual(), b.dual()),
            (fresh_dual, b.dual()),
            (fresh_dual.dual(), b),
            (b.inverse_as_matrix().transpose(), b.dual()),
        ]
        for c, d in pairs:
            assert c == d and hash(c) == hash(d)
            assert (c.den, c.ints, c.det()) == (d.den, d.ints, d.det())
        assert b.dual().dual() is b

    def test_lru_cache_keys_on_value(self):
        from unitlat.bdd_sampler import klein_basis

        b = BasisMatrix([[F(3, 2), F(-1, 3), F(2, 5)], [F(1, 4), F(5, 3), F(-2, 7)],
                         [F(-1, 2), F(1, 6), F(9, 4)]])
        same = b.dual().dual().matmul(BasisMatrix.identity(3))
        assert same is not b
        klein_basis.cache_clear()
        try:
            assert klein_basis(same) is klein_basis(b)
            assert klein_basis.cache_info().hits == 1
        finally:
            klein_basis.cache_clear()


class TestDual:
    def test_identity_self_dual(self):
        b = BasisMatrix.identity(2)
        assert b.dual().rows == b.rows

    def test_diag(self):
        b = BasisMatrix.diagonal([F(2), F(3)])
        d = b.dual()
        assert d.rows == BasisMatrix.diagonal([F(1, 2), F(1, 3)]).rows
        assert d.det() * b.det() == 1

    def test_shear_example(self):
        b = BasisMatrix([[F(1), F(1)], [F(0), F(1)]])
        d = b.dual()
        assert [list(r) for r in d.rows] == [[F(1), F(0)], [F(-1), F(1)]]

    def test_biorthogonality_random(self):
        rng = random.Random(7)
        for _ in range(20):
            b = rand_basis(rng, 3)
            d = b.dual()
            for i in range(3):
                for j in range(3):
                    assert dot(b.rows[i], d.rows[j]) == int(i == j)

    def test_double_dual_is_identity(self):
        rng = random.Random(11)
        for _ in range(10):
            b = rand_basis(rng, 3)
            assert b.dual().dual().rows == b.rows


class TestOperatorNorms:
    def test_two_rowmax_345(self):
        b = BasisMatrix([[F(3), F(4)], [F(1), F(0)]])
        assert op_norm_two_sq(b) == 25


def reference_gram_schmidt(rows) -> tuple:
    """(orthogonal, mu): the exact Fraction Gram-Schmidt of the rows, with
    b_i = b_i* + sum_{j<i} mu[i][j] b_j*; the reference gram_data and the
    Gram data LLL returns are checked against."""
    ortho, mus = [], []
    for row in rows:
        v = [F(x) for x in row]
        mu_row = []
        for prev in ortho:
            c = dot(row, prev) / norm_sq(prev)
            mu_row.append(c)
            v = [x - c * y for x, y in zip(v, prev)]
        ortho.append(tuple(v))
        mus.append(tuple(mu_row))
    return tuple(ortho), tuple(mus)


class TestGramSchmidt:
    def test_orthogonal_and_reconstructs(self):
        rng = random.Random(9)
        for _ in range(15):
            b = rand_basis(rng, 4)
            ortho, mu = reference_gram_schmidt(b.rows)
            m = b.m
            for i in range(m):
                for j in range(i):
                    assert dot(ortho[i], ortho[j]) == 0
            for i in range(m):
                rec = list(ortho[i])
                for j in range(i):
                    rec = [r + mu[i][j] * o for r, o in zip(rec, ortho[j])]
                assert tuple(rec) == tuple(b.rows[i])

    def test_norm_product_is_det_sq(self):
        rng = random.Random(13)
        b = rand_basis(rng, 3)
        ortho, _ = reference_gram_schmidt(b.rows)
        assert math.prod(norm_sq(v) for v in ortho) == b.det() ** 2

    def test_gram_data_matches_reference(self):
        """d[i+1] / d[i] = ||b_i*||^2 and lam[k][j] / d[j+1] = mu_kj exactly,
        on non-symmetric integer rows of dims 1-6 and up to 40 bits."""
        rng = random.Random(17)
        checked = 0
        for case in range(40):
            dim, bits = 1 + case % 6, (3, 40)[case % 2]
            rows = [
                [rng.randint(-(2**bits), 2**bits) for _ in range(dim)] for _ in range(dim)
            ]
            try:
                BasisMatrix(rows)
            except RankError:
                continue
            d, lam = gram_data(rows)
            ortho, mu = reference_gram_schmidt(rows)
            assert d[0] == 1
            assert [F(d[i + 1], d[i]) for i in range(dim)] == [norm_sq(v) for v in ortho]
            assert [[F(lam[k][j], d[j + 1]) for j in range(k)] for k in range(dim)] == [
                list(r) for r in mu
            ]
            checked += 1
        assert checked >= 30

    def test_gram_data_dependent_rows(self):
        with pytest.raises(RankError):
            gram_data([[1, 2, 3], [2, 4, 6], [0, 0, 1]])


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


class TestErrorHierarchy:
    def test_every_error_class_is_a_unitlat_error(self):
        """Each exception class defined in the package has one root and keeps
        its builtin base, so `except ValueError` callers still catch it."""
        found = {}
        for info in pkgutil.iter_modules(unitlat.__path__):
            module = importlib.import_module(f"unitlat.{info.name}")
            for name, cls in inspect.getmembers(module, inspect.isclass):
                if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                    found[name] = cls
        assert all(issubclass(cls, UnitlatError) for cls in found.values()), found
        assert len(found) == 8, sorted(found)
        del found["UnitlatError"]
        assert all(issubclass(cls, (ValueError, RuntimeError)) for cls in found.values())


def test_every_exported_name_resolves():
    """unitlat.__all__ names only what the package really exports."""
    missing = [name for name in unitlat.__all__ if not hasattr(unitlat, name)]
    assert not missing, missing
    assert len(set(unitlat.__all__)) == len(unitlat.__all__)
