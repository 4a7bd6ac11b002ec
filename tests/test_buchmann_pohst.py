import gc
import hashlib
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitlat.buchmann_pohst import (
    BPParams,
    bp_reduce,
    ceil_log2,
    hermite_constant_upper,
    relation_norm_check,
)
from unitlat.lattice_core import (
    BasisMatrix,
    ConfigurationError,
    FixedPointVector,
    PrecisionError,
    RankError,
)
from unitlat.reduction import DEFAULT_DELTA, hnf_rational
from unitlat.rings import EISENSTEIN, GAUSSIAN, INTEGERS, RingElement, ring_by_kind

F = Fraction


def fp(values, q):
    return FixedPointVector(tuple(round(v * 2**q) for v in map(F, values)), q)


class TestDerivedBounds:
    def test_ceil_log2_exact(self):
        assert ceil_log2(F(1)) == 0
        assert ceil_log2(F(1024)) == 10
        assert ceil_log2(F(1025)) == 11
        assert ceil_log2(F(1, 2)) == -1
        assert ceil_log2(F(3, 4)) == 0

    def test_ceil_log2_random(self):
        rng = random.Random(1)
        for _ in range(100):
            x = F(rng.randint(1, 10**9), rng.randint(1, 10**9))
            q = ceil_log2(x)
            assert F(2) ** q >= x > F(2) ** (q - 1)

    @given(
        st.one_of(
            st.builds(F, st.integers(1, 2**2000), st.integers(1, 2**2000)),
            st.integers(-3000, 3000).map(lambda e: F(2) ** e),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_ceil_log2_oracle(self, x):
        """Exact powers of two and x < 1 included: 2^(q-1) < x <= 2^q."""
        q = ceil_log2(x)
        assert F(2) ** (q - 1) < x <= F(2) ** q

    @given(
        st.integers(1, 8),
        st.integers(0, 12),
        st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=10**6),
        st.fractions(min_value=F(1, 1000), max_value=10**12, max_denominator=10**6),
        st.sampled_from([INTEGERS, GAUSSIAN, EISENSTEIN]),
    )
    @settings(max_examples=200, deadline=None)
    def test_derive_covers_the_exact_formula(self, m, extra, mu, d, ring):
        """q and m_tilde are at least the formula they round outward,
        evaluated with 300 digits (less a relative 10^-290 for the evaluation's
        own rounding: the bound may be exact, as m_tilde = 150/49 is at m = 1)."""
        k = m + extra
        got = BPParams(mu=mu, D=d, ring=ring).derive(m, k)

        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        with mpmath.workdps(300):
            c_k = 1 / (mp(DEFAULT_DELTA) - mp(ring.euclidean_minimum))
            b = c_k**m * mp(d) ** (mpmath.mpf(1) / m)
            c = (b / mp(mu)) ** m * mpmath.sqrt(mp(hermite_constant_upper(m)))
            m_tilde = (k * mpmath.sqrt(m) / 2 + mpmath.sqrt(k)) * c
            value = (mpmath.sqrt(m * k) + 2) * m_tilde * mpmath.sqrt(mpmath.mpf(2) ** (k - 1)) / mp(mu)
            slack = 1 - mpmath.mpf(10) ** -290
            assert mp(got.m_tilde) >= m_tilde * slack
            assert got.q >= max(int(mpmath.ceil(mpmath.log(value * slack, 2))), 1)

    def test_hermite_upper(self):
        assert hermite_constant_upper(1) == 1
        assert hermite_constant_upper(2) == F(4, 3)
        # gamma_2 = 2/sqrt(3) ~ 1.1547 <= 4/3
        assert float(hermite_constant_upper(2)) >= 2 / 3**0.5

    def test_q_monotone_in_k(self):
        p = BPParams(mu=1, D=6)
        qs = [p.derive(2, k).q for k in range(3, 9)]
        assert qs == sorted(qs)

    def test_positive_params_required(self):
        with pytest.raises(ValueError):
            BPParams(mu=0, D=1)


class TestIntegerBP:
    def test_gcd_2_3(self):
        q = 32
        gens = [fp([2], q), fp([3], q)]
        res = bp_reduce(gens, BPParams(mu=1, D=4))
        assert len(res.basis_approx) == 1
        assert res.basis_approx[0][0].a == 1
        assert len(res.relations) == 1
        assert relation_norm_check(res)

    def test_gcd_noisy_5(self):
        """5Z from generators 5 and 10 carrying noise below 2^-q."""
        q = 40
        noise = F(1, 2**50)
        gens = [
            FixedPointVector((int((5 + noise) * 2**q), ), q),
            FixedPointVector((int((10 - noise) * 2**q), ), q),
        ]
        res = bp_reduce(gens, BPParams(mu=4, D=6))
        val = res.basis_approx[0][0].a
        assert abs(val - 5) < F(1, 2**10)

    def test_dim2_planted(self):
        rng = random.Random(2)
        q = 64
        basis = [[F(2), F(1)], [F(1), F(3)]]
        for _ in range(10):
            coeffs = [
                [rng.randint(-3, 3) for _ in range(2)] for _ in range(5)
            ]
            # make sure the generators span the planted lattice
            coeffs[0] = [1, 0]
            coeffs[1] = [0, 1]
            gens = []
            for c in coeffs:
                vec = [
                    c[0] * basis[0][j] + c[1] * basis[1][j] for j in range(2)
                ]
                gens.append(fp(vec, q))
            res = bp_reduce(gens, BPParams(mu=1, D=8))
            assert relation_norm_check(res)
            rec = [[e.a for e in row] for row in res.basis_approx]
            assert hnf_rational(rec) == hnf_rational(basis)

    def test_rank_deficient_raises(self):
        q = 40
        gens = [fp([1, 0], q), fp([2, 0], q), fp([3, 0], q)]
        with pytest.raises(RankError):
            bp_reduce(gens, BPParams(mu=1, D=4))

    def test_insufficient_precision(self):
        gens = [FixedPointVector((8,), 2), FixedPointVector((12,), 2)]
        with pytest.raises(PrecisionError):
            bp_reduce(gens, BPParams(mu=1, D=4))

    def test_precision_error_reports_the_derived_q(self):
        """The message names the q the input is checked against (6 for two
        generators of dim 1), not the larger working scale q_bits."""
        gens = [FixedPointVector((48,), 4), FixedPointVector((80,), 4)]
        assert BPParams(mu=1, D=4).derive(1, 2).q == 6
        with pytest.raises(PrecisionError, match=r"4 bits < required q = 6$"):
            bp_reduce(gens, BPParams(mu=1, D=4), q_bits=200)

    def test_too_few_generators(self):
        with pytest.raises(RankError):
            bp_reduce([fp([1, 2], 40)], BPParams(mu=1, D=4))

    def test_generators_of_unequal_dimension_rejected(self):
        """A short generator is an input error, not a rank deficiency or a
        precision failure."""
        for gens in ([fp([1, 2], 40), fp([2], 40)], [fp([2**32, 0], 40), fp([0], 40)]):
            with pytest.raises(ConfigurationError, match="differ in dimension"):
                bp_reduce(gens, BPParams(mu=1, D=4))


class TestGaussianBP:
    def test_gaussian_module(self):
        """Rank-1 Z[i]-module generated by 1+2i and (1+i)(1+2i)."""
        q = 48
        g1 = RingElement(F(1), F(2), "gaussian")
        mult = RingElement(1, 1, "gaussian")
        g2 = g1 * mult
        gens = [[_scale(g1, q)], [_scale(g2, q)]]
        res = bp_reduce(
            gens,
            BPParams(mu=1, D=8, ring=GAUSSIAN),
            input_precision_bits=q,
        )
        assert len(res.basis_approx) == 1
        got = res.basis_approx[0][0]
        # the recovered generator is a unit multiple of 1+2i
        assert got.norm() == g1.norm()
        assert relation_norm_check(res)

    def test_generators_off_the_params_ring_rejected(self):
        """The LLL reads the ring off the generators and the bounds read
        params.ring: bp_reduce refuses to let them differ."""
        g = RingElement(F(1), F(2), "gaussian")
        with pytest.raises(ConfigurationError, match="do not match params.ring"):
            bp_reduce(
                [[g], [g * g]], BPParams(mu=1, D=8, ring=EISENSTEIN), input_precision_bits=48
            )
        with pytest.raises(ConfigurationError, match="do not match params.ring"):
            bp_reduce([fp([1], 40), fp([2], 40)], BPParams(mu=1, D=8, ring=GAUSSIAN))

    def test_generators_of_unequal_dimension_rejected(self):
        g = RingElement(F(1), F(2), "gaussian")
        with pytest.raises(ConfigurationError, match="differ in dimension"):
            bp_reduce(
                [[g, g], [g * g]], BPParams(mu=1, D=8, ring=GAUSSIAN), input_precision_bits=48
            )


def _scale(e, q):
    return RingElement(e.a, e.b, e.kind)


MODULE_BASIS = [[(2, 1), (1, -1), (0, 1)], [(1, 0), (3, 2), (-1, 1)], [(0, -2), (1, 1), (2, 0)]]
MODULE_COMBOS = [[(1, 1), (-1, 0), (2, 0)], [(0, 0), (1, -1), (1, 0)]]


def noisy_module(kind):
    """bp_reduce of five noisy generators of a rank-3 module over kind's ring
    (omega parts dropped over Z): the basis rows and two combinations of
    them, every coordinate off by less than 2^-64."""
    ring = ring_by_kind(kind)
    rng = random.Random(5)
    elem = lambda a, b: RingElement(a, b if ring.omega else 0, kind)
    basis = [[elem(*e) for e in row] for row in MODULE_BASIS]
    exact = basis + [
        [sum((elem(*c) * row[i] for c, row in zip(cs, basis)), elem(0, 0)) for i in range(3)]
        for cs in MODULE_COMBOS
    ]
    noise = lambda: F(rng.randint(-3, 3), 2**66)
    gens = [[elem(e.a + noise(), e.b + (noise() if ring.omega else 0)) for e in r] for r in exact]
    params = BPParams(mu=1, D=1000, ring=ring)
    if not ring.omega:
        return bp_reduce([FixedPointVector.from_rationals([e.a for e in g], 64) for g in gens], params)
    return bp_reduce(gens, params, input_precision_bits=64)


class TestPackedResult:
    @pytest.mark.parametrize(
        "kind, q, digest",
        [
            ("integers", 22, "d51f440a98a99e150749ab134b40afa508f2fb7754975ac10cbeefc56ca6055f"),
            ("gaussian", 27, "1f1b24d7306676a63787b9c0f25d8cbd238935f80fa1552c9e36cd698dfeb312"),
            ("eisenstein", 24, "92c6df5b97e8bca11a5b3797b26c17e00b9761ba4d36bb816f6f3d4c7f1c6f68"),
        ],
    )
    def test_views_pinned(self, kind, q, digest):
        """Every view equals what the result stored when it kept RingElement
        rows and Fraction norms (sha256 of their repr, pinned then)."""
        res = noisy_module(kind)
        views = (
            res.basis_approx, res.basis_coords, res.relations, res.relation_top_norms_sq,
            res.basis_top_norms_sq, res.threshold_sq, res.q, res.m, res.k,
        )
        assert (res.q, len(res.basis_approx), len(res.relations)) == (q, 3, 2)
        assert hashlib.sha256(repr(views).encode()).hexdigest() == digest
        assert relation_norm_check(res)

    def test_bp_result_keeps_ints(self):
        """A kept Z[i] result reaches no Fraction, RingElement or tuple besides
        its m_tilde and ring: the rows are one packed int, the views are
        built on access."""
        res = noisy_module("gaussian")
        assert res.basis_approx and res.relation_top_norms_sq  # views keep nothing
        skip = (res.m_tilde, res.ring)
        seen, stack, kinds = set(), [res], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type) or any(obj is s for s in skip):
                continue
            seen.add(id(obj))
            kinds.add(type(obj).__name__)
            stack.extend(gc.get_referents(obj))
        assert kinds == {"BPResult", "int"}
