import random
from fractions import Fraction

import pytest

from unitlat.buchmann_pohst import (
    BPParams,
    bp_reduce,
    ceil_log2,
    hermite_constant_upper,
    relation_norm_check,
)
from unitlat.lattice_core import BasisMatrix, FixedPointVector, PrecisionError, RankError
from unitlat.reduction import hnf_rational
from unitlat.rings import GAUSSIAN, RingElement

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


def _scale(e, q):
    return RingElement(e.a, e.b, e.kind)
