import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unitlat.bdd_sampler import (
    SampleRecord,
    SamplerConfig,
    babai_bdd,
    dump_samples,
    lambda1_sq_bound,
    lambda1_sq_lower_bound,
    load_samples,
    sample_dual,
    verify_sampler_contract,
)
from unitlat.enumeration import shortest_vector_sq
from unitlat.lattice_core import (
    BasisMatrix,
    ConfigurationError,
    FixedPointVector,
    RankError,
    op_norm_two_sq,
    sqrt_lower,
)

F = Fraction


def rand_basis(rng, dim, lo=-6, hi=6):
    while True:
        rows = [[F(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisMatrix(rows)
        except RankError:
            continue


@st.composite
def rational_bases(draw):
    """Random non-integral, non-symmetric rational bases of dims 2-4."""
    m = draw(st.integers(2, 4))
    entry = st.fractions(min_value=-8, max_value=8, max_denominator=6)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    assume(any(rows[i][j] != rows[j][i] for i in range(m) for j in range(i)))
    try:
        return BasisMatrix(rows)
    except RankError:
        assume(False)


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(delta=F(1, 2), r=1, eta=0, sigma=1)
        with pytest.raises(ConfigurationError):
            SamplerConfig(delta=0, r=1, eta=F(1, 2), sigma=1)
        with pytest.raises(ConfigurationError):
            SamplerConfig(delta=0, r=1, eta=0, sigma=0)


class TestBabai:
    def test_exact_on_lattice_points(self):
        rng = random.Random(1)
        for _ in range(30):
            b = rand_basis(rng, 3)
            dual = b.transpose().inverse_as_matrix()
            z_true = tuple(rng.randint(-5, 5) for _ in range(3))
            point = dual.row_combination(z_true)
            y_fp = FixedPointVector.from_rationals(point, 48)
            # representable exactly only up to 2^-48; stay well inside radius
            z = babai_bdd(y_fp, b)
            assert z == z_true

    def test_recovery_within_radius(self):
        """Perturbations below 1/(2||B_M||_2) are always corrected."""
        rng = random.Random(2)
        for _ in range(50):
            dim = rng.randint(1, 4)
            b = rand_basis(rng, dim)
            dual = b.transpose().inverse_as_matrix()
            radius = 1 / (2 * sqrt_lower(op_norm_two_sq(b)) + F(1, 100))
            z_true = tuple(rng.randint(-4, 4) for _ in range(dim))
            point = dual.row_combination(z_true)
            # random rational perturbation of norm < radius
            pert = [F(rng.randint(-99, 99), 1000) for _ in range(dim)]
            scale = radius * F(9, 10)
            norm = max(sum(p * p for p in pert), F(1, 10**6))
            from unitlat.lattice_core import sqrt_upper

            pert = [p * scale / sqrt_upper(norm) for p in pert]
            y_fp = FixedPointVector.from_rationals(
                [a + e for a, e in zip(point, pert)], 64
            )
            z = babai_bdd(y_fp, b)
            assert z == z_true

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            babai_bdd(FixedPointVector((1, 2, 3), 4), BasisMatrix.identity(2))


class TestLambda1Bound:
    def test_exact_small(self):
        assert lambda1_sq_bound(BasisMatrix.identity(3)) == 1
        assert lambda1_sq_bound(BasisMatrix.diagonal([F(3), F(5)])) == 9

    def test_sound_lower_bound_large(self):
        b = BasisMatrix.identity(10)  # above the enumeration dimension limit
        assert lambda1_sq_bound(b) <= 1

    def test_lower_bound_on_non_symmetric_example(self):
        # the former (inf,1)-norm bound claimed lambda_1^2 >= 2.133 here
        b = BasisMatrix([[F(6), F(-5)], [F(-1, 4), F(-4, 3)]])
        assert shortest_vector_sq(b) == F(265, 144)
        assert lambda1_sq_lower_bound(b) <= F(265, 144)

    @given(rational_bases())
    @settings(max_examples=150, deadline=None)
    def test_lower_bound_sound(self, b):
        assert lambda1_sq_lower_bound(b) <= shortest_vector_sq(b)


class TestSampler:
    def test_deterministic_replay(self):
        b = BasisMatrix.identity(2)
        cfg = SamplerConfig(delta=F(1, 4), r=4, eta=F(1, 10), sigma=1, seed=42)
        s1 = sample_dual(b, cfg, 50)
        s2 = sample_dual(b, cfg, 50)
        assert dump_samples(s1) == dump_samples(s2)

    def test_seed_changes_stream(self):
        b = BasisMatrix.identity(2)
        c1 = SamplerConfig(delta=F(1, 4), r=4, eta=0, sigma=1, seed=1)
        c2 = SamplerConfig(delta=F(1, 4), r=4, eta=0, sigma=1, seed=2)
        assert dump_samples(sample_dual(b, c1, 50)) != dump_samples(
            sample_dual(b, c2, 50)
        )

    def test_jsonl_roundtrip(self):
        b = BasisMatrix.identity(2)
        cfg = SamplerConfig(delta=F(1, 8), r=4, eta=F(1, 10), sigma=1, seed=3)
        samples = sample_dual(b, cfg, 20)
        assert load_samples(dump_samples(samples)) == samples

    def test_zero_noise_lands_on_lattice(self):
        b = BasisMatrix.diagonal([F(2), F(3)])
        cfg = SamplerConfig(delta=0, r=10, eta=0, sigma=2, seed=4)
        for s in sample_dual(b, cfg, 100):
            point = b.row_combination(s.ground_truth_coords)
            assert s.y_tilde.to_rationals() == tuple(point)

    def test_contract_report(self):
        b = BasisMatrix.identity(2)
        cfg = SamplerConfig(delta=F(1, 4), r=7, eta=F(1, 20), sigma=2, seed=5)
        samples = sample_dual(b, cfg, 2000)
        rep = verify_sampler_contract(samples, b, cfg)
        assert rep["uniformity_ok"]
        assert rep["coverage_ok"]
        assert rep["concentration_mass"] == 1.0
        assert rep["coverage"] >= 1 - float(cfg.eta) - rep["mc_tolerance"]

    def test_pinned_stream_non_integral_basis(self):
        """The sample stream on a rational 3x3 dual basis is fixed: any change
        to enumeration order, weights or draws must be deliberate."""
        b = BasisMatrix(
            [
                [F(3, 2), F(-1, 3), F(2, 5)],
                [F(1, 4), F(5, 3), F(-2, 7)],
                [F(-1, 2), F(1, 6), F(9, 4)],
            ]
        )
        cfg = SamplerConfig(delta=F(1, 8), r=6, eta=F(1, 10), sigma=F(3, 2), seed=11)
        digest = hashlib.sha256(dump_samples(sample_dual(b, cfg, 200)).encode())
        assert digest.hexdigest() == (
            "2ab2257de2b5838f8b464434539dc3af584bd6f7aeb313f34cb63a07963cd58b"
        )

    def test_failure_injection_rate(self):
        b = BasisMatrix.identity(2)
        cfg = SamplerConfig(delta=0, r=7, eta=F(1, 4), sigma=2, seed=6)
        samples = sample_dual(b, cfg, 4000)
        rate = sum(s.failed for s in samples) / len(samples)
        assert abs(rate - 0.25) < 0.03
