import hashlib
import json
import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unitlat import bdd_sampler
from unitlat.bdd_sampler import (
    GPV_EPSILON,
    SampleRecord,
    SamplerConfig,
    babai_bdd,
    dump_samples,
    gpv_sigma,
    klein_basis,
    sample_dual,
    verify_sampler_contract,
)
from unitlat.enumeration import lattice_points_in_ball, shortest_vector_sq
from unitlat.recovery import build_cyclotomic_problem, make_planted_problem
from unitlat.lattice_core import (
    BasisMatrix,
    ConfigurationError,
    FixedPointVector,
    RankError,
    norm_sq,
    op_norm_two_sq,
    round_half_away,
    round_ratio,
    sqrt_lower,
)

F = Fraction

# the pinned 3x3 rational dual basis and its stream configuration
PINNED_BASIS = BasisMatrix(
    [
        [F(3, 2), F(-1, 3), F(2, 5)],
        [F(1, 4), F(5, 3), F(-2, 7)],
        [F(-1, 2), F(1, 6), F(9, 4)],
    ]
)
PINNED_CFG = SamplerConfig(delta=F(1, 8), eta=F(1, 10), sigma=F(3, 2), seed=11)


# ---------------------------------------------------------------------------
# Reference sampler: the exact truncated discrete Gaussian over the whole
# 3 sigma ball, enumerated and drawn by one uniform through its float CDF.
# This was the library's sampler before the nearest-plane one; it is kept
# here, unchanged, as the oracle the nearest-plane draws are compared with.
# ---------------------------------------------------------------------------


def reference_support(b_l_star, sigma):
    """(coords, cdf, lambda_1^2) of the truncated Gaussian over the 3 sigma ball."""
    points = lattice_points_in_ball(b_l_star, 9 * sigma * sigma)
    scale = b_l_star.den ** 2
    sigma_f = float(sigma)
    # n / scale is the correctly rounded float of the exact squared norm
    weights = [math.exp(-math.pi * (n / scale) / (sigma_f * sigma_f)) for _, n in points]
    total = sum(weights)
    cum = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cum.append(acc)
    return [x for x, _ in points], cum, shortest_vector_sq(b_l_star)


def reference_bisect(cum, u):
    lo, hi = 0, len(cum) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def reference_sample_dual(b_l_star, cfg, count, precision_bits=64):
    """The former sample_dual: support draw, failure flag, then the noise."""
    m = b_l_star.m
    sigma_f = float(cfg.sigma)
    support, cum, lam_sq = reference_support(b_l_star, cfg.sigma)
    noise_radius = 0.999 * float(sqrt_lower(lam_sq)) * float(cfg.delta)
    box = 4.0 * (3.0 * sigma_f + 1.0)
    rng = random.Random(cfg.seed)
    out = []
    for _ in range(count):
        coords = support[reference_bisect(cum, rng.random())]
        failed = rng.random() < float(cfg.eta)
        if failed:
            value = [rng.uniform(-box, box) for _ in range(m)]
        else:
            value = [float(x) for x in b_l_star.row_combination(coords)]
            if noise_radius > 0:
                gauss = [rng.gauss(0.0, 1.0) for _ in range(m)]
                gn = math.sqrt(sum(g * g for g in gauss)) or 1.0
                rad = noise_radius * rng.random() ** (1.0 / m)
                value = [v + rad * g / gn for v, g in zip(value, gauss)]
        y = FixedPointVector.from_rationals([F(v) for v in value], precision_bits)
        out.append(SampleRecord(y, tuple(coords), failed))
    return out


# ---------------------------------------------------------------------------
# Reference nearest-plane sampler: the draw as it was before the windows of
# fixed-centre levels were built once per sample_dual call. It rebuilds every
# level's window for every draw; sample_dual must give its stream sample for
# sample. The range checks of sample_dual are left out.
# ---------------------------------------------------------------------------


def reference_klein_draw(kb, weights_at, halves, bound, rng):
    m = len(kb.rows)
    for _ in range(bdd_sampler.MAX_REJECTIONS):
        y = [0] * m
        for i in reversed(range(m)):
            terms = [mu * x for mu, x in zip(kb.mu[i], y[i + 1:])]
            c = -sum(terms)
            half = halves[i]
            pad = bdd_sampler.PAD * (sum(map(abs, terms)) + half + 1.0)
            lo = math.ceil(c - half - pad)
            hi = math.floor(c + half + pad)
            a = weights_at[i]
            cum = list(accumulate(math.exp(-a * (x - c) ** 2) for x in range(lo, hi + 1)))
            if not cum:
                break
            y[i] = lo + bisect_left(cum, rng.random() * cum[-1])
        else:
            point = [sum(x * r for x, r in zip(y, col)) for col in zip(*kb.rows)]
            if sum(x * x for x in point) <= bound:
                return y, point
    raise ConfigurationError("the reference draw left the ball too often")


def reference_klein_sample_dual(b_l_star, cfg, count, precision_bits=64):
    m = b_l_star.m
    kb = klein_basis(b_l_star)
    ratios = [min(g / (cfg.sigma * cfg.sigma), bdd_sampler._RATIO_CAP) for g in kb.gs_norm_sq]
    weights_at = [math.pi * float(t) for t in ratios]
    halves = [3.0 / math.sqrt(float(t)) for t in ratios]
    radius_sq = 9 * cfg.sigma * cfg.sigma * kb.den * kb.den
    bound = radius_sq.numerator // radius_sq.denominator
    box = 4.0 * (3.0 * float(cfg.sigma) + 1.0)
    noise_radius = 0.0
    if cfg.delta:
        noise_radius = 0.999 * float(sqrt_lower(kb.lam_sq_bracket[0])) * float(cfg.delta)
    scale = 1 << precision_bits
    rng = random.Random(cfg.seed)
    out = []
    for _ in range(count):
        y, point = reference_klein_draw(kb, weights_at, halves, bound, rng)
        coords = tuple(sum(x * u for x, u in zip(y, col)) for col in zip(*kb.transform))
        failed = rng.random() < float(cfg.eta)
        if failed:
            exact, noise = [0] * m, [rng.uniform(-box, box) for _ in range(m)]
        else:
            exact, noise = point, [0.0] * m
            if noise_radius > 0:
                gauss = [rng.gauss(0.0, 1.0) for _ in range(m)]
                gn = math.sqrt(sum(g * g for g in gauss)) or 1.0
                rad = noise_radius * rng.random() ** (1.0 / m)
                noise = [rad * g / gn for g in gauss]
        mants = [round_ratio((x * d + n * kb.den) * scale, kb.den * d)
                 for x, (n, d) in zip(exact, map(float.as_integer_ratio, noise))]
        out.append(SampleRecord(FixedPointVector(tuple(mants), precision_bits), coords, failed))
    return out


def chi_square_bound(df, z=4.75):
    """Wilson-Hilferty upper quantile of chi^2_df at the normal quantile z
    (z = 4.75: tail probability about 1e-6)."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def seeded_rational_bases(seed, dims=(2, 3, 4), per_dim=3):
    """Non-symmetric, non-integral rational bases, reproducible from the seed."""
    rng = random.Random(seed)
    out = []
    for dim in dims:
        while sum(b.m == dim for b in out) < per_dim:
            rows = [
                [F(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(dim)]
                for _ in range(dim)
            ]
            if all(rows[i][j] == rows[j][i] for i in range(dim) for j in range(i)):
                continue
            try:
                out.append(BasisMatrix(rows))
            except RankError:
                continue
    return out


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


@st.composite
def babai_cases(draw):
    """(B, y, ties): a random non-symmetric rational basis of dim 1-8 with
    unrelated entry denominators and negative entries, a fixed-point target
    y, and the rows i of B adjusted so that row_i . y is an exact
    half-integer, of either sign."""
    m = draw(st.integers(1, 8))
    entry = st.fractions(min_value=-40, max_value=40, max_denominator=97)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    exponent = draw(st.integers(0, 70))
    mant = st.integers(-(2 ** (exponent + 6)), 2 ** (exponent + 6))
    y = FixedPointVector(draw(st.lists(mant, min_size=m, max_size=m)), exponent)
    y_rat = y.to_rationals()
    ties = []
    j = next((j for j, v in enumerate(y_rat) if v), None)
    if j is not None:
        for i in draw(st.sets(st.integers(0, m - 1))):
            half = draw(st.integers(-9, 9)) + F(1, 2)
            rest = sum((x * v for k, (x, v) in enumerate(zip(rows[i], y_rat)) if k != j), F(0))
            rows[i][j] = (half - rest) / y_rat[j]
            ties.append(i)
    assume(m == 1 or any(rows[i][k] != rows[k][i] for i in range(m) for k in range(i)))
    try:
        return BasisMatrix(rows), y, ties
    except RankError:
        assume(False)


@st.composite
def klein_cases(draw):
    """(B, cfg, precision_bits): a random rational basis of dim 1-8, general
    (non-symmetric), diagonal or block-diagonal, so that levels below the top
    have zero mu rows too, and a configuration with delta > 0, eta > 0 and
    sigma a half, one or two times the GPV width."""
    m = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(("general", "diagonal", "blocks")))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    cut = draw(st.integers(1, max(m - 1, 1)))
    for i in range(m):
        for j in range(m):
            if (shape == "diagonal" and i != j) or (shape == "blocks" and (i < cut) != (j < cut)):
                rows[i][j] = F(0)
    if shape != "diagonal":
        assume(m == 1 or any(rows[i][j] != rows[j][i] for i in range(m) for j in range(i)))
    try:
        b = BasisMatrix(rows)
    except RankError:
        assume(False)
    cfg = SamplerConfig(
        delta=draw(st.sampled_from((F(1, 8), F(1, 4), F(2, 5)))),
        eta=draw(st.sampled_from((F(1, 10), F(1, 4), F(9, 20)))),
        sigma=gpv_sigma(b) * draw(st.sampled_from((F(1, 2), F(1), F(2)))),
        seed=draw(st.integers(0, 2**32)),
    )
    return b, cfg, draw(st.sampled_from((53, 64, 96)))


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            SamplerConfig(delta=F(1, 2), eta=0, sigma=1)
        with pytest.raises(ConfigurationError):
            SamplerConfig(delta=0, eta=F(1, 2), sigma=1)
        with pytest.raises(ConfigurationError):
            SamplerConfig(delta=0, eta=0, sigma=0)


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

    def test_ties_round_away_from_zero(self):
        b = BasisMatrix([[F(1, 3), F(0)], [F(0), F(-1, 3)]])
        # B y = (1/2, 3/2) and (-1/2, -3/2)
        assert babai_bdd(FixedPointVector((3, -9), 1), b) == (1, 2)
        assert babai_bdd(FixedPointVector((-3, 9), 1), b) == (-1, -2)

    @given(babai_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, case):
        """The integer rounding equals round_half_away of the exact Fraction
        dot product, also on the rows placed on a half-integer tie."""
        b, y, ties = case
        y_rat = y.to_rationals()
        dots = [sum((x * v for x, v in zip(row, y_rat)), F(0)) for row in b.rows]
        for i in ties:
            assert (dots[i] - F(1, 2)).denominator == 1
        assert babai_bdd(y, b) == tuple(round_half_away(d) for d in dots)


def bracket(basis, beyond_limit=False):
    """klein_basis(basis).lam_sq_bracket; with beyond_limit, as klein_basis
    computes it above ENUMERATION_DIM_LIMIT: the bound pair, here on bases
    small enough to enumerate."""
    with pytest.MonkeyPatch.context() as mp:
        if beyond_limit:
            mp.setattr(bdd_sampler, "ENUMERATION_DIM_LIMIT", 1)
        klein_basis.cache_clear()
        try:
            return klein_basis(basis).lam_sq_bracket
        finally:
            klein_basis.cache_clear()


def assert_brackets(b, lam_sq, beyond_limit=False):
    lo, hi = bracket(b, beyond_limit)
    assert 0 < lo <= lam_sq <= hi


class TestLambda1Bracket:
    def test_exact_small(self):
        assert klein_basis(BasisMatrix.identity(3)).lam_sq_bracket == (1, 1)
        assert klein_basis(BasisMatrix.diagonal([F(3), F(5)])).lam_sq_bracket == (9, 9)

    def test_sound_large(self):
        b = BasisMatrix.identity(10)  # above the enumeration dimension limit
        assert_brackets(b, 1)

    def test_non_symmetric_example(self):
        # the former (inf,1)-norm bound claimed lambda_1^2 >= 2.133 here, and
        # 1/lambda_1(L*) <= 6.33 for the dual, where it is 6.82
        b = BasisMatrix([[F(6), F(-5)], [F(-1, 4), F(-4, 3)]])
        assert shortest_vector_sq(b) == F(265, 144)
        assert bracket(b) == (F(265, 144), F(265, 144))
        assert_brackets(b, F(265, 144), beyond_limit=True)
        assert_brackets(b.dual(), shortest_vector_sq(b.dual()), beyond_limit=True)

    def test_skewed_example(self):
        # L = L* = Z^2; the former 2^(-3m) times (inf,1)-norm bound gave
        # 1/lambda_1(L*) >= 1001/64
        b = BasisMatrix([[F(1), F(0)], [F(1000), F(1)]])
        for basis in (b, b.dual()):
            assert_brackets(basis, 1, beyond_limit=True)
            assert bracket(basis, beyond_limit=True)[1] == 1

    @pytest.mark.parametrize("beyond_limit", [False, True])
    @given(rational_bases())
    @settings(max_examples=75, deadline=None)
    def test_sound(self, beyond_limit, b):
        """lo <= lambda_1^2 <= hi exactly, for the basis and for its dual, on
        random non-integral non-symmetric bases of dims 2-4, in both regimes;
        below the limit both ends are lambda_1^2."""
        for basis in (b, b.dual()):
            lam_sq = shortest_vector_sq(basis)
            assert_brackets(basis, lam_sq, beyond_limit)
            if not beyond_limit:
                assert bracket(basis) == (lam_sq, lam_sq)

    @pytest.mark.parametrize("idx", range(4))
    def test_sound_above_limit(self, idx):
        """Seeded non-symmetric rational bases of dimensions 9 and 10, where
        the bracket is the bound pair, against the enumerated lambda_1^2."""
        (b,) = seeded_rational_bases(900 + idx, dims=(9 + idx % 2,), per_dim=1)
        lam_sq = shortest_vector_sq(b)
        lo, hi = klein_basis(b).lam_sq_bracket
        assert lo <= lam_sq <= hi
        # the bound pair's lower end, the least Gram-Schmidt norm of the
        # reduced basis R (it may meet lambda_1^2), never below the dual-row
        # bound 1 / max ||d_i||^2 on R, as <d_i, r~_i> = 1
        kb = klein_basis(b)
        assert lo == min(kb.gs_norm_sq)
        r = BasisMatrix([[F(x, kb.den) for x in row] for row in kb.rows])
        assert lo >= 1 / op_norm_two_sq(r.dual())


class TestSampler:
    def test_deterministic_replay(self):
        b = BasisMatrix.identity(2)
        cfg = SamplerConfig(delta=F(1, 4), eta=F(1, 10), sigma=1, seed=42)
        s1 = sample_dual(b, cfg, 50)
        s2 = sample_dual(b, cfg, 50)
        assert dump_samples(s1) == dump_samples(s2)

    def test_seed_changes_stream(self):
        b = BasisMatrix.identity(2)
        c1 = SamplerConfig(delta=F(1, 4), eta=0, sigma=1, seed=1)
        c2 = SamplerConfig(delta=F(1, 4), eta=0, sigma=1, seed=2)
        assert dump_samples(sample_dual(b, c1, 50)) != dump_samples(
            sample_dual(b, c2, 50)
        )

    def test_jsonl_roundtrip(self):
        """Each line of dump_samples is one record, mantissas, exponent,
        ground truth and failure flag, with no digit lost."""
        b = BasisMatrix.identity(2)
        cfg = SamplerConfig(delta=F(1, 8), eta=F(1, 10), sigma=1, seed=3)
        samples = sample_dual(b, cfg, 20)
        objs = [json.loads(line) for line in dump_samples(samples).splitlines()]
        back = [
            SampleRecord(
                FixedPointVector([int(x) for x in o["y"]["mantissas"]], o["y"]["q"]),
                tuple(o["gt"]),
                o["failed"],
            )
            for o in objs
        ]
        assert back == samples

    def test_zero_noise_lands_on_lattice(self):
        b = BasisMatrix.diagonal([F(2), F(3)])
        cfg = SamplerConfig(delta=0, eta=0, sigma=2, seed=4)
        for s in sample_dual(b, cfg, 100):
            point = b.row_combination(s.ground_truth_coords)
            assert s.y_tilde.to_rationals() == tuple(point)

    def test_zero_noise_rounds_once_at_any_precision(self):
        """A delta = 0 sample of a non-integer lattice is its exact point
        rounded once to precision_bits: at m = 11 and 128 bits, within 2^-129
        per coordinate, where a float detour left it up to 1.01e-16 off."""
        problem = build_cyclotomic_problem(11, 128, seed=1)
        cfg = problem.sampler.replace(delta=Fraction(0))
        for s in sample_dual(problem.hidden_dual, cfg, 40, 128):
            point = problem.hidden_dual.row_combination(s.ground_truth_coords)
            assert s.y_tilde == FixedPointVector.from_rationals(point, 128)
            assert all(
                abs(y - x) <= Fraction(1, 2**129)
                for y, x in zip(s.y_tilde.to_rationals(), point)
            )

    def test_contract_report(self):
        b = BasisMatrix.identity(2)
        cfg = SamplerConfig(delta=F(1, 4), eta=F(1, 20), sigma=2, seed=5)
        samples = sample_dual(b, cfg, 2000)
        rep = verify_sampler_contract(samples, b, cfg, 7)
        assert rep["uniformity_ok"]
        assert rep["coverage_ok"]
        assert rep["concentration_mass"] == 1.0
        assert rep["coverage"] >= 1 - float(cfg.eta) - rep["mc_tolerance"]

    def test_pinned_stream_non_integral_basis(self):
        """The sample stream on a rational 3x3 dual basis is fixed: any change
        to the reduction, the level order, the windows or the draws must be
        deliberate. Re-pinned when samples became the exact point plus the
        noise, rounded once: the draws, coordinates and failures stayed, 18
        of 200 samples moved by up to 2^-52.6."""
        digest = hashlib.sha256(
            dump_samples(sample_dual(PINNED_BASIS, PINNED_CFG, 200)).encode()
        )
        assert digest.hexdigest() == (
            "0afb16997e37814c3a340fdfdb102193023de761d8d59176730bb412081c7dd5"
        )

    def test_pinned_stream_planted(self):
        """The streams of planted problems of dims 2-6, with noise and
        failures, are fixed. On L* = Z^dim every level's mu row is zero, so
        every window comes ready: pinned before those windows were built once
        per call instead of once per draw."""
        streams = []
        for dim in range(2, 7):
            p = make_planted_problem(dim, 2 * dim - 1, seed=dim)
            p = p.replace(sampler=p.sampler.replace(eta=F(1, 10)))
            samples = sample_dual(p.hidden_dual, p.sampler, 12 * dim, p.precision_bits)
            streams.append(dump_samples(samples))
        digest = hashlib.sha256("\n".join(streams).encode())
        assert digest.hexdigest() == (
            "2415ddcdfcc0453599054529e352defe9b92ffb9361cae921da056fd298ef136"
        )

    @given(klein_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_draw_reference(self, case):
        """sample_dual gives the reference's stream, in which every draw
        rebuilds every window, sample for sample."""
        b, cfg, bits = case
        try:
            samples = sample_dual(b, cfg, 30, bits)
        except ConfigurationError:
            assume(False)
        assert samples == reference_klein_sample_dual(b, cfg, 30, bits)

    def test_reference_reproduces_former_stream(self):
        """The reference in this file is the former enumeration sampler
        unchanged: it still yields the stream that sampler was pinned to."""
        digest = hashlib.sha256(
            dump_samples(reference_sample_dual(PINNED_BASIS, PINNED_CFG, 200)).encode()
        )
        assert digest.hexdigest() == (
            "2ab2257de2b5838f8b464434539dc3af584bd6f7aeb313f34cb63a07963cd58b"
        )

    def test_huge_gram_schmidt_norm(self):
        """A level with ||b~_i||^2 far beyond the float range holds only the
        points (a, 0); its weight is capped, not overflowed."""
        b = BasisMatrix([[F(1), F(0)], [F(0), F(10) ** 400]])
        cfg = SamplerConfig(delta=0, eta=0, sigma=1, seed=7)
        samples = sample_dual(b, cfg, 200)
        assert {s.ground_truth_coords[1] for s in samples} == {0}
        assert len({s.ground_truth_coords[0] for s in samples}) > 1
        assert all(abs(s.ground_truth_coords[0]) <= 3 for s in samples)

    def test_too_wide_level_is_rejected(self):
        """sigma over a Gram-Schmidt norm of 10^-400 would give a level of
        about 10^400 integers: a configuration error, not an exhausted memory."""
        b = BasisMatrix([[F(1), F(0)], [F(0), F(1, 10**400)]])
        cfg = SamplerConfig(delta=0, eta=0, sigma=1, seed=7)
        with pytest.raises(ConfigurationError, match="too wide"):
            sample_dual(b, cfg, 1)

    def test_failure_injection_rate(self):
        b = BasisMatrix.identity(2)
        cfg = SamplerConfig(delta=0, eta=F(1, 4), sigma=2, seed=6)
        samples = sample_dual(b, cfg, 4000)
        rate = sum(s.failed for s in samples) / len(samples)
        assert abs(rate - 0.25) < 0.03


@st.composite
def integral_mantissa_cases(draw):
    """(x, n, shift): an integer lattice coordinate, a float noise and a
    precision. The noise is any finite float (subnormals and signed zeros
    included), an exact half tie of n 2^shift of either sign, a value with
    |n 2^shift| >= 2^52, or, with shift at 960 and up, one whose n 2^shift
    leaves the float range (2^shift itself does from 1024)."""
    kind = draw(st.sampled_from(("any", "tie", "large", "overflow")))
    x = draw(st.integers(-(2**70), 2**70) | st.integers(-3, 3))
    if kind == "overflow":
        shift = draw(st.integers(960, 1100))
        n = draw(st.floats(min_value=2.0**60, max_value=1e300)) * draw(st.sampled_from((1, -1)))
        return x, n, shift
    shift = draw(st.integers(0, 200))
    if kind == "tie":
        shift = min(shift, 60)
        odd = 2 * draw(st.integers(0, 2**40)) + 1
        return x, math.ldexp(draw(st.sampled_from((1, -1))) * odd, -(shift + 1)), shift
    if kind == "large":
        mag = draw(st.integers(52, 200))
        n = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), mag - shift)
        return x, n * draw(st.sampled_from((1, -1))), shift
    n = draw(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, -0.5)
    ))
    return x, n, shift


class TestIntegralMantissas:
    """The mantissa path of integral bases (kb.den == 1) against the ratio
    formula every basis used before it."""

    @given(integral_mantissa_cases())
    @settings(max_examples=400, deadline=None)
    def test_equals_round_ratio(self, case):
        x, n, shift = case
        num, den = n.as_integer_ratio()
        expected = round_ratio((x * den + num) << shift, den)
        assert bdd_sampler._integral_mantissas([x], [n], shift) == [expected]

    def test_ties_round_away_by_the_whole_value(self):
        """x + n = 1.5, 0.5, -0.5 and -1.5 at shift 0: the remainder's sign
        alone would round 1 - 1/2 and -1 + 1/2 the wrong way."""
        got = bdd_sampler._integral_mantissas([1, 1, 0, -1, -1], [0.5, -0.5, -0.5, 0.5, -0.5], 0)
        assert got == [2, 1, -1, -1, -2]

    def test_overflow_falls_back(self):
        """2^1100 is no float, and 1e300 * 2^100 is none either."""
        assert bdd_sampler._integral_mantissas([1], [0.25], 1100) == [(1 << 1100) + (1 << 1098)]
        n = 1e300
        assert bdd_sampler._integral_mantissas([0], [n], 100) == [int(n) << 100]


class TestNearestPlaneAgainstReference:
    """The nearest-plane sampler on seeded non-symmetric rational bases of
    dims 2-4, at sigma = the GPV bound of the LLL-reduced basis."""

    BASES = seeded_rational_bases(2024)
    DRAWS = 4000

    @pytest.mark.parametrize("idx", range(len(BASES)))
    def test_draws_in_ball_and_coords_reproduce_point(self, idx):
        b = self.BASES[idx]
        sigma = gpv_sigma(b)
        cfg = SamplerConfig(delta=0, eta=0, sigma=sigma, seed=idx)
        for s in sample_dual(b, cfg, 300, precision_bits=96):
            point = b.row_combination(s.ground_truth_coords)
            assert norm_sq(point) <= 9 * sigma * sigma
            # with no noise the output is the float of the exact point
            for got, want in zip(s.y_tilde.to_rationals(), point):
                assert abs(got - want) <= abs(want) * F(1, 2**52) + F(1, 2**96)

    @pytest.mark.parametrize("idx", range(len(BASES)))
    def test_frequencies_match_reference(self, idx):
        """Pearson chi^2 of the draws against the reference probabilities.

        Bins are (coordinate parity class, decile of the reference's norm
        distribution), so both the radial profile and the index-2 sublattice
        masses are compared; bins expected to get fewer than 5 draws are
        pooled. The bound is the 1e-6 upper tail of chi^2 with bins - 1
        degrees of freedom. At sigma >= the GPV bound the nearest-plane
        distribution is within O(n eps) of the reference (eps = 2^-10), far
        below what 4000 draws resolve, so the test fails only if the draws
        follow another law.
        """
        b = self.BASES[idx]
        sigma = gpv_sigma(b)
        coords, cum, _ = reference_support(b, sigma)
        probs = [c - p for c, p in zip(cum, [0.0] + cum[:-1])]
        scale = b.den ** 2
        norms = {x: n for x, n in lattice_points_in_ball(b, 9 * sigma * sigma)}
        # norm deciles of the reference distribution
        order = sorted(range(len(coords)), key=lambda i: norms[coords[i]])
        decile, acc = {}, 0.0
        for i in order:
            decile[coords[i]] = min(int(acc * 10), 9)
            acc += probs[i]

        def key(x):
            return tuple(c % 2 for c in x), decile[x]

        expected = Counter()
        for x, p in zip(coords, probs):
            expected[key(x)] += p * self.DRAWS
        cfg = SamplerConfig(delta=0, eta=0, sigma=sigma, seed=100 + idx)
        observed = Counter()
        for s in sample_dual(b, cfg, self.DRAWS):
            x = s.ground_truth_coords
            assert x in norms, "draw outside the 3 sigma ball"
            assert F(norms[x], scale) == norm_sq(b.row_combination(x))
            observed[key(x)] += 1

        big = [k for k in expected if expected[k] >= 5]
        pooled_e = sum(e for k, e in expected.items() if k not in big)
        pooled_o = sum(o for k, o in observed.items() if k not in big)
        chi2 = sum((observed[k] - expected[k]) ** 2 / expected[k] for k in big)
        bins = len(big)
        if pooled_e >= 5:
            chi2 += (pooled_o - pooled_e) ** 2 / pooled_e
            bins += 1
        assert bins >= 10
        assert chi2 <= chi_square_bound(bins - 1), (chi2, bins)

    def test_gpv_sigma_is_an_upper_bound(self):
        for b in self.BASES:
            kb = klein_basis(b)
            factor = math.log(2 * b.m * (1 + 1 / GPV_EPSILON)) / math.pi
            assert gpv_sigma(b) ** 2 >= max(kb.gs_norm_sq) * F(factor)
            assert float(gpv_sigma(b)) ** 2 <= float(max(kb.gs_norm_sq)) * factor * (1 + 1e-9)

    def test_below_gpv_bound_stays_in_ball(self):
        """An explicit sigma below the bound is used as given; draws still
        lie in its 3 sigma ball."""
        b = self.BASES[-1]
        sigma = gpv_sigma(b) / 3
        cfg = SamplerConfig(delta=0, eta=0, sigma=sigma, seed=3)
        for s in sample_dual(b, cfg, 200):
            assert norm_sq(b.row_combination(s.ground_truth_coords)) <= 9 * sigma * sigma
