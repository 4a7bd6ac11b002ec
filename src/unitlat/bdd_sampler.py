"""Babai rounding BDD and a classical simulation of the dual lattice sampler.

The sampler draws a dual point from the discrete Gaussian of width sigma
truncated to the ball of radius 3 sigma, perturbs it inside a ball of radius
delta times (a lower bound on) lambda_1 of the dual, and injects outright
failures with a configured probability. Each record of sample_dual keeps the
planted ground-truth point so statistical contracts can be verified after
the fact; the contract check takes the concentration radius it tests.

One private generator, _draws, makes the stream. Per sample it yields
(y, mantissas, failed): the draw's coordinates in the reduced basis, the
sample's fixed-point mantissas and the failure flag, from one seeded rng
whose calls come in a fixed order. sample_dual wraps it into SampleRecords,
with ground-truth coordinates from y, for the sample command. Both recovery
pipelines read the stream directly: recover_with_sublattice rounds each
mantissa vector with babai_round, the rounding babai_bdd does, and
recover_baseline keeps the mantissas, so a recovery builds no record. Two
exact shortcuts are chosen from the input: over an integral reduced basis
the mantissas come from the float noise times 2^precision_bits without a big
division (_integral_mantissas), and when every mu row is zero a draw is m
bisections over windows built once.

The draw is Klein's nearest-plane sampler over the LLL-reduced basis (Klein,
SODA 2000; Gentry-Peikert-Vaikuntanathan, STOC 2008), one 1-D Gaussian per
Gram-Schmidt level, kept only if the exact integer norm is within the ball.
Its cost is polynomial in the dimension: nothing enumerates the ball. Above
the GPV width (gpv_sigma) its law is within O(n eps) of the truncated
discrete Gaussian; below it the draws still lie in the ball.

The same LLL gives klein_basis(b).lam_sq_bracket, lo <= lambda_1^2 <= hi
from the reduced rows' integer Gram data: exact (enumerated, no second LLL)
up to ENUMERATION_DIM_LIMIT, a pair of bounds above it. The noise radius and
the contract check read lo; the Babai hypothesis of the recovery reads hi.
"""

from __future__ import annotations

import functools
import json
import math
import random
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, product
from operator import mul
from typing import List, Sequence

from .lattice_core import (
    BasisMatrix,
    ConfigurationError,
    FixedPointVector,
    Record,
    _check_exponent,
    _set_field,
    norm_sq,
    round_ratio,
    sqrt_lower,
    sqrt_upper,
)
from .enumeration import ENUMERATION_DIM_LIMIT, _shortest_sq
from .reduction import lll_reduce_gram


class SamplerConfig(Record):
    """Parameters of the simulated dual lattice sampler.

    delta: noise radius as a fraction of lambda_1 of the dual lattice.
    eta: probability of replacing a sample by garbage (failure injection).
    sigma: width of the Gaussian weights on the dual points.
    """

    delta: Fraction
    eta: Fraction
    sigma: Fraction
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "eta", Fraction(self.eta))
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        if not 0 <= self.delta < Fraction(1, 2):
            raise ConfigurationError("delta must lie in [0, 1/2)")
        if not 0 <= self.eta < Fraction(1, 2):
            raise ConfigurationError("eta must lie in [0, 1/2)")
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")


class SampleRecord(Record):
    """One sampler output plus the planted ground truth (test harness only)."""

    y_tilde: FixedPointVector
    ground_truth_coords: tuple
    failed: bool

    def __init__(self, y_tilde, ground_truth_coords, failed):  # faster than the generic one
        _set_field(self, "y_tilde", y_tilde)
        _set_field(self, "ground_truth_coords", ground_truth_coords)
        _set_field(self, "failed", failed)

    def to_json(self) -> dict:
        return {
            "y": self.y_tilde.to_json(),
            "gt": list(self.ground_truth_coords),
            "failed": self.failed,
        }


def dump_samples(samples: Sequence[SampleRecord]) -> str:
    return "\n".join(json.dumps(s.to_json(), sort_keys=True) for s in samples)


def babai_bdd(y_tilde: FixedPointVector, b_m: BasisMatrix) -> tuple:
    """Round a point near M* to M*: z = round(B_M^t y), its coordinates in
    the dual basis (B_M^t)^-1.

    Exact given the fixed-point input, and in integers: with B_M = N / D and
    y = y_tilde.mantissas / 2^e, z_i = round_ratio(N_i . mantissas, D 2^e),
    ties away from zero as in round_half_away. When
    dist(y_tilde, M*) < 1/(2 ||B_M||_2) z gives the closest vector of M*.
    """
    if y_tilde.dim != b_m.m:
        raise ValueError("dimension mismatch between target and basis")
    return tuple(babai_round(b_m.ints, y_tilde.mantissas, b_m.den << y_tilde.exponent))


def babai_round(ints, mants, scale: int) -> list:
    """[round_ratio(row . mants, scale) for row in ints]: Babai rounding of
    the mantissas against B_M = ints / den, with scale = den 2^exponent."""
    return [round_ratio(sum(map(mul, row, mants)), scale) for row in ints]


# the GPV smoothing slack: sigma >= max ||b~_i|| sqrt(ln(2n(1 + 1/eps)) / pi)
GPV_EPSILON = Fraction(1, 2**10)
# a nearest-plane draw outside the 3 sigma ball is redrawn at most this many
# times in a row: on the planted Z^N at sigma = 6/5 about 5% of the draws
# stay inside at N = 100 and none of 2000 at N = 150
MAX_REJECTIONS = 1000
# widest 1-D window (in integers) a level may span, and the cap on
# ||b~_i||^2 / sigma^2 that keeps the level weights finite floats
MAX_WINDOW = 2**20
_RATIO_CAP = Fraction(2**600)
# relative padding of the float level windows; see _klein_draw
PAD = 2.0**-40
# with sigma and lambda_1 at most this, the failure box 4 (3 sigma + 1), the
# points (norm <= 3 sigma) and the noise (radius < lambda_1 / 2) stay finite
# floats
_FLOAT_LIMIT = Fraction(sys.float_info.max) / 16


class KleinBasis(Record):
    """What the nearest-plane sampler needs of a basis B, from one LLL.

    The reduced basis is R = U B with U unimodular; den * R = rows in
    integers. gs_norm_sq[i] = ||b~_i||^2 exactly, and mu[i][j - i - 1] =
    mu_ji (j > i) are floats of R's Gram-Schmidt coefficients (|mu_ji| <= 1/2
    after size reduction). lam_sq_bracket = (lo, hi) with
    lo <= lambda_1^2 <= hi, both exact rationals. Up to ENUMERATION_DIM_LIMIT,
    lo = hi = lambda_1^2, enumerated over R. Above it, lo = min_i ||r~_i||^2:
    if x_j is the last nonzero coordinate of v = sum x_i r_i, v's component
    along r~_j is x_j r~_j, so ||v|| >= ||r~_j||; and hi is the least squared
    row norm of R, a nonzero lattice vector.
    """

    den: int
    rows: tuple
    transform: tuple
    gs_norm_sq: tuple
    mu: tuple
    lam_sq_bracket: tuple


@functools.lru_cache(maxsize=16)
def klein_basis(basis: BasisMatrix) -> KleinBasis:
    """The LLL-reduced basis, its Gram-Schmidt data and the lambda_1^2
    bracket, from one LLL per basis."""
    den, ints, transform, d, lam = lll_reduce_gram(basis)
    m = basis.m
    scale = den * den
    gs_sq = [Fraction(d[i + 1], d[i] * scale) for i in range(m)]
    if m <= ENUMERATION_DIM_LIMIT:
        lo = hi = _shortest_sq(den, ints, d, lam)
    else:
        lo = min(gs_sq)
        hi = Fraction(min(sum(x * x for x in row) for row in ints), scale)
    return KleinBasis(
        den=den,
        rows=tuple(tuple(row) for row in ints),
        transform=tuple(tuple(row) for row in transform),
        gs_norm_sq=tuple(gs_sq),
        mu=tuple(
            tuple(lam[j][i] / d[i + 1] for j in range(i + 1, m)) for i in range(m)
        ),
        lam_sq_bracket=(lo, hi),
    )


def gpv_sigma(basis: BasisMatrix) -> Fraction:
    """Rational upper bound on max ||b~_i|| sqrt(ln(2n(1 + 1/eps)) / pi) over
    the LLL-reduced basis: the width from which the nearest-plane sampler is
    within statistical distance O(n eps) of the discrete Gaussian
    (Gentry-Peikert-Vaikuntanathan, STOC 2008, Lemma 3.1 and Thm 4.1)."""
    n = basis.m
    # math.log is within an ulp and math.pi lies below pi: the factor
    # 1 + 2^-50 makes the quotient an upper bound
    log_term = Fraction(math.log(2 * n * (1 + 1 / GPV_EPSILON)))
    factor = log_term * (1 + Fraction(1, 2**50)) / Fraction(math.pi)
    return sqrt_upper(max(klein_basis(basis).gs_norm_sq) * factor)


def _window(a: float, c: float, half: float, spread: float) -> tuple:
    """(lo, cum): the integers x = lo, lo + 1, ... with |x - c| <= half plus
    the float padding PAD * (spread + half + 1), and the running sums cum of
    their weights exp(-a (x - c)^2). spread is the magnitude of the terms c
    was summed from (0 for a fixed centre)."""
    pad = PAD * (spread + half + 1.0)
    lo = math.ceil(c - half - pad)
    hi = math.floor(c + half + pad)
    return lo, list(accumulate(math.exp(-a * (x - c) ** 2) for x in range(lo, hi + 1)))


def _levels_draw(levels, uniform):
    """y drawn level by level, each window built unless it came ready, or
    None if a window holds no integer."""
    y = [0] * len(levels)
    for i in reversed(range(len(levels))):
        a, half, mu, window = levels[i]
        if window is None:
            terms = [u * x for u, x in zip(mu, y[i + 1:])]
            window = _window(a, -sum(terms), half, sum(map(abs, terms)))
        lo, cum = window
        if not cum:
            return None
        y[i] = lo + bisect_left(cum, uniform() * cum[-1])
    return y


def _klein_draw(levels, ready, cols, bound: int, rng: random.Random):
    """(y, point): a nearest-plane draw y (coordinates in the reduced basis)
    with ||point||^2 <= bound exactly, point = y @ kb.rows (integers over
    kb.den) taken against cols, the columns of kb.rows.

    From the last Gram-Schmidt vector down, level i draws y_i from the 1-D
    discrete Gaussian exp(-a_i (y - c_i)^2), a_i = pi ||b~_i||^2 / sigma^2,
    c_i = -sum_{j>i} mu_ji y_j, restricted to |y - c_i| <= half_i =
    3 sigma / ||b~_i||, by one uniform and an inverse CDF (Klein, SODA 2000).
    levels[i] = (a_i, half_i, kb.mu[i], window): a level whose mu row is zero
    has c_i = 0 whatever y is, and its _window comes ready; the others are
    built per draw. When every window comes ready, ready holds them as
    (lo, cum, cum[-1]) from the last level down, and a draw is m bisects
    with the same uniforms in the same order.
    A ball point has |y_i - c_i| ||b~_i|| <= ||point|| at every level, so
    every point of the ball of radius 3 sigma lies in these windows; the float
    window is widened by PAD times the magnitude of its terms, far above its
    rounding error, so none is lost to rounding. The draw is kept only if the
    exact integer norm is within the bound, else a fresh draw starts, at most
    MAX_REJECTIONS times in a row.
    """
    uniform = rng.random
    for _ in range(MAX_REJECTIONS):
        if ready is None:
            y = _levels_draw(levels, uniform)
            if y is None:
                continue
        else:
            y = [lo + bisect_left(cum, uniform() * total) for lo, cum, total in ready]
            y.reverse()
        point = [sum(map(mul, y, col)) for col in cols]
        if sum(map(mul, point, point)) <= bound:
            return y, point
    raise ConfigurationError(
        f"nearest-plane draws left the 3 sigma ball {MAX_REJECTIONS} times in a "
        f"row: at dimension {len(levels)} the ball holds too little of the Gaussian's mass"
    )


def _integral_mantissas(exact, noise, shift: int) -> list:
    """round_half_away(x 2^shift + n 2^shift) for the integers x of exact and
    the floats n of noise: what round_ratio((x d + n') 2^shift, d) gives for
    n = n' / d, with no big division. f = n 2^shift is an exact float, so
    (x << shift) + int(f) is an integer and the remainder f - int(f), of f's
    sign and below 1, is exact; it is rounded half away by the sign of the
    whole value. When 2^shift or some f overflows the float range, the ratio
    formula runs instead."""
    out = []
    try:
        fscale = math.ldexp(1.0, shift)
        for x, n in zip(exact, noise):
            f = n * fscale
            whole = int(f)
            rest = f - whole
            whole += x << shift
            if rest:
                if whole > 0 or (whole == 0 and rest > 0):
                    whole += (rest >= 0.5) - (rest < -0.5)
                else:
                    whole += (rest > 0.5) - (rest <= -0.5)
            out.append(whole)
    except OverflowError:
        scale = 1 << shift
        return [round_ratio((x * d + n) * scale, d)
                for x, (n, d) in zip(exact, map(float.as_integer_ratio, noise))]
    return out


def _draws(b_l_star: BasisMatrix, cfg: SamplerConfig, count: int, precision_bits: int):
    """The sampler's stream: `count` triples (y, mantissas, failed), y the
    draw's coordinates in the LLL-reduced basis and mantissas the sample at
    2^-precision_bits. Nothing is checked before the first draw is asked for."""
    m = b_l_star.m
    kb = klein_basis(b_l_star)
    # per level t_i = ||b~_i||^2 / sigma^2 exactly; a level whose half-width
    # 3 / sqrt(t_i) is below 3 * 2^-300 holds at most its nearest integer,
    # and capping t_i there keeps pi * t_i a float without losing a point
    ratios = [min(g / (cfg.sigma * cfg.sigma), _RATIO_CAP) for g in kb.gs_norm_sq]
    if min(ratios) < (6 / Fraction(MAX_WINDOW)) ** 2:
        raise ConfigurationError(
            f"sigma is too wide for this basis: a nearest-plane level spans "
            f"more than {MAX_WINDOW} integers"
        )
    # a level with a zero mu row is centred at 0 in every draw: its window
    # is built once here, as the same _window a draw would build
    levels = []
    for t, mu in zip(ratios, kb.mu):
        a, half = math.pi * float(t), 3.0 / math.sqrt(float(t))
        levels.append((a, half, mu, None if any(mu) else _window(a, 0, half, 0)))
    ready = None
    if all(window is not None for *_, window in levels):
        ready = [(lo, cum, cum[-1]) for *_, (lo, cum) in reversed(levels)]
    radius_sq = 9 * cfg.sigma * cfg.sigma * kb.den * kb.den
    bound = radius_sq.numerator // radius_sq.denominator
    if cfg.sigma > _FLOAT_LIMIT:
        raise ConfigurationError("sigma is beyond the float range")
    box = 4.0 * (3.0 * float(cfg.sigma) + 1.0)
    noise_radius = 0.0
    if cfg.delta:
        lam_lo = sqrt_lower(kb.lam_sq_bracket[0])
        if lam_lo > _FLOAT_LIMIT:
            raise ConfigurationError(
                "lambda_1 is beyond the float range, and so is the noise radius "
                "delta * lambda_1; sample with delta = 0"
            )
        # stay strictly inside the advertised radius so the exact coverage
        # check is immune to float rounding at the boundary
        noise_radius = 0.999 * float(lam_lo) * float(cfg.delta)

    shift = _check_exponent(precision_bits)
    scale, den = 1 << shift, kb.den
    cols = list(zip(*kb.rows))
    eta = float(cfg.eta)
    rng = random.Random(cfg.seed)
    uniform, gauss = rng.random, rng.gauss
    for _ in range(count):
        y, point = _klein_draw(levels, ready, cols, bound, rng)
        failed = uniform() < eta
        if failed:
            exact, noise = [0] * m, [rng.uniform(-box, box) for _ in range(m)]
        else:
            exact, noise = point, [0.0] * m
            if noise_radius > 0:
                g = [gauss(0.0, 1.0) for _ in range(m)]
                gn = math.sqrt(sum(x * x for x in g)) or 1.0
                rad = noise_radius * uniform() ** (1.0 / m)
                noise = [rad * x / gn for x in g]
        if den == 1:
            mants = _integral_mantissas(exact, noise, shift)
        else:
            # x / den plus the float noise n / d taken as exact, rounded once
            mants = [round_ratio((x * d + n * den) * scale, den * d)
                     for x, (n, d) in zip(exact, map(float.as_integer_ratio, noise))]
        yield y, mants, failed


def sample_dual(
    b_l_star: BasisMatrix,
    cfg: SamplerConfig,
    count: int,
    precision_bits: int = 64,
) -> List[SampleRecord]:
    """Draw `count` simulated sampler outputs near the lattice of b_l_star:
    points of the 3 sigma ball from the nearest-plane sampler over the
    LLL-reduced basis, each moved by noise of norm below delta * lambda_1.
    The exact point plus the float noise, taken as the rational it is, is
    rounded once: with delta = 0 each coordinate is within 2^-(precision_bits + 1).
    Each record keeps the draw's coordinates in b_l_star's basis."""
    transform_cols = list(zip(*klein_basis(b_l_star).transform))
    return [
        SampleRecord(
            FixedPointVector(mants, precision_bits),
            tuple(sum(map(mul, y, col)) for col in transform_cols),
            failed,
        )
        for y, mants, failed in _draws(b_l_star, cfg, count, precision_bits)
    ]


def verify_sampler_contract(
    samples: Sequence[SampleRecord],
    b_l_star: BasisMatrix,
    cfg: SamplerConfig,
    r: Fraction,
) -> dict:
    """Empirical check of the uniformity / concentration / coverage contracts.

    uniformity_margin is the largest empirical mass landing in any index-2
    sublattice of the dual (must stay below 1/2 + 1/4 up to Monte Carlo
    tolerance); concentration_mass is the fraction of planted points inside the
    concentration radius r; coverage is the fraction of samples that really lie
    within delta*lambda_1 of their planted point.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples to verify")
    m = b_l_star.m
    lam_sq_lo, _ = klein_basis(b_l_star).lam_sq_bracket
    radius_sq = Fraction(cfg.delta) ** 2 * lam_sq_lo

    covered = 0
    inside_r = 0
    r_sq = Fraction(r) ** 2
    parity_counts = {u: 0 for u in product((0, 1), repeat=m) if any(u)}
    for s in samples:
        point = b_l_star.row_combination(s.ground_truth_coords)
        diff = [a - b for a, b in zip(s.y_tilde.to_rationals(), point)]
        if norm_sq(diff) <= radius_sq:
            covered += 1
        if norm_sq(point) <= r_sq:
            inside_r += 1
        for u in parity_counts:
            if sum(ui * zi for ui, zi in zip(u, s.ground_truth_coords)) % 2 == 0:
                parity_counts[u] += 1

    tol = 3.0 / (2.0 * math.sqrt(n))  # 3 sigma for a worst-case binomial
    uniformity_margin = max(parity_counts.values()) / n
    coverage = covered / n
    concentration_mass = inside_r / n
    return {
        "n": n,
        "coverage": coverage,
        "concentration_mass": concentration_mass,
        "uniformity_margin": uniformity_margin,
        "mc_tolerance": tol,
        "uniformity_ok": uniformity_margin < 0.5 + 0.25 + tol,
        "coverage_ok": coverage >= 1.0 - float(cfg.eta) - tol,
    }
