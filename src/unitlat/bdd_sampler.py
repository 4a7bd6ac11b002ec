"""Babai rounding BDD and a classical simulation of the dual lattice sampler.

The sampler draws a dual point from a truncated discrete Gaussian, perturbs it
inside a ball whose radius is a fraction of lambda_1 of the dual, and injects
outright failures with a configured probability. Each record keeps the planted
ground-truth point so statistical contracts can be verified after the fact.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import List, Sequence

from .lattice_core import (
    BasisMatrix,
    ConfigurationError,
    FixedPointVector,
    common_denominator,
    dot,
    norm_sq,
    op_norm_two_sq,
    round_half_away,
    sqrt_lower,
)
from .enumeration import ENUMERATION_DIM_LIMIT, lattice_points_in_ball, shortest_vector_sq


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of the simulated dual lattice sampler.

    delta: noise radius as a fraction of lambda_1 of the dual lattice.
    r: concentration radius the emitted points are supposed to stay inside.
    eta: probability of replacing a sample by garbage (failure injection).
    sigma: width of the Gaussian weights on the dual points.
    """

    delta: Fraction
    r: Fraction
    eta: Fraction
    sigma: Fraction
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "eta", Fraction(self.eta))
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        if not 0 <= self.delta < Fraction(1, 2):
            raise ConfigurationError("delta must lie in [0, 1/2)")
        if not 0 <= self.eta < Fraction(1, 2):
            raise ConfigurationError("eta must lie in [0, 1/2)")
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")


@dataclass(frozen=True)
class SampleRecord:
    """One sampler output plus the planted ground truth (test harness only)."""

    y_tilde: FixedPointVector
    ground_truth_coords: tuple
    failed: bool

    def to_json(self) -> dict:
        return {
            "y": self.y_tilde.to_json(),
            "gt": list(self.ground_truth_coords),
            "failed": self.failed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SampleRecord":
        return cls(
            FixedPointVector.from_json(obj["y"]),
            tuple(int(c) for c in obj["gt"]),
            bool(obj["failed"]),
        )


def dump_samples(samples: Sequence[SampleRecord]) -> str:
    return "\n".join(json.dumps(s.to_json(), sort_keys=True) for s in samples)


def load_samples(text: str) -> list:
    return [SampleRecord.from_json(json.loads(line)) for line in text.splitlines() if line.strip()]


def lambda1_sq_bound(basis: BasisMatrix) -> Fraction:
    """Exact lambda_1^2 for small dimensions, else a sound lower bound."""
    if basis.m <= ENUMERATION_DIM_LIMIT:
        return shortest_vector_sq(basis)
    return lambda1_sq_lower_bound(basis)


def lambda1_sq_lower_bound(basis: BasisMatrix) -> Fraction:
    """Sound lower bound 1 / max_j ||row_j((B^t)^-1)||^2 on lambda_1^2, any dim.

    A nonzero lattice vector v = x B has some coordinate x_j =
    <v, row_j((B^t)^-1)> that is a nonzero integer, so
    1 <= ||v|| ||row_j((B^t)^-1)|| by Cauchy-Schwarz.
    """
    return 1 / op_norm_two_sq(basis.dual())


def babai_bdd(y_tilde: FixedPointVector, b_m: BasisMatrix) -> tuple:
    """Round a point near M* to M*: z = round(B_M^t y), its coordinates in
    the dual basis (B_M^t)^-1.

    Exact given the fixed-point input; when dist(y_tilde, M*) < 1/(2 ||B_M||_2)
    z gives the closest vector of M*.
    """
    if y_tilde.dim != b_m.m:
        raise ValueError("dimension mismatch between target and basis")
    y_rat = y_tilde.to_rationals()
    return tuple(round_half_away(dot(row, y_rat)) for row in b_m.rows)


_SUPPORT_CACHE: dict = {}


def _support(b_l_star: BasisMatrix, sigma: Fraction):
    """(coords, cdf, lambda_1^2) of the truncated Gaussian over the 3 sigma
    ball, memoized per (basis, sigma): repeated experiments on the same dual
    lattice would otherwise repeat the enumeration and the weights."""
    key = (b_l_star, sigma)
    entry = _SUPPORT_CACHE.get(key)
    if entry is None:
        points = lattice_points_in_ball(b_l_star, 9 * sigma * sigma)
        scale = common_denominator(b_l_star) ** 2
        sigma_f = float(sigma)
        # n / scale is the correctly rounded float of the exact squared norm
        weights = [
            math.exp(-math.pi * (n / scale) / (sigma_f * sigma_f)) for _, n in points
        ]
        total = sum(weights)
        cum = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cum.append(acc)
        entry = ([x for x, _ in points], cum, lambda1_sq_bound(b_l_star))
        _SUPPORT_CACHE[key] = entry
    return entry


def sample_dual(
    b_l_star: BasisMatrix,
    cfg: SamplerConfig,
    count: int,
    precision_bits: int = 64,
) -> List[SampleRecord]:
    """Draw `count` simulated sampler outputs near the lattice of b_l_star."""
    m = b_l_star.m
    sigma_f = float(cfg.sigma)
    support, cum, lam_sq = _support(b_l_star, cfg.sigma)
    # stay strictly inside the advertised radius so the exact coverage check
    # is immune to float rounding at the boundary
    noise_radius = 0.999 * float(sqrt_lower(lam_sq)) * float(cfg.delta)
    box = 4.0 * (3.0 * sigma_f + 1.0)

    rng = random.Random(cfg.seed)
    out = []
    for _ in range(count):
        u = rng.random()
        coords = support[_bisect(cum, u)]
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
        y = FixedPointVector.from_rationals(
            [Fraction(v) for v in value], precision_bits
        )
        out.append(SampleRecord(y, tuple(coords), failed))
    return out


def _bisect(cum, u):
    lo, hi = 0, len(cum) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def verify_sampler_contract(
    samples: Sequence[SampleRecord],
    b_l_star: BasisMatrix,
    cfg: SamplerConfig,
) -> dict:
    """Empirical check of the uniformity / concentration / coverage contracts.

    uniformity_margin is the largest empirical mass landing in any index-2
    sublattice of the dual (must stay below 1/2 + 1/4 up to Monte Carlo
    tolerance); concentration_mass is the fraction of planted points inside the
    configured radius r; coverage is the fraction of samples that really lie
    within delta*lambda_1 of their planted point.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples to verify")
    m = b_l_star.m
    lam_sq = lambda1_sq_bound(b_l_star)
    radius_sq = Fraction(cfg.delta) ** 2 * lam_sq

    covered = 0
    inside_r = 0
    r_sq = Fraction(cfg.r) ** 2
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
