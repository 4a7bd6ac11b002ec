"""End-to-end lattice recovery from simulated dual sampler output.

Two pipelines over the same sample stream: the sublattice-assisted route
(round every sample to the dual of a known sublattice, then HNF/SNF the exact
integer coordinates) and the baseline route (feed the raw noisy samples to the
high-precision basis reconstruction and invert). The point of keeping both is
the precision gap: the first needs only enough accuracy for Babai rounding to
land, the second needs exponentially many bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .bdd_sampler import (
    ConfigurationError,
    SampleRecord,
    SamplerConfig,
    babai_bdd,
    lambda1_sq_bound,
    sample_dual,
)
from .buchmann_pohst import BPParams, BPRankError, bp_reduce
from .lattice_core import (
    BasisMatrix,
    FixedPointVector,
    dual_basis,
    op_norm,
    op_norm_two_sq,
    sqrt_upper,
)
from .reduction import hnf, hnf_rational, snf


class InsufficientSamplesError(RuntimeError):
    """The drawn coordinate rows do not span a rank-m lattice; retry with a
    fresh seed."""


class ContractViolationError(RuntimeError):
    """Recovered index exceeds the promised bound."""


@dataclass(frozen=True)
class RecoveryProblem:
    """A hidden lattice L known through sampler access to its dual.

    b_m: basis of the known sublattice M of L (sublattice pipeline only).
    hidden_dual: basis of L* the simulator secretly samples from.
    index_bound: promised upper bound on [L : M].
    det_l_bound: upper bound on det L (sample-count formula).
    lambda1_dual_bound: bound on lambda_1(L*); consumed by the Babai
    hypothesis check delta * lambda_1(L*) < 1 / (2 ||B_M||_2).
    dual_det_bound: upper bound on det L* (baseline pipeline only).
    tau_log2: target output precision of the baseline, in bits.
    """

    b_m: BasisMatrix
    hidden_dual: BasisMatrix
    sampler: SamplerConfig
    index_bound: int
    det_l_bound: Fraction
    lambda1_dual_bound: Fraction
    dual_det_bound: Optional[Fraction] = None
    tau_log2: int = 20
    precision_bits: int = 64

    def __post_init__(self):
        if self.b_m.m != self.hidden_dual.m:
            raise ConfigurationError("sublattice and dual dimension mismatch")
        bm_two = sqrt_upper(op_norm_two_sq(self.b_m))
        if Fraction(self.sampler.delta) * Fraction(self.lambda1_dual_bound) * 2 * bm_two >= 1:
            raise ConfigurationError(
                "noise radius too large for Babai rounding against M*: need "
                "delta * lambda_1(L*) < 1 / (2 ||B_M||_2)"
            )


def compute_k(m: int, lip_log2, detl_log2, alpha: int = 3) -> int:
    """Number of samples guaranteeing the drawn dual points generate L*.

    Two sufficient counts are in play — alpha*(m + m*lip + log2 det L) and
    m*(log2(sqrt(m)) + lip) + log2 det L — and they are incomparable, so the
    larger is used.
    """
    if alpha <= 2:
        raise ConfigurationError("alpha must exceed 2")
    lip = float(lip_log2)
    det = float(detl_log2)
    k1 = math.ceil(alpha * (m + m * lip + det))
    k2 = math.ceil(m * (0.5 * math.log2(m) + lip) + det)
    return max(k1, k2, m)


def _sample_count(problem: "RecoveryProblem", k: Optional[int]) -> int:
    """k, or by default compute_k from the problem's det L bound."""
    if k is not None:
        return k
    detl_log2 = max(0.0, math.log2(float(problem.det_l_bound)))
    return compute_k(problem.b_m.m, 0, detl_log2)


def _draw(problem: "RecoveryProblem", k: Optional[int], samples) -> Sequence:
    """The given samples, or _sample_count(problem, k) fresh sampler draws."""
    if samples is None:
        count = _sample_count(problem, k)
        samples = sample_dual(problem.hidden_dual, problem.sampler, count, problem.precision_bits)
    return samples


@dataclass(frozen=True)
class RecoveryResult:
    b_l: BasisMatrix
    index: int
    samples_used: int
    invariant_factors: tuple
    w_hnf: tuple  # basis of L* in M*-coordinates, row HNF
    failed_samples: int


def recover_with_sublattice(
    problem: RecoveryProblem, k: int = None, samples: Sequence[SampleRecord] = None
) -> RecoveryResult:
    """Recover L exactly from k noisy dual samples and the known sublattice M.

    Every sample is rounded to the nearest point of M*, giving exact integer
    coordinate rows; their HNF is a basis W of L* in the M*-frame, the SNF of W
    yields the index, and B_L = (W^t)^-1 B_M.
    """
    m = problem.b_m.m
    samples = _draw(problem, k, samples)
    k = len(samples)

    coord_rows = []
    failed = 0
    for s in samples:
        if s.failed:
            failed += 1
        coord_rows.append(list(babai_bdd(s.y_tilde, problem.b_m)))

    h, _ = hnf(coord_rows)
    if len(h) < m:
        raise InsufficientSamplesError(
            f"coordinate rows span rank {len(h)} < {m}; retry with a fresh seed"
        )
    w = BasisMatrix([[Fraction(x) for x in row] for row in h])
    s_diag, _, _ = snf(h)
    factors = tuple(s_diag[i][i] for i in range(m))
    index = 1
    for f in factors:
        index *= f
    assert index == abs(int(w.det()))
    if index > problem.index_bound:
        raise ContractViolationError(
            f"recovered index {index} exceeds the bound {problem.index_bound}"
        )
    # L* = W . M* in coordinates, so B_L* = W B_M* and B_L = (W^t)^-1 B_M
    b_l = w.dual().matmul(problem.b_m)
    return RecoveryResult(b_l, index, k, factors, tuple(map(tuple, h)), failed)


def recover_with_retries(
    problem: RecoveryProblem, k: int = None, attempts: int = 3
) -> RecoveryResult:
    """recover_with_sublattice, reseeding the sampler on rank failures."""
    import dataclasses

    last = None
    for attempt in range(attempts):
        cfg = dataclasses.replace(
            problem.sampler, seed=problem.sampler.seed + 1009 * attempt
        )
        prob = dataclasses.replace(problem, sampler=cfg)
        try:
            return recover_with_sublattice(prob, k=k)
        except InsufficientSamplesError as exc:
            last = exc
    raise last


@dataclass(frozen=True)
class BaselineResult:
    feasible: bool
    required_q: int
    b_l_approx: Optional[tuple]  # rows of the approximate basis of L
    b_l_star_fixed: Optional[list]  # FixedPointVector rows for L*
    precision_achieved: Optional[int]
    samples_used: int


def recover_baseline(
    problem: RecoveryProblem, k: int = None, samples: Sequence[SampleRecord] = None
) -> BaselineResult:
    """Approximate L from raw samples: reconstruct a basis of L*, invert it.

    No rounding against M* — the reconstruction must separate lattice from
    noise on its own, which is what drives the precision requirement q. When
    the configured mantissa width cannot meet q the result is an infeasibility
    report carrying the required q.
    """
    if problem.dual_det_bound is None:
        raise ConfigurationError("baseline needs an upper bound on det L*")
    m = problem.b_m.m
    samples = _draw(problem, k, samples)
    k = len(samples)

    params = BPParams(mu=problem.lambda1_dual_bound, D=problem.dual_det_bound)
    derived = params.derive(m, k)
    if problem.precision_bits < derived.q:
        return BaselineResult(False, derived.q, None, None, None, k)

    gens = [s.y_tilde for s in samples]
    # the working scale: at least the derived q, pushed up to the target
    # output precision; the sampler noise has to sit below 2^-q for the
    # relation/basis separation to hold
    result = bp_reduce(
        gens, params, q_bits=max(derived.q, problem.tau_log2)
    )
    b_l_star = BasisMatrix(
        [[Fraction(e.a) for e in row] for row in result.basis_approx]
    )
    b_l = b_l_star.dual()
    return BaselineResult(
        True,
        derived.q,
        tuple(tuple(row) for row in b_l.rows),
        result.basis_fixed_point(),
        result.q,
        k,
    )


def precision_gap_report(problem: RecoveryProblem, k: int = None) -> dict:
    """Bits of sampler precision each pipeline demands, and their ratio.

    Baseline: the admissible noise radius is
    (lambda_1*)^3 / (det L * 2^(mk) * ||B_L*||_inf^m) (growth constant 1).
    Sublattice: the admissible radius is 1 / (2 ||B_M||_2).
    """
    m = problem.b_m.m
    k = _sample_count(problem, k)
    lam = float(problem.lambda1_dual_bound)
    det_l = float(problem.det_l_bound)
    b_dual_inf = float(op_norm(problem.hidden_dual, "inf_one"))
    q_baseline = math.ceil(
        m * k
        + m * math.log2(max(b_dual_inf, 1e-300))
        + math.log2(max(det_l, 1e-300))
        - 3 * math.log2(max(lam, 1e-300))
    )
    bm_two = float(sqrt_upper(op_norm_two_sq(problem.b_m)))
    q_sublattice = math.ceil(1 + math.log2(max(bm_two, 1e-300)))
    q_baseline = max(q_baseline, 1)
    q_sublattice = max(q_sublattice, 1)
    return {
        "k": k,
        "q_baseline": q_baseline,
        "q_sublattice": q_sublattice,
        "ratio": q_baseline / q_sublattice,
        "growth_constant": 1,
    }


def lattices_equal(a: BasisMatrix, b: BasisMatrix) -> bool:
    """Exact equality of the generated lattices via canonical rational HNF."""
    return hnf_rational(a.rows) == hnf_rational(b.rows)


# ---------------------------------------------------------------------------
# Cyclotomic instances
# ---------------------------------------------------------------------------


def cyclotomic_log_basis(m: int, precision_bits: int = 128) -> BasisMatrix:
    """Basis of the (projected) cyclotomic-unit log lattice of conductor m.

    The generator log vectors live on the hyperplane of coordinate-sum zero,
    so dropping the last coordinate is injective; the resulting fixed-point
    generators are fed to the exact basis reconstruction. Scale-specific
    bounds: unit-lattice minima are bounded below by a constant and the
    covolume by the generator norms.
    """
    from .cyclotomic import CyclotomicField, cyclotomic_unit_generators

    field = CyclotomicField(m)
    rank = field.unit_rank
    if rank == 0:
        raise ConfigurationError(f"conductor {m} has unit rank 0")
    gens = cyclotomic_unit_generators(field, precision_bits)
    rows = []
    for g in gens:
        mants = g.log.mantissas[:rank]
        if any(mants):
            rows.append(FixedPointVector(mants, precision_bits))
    if len(rows) < rank:
        raise InsufficientSamplesError("not enough independent log generators")
    det_bound = Fraction(1)
    for r in rows[:rank]:
        det_bound *= sqrt_upper(
            sum(Fraction(x) ** 2 for x in r.to_rationals()) + 1
        )
    params = BPParams(mu=Fraction(1, 8), D=max(det_bound, 1))
    result = bp_reduce(rows, params, q_bits=precision_bits)
    return BasisMatrix([[e.a for e in row] for row in result.basis_approx])


def build_cyclotomic_problem(
    m: int,
    precision_bits: int = 128,
    seed: int = 0,
    delta: Fraction = None,
    eta: Fraction = Fraction(0),
) -> RecoveryProblem:
    """Recovery instance with M = L = the conductor-m log lattice (class-like
    index 1), sampled through its dual."""
    b_m = cyclotomic_log_basis(m, precision_bits)
    b_dual = dual_basis(b_m)
    lam_sq = lambda1_sq_bound(b_dual)
    lam_up = sqrt_upper(lam_sq)
    bm_two = sqrt_upper(op_norm_two_sq(b_m))
    if delta is None:
        # half of what the Babai hypothesis allows
        delta = min(Fraction(1, 4), 1 / (4 * bm_two * lam_up))
    cfg = SamplerConfig(
        delta=delta, r=3 * sqrt_upper(lam_sq) * 3, eta=eta, sigma=2 * lam_up, seed=seed
    )
    det_l = abs(b_m.det())
    return RecoveryProblem(
        b_m=b_m,
        hidden_dual=b_dual,
        sampler=cfg,
        index_bound=1,
        det_l_bound=det_l,
        lambda1_dual_bound=lam_up,
        dual_det_bound=abs(b_dual.det()) * 2,
        precision_bits=precision_bits,
    )


def make_planted_problem(
    dim: int,
    index: int = 1,
    seed: int = 0,
    eta: Fraction = Fraction(0),
    sigma: Fraction = Fraction(6, 5),
) -> RecoveryProblem:
    """Planted instance: hidden L = Z^dim, known M a random sublattice of the
    requested index, sampler bound to L* = Z^dim."""
    import random

    if dim < 1 or index < 1:
        raise ConfigurationError("dim and index must be positive")
    rng = random.Random(seed)
    rows = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    rows[dim - 1][dim - 1] = Fraction(index)
    for _ in range(3 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    b_m = BasisMatrix(rows)
    b_l = BasisMatrix.identity(dim)
    bm_two = sqrt_upper(op_norm_two_sq(b_m))
    delta = min(Fraction(1, 4), 1 / (4 * bm_two))  # lambda_1(L*) = 1 here
    cfg = SamplerConfig(
        delta=delta, r=3 * Fraction(sigma) + 1, eta=eta, sigma=sigma, seed=seed
    )
    return RecoveryProblem(
        b_m=b_m,
        hidden_dual=b_l,  # Z^dim is self-dual
        sampler=cfg,
        index_bound=index,
        det_l_bound=Fraction(1),
        lambda1_dual_bound=Fraction(1),
        dual_det_bound=Fraction(2),
        precision_bits=64,
    )


def regulator_from_basis(b_l: BasisMatrix) -> float:
    """|det| of a recovered log-lattice basis (the real-subfield regulator)."""
    return abs(float(b_l.det()))
