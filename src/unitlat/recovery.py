"""End-to-end lattice recovery from simulated dual sampler output.

Two pipelines over the same sample stream: the sublattice-assisted route
(round every sample to the dual of a known sublattice, then HNF/SNF the exact
integer coordinates) and the baseline route (feed the raw noisy samples to the
high-precision basis reconstruction and invert). The point of keeping both is
the precision gap: the first needs only enough accuracy for Babai rounding to
land, the second needs exponentially many bits.

A problem states only its inputs: the known sublattice M, the basis of L* the
simulator samples, the sampler, the promised index bound and the precision.
What else the pipelines read of L* comes from that basis: det L = 1/|det L*|
for the sample count, 2 |det L*| as the baseline's determinant bound, and the
lambda_1(L*)^2 bracket of the sampler's own LLL (klein_basis, cached).

A cyclotomic instance has M = L, the unit log lattice cyclotomic_log_basis
builds by one route for every conductor; the sampler gets its dual with the
rows reversed, near LLL-reduced because the primal basis is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional

from .bdd_sampler import SamplerConfig, _draws, babai_round, gpv_sigma, klein_basis
from .lattice_core import (
    BasisMatrix,
    ConfigurationError,
    ContractViolationError,
    FixedPointVector,
    InsufficientSamplesError,
    PrecisionError,
    RankError,
    Record,
    op_norm_two_sq,
    sqrt_lower,
    sqrt_upper,
)
from .reduction import DEFAULT_DELTA, _lll_int, hnf, hnf_rational, snf


class RecoveryProblem(Record):
    """A hidden lattice L known through sampler access to its dual.

    b_m: basis of the known sublattice M of L (sublattice pipeline only).
    hidden_dual: basis of L* the simulator secretly samples from.
    index_bound: promised upper bound on [L : M].
    """

    b_m: BasisMatrix
    hidden_dual: BasisMatrix
    sampler: SamplerConfig
    index_bound: int
    precision_bits: int = 64

    @property
    def lambda1_sq_dual(self) -> tuple:
        """(lo, hi) with lo <= lambda_1(L*)^2 <= hi, from the sampler's LLL of
        hidden_dual. The Babai hypothesis check of __post_init__ reads hi; the
        baseline's mu, which needs lambda_1 from below, reads lo."""
        return klein_basis(self.hidden_dual).lam_sq_bracket

    def __post_init__(self):
        """The Babai hypothesis. A sample is off its point of L* by the noise,
        of norm below delta * lambda_1(L*), and by its rounding to
        2^-precision_bits, of norm at most sqrt(n) 2^-(precision_bits + 1);
        rounding against M* lands if 2 max_i ||b_i|| times their sum is below
        1, b_i the rows of B_M (op_norm_two_sq). ConfigurationError if the
        noise alone breaks that, PrecisionError if the rounding does."""
        n = self.b_m.m
        if n != self.hidden_dual.m:
            raise ConfigurationError("sublattice and dual dimension mismatch")
        twice_max_row = 2 * sqrt_upper(op_norm_two_sq(self.b_m))
        noise = Fraction(self.sampler.delta) * sqrt_upper(self.lambda1_sq_dual[1])
        if twice_max_row * noise >= 1:
            raise ConfigurationError(
                "noise radius too large for Babai rounding against M*: need "
                "delta * lambda_1(L*) < 1 / (2 max_i ||b_i||), b_i the rows of B_M"
            )
        rounding = sqrt_upper(n) * Fraction(1, 2) ** (self.precision_bits + 1)
        if twice_max_row * (noise + rounding) >= 1:
            raise PrecisionError(
                f"samples at 2^-{self.precision_bits} are too coarse for Babai rounding "
                "against M*: need delta * lambda_1(L*) + sqrt(n) 2^-(precision_bits + 1) "
                "< 1 / (2 max_i ||b_i||), b_i the rows of B_M"
            )


def compute_k(m: int, lip_log2, detl_log2) -> int:
    """Number of samples guaranteeing the drawn dual points generate L*.

    Two sufficient counts are in play — 3*(m + m*lip + log2 det L) (any
    factor above 2 would do) and m*(log2(sqrt(m)) + lip) + log2 det L — and
    they are incomparable, so the larger is used.
    """
    lip = float(lip_log2)
    det = float(detl_log2)
    k1 = math.ceil(3 * (m + m * lip + det))
    k2 = math.ceil(m * (0.5 * math.log2(m) + lip) + det)
    return max(k1, k2, m)


def _sample_count(problem: "RecoveryProblem", k: Optional[int]) -> int:
    """k, or by default compute_k from det L = 1 / |det L*|."""
    if k is not None:
        return k
    det_l = 1 / abs(problem.hidden_dual.det())
    detl_log2 = max(0.0, math.log2(float(det_l)))
    return compute_k(problem.b_m.m, 0, detl_log2)


class RecoveryResult(Record):
    """The recovered lattice L, with [L : M] and the invariant factors.

    B_L is kept packed: its integer entries row after row in one flat tuple
    over the denominator b_l_den, with b_l_det = det of those integers, and
    b_l is a BasisMatrix built from them on each access. A kept planted
    result is then about 0.4 KB; with a tuple per row it was 0.7 KB.
    """

    b_l_den: int
    b_l_entries: tuple
    b_l_det: int
    b_m: BasisMatrix  # the problem's own, shared, not a copy
    index: int
    samples_used: int
    invariant_factors: tuple
    failed_samples: int

    @classmethod
    def of(cls, b_l: BasisMatrix, b_m: BasisMatrix, index, samples_used, factors, failed):
        entries = tuple([x for row in b_l.ints for x in row])
        return cls(b_l.den, entries, b_l._det, b_m, index, samples_used, factors, failed)

    @property
    def b_l(self) -> BasisMatrix:
        m, entries = self.b_m.m, self.b_l_entries
        rows = [entries[i:i + m] for i in range(0, m * m, m)]
        return BasisMatrix._with_det(self.b_l_den, rows, self.b_l_det)

    @property
    def w_hnf(self) -> tuple:
        """The basis W of L* in M*-coordinates, a row HNF, built on each
        access and never kept: B_L = (W^t)^-1 B_M, so B_L B_M^-1 = W^-t,
        whose dual is W. Its entries have denominators dividing the index,
        so that inverse is cheap, and b_m keeps its own inverse once taken."""
        w = self.b_l.matmul(self.b_m.inverse_as_matrix()).dual()
        assert w.den == 1
        return w.ints


def recover_with_sublattice(problem: RecoveryProblem, k: int = None) -> RecoveryResult:
    """Recover L exactly from k noisy dual samples and the known sublattice M.

    Every sample is rounded to the nearest point of M*, giving exact integer
    coordinate rows; their HNF is a basis W of L* in the M*-frame, the index
    [L : M] = det W is the product of its diagonal, the SNF of W gives the
    invariant factors, and B_L = (W^t)^-1 B_M. The samples are rounded as
    they are drawn: babai_bdd's rounding of the sampler's draw stream, with no
    sample record kept.
    """
    b_m = problem.b_m
    m = b_m.m
    k = _sample_count(problem, k)
    bits = problem.precision_bits
    ints, scale = b_m.ints, b_m.den << bits
    coord_rows = []
    failed = 0
    for _, mants, bad in _draws(problem.hidden_dual, problem.sampler, k, bits):
        failed += bad
        coord_rows.append(babai_round(ints, mants, scale))

    h = hnf(coord_rows)
    if len(h) < m:
        raise InsufficientSamplesError(
            f"coordinate rows span rank {len(h)} < {m}; retry with a fresh seed"
        )
    # H is m x m upper triangular with positive pivots: det W is their product
    index = math.prod(h[i][i] for i in range(m))
    w = BasisMatrix._with_det(1, h, index)
    factors = tuple(snf(h))
    assert math.prod(factors) == index
    if index > problem.index_bound:
        raise ContractViolationError(
            f"recovered index {index} exceeds the bound {problem.index_bound}: "
            "the index bound does not hold, or the samples span a proper "
            "sublattice of L*; retry with a larger --k or a fresh seed"
        )
    # L* = W . M* in coordinates, so B_L* = W B_M* and B_L = (W^t)^-1 B_M
    b_l = w.dual().matmul(b_m)
    return RecoveryResult.of(b_l, b_m, index, k, factors, failed)


def recover_with_retries(problem: RecoveryProblem, k: int = None) -> RecoveryResult:
    """recover_with_sublattice, reseeding the sampler on rank failures, three
    attempts in all. The first attempt runs on the problem itself; only a
    retry builds a reseeded copy, which is validated again."""
    last = None
    for attempt in range(3):
        trial = problem
        if attempt:
            cfg = problem.sampler.replace(seed=problem.sampler.seed + 1009 * attempt)
            trial = problem.replace(sampler=cfg)
        try:
            return recover_with_sublattice(trial, k=k)
        except InsufficientSamplesError as exc:
            last = exc
    raise last


class BaselineResult(Record):
    feasible: bool
    required_q: int
    b_l_approx: Optional[tuple]  # rows of the approximate basis of L
    precision_achieved: Optional[int]
    samples_used: int
    input_bits: int  # bits of the samples above noise and quantisation


TAU_LOG2 = 20  # target output precision of the baseline, in bits


def recover_baseline(problem: RecoveryProblem, k: int = None) -> BaselineResult:
    """Approximate L from raw samples: reconstruct a basis of L*, invert it.

    No rounding against M* — the reconstruction must separate lattice from
    noise on its own, which is what drives the precision requirement q. A
    sample is off its lattice point by the sampler noise, of norm below
    delta * lambda_1(L*), plus the 2^-precision_bits quantisation, so it
    carries floor(-log2(delta * sqrt(hi) + 2^-precision_bits)) bits, hi the
    upper end of lambda1_sq_dual. When those bits cannot meet q the result is
    an infeasibility report carrying the required q, and no sample is drawn.
    The reconstruction's determinant bound is 2 |det L*|.
    """
    from .buchmann_pohst import BPParams, bp_reduce, ceil_log2

    m = problem.b_m.m
    k = _sample_count(problem, k)
    bits = problem.precision_bits
    lo, hi = problem.lambda1_sq_dual
    params = BPParams(mu=sqrt_lower(lo), D=2 * abs(problem.hidden_dual.det()))
    derived = params.derive(m, k)
    noise = problem.sampler.delta * sqrt_upper(hi)
    input_bits = -ceil_log2(noise + Fraction(1, 2**bits))
    if input_bits < derived.q:
        return BaselineResult(False, derived.q, None, None, k, input_bits)

    draws = _draws(problem.hidden_dual, problem.sampler, k, bits)
    gens = [FixedPointVector(mants, bits) for _, mants, _ in draws]
    # the working scale: at least the derived q, pushed up to the target
    # output precision
    result = bp_reduce(
        gens,
        params,
        input_precision_bits=input_bits,
        q_bits=max(derived.q, TAU_LOG2),
    )
    b_l_star = BasisMatrix(
        [[Fraction(e.a) for e in row] for row in result.basis_approx]
    )
    b_l = b_l_star.dual()
    return BaselineResult(
        True,
        derived.q,
        tuple(tuple(row) for row in b_l.rows),
        result.q,
        k,
        input_bits,
    )


def lattices_equal(a: BasisMatrix, b: BasisMatrix) -> bool:
    """Exact equality of the generated lattices via canonical rational HNF."""
    return hnf_rational(a.rows) == hnf_rational(b.rows)


# ---------------------------------------------------------------------------
# Cyclotomic instances
# ---------------------------------------------------------------------------


def _distribution_relations(m: int, p: int) -> list:
    """The relations prod_j (1 - zeta^(t + j m/p)) = 1 - zeta^(p t), p | m and
    p t != 0 mod m, as integer rows over the exponents t = 1..m//2, each t
    folded to min(t, m - t): 1 - zeta^-t = -zeta^-t (1 - zeta^t)."""
    rows = []
    for t in range(1, m // 2 + 1):
        if p * t % m:
            row = [0] * (m // 2 + 1)
            for s in range(t, t + m, m // p):
                row[min(s % m, -s % m)] += 1
            row[min(p * t % m, -p * t % m)] -= 1
            rows.append(row[1:])
    return rows


def cyclotomic_log_basis(m: int, precision_bits: int = 128) -> BasisMatrix:
    """Basis of the (projected) cyclotomic-unit log lattice of conductor m.

    The logs lie on the coordinate-sum-zero hyperplane, so dropping the last
    coordinate is injective. One route for every conductor. G is the units
    v_j of cyclotomic_unit_generators with 2 j <= m, one per pair {j, m - j}
    (v_(m-j) = -zeta^-j v_j has v_j's log row), as exponent vectors over
    t = 1..m//2. C holds exact integer coordinates of a unit basis in G.
    One integer LLL of the log rows of C G gives a transform U, unimodular
    however the logs were rounded, and row i is the log of the unit
    (U C G)_i, certified by log_embedding to 2^-precision_bits however
    large the exponents.
    - prime power: G is the orbit xi_a = (1 - zeta^a)/(1 - zeta), a basis
      (Washington, Introduction to Cyclotomic Fields, Lemma 8.1, Thm 8.2),
      so C = I.
    - otherwise G has more than rank members. The distribution relations,
      with evenness, span every multiplicative relation among the
      1 - zeta^t over Q (Bass, Nagoya Math. J. 27, 1966; Ennola, J. Number
      Theory 4, 1972: the ones they miss are 2-torsion). So with Y the
      integer vectors orthogonal to the relation rows, the relations among
      G are exactly the kernel of g -> g Y^t, and C is the I part of the
      rows of hnf([G Y^t | I]) whose G Y^t part is nonzero. There must be
      rank of them; otherwise a relation is missing, and RankError says so.
    """
    from .cyclotomic import CyclotomicField, generator_exponents, generator_shape, log_embedding

    field = CyclotomicField(m)
    rank, h = field.unit_rank, m // 2
    if rank == 0:
        raise ConfigurationError(f"conductor {m} has unit rank 0")
    shapes = [(j, *generator_shape(field, j)) for j in range(1, h + 1)]
    maps = [generator_exponents(field, j, qi) for j, qi, unit in shapes if unit]
    gens = [[g.get(t, 0) for t in range(1, h + 1)] for g in maps if g]

    def combine(coords, vecs):  # the exponent vectors of the units coords . vecs
        return [[sum(map(mul, row, col)) for col in zip(*vecs)] for row in coords]

    def augment(rows):  # [rows | I]
        return [list(r) + [int(i == j) for j in range(len(rows))] for i, r in enumerate(rows)]

    if len(gens) > rank:
        rel = [r for p, _ in field.factorization for r in _distribution_relations(m, p)]
        y = [r[len(rel):] for r in hnf(augment(list(zip(*rel)))) if not any(r[:len(rel)])]
        phi = [[sum(map(mul, g, v)) for v in y] for g in gens]
        coords = [r[len(y):] for r in hnf(augment(phi)) if any(r[:len(y)])]
        if len(coords) != rank:
            raise RankError(f"the relations leave rank {len(coords)} of unit rank {rank}")
        gens = combine(coords, gens)

    def logs(vecs):  # certified logs of the units with these exponent vectors
        return log_embedding([dict(enumerate(v, 1)) for v in vecs], field, precision_bits)

    rows = [log.mantissas[:rank] for log in logs(gens)]
    if not all(map(any, rows)):
        raise PrecisionError(f"generator logs vanish at {precision_bits} bits")
    coords = _lll_int(rows, DEFAULT_DELTA)[1]
    return BasisMatrix([log.to_rationals()[:rank] for log in logs(combine(coords, gens))])


def build_cyclotomic_problem(m: int, precision_bits: int = 128, seed: int = 0) -> RecoveryProblem:
    """Recovery instance with M = L = the conductor-m log lattice (class-like
    index 1), sampled through its dual."""
    b_m = cyclotomic_log_basis(m, precision_bits)
    # the dual rows last first: b_m is LLL-reduced, and the reversed dual of
    # a reduced basis is close to reduced, which the sampler's LLL is spared
    d, n = b_m.dual(), b_m.m
    b_dual = BasisMatrix._with_det(d.den, d.ints[::-1], d._det * (-1) ** (n * (n - 1) // 2))
    lam_up = sqrt_upper(klein_basis(b_dual).lam_sq_bracket[1])
    # 2 lambda_1, raised to the width the nearest-plane sampler needs
    sigma = max(2 * lam_up, gpv_sigma(b_dual))
    return _problem(b_m, b_dual, lam_up, sigma, 1, precision_bits, seed)


def make_planted_problem(dim: int, index: int = 1, seed: int = 0) -> RecoveryProblem:
    """Planted instance: hidden L = Z^dim, known M a random sublattice of the
    requested index, sampler bound to L* = Z^dim."""
    import random

    if dim < 1 or index < 1:
        raise ConfigurationError("dim and index must be positive")
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rows[dim - 1][dim - 1] = index
    for _ in range(3 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    # adding a multiple of one row to another keeps det = index
    b_m = BasisMatrix._with_det(1, rows, index)
    # Z^dim is self-dual, and lambda_1(L*) = 1
    return _problem(b_m, BasisMatrix.identity(dim), 1, Fraction(6, 5), index, 64, seed)


def _problem(b_m, dual, lam_up, sigma, index_bound, precision_bits, seed) -> RecoveryProblem:
    """The problem of M = b_m and L* = dual, lam_up >= lambda_1(L*), whose
    noise radius delta is half of what the Babai hypothesis allows."""
    delta = min(Fraction(1, 4), 1 / (4 * sqrt_upper(op_norm_two_sq(b_m)) * lam_up))
    cfg = SamplerConfig(delta=delta, eta=0, sigma=sigma, seed=seed)
    return RecoveryProblem(b_m, dual, cfg, index_bound, precision_bits)


def regulator_from_basis(b_l: BasisMatrix) -> float:
    """|det| of a recovered log-lattice basis (the real-subfield regulator)."""
    return abs(float(b_l.det()))
