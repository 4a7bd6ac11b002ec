"""Recovery of an exact lattice basis from noisy real (or complex) generators.

The embedded matrix stacks the scaled-and-rounded generators on top of an
identity block and is LLL-reduced over the coefficient ring; rows whose
generator block collapses are exact integer relations, the remaining rows
carry the basis. All derived bounds are computed with outward rational
rounding so the precision requirement q is sound.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .lattice_core import (
    ConfigurationError,
    FixedPointVector,
    PrecisionError,
    RankError,
    Record,
    nth_root_upper,
    sqrt_upper,
)
from .reduction import DEFAULT_DELTA, lll_reduce_rows
from .rings import INTEGERS, RingDescriptor, RingElement, hnorm_sq


def hermite_constant_upper(m: int) -> Fraction:
    """Sound upper bound on the Hermite constant gamma_m."""
    return Fraction(1) if m == 1 else Fraction(2 * m, 3)


def ceil_log2(x: Fraction) -> int:
    """Smallest integer q with 2**q >= x, exact."""
    if x <= 0:
        raise ValueError("ceil_log2 of nonpositive value")
    n, d = x.numerator, x.denominator
    q = n.bit_length() - d.bit_length()
    while Fraction(2) ** q < x:
        q += 1
    while q > 0 and Fraction(2) ** (q - 1) >= x:
        q -= 1
    return q


class BPParams(Record):
    """Problem bounds lambda_1(L) >= mu and det L <= D over ring (c_K at DEFAULT_DELTA)."""

    mu: Fraction
    D: Fraction
    ring: RingDescriptor = INTEGERS

    def __post_init__(self):
        object.__setattr__(self, "mu", Fraction(self.mu))
        object.__setattr__(self, "D", Fraction(self.D))
        if self.mu <= 0 or self.D <= 0:
            raise ValueError("mu and D must be positive")

    @property
    def c_k(self) -> Fraction:
        return 1 / (DEFAULT_DELTA - self.ring.euclidean_minimum)

    def derive(self, m: int, k: int) -> "DerivedBounds":
        b = self.c_k**m * nth_root_upper(self.D, m)
        c = (b / self.mu) ** m * sqrt_upper(hermite_constant_upper(m))
        m_tilde = (Fraction(k) * sqrt_upper(Fraction(m)) / 2 + sqrt_upper(Fraction(k))) * c
        q = ceil_log2(
            (sqrt_upper(Fraction(m * k)) + 2)
            * m_tilde
            * sqrt_upper(Fraction(2) ** (k - 1))
            / self.mu
        )
        return DerivedBounds(m_tilde, max(q, 1))


class DerivedBounds(Record):
    m_tilde: Fraction
    q: int


class BPResult(Record):
    """Output of bp_reduce: approximate basis plus exact relation data."""

    basis_approx: tuple  # m rows of RingElement entries, values scaled back by 2^-q
    basis_coords: tuple  # m rows of exact ring coordinates w.r.t. the generators
    relations: tuple  # (k - m) rows of exact ring relation coordinates
    relation_top_norms_sq: tuple
    basis_top_norms_sq: tuple
    q: int
    m: int
    k: int
    m_tilde: Fraction
    ring: RingDescriptor

    @property
    def threshold_sq(self) -> Fraction:
        return Fraction(2) ** (self.k - 1) * self.m_tilde**2


def _round_scaled(x: RingElement, q: int) -> RingElement:
    scaled = RingElement(x.a * 2**q, x.b * 2**q, x.kind)
    return scaled.round()


def bp_reduce(
    gens: Sequence,
    params: BPParams,
    input_precision_bits: int = None,
    q_bits: int = None,
) -> BPResult:
    """Recover an exact basis of the lattice generated by noisy generators.

    gens: k vectors of dimension m; FixedPointVector rows for lattices over Z,
    rows of RingElement for O_K-module instances. Their ring must be
    params.ring, which sets the bounds' c_K (ConfigurationError otherwise); the
    LLL reads it off the rows. input_precision_bits defaults
    to the fixed-point exponent and must be at least the derived q. q_bits asks
    for a working scale larger than the derived minimum (keeps more of the
    input precision in the output basis).
    """
    ring = params.ring
    k = len(gens)
    if k == 0:
        raise ValueError("no generators")
    if isinstance(gens[0], FixedPointVector):
        if input_precision_bits is None:
            input_precision_bits = min(g.exponent for g in gens)
        rows_val = [[RingElement(x) for x in g.to_rationals()] for g in gens]
    else:
        rows_val = [list(g) for g in gens]
        if input_precision_bits is None:
            raise ValueError("ring-element generators need input_precision_bits")
    if {e.kind for g in rows_val for e in g} != {ring.kind}:
        raise ConfigurationError(f"generators do not match params.ring {ring.kind!r}")
    m = len(rows_val[0])
    if any(len(g) != m for g in rows_val):
        raise ConfigurationError("generators differ in dimension")
    if k < m:
        raise RankError(f"need at least m={m} generators, got {k}")

    derived = params.derive(m, k)
    q = derived.q if q_bits is None else max(derived.q, q_bits)
    if input_precision_bits < derived.q:
        raise PrecisionError(
            f"input precision {input_precision_bits} bits < required q = {derived.q}"
        )

    one = RingElement(1, 0, ring.kind)
    zero = RingElement(0, 0, ring.kind)
    rows = []
    for j, g in enumerate(rows_val):
        top = [_round_scaled(x, q) for x in g]
        bottom = [one if i == j else zero for i in range(k)]
        rows.append(top + bottom)

    reduced, _ = lll_reduce_rows(rows)

    tops = [row[:m] for row in reduced]
    bottoms = [row[m:] for row in reduced]
    top_norms = [hnorm_sq(t) for t in tops]
    n_rel = k - m
    scale = Fraction(1, 2**q)
    basis_approx = tuple(
        tuple(RingElement(e.a * scale, e.b * scale, e.kind) for e in tops[j])
        for j in range(n_rel, k)
    )
    result = BPResult(
        basis_approx=basis_approx,
        basis_coords=tuple(tuple(bottoms[j]) for j in range(n_rel, k)),
        relations=tuple(tuple(bottoms[j]) for j in range(n_rel)),
        relation_top_norms_sq=tuple(top_norms[:n_rel]),
        basis_top_norms_sq=tuple(top_norms[n_rel:]),
        q=q,
        m=m,
        k=k,
        m_tilde=derived.m_tilde,
        ring=ring,
    )
    thr_sq = result.threshold_sq
    if any(n <= thr_sq for n in result.basis_top_norms_sq):
        raise RankError(
            "more than k - m short columns: generators rank deficient "
            "or precision bound violated"
        )
    return result


def relation_norm_check(result: BPResult) -> bool:
    """True iff relation rows obey the norm bound and basis rows exceed it."""
    thr = result.threshold_sq
    return all(n <= thr for n in result.relation_top_norms_sq) and all(
        n > thr for n in result.basis_top_norms_sq
    )
