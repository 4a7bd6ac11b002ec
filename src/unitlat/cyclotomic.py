"""Cyclotomic unit generators, logarithmic embeddings and period checks.

Conductor-m data is exact integer arithmetic. The transcendental part rests
on the Galois action sigma_b(1 - zeta^j) = 1 - zeta^(b j): every generator
coordinate is a signed sum of entries of one table T[r] = log|1 - zeta^r|,
r = 1..m-1, evaluated once per conductor as mpmath intervals. Each coordinate
carries a proven radius; when one is too wide for the requested precision the
whole table is rebuilt at double the working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .lattice_core import ConfigurationError, FixedPointVector, PrecisionError


def factorize(n: int) -> Dict[int, int]:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, a in factorize(n).items():
        phi *= (p - 1) * p ** (a - 1)
    return phi


@dataclass(frozen=True)
class CyclotomicField:
    """Conductor data for Q(zeta_m), m >= 3 and m != 2 mod 4."""

    m: int

    def __post_init__(self):
        if self.m < 3 or self.m % 4 == 2:
            raise ConfigurationError("conductor must be >= 3 and not 2 mod 4")

    @property
    def factorization(self) -> tuple:
        return tuple(sorted(factorize(self.m).items()))

    @property
    def cofactors(self) -> tuple:
        """m_i = m / p_i^alpha_i, ordered like factorization."""
        return tuple(self.m // p**a for p, a in self.factorization)

    @property
    def degree(self) -> int:
        return euler_phi(self.m)

    @property
    def unit_rank(self) -> int:
        return self.degree // 2 - 1

    @property
    def torsion_order(self) -> int:
        return self.m if self.m % 2 == 0 else 2 * self.m

    @property
    def embedding_representatives(self) -> tuple:
        """One representative a per pair {a, -a} in (Z/mZ)*."""
        reps = [
            a
            for a in range(1, self.m)
            if math.gcd(a, self.m) == 1 and a < self.m - a
        ]
        assert len(reps) == self.degree // 2
        return tuple(reps)


@dataclass(frozen=True)
class UnitGenerator:
    j: int
    quotient_index: int  # index into field.cofactors, -1 for the plain form
    log: FixedPointVector  # log|sigma_a(v_j)| per embedding representative


def generator_shape(field: CyclotomicField, j: int) -> Tuple[int, bool]:
    """(quotient_index, is_unit) for the generator at index j.

    quotient_index is -1 when no cofactor divides j (the plain 1 - zeta^j
    form, always a unit). The quotient form divides out 1 - zeta^(m_i); it is
    a unit exactly when zeta^j still has full p_i-power order.
    """
    m = field.m
    cofactors = field.cofactors
    facts = field.factorization
    hit = [i for i, mi in enumerate(cofactors) if j % mi == 0]
    if not hit:
        return -1, True
    assert len(hit) == 1, "two cofactors dividing j would force m | j"
    i = hit[0]
    p, a = facts[i]
    d = m // math.gcd(m, j)  # multiplicative order of zeta^j, a power of p here
    return i, d == p**a


def log_embedding(
    products: Sequence[Dict[int, int]],
    field: CyclotomicField,
    precision_bits: int = 128,
    max_bits: int = 4096,
) -> List[FixedPointVector]:
    """Log vectors of prod_t (1 - zeta_m^t)^e_t, one per exponent map, certified.

    sigma_a(1 - zeta^t) = 1 - zeta^(a t), so every coordinate is a sum of
    table entries T[r] = log|1 - zeta^r| = log(2 sin(pi r / m)), r = 1..m-1,
    evaluated once as mpmath intervals. If any coordinate interval is wider
    than 2**-precision_bits the table is rebuilt at twice the working
    precision (up to max_bits) before giving up with PrecisionError.
    """
    import mpmath
    from mpmath import iv, mp

    m = field.m
    if any(t % m == 0 for exps in products for t in exps):
        raise ConfigurationError("factor 1 - zeta^0 vanishes at every embedding")
    reps = field.embedding_representatives
    work = precision_bits + 32
    target = mpmath.mpf(2) ** (-precision_bits)
    while True:
        old = mp.prec
        try:
            mp.prec = work
            iv.prec = work
            table = [None] + [iv.log(2 * iv.sin(iv.pi * r / m)) for r in range(1, m)]
            logs = [
                [sum((e * table[a * t % m] for t, e in exps.items()), iv.mpf(0)) for a in reps]
                for exps in products
            ]
            if all(c.delta <= target for row in logs for c in row):
                scale = mpmath.mpf(2) ** precision_bits
                return [
                    FixedPointVector(
                        tuple(int(mpmath.nint(c.mid * scale)) for c in row), precision_bits
                    )
                    for row in logs
                ]
        finally:
            mp.prec = old
            iv.prec = old
        work *= 2
        if work > max_bits:
            raise PrecisionError(
                f"cancellation not resolved below {max_bits} working bits"
            )


def cyclotomic_unit_generators(
    field: CyclotomicField, precision_bits: int = 128
) -> List[UnitGenerator]:
    """The generators v_j of the cyclotomic unit lattice with their Log vectors.

    v_j is 1 - zeta^j, or (1 - zeta^j)/(1 - zeta^(m_i)) when the cofactor m_i
    divides j (1 when j = m_i). Indices whose quotient form fails to be a unit
    (zeta^j of strictly smaller prime-power order than the divided-out factor)
    are dropped: they do not lie in the unit group, so their logs would leave
    the Dirichlet hyperplane.
    """
    shapes, products = [], []
    for j in range(1, field.m):
        qi, unit = generator_shape(field, j)
        if not unit:
            continue
        exps = {j: 1}
        if qi >= 0:
            mi = field.cofactors[qi]
            exps = {} if j == mi else {j: 1, mi: -1}
        shapes.append((j, qi))
        products.append(exps)
    logs = log_embedding(products, field, precision_bits)
    return [UnitGenerator(j, qi, log) for (j, qi), log in zip(shapes, logs)]


def basis_norm_profile(field: CyclotomicField, precision_bits: int = 128) -> dict:
    """Largest generator log norm and the row-max 2-norm bound for B_M."""
    gens = cyclotomic_unit_generators(field, precision_bits)
    norms = [math.sqrt(sum(x * x for x in g.log.to_floats())) for g in gens]
    max_norm = max(norms) if norms else 0.0
    growth = max_norm / math.sqrt(field.m * math.log(field.m))
    return {
        "m": field.m,
        "max_log_norm": max_norm,
        "b_m_two_rowmax_bound": max_norm,
        "growth_ratio": growth,
        "generators": len(gens),
    }


# ---------------------------------------------------------------------------
# Alternative period function for totally real fields
# ---------------------------------------------------------------------------


def alt_period_check(
    poly_coeffs: Sequence[int],
    candidate: Sequence,
    precision_bits: int = 64,
    base_point: Sequence = None,
) -> float:
    """Residual of a candidate period of the coefficient-wrapping function.

    poly_coeffs are the integer coefficients (highest degree first) of a monic
    squarefree-discriminant polynomial with all roots real. The function maps x
    to the coefficient vectors representing w^-1(e^{x_i}) and w^-1(e^{-x_i})
    modulo Z; a candidate 2*Log(unit) vector shifts both back into Z^n, so the
    maximum distance of the shifted coefficients to the nearest integers is the
    residual (0 for a genuine period).
    """
    import mpmath
    from mpmath import mp

    old = mp.prec
    try:
        mp.prec = precision_bits + 64
        n = len(poly_coeffs) - 1
        if len(candidate) != n:
            raise ValueError("candidate dimension must match the degree")
        roots = mpmath.polyroots([mpmath.mpf(c) for c in poly_coeffs], maxsteps=200)
        tol = mpmath.mpf(2) ** (-(precision_bits // 2) - 8)
        for r in roots:
            if abs(mpmath.im(r)) > tol:
                raise ConfigurationError("polynomial has a complex root; field not totally real")
        roots = sorted(mpmath.re(r) for r in roots)
        if base_point is None:
            base_point = [mpmath.mpf(0)] * n
        x = [mpmath.mpf(b) for b in base_point]
        c = [mpmath.mpf(v) for v in candidate]

        vander = mpmath.matrix(n, n)
        for i in range(n):
            for jj in range(n):
                vander[i, jj] = roots[i] ** jj

        def coeff_vectors(point):
            pos = mpmath.lu_solve(vander, mpmath.matrix([mpmath.e**p for p in point]))
            neg = mpmath.lu_solve(vander, mpmath.matrix([mpmath.e ** (-p) for p in point]))
            return list(pos) + list(neg)

        shifted = coeff_vectors([a + b for a, b in zip(x, c)])
        base = coeff_vectors(x)
        residual = mpmath.mpf(0)
        for s, b in zip(shifted, base):
            d = s - b
            frac = abs(d - mpmath.nint(d))
            residual = max(residual, frac)
        return float(residual)
    finally:
        mp.prec = old
