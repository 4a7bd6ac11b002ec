"""Cyclotomic unit generators, logarithmic embeddings and period checks.

Conductor-m data is exact integer arithmetic, and so are the logs. They rest
on the Galois action sigma_b(1 - zeta^j) = 1 - zeta^(b j): every generator
coordinate is a signed sum of entries of one table T[r] = log|1 - zeta^r| =
log(2 sin(pi r / m)), r = 1..m-1, evaluated once per conductor in integer
fixed point (pi by Machin's formula, sin by Taylor, log through atanh) with a
proven radius. Each coordinate carries the summed radius; when one is too
wide for the requested precision the whole table is rebuilt at double the
working precision. Units are exponent maps {t: e_t} for
prod_t (1 - zeta^t)^e_t; recovery.cyclotomic_log_basis turns a generating
set of them into a unit basis. Only alt_period_check imports mpmath.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .lattice_core import ConfigurationError, FixedPointVector, PrecisionError, Record


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


class CyclotomicField(Record):
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
    def embedding_representatives(self) -> tuple:
        """One representative a per pair {a, -a} in (Z/mZ)*."""
        reps = [
            a
            for a in range(1, self.m)
            if math.gcd(a, self.m) == 1 and a < self.m - a
        ]
        assert len(reps) == self.degree // 2
        return tuple(reps)


class UnitGenerator(Record):
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


def generator_exponents(field: CyclotomicField, j: int, quotient_index: int) -> Dict[int, int]:
    """The exponents {t: e_t} of v_j = prod_t (1 - zeta^t)^e_t: {j: 1} for the
    plain form, {j: 1, m_i: -1} for the quotient form, {} when j = m_i."""
    if quotient_index < 0:
        return {j: 1}
    mi = field.cofactors[quotient_index]
    return {} if j == mi else {j: 1, mi: -1}


# Bits carried below the table's working precision; they absorb the series'
# truncation errors so that every entry rounds to within one ulp.
GUARD_BITS = 32
# log_embedding's largest working precision before it gives up
MAX_WORK_BITS = 4096


def _atan_inv(n: int, prec: int) -> int:
    """atan(1/n) * 2^prec for n >= 5, to within 3k + 2 ulps with k terms.

    Floor division makes each power 2^prec / n^(2k+1) err by < 25/24 and each
    term by < 2.1; the loop ends at the first power that floors to 0, so the
    alternating tail is below 25/24 too.
    """
    t, n2 = (1 << prec) // n, n * n
    total = k = 0
    while t:
        term = t // (2 * k + 1)
        total += -term if k & 1 else term
        t //= n2
        k += 1
    return total


def _pi(prec: int) -> int:
    """pi * 2^prec to within 1/2 + 2^-16 ulps.

    Machin's 16 atan(1/5) - 4 atan(1/239) at prec + g bits takes fewer than
    (prec + g) / 4.6 + 1 and (prec + g) / 15.8 + 1 terms, so it errs by less
    than 12 (prec + g) + 84 ulps, which g = 32 + bit_length(prec) keeps below
    2^(g - 16); rounding off the g bits leaves 1/2 + 2^-16.
    """
    g = 32 + prec.bit_length()
    return (16 * _atan_inv(5, prec + g) - 4 * _atan_inv(239, prec + g) + (1 << (g - 1))) >> g


def _atanh(z: int, prec: int) -> Tuple[int, int]:
    """atanh(z 2^-prec) * 2^prec for 0 <= z <= 2^prec / 3, z taken as exact,
    and a bound on its error in ulps.

    z^2 is floored once, so each power z^j errs by < 1.5 (z^2 <= 1/9 shrinks
    the inherited error) and each term z^j / j by < 2.5; the tail after the
    first power that floors to 0 is below 1.5 * 9/8. With k terms the error
    is < 3k + 2.
    """
    z2 = z * z >> prec
    total, j = 0, 1
    while z:
        total += z // j
        z = z * z2 >> prec
        j += 2
    return total, 3 * (j // 2) + 2


def _log_sine(r: int, m: int, prec: int, pi: int, log2: Tuple[int, int]) -> Tuple[int, int]:
    """log(2 sin(pi r / m)) * 2^prec for 1 <= r <= m/2, and its error in ulps.

    pi is _pi(prec), log2 = (log 2 * 2^prec, its error). The error budget:
    - x = pi r / m errs by < (1/2 + 2^-16) / 2 + 1 < 1.3 ulps.
    - sin x by Taylor, terms x^n / n! floored: x^2 / ((n+1)(n+2)) < 0.42
      keeps every term's error < 2.2, and the alternating tail after the
      first term that floors to 0 is < 2.2 too; sin is 1-Lipschitz in x, so
      with k terms sin errs by < 3k + 4.
    - y = 2 sin x = 2^e u with u in [1, 2): u errs by the error of y times
      2^-e, plus 2 for the two floors of a right shift (e > 0).
    - log u = 2 atanh((u - 1)/(u + 1)): the floored quotient adds < 9/8 to
      atanh, and log is 2-Lipschitz on the u interval (u >= 1/2 as
      y >= 4 e_y).
    So the result e log 2 + log u errs by < |e| e_log2 + 2 e_atanh + 3 + 2 e_u.
    """
    one = 1 << prec
    x = pi * r // m
    x2 = x * x >> prec
    t, s, n = x, 0, 1
    while t:
        s += t
        t = -(t * x2 // (((n + 1) * (n + 2)) << prec))
        n += 2
    y, err_y = 2 * s, 2 * (3 * (n // 2) + 4)
    assert y >= 4 * err_y, "2 sin(pi / m) is below the working precision"
    e = y.bit_length() - 1 - prec
    if e >= 0:
        u, err_u = y >> e, (err_y >> e) + 2
    else:
        u, err_u = y << -e, err_y << -e
    a, err_a = _atanh(((u - one) << prec) // (u + one), prec)
    return e * log2[0] + 2 * a, abs(e) * log2[1] + 2 * err_a + 3 + 2 * err_u


def _log_sine_table(m: int, work: int) -> Tuple[List[int], int]:
    """Centres c[r] and one radius rad with |T[r] 2^work - c[r]| <= rad, where
    T[r] = log(2 sin(pi r / m)) = log|1 - zeta_m^r|, r = 1..m-1 (c[0] is unused).

    Every entry is evaluated at P = work + GUARD_BITS bits by _log_sine, whose
    tracked error E is below 8 m P ulps (its terms shrink geometrically, so
    there are fewer than P of each; 2^-e <= m / 2 since 2 sin(pi / m) >= 4 / m)
    and rounded to nearest, so it is within 1/2 + E 2^-GUARD_BITS of the true
    value at 2^-work: rad = 1 whenever 8 m P <= 2^(GUARD_BITS - 1).
    T[r] = T[m - r], so each value is evaluated once, at r <= m / 2.
    """
    prec = work + GUARD_BITS
    pi = _pi(prec)
    a, err_a = _atanh((1 << prec) // 3, prec)
    log2 = (2 * a, 2 * err_a + 3)
    table, worst = [0] * m, 0
    half = 1 << (GUARD_BITS - 1)
    for r in range(1, m // 2 + 1):
        value, err = _log_sine(r, m, prec, pi, log2)
        table[r] = table[m - r] = (value + half) >> GUARD_BITS
        worst = max(worst, err)
    return table, (half + worst + (1 << GUARD_BITS) - 1) >> GUARD_BITS


def _nearest(c: int, shift: int) -> int:
    """Nearest integer to c / 2^shift, ties to even."""
    q, rem = divmod(c, 1 << shift)
    half = 1 << (shift - 1)
    return q + (rem > half or (rem == half and q & 1))


def log_embedding(
    products: Sequence[Dict[int, int]], field: CyclotomicField, precision_bits: int = 128
) -> List[FixedPointVector]:
    """Log vectors of prod_t (1 - zeta_m^t)^e_t, one per exponent map, certified.

    sigma_a(1 - zeta^t) = 1 - zeta^(a t), so every coordinate is the exact
    integer sum of e_t T[a t mod m] over one _log_sine_table at W =
    precision_bits + 32 bits, with radius rad * sum |e_t|. If any coordinate
    interval is wider than 2**-precision_bits the table is rebuilt at twice
    the working precision (up to MAX_WORK_BITS) before giving up with
    PrecisionError. Mantissas are the nearest integers to centre / 2^(W - p).
    """
    m = field.m
    if any(t % m == 0 for exps in products for t in exps):
        raise ConfigurationError("factor 1 - zeta^0 vanishes at every embedding")
    reps = field.embedding_representatives
    work = precision_bits + 32
    while True:
        table, rad = _log_sine_table(m, work)
        shift = work - precision_bits
        if all(2 * rad * sum(map(abs, exps.values())) <= 1 << shift for exps in products):
            return [
                FixedPointVector(
                    tuple(
                        _nearest(sum(e * table[a * t % m] for t, e in exps.items()), shift)
                        for a in reps
                    ),
                    precision_bits,
                )
                for exps in products
            ]
        work *= 2
        if work > MAX_WORK_BITS:
            raise PrecisionError(
                f"cancellation not resolved below {MAX_WORK_BITS} working bits"
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
    shapes = [(j, *generator_shape(field, j)) for j in range(1, field.m)]
    shapes = [(j, qi) for j, qi, unit in shapes if unit]
    logs = log_embedding([generator_exponents(field, *s) for s in shapes], field, precision_bits)
    return [UnitGenerator(j, qi, log) for (j, qi), log in zip(shapes, logs)]


# ---------------------------------------------------------------------------
# Alternative period function for totally real fields
# ---------------------------------------------------------------------------


def alt_period_check(poly_coeffs: Sequence[int], candidate: Sequence) -> float:
    """Residual of a candidate period of the coefficient-wrapping function,
    evaluated at the origin with 128-bit mpmath.

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
        mp.prec = 128
        n = len(poly_coeffs) - 1
        if len(candidate) != n:
            raise ValueError("candidate dimension must match the degree")
        roots = mpmath.polyroots([mpmath.mpf(c) for c in poly_coeffs], maxsteps=200)
        tol = mpmath.mpf(2) ** -40
        for r in roots:
            if abs(mpmath.im(r)) > tol:
                raise ConfigurationError("polynomial has a complex root; field not totally real")
        roots = sorted(mpmath.re(r) for r in roots)
        c = [mpmath.mpf(v) for v in candidate]

        vander = mpmath.matrix(n, n)
        for i in range(n):
            for jj in range(n):
                vander[i, jj] = roots[i] ** jj

        def coeff_vectors(point):
            pos = mpmath.lu_solve(vander, mpmath.matrix([mpmath.e**p for p in point]))
            neg = mpmath.lu_solve(vander, mpmath.matrix([mpmath.e ** (-p) for p in point]))
            return list(pos) + list(neg)

        shifted = coeff_vectors(c)
        base = coeff_vectors([mpmath.mpf(0)] * n)
        residual = mpmath.mpf(0)
        for s, b in zip(shifted, base):
            d = s - b
            frac = abs(d - mpmath.nint(d))
            residual = max(residual, frac)
        return float(residual)
    finally:
        mp.prec = old
