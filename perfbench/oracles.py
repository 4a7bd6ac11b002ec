"""Independent checks of unitlat outputs.

Nothing here imports unitlat: each oracle recomputes the expected answer with
plain integers, sympy or mpmath, so a defect in the layer under test cannot
also hide in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath

REGULATOR_TOLERANCE = 1e-10
REFERENCE_BITS = 320


def int_det(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def planted_ok(b_l_rows, index: int, planted_index: int) -> bool:
    """The hidden lattice is Z^dim: the recovered basis must be an integral
    matrix of determinant +-1, and the reported index the planted one."""
    rows = [[Fraction(x) for x in row] for row in b_l_rows]
    if any(x.denominator != 1 for row in rows for x in row):
        return False
    return index == planted_index and abs(int_det([[int(x) for x in r] for r in rows])) == 1


# ---------------------------------------------------------------------------
# Cyclotomic regulators
# ---------------------------------------------------------------------------


def _prime_power(n: int) -> bool:
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def cyclotomic_unit_exponents(m: int):
    """Exponent maps {t: e} of the textbook cyclotomic units of Q(zeta_m).

    1 - zeta^j is a unit when zeta^j does not have prime-power order g; when
    it does, (1 - zeta^j) / (1 - zeta^(m/g)) is one. Trivial quotients are
    dropped.
    """
    out = []
    for j in range(1, m):
        g = m // math.gcd(m, j)
        if not _prime_power(g):
            out.append({j: 1})
        elif j != m // g:
            out.append({j: 1, m // g: -1})
    return out


def _real_gcd(values, tol):
    g = mpmath.mpf(0)
    for v in values:
        a, b = max(g, abs(v)), min(g, abs(v))
        while b > tol:
            a, b = b, mpmath.fmod(a, b)
        g = a
    return g


@lru_cache(maxsize=8)
def reference_regulator(m: int, bits: int = REFERENCE_BITS) -> float:
    """Covolume of the projected log lattice of the cyclotomic units.

    Coordinates are log|2 sin(pi a t / m)| for one representative a of each
    pair {a, -a} of units mod m, with the last coordinate dropped (the logs
    sum to zero). The covolume is the real gcd of all maximal minors of the
    generator log matrix; every minor is checked to be an integer multiple.
    """
    with mpmath.workprec(bits):
        reps = [a for a in range(1, m) if math.gcd(a, m) == 1 and a < m - a]
        rank = len(reps) - 1
        scale = mpmath.mpf(2) ** bits
        # logs as integers scaled by 2^bits, so each minor is one exact
        # integer determinant; entry rounding moves it by far less than tol
        rows = [
            [
                int(mpmath.nint(scale * sum(
                    e * mpmath.log(abs(2 * mpmath.sin(mpmath.pi * (a * t % m) / m)))
                    for t, e in exps.items()
                )))
                for a in reps[:rank]
            ]
            for exps in cyclotomic_unit_exponents(m)
        ]
        minors = [
            mpmath.ldexp(mpmath.mpf(int_det(c)), -bits * rank)
            for c in combinations(rows, rank)
        ]
        tol = mpmath.mpf(2) ** (-bits // 3)
        reg = _real_gcd(minors, tol)
        for x in minors:
            q = x / reg
            if abs(q - mpmath.nint(q)) > tol * 2**20:
                raise ArithmeticError(f"minor {x} is not a multiple of {reg}")
        return float(reg)


def regulator_ok(regulator, index, reference: float) -> bool:
    return index == 1 and abs(float(regulator) - reference) <= REGULATOR_TOLERANCE


# ---------------------------------------------------------------------------
# Module bases over Z[i] and Z[zeta_3]
# ---------------------------------------------------------------------------


def z_rows(ring_rows, kind: str):
    """Z-generators of an O_K-module given by rows of (a, b) = a + b*omega.

    Each row r contributes r and omega*r in (1, omega) coordinates; omega*(a +
    b omega) is -b + a omega over Z[i] and -b + (a - b) omega over Z[zeta_3].
    """
    out = []
    for row in ring_rows:
        out.append([x for a, b in row for x in (a, b)])
        if kind == "gaussian":
            out.append([x for a, b in row for x in (-b, a)])
        else:
            out.append([x for a, b in row for x in (-b, a - b)])
    return out


def hnf_of_rows(rows):
    """Canonical HNF of the Z-lattice spanned by the integer rows."""
    # imported here: sympy is slow to load and only this oracle needs it
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    return hermite_normal_form(Matrix(rows).T)


def module_ok(recovered_rows, planted_rows, kind: str) -> bool:
    """The recovered approximate basis rounds to ring integers (within 1/4 per
    coordinate) that span the same Z-lattice as the planted basis."""
    rounded = []
    for row in recovered_rows:
        out_row = []
        for a, b in row:
            ra, rb = round(a), round(b)
            if abs(a - ra) > Fraction(1, 4) or abs(b - rb) > Fraction(1, 4):
                return False
            out_row.append((ra, rb))
        rounded.append(out_row)
    if len(rounded) != len(planted_rows):
        return False
    return hnf_of_rows(z_rows(rounded, kind)) == hnf_of_rows(z_rows(planted_rows, kind))
