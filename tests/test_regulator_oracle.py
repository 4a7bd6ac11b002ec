"""Cyclotomic regulators against independent references.

For a prime power m = p^k the generators (1 - zeta^a)/(1 - zeta), a in
G = (Z/m)^*/{+-1}, form one Galois orbit, so their regulator is a group
determinant (Dedekind; Washington, Introduction to Cyclotomic Fields,
Lemma 5.26 and Thm 8.2). With f(a) = log|2 sin(pi a / m)|:

    R = |det(f(ab))_{a,b in G}| / |sum_{a in G} f(a)|.

The oracle below is plain mpmath and shares no code with unitlat. Composite
conductors have no such closed form here; their references are values of the
minor-gcd regulator (real gcd of the maximal minors of the generator log
matrix), computed outside unitlat.
"""

import math

import mpmath
import pytest

from unitlat.recovery import cyclotomic_log_basis, regulator_from_basis


def group_determinant_regulator(m: int, dps: int = 30):
    """Regulator of the cyclotomic units of Q(zeta_m) for a prime power m."""
    with mpmath.workdps(dps):
        group = [a for a in range(1, m) if math.gcd(a, m) == 1 and 2 * a < m]
        f = [None] + [mpmath.log(2 * mpmath.sin(mpmath.pi * r / m)) for r in range(1, m)]
        det = mpmath.det(mpmath.matrix([[f[a * b % m] for b in group] for a in group]))
        return abs(det) / abs(mpmath.fsum(f[a] for a in group))


def test_oracle_m5_is_log_golden_ratio():
    with mpmath.workdps(30):
        golden = (1 + mpmath.sqrt(5)) / 2
        assert abs(group_determinant_regulator(5) - mpmath.log(golden)) < 1e-28


@pytest.mark.parametrize(
    "m", [5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 32, 29, 37, 41, 43, 47, 49, 53]
)
def test_prime_power_regulator_matches_group_determinant(m):
    """Ranks 1-25; the pipeline regulator agrees to 1e-10 relative error.
    From m = 29 on, the basis reconstruction this route replaced raised
    PrecisionError at the default 128 bits."""
    expect = group_determinant_regulator(m)
    got = regulator_from_basis(cyclotomic_log_basis(m))
    assert abs(got - expect) <= 1e-10 * expect


@pytest.mark.parametrize("m,expect", [(21, 2.19998118758548), (36, 5.088678168670572)])
def test_composite_regulator_matches_minor_gcd_reference(m, expect):
    """bp_reduce's basis coordinates reach 127 bits here; the basis is the
    certified log of the units they give, so they cost no accuracy (its
    rounded basis_approx gave 0.24627 and 0.84811)."""
    got = regulator_from_basis(cyclotomic_log_basis(m))
    assert abs(got - expect) <= 1e-10 * expect
