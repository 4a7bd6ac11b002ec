"""Cyclotomic regulators against independent references.

For a prime power m = p^k the generators (1 - zeta^a)/(1 - zeta), a in
G = (Z/m)^*/{+-1}, form one Galois orbit, so their regulator is a group
determinant (Dedekind; Washington, Introduction to Cyclotomic Fields,
Lemma 5.26 and Thm 8.2). With f(a) = log|2 sin(pi a / m)|:

    R = |det(f(ab))_{a,b in G}| / |sum_{a in G} f(a)|.

For every m with at most three prime factors (m < 420) Sinnott's index of
the circular units in the units of Q(zeta_m)^+ is h^+ (Sinnott, Ann. of
Math. 108, 1978), so the analytic class number formula gives their
regulator as a product over the even characters chi != 1, each taken
primitive with conductor f:

    R = prod_chi 1/2 |sum_{a mod f, (a, f) = 1} chi(a) log|2 sin(pi a / f)||.

For m not a prime power the cyclotomic units have index Q = 2 over the
units the pipeline generates (Washington, Cor. 4.13), so its regulator is
R/2. Both oracles are plain Python and mpmath and share no code with
unitlat. The minor-gcd values at m = 21 and 36 (real gcd of the maximal
minors of the generator log matrix) were computed outside unitlat.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest

from unitlat.recovery import cyclotomic_log_basis, regulator_from_basis

MINOR_GCD = [(21, 2.19998118758548), (36, 5.088678168670572)]


def group_determinant_regulator(m: int, dps: int = 30):
    """Regulator of the cyclotomic units of Q(zeta_m) for a prime power m."""
    with mpmath.workdps(dps):
        group = [a for a in range(1, m) if math.gcd(a, m) == 1 and 2 * a < m]
        f = [None] + [mpmath.log(2 * mpmath.sin(mpmath.pi * r / m)) for r in range(1, m)]
        det = mpmath.det(mpmath.matrix([[f[a * b % m] for b in group] for a in group]))
        return abs(det) / abs(mpmath.fsum(f[a] for a in group))


def cyclic_factors(m: int) -> list:
    """(g, n) per cyclic factor of (Z/m)^*, g of order n: a primitive root
    of each odd prime power q || m, and -1 and 5 for q = 2^k, each lifted to
    1 modulo m / q, so that (Z/m)^* is the direct product of the <g>."""
    out = []
    for p in (p for p in range(2, m + 1) if m % p == 0 and all(p % s for s in range(2, p))):
        q = p
        while m % (q * p) == 0:
            q *= p
        if p == 2:
            gens = ([(-1, 2)] if q >= 4 else []) + ([(5, q // 4)] if q >= 8 else [])
        else:
            n = q - q // p
            primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]
            g = next(g for g in range(2, q)
                     if g % p and all(pow(g, n // r, q) != 1 for r in primes))
            gens = [(g, n)]
        rest = m // q
        out += [(next(x for x in range(g % q, m, q) if x % rest == 1 % rest), n) for g, n in gens]
    return out


def character_oracle_regulator(m: int, dps: int = 30):
    """prod over even chi != 1 mod m of 1/2 |sum chi*(a) log|2 sin(pi a / f)||,
    chi* the primitive character of conductor f that induces chi."""
    factors = cyclic_factors(m)
    # discrete logs: a = prod g_c^e_c mod m for each unit a
    logs = {}
    for e in itertools.product(*(range(n) for _, n in factors)):
        logs[math.prod(pow(g, x, m) for (g, _), x in zip(factors, e)) % m] = e
    assert len(logs) == sum(math.gcd(a, m) == 1 for a in range(m))

    def phase(t, a):  # chi_t(a) = exp(2 pi i phase), exact
        return sum(Fraction(tc * ec, n) for tc, ec, (_, n) in zip(t, logs[a % m], factors)) % 1

    with mpmath.workdps(dps):
        total = mpmath.mpf(1)
        for t in itertools.product(*(range(n) for _, n in factors)):
            if not any(t) or phase(t, m - 1):
                continue  # trivial or odd
            f = min(d for d in range(1, m + 1) if m % d == 0
                    and not any(phase(t, a) for a in logs if a % d == 1 % d))
            s = 0
            for a in range(1, f):
                if math.gcd(a, f) == 1:
                    lift = next(b for b in range(a, a + f * m, f) if math.gcd(b, m) == 1)
                    ph = phase(t, lift)
                    chi = mpmath.expjpi(2 * mpmath.mpf(ph.numerator) / ph.denominator)
                    s += chi * mpmath.log(2 * mpmath.sin(mpmath.pi * a / f))
            total *= abs(s) / 2
        return total


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


@pytest.mark.parametrize("m,expect", MINOR_GCD)
def test_composite_regulator_matches_minor_gcd_reference(m, expect):
    """bp_reduce's basis coordinates reach 127 bits here; the basis is the
    certified log of the units they give, so they cost no accuracy (its
    rounded basis_approx gave 0.24627 and 0.84811)."""
    got = regulator_from_basis(cyclotomic_log_basis(m))
    assert abs(got - expect) <= 1e-10 * expect


@pytest.mark.parametrize("m", [5, 7, 8, 9, 11, 13, 16, 25, 27, 32])
def test_character_oracle_matches_group_determinant(m):
    expect = group_determinant_regulator(m)
    assert abs(character_oracle_regulator(m) - expect) <= 1e-25 * expect


@pytest.mark.parametrize("m,expect", MINOR_GCD)
def test_character_oracle_is_twice_the_minor_gcd_reference(m, expect):
    assert abs(character_oracle_regulator(m) - 2 * expect) <= 1e-13 * expect


@pytest.mark.parametrize(
    "m", [12, 15, 20, 21, 24, 28, 33, 35, 36, 39, 40, 44, 45, 48, 52, 60]
)
def test_composite_regulator_is_half_the_character_oracle(m):
    """Every composite m <= 60 that builds at 128 bits (56 needs 192): the
    pipeline regulator is R/2, the unit index Q = 2. m = 33 and 44 had no
    reference before this oracle."""
    expect = character_oracle_regulator(m) / 2
    got = regulator_from_basis(cyclotomic_log_basis(m, 128))
    assert abs(got - expect) <= 1e-10 * expect
