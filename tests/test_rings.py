import random
from fractions import Fraction

import pytest

from unitlat.rings import (
    EISENSTEIN,
    GAUSSIAN,
    INTEGERS,
    RingElement,
    euclidean_minimum_grid,
    hdot,
    hnorm_sq,
    ring_by_kind,
)

F = Fraction
RINGS = [INTEGERS, GAUSSIAN, EISENSTEIN]


def rand_elt(rng, ring, span=10):
    b = 0 if ring.kind == "integers" else rng.randint(-span, span)
    return RingElement(rng.randint(-span, span), b, ring.kind)


def rand_frac_elt(rng, ring, den=7):
    b = F(0) if ring.kind == "integers" else F(rng.randint(-30, 30), den)
    return RingElement(F(rng.randint(-30, 30), den), b, ring.kind)


class TestDescriptors:
    def test_euclidean_minima(self):
        assert INTEGERS.euclidean_minimum == F(1, 4)
        assert GAUSSIAN.euclidean_minimum == F(1, 2)
        assert EISENSTEIN.euclidean_minimum == F(1, 3)

    @pytest.mark.parametrize("ring", RINGS)
    def test_minimum_matches_grid_oracle(self, ring):
        # worst-case rounding distance over a grid of fractional points
        worst = euclidean_minimum_grid(ring, steps=24)
        assert worst <= ring.euclidean_minimum
        assert worst > ring.euclidean_minimum * F(9, 10)

    def test_lookup(self):
        assert ring_by_kind("gaussian") is GAUSSIAN
        with pytest.raises(ValueError):
            ring_by_kind("octonions")


class TestArithmetic:
    @pytest.mark.parametrize("ring", RINGS)
    def test_ring_axioms_random(self, ring):
        rng = random.Random(hash(ring.kind) & 0xFFFF)
        for _ in range(50):
            x, y, z = (rand_elt(rng, ring) for _ in range(3))
            assert (x + y) * z == x * z + y * z
            assert x * (y * z) == (x * y) * z
            assert x * y == y * x
            assert x + (-x) == RingElement(0, 0, ring.kind)

    @pytest.mark.parametrize("ring", RINGS)
    def test_norm_multiplicative(self, ring):
        rng = random.Random(2)
        for _ in range(50):
            x, y = rand_elt(rng, ring), rand_elt(rng, ring)
            assert (x * y).norm() == x.norm() * y.norm()

    @pytest.mark.parametrize("ring", RINGS)
    def test_conj_norm(self, ring):
        rng = random.Random(3)
        for _ in range(30):
            x = rand_elt(rng, ring)
            prod = x * x.conj()
            assert prod == RingElement(x.norm(), 0, ring.kind)

    @pytest.mark.parametrize("ring", RINGS)
    def test_complex_embedding_consistent(self, ring):
        rng = random.Random(5)
        for _ in range(30):
            x, y = rand_elt(rng, ring), rand_elt(rng, ring)
            lhs = (x * y).to_complex()
            rhs = x.to_complex() * y.to_complex()
            assert abs(lhs - rhs) < 1e-9

    def test_json_roundtrip(self):
        x = RingElement(F(3, 7), F(-2), "eisenstein")
        assert RingElement.from_json(x.to_json()) == x


class TestRounding:
    @pytest.mark.parametrize("ring", RINGS)
    def test_rounding_invariant(self, ring):
        """N(x - round(x)) <= m_K for every ring, the property every
        norm-Euclidean division step relies on."""
        rng = random.Random(6)
        for _ in range(300):
            den = rng.choice([3, 7, 16, 101])
            x = rand_frac_elt(rng, ring, den)
            r = x - RingElement(*_as_pair(x.round()), ring.kind)
            assert r.norm() <= ring.euclidean_minimum

    def test_integer_round_half_away(self):
        x = RingElement(F(5, 2), F(0), "integers")
        assert x.round() == RingElement(3, 0, "integers")


def _as_pair(e):
    return e.a, e.b


# the units a + b omega of each ring, as (a, b): the 2, 4 and 6 roots of unity
UNITS = {
    "integers": [(1, 0), (-1, 0)],
    "gaussian": [(1, 0), (-1, 0), (0, 1), (0, -1)],
    "eisenstein": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
}


class TestUnits:
    """The units of each ring are exactly its integers of norm 1."""

    def test_unit_groups(self):
        for ring in RINGS:
            box = range(-2, 3)
            omegas = [0] if ring.kind == "integers" else box
            ones = [(a, b) for a in box for b in omegas
                    if RingElement(a, b, ring.kind).norm() == 1]
            assert sorted(ones) == sorted(UNITS[ring.kind])
        assert [len(UNITS[ring.kind]) for ring in RINGS] == [2, 4, 6]

    @pytest.mark.parametrize("ring", RINGS)
    def test_units_have_norm_one(self, ring):
        units = [RingElement(a, b, ring.kind) for a, b in UNITS[ring.kind]]
        for u in units:
            assert u.norm() == 1
            # the inverse of a unit is its conjugate, again a unit
            assert u * u.conj() == RingElement(1, 0, ring.kind)
            assert u.conj() in units

    def test_non_unit(self):
        assert RingElement(1, 1, "gaussian").norm() == 2


class TestHermitian:
    @pytest.mark.parametrize("ring", RINGS)
    def test_hdot_conjugate_symmetry(self, ring):
        rng = random.Random(8)
        for _ in range(20):
            u = [rand_elt(rng, ring) for _ in range(3)]
            v = [rand_elt(rng, ring) for _ in range(3)]
            assert hdot(u, v) == hdot(v, u).conj()

    @pytest.mark.parametrize("ring", RINGS)
    def test_hnorm_nonnegative_rational(self, ring):
        rng = random.Random(9)
        for _ in range(20):
            u = [rand_elt(rng, ring) for _ in range(3)]
            n = hnorm_sq(u)
            assert n >= 0
            # agrees with the complex embedding
            approx = sum(abs(e.to_complex()) ** 2 for e in u)
            assert abs(float(n) - approx) < 1e-6
