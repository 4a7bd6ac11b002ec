import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitlat.lattice_core import round_half_away
from unitlat.rings import (
    EISENSTEIN,
    GAUSSIAN,
    INTEGERS,
    RingElement,
    euclidean_minimum_grid,
    hdot,
    hnorm_sq,
    nearest_eisenstein,
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


def reference_round(x):
    """RingElement.round as nine RingElement candidates, each scored by a
    Fraction norm of its difference: the nearest ring integer, ties to the
    smallest (norm, a, b)."""
    ra, rb = round_half_away(x.a), round_half_away(x.b)
    if x.kind != "eisenstein":
        return RingElement(ra, rb, x.kind)
    best = None
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            q = RingElement(ra + da, rb + db, x.kind)
            key = ((x - q).norm(), q.a, q.b)
            if best is None or key < best[0]:
                best = (key, q)
    return best[1]


@st.composite
def round_cases(draw):
    """(x, shift): a point of a ring's fraction field and a scale 2^shift.

    Three shapes: exact ties (multiples of 1/6, so halves and thirds; points
    t on the three bisectors of the hexagonal Voronoi cell, b = 2a - 1,
    a = 2b - 1 and a + b = 1; its vertices 1/3 + 2/3 omega and 2/3 + 1/3
    omega), 2^q denominators with numerators past 2^q as bp_reduce's inputs
    have, and any denominator; each moved by an integer point, either sign.
    """
    ring = draw(st.sampled_from(RINGS))
    shape = draw(st.sampled_from(["tie", "dyadic", "any"]))
    if shape == "tie":
        t = F(draw(st.integers(-6, 6)), draw(st.sampled_from([2, 3, 6, 12])))
        sixths = st.integers(-6, 6).map(lambda n: F(n, 6))
        half = F(1, 2)
        a, b = draw(st.sampled_from([
            (draw(sixths), draw(sixths)),
            (half + t, 2 * t),
            (2 * t, half + t),
            (half + t, half - t),
            (F(1, 3), F(2, 3)),
            (F(2, 3), F(1, 3)),
        ]))
        a += draw(st.integers(-50, 50))
        b += draw(st.integers(-50, 50))
    else:
        if shape == "dyadic":
            q = draw(st.integers(0, 160))
            den, span = 2**q, 2 ** (q + 8)
        else:
            den, span = draw(st.integers(1, 10**6)), 10**8
        a = F(draw(st.integers(-span, span)), den)
        b = F(draw(st.integers(-span, span)), den)
    if ring is INTEGERS:
        b = F(0)
    shift = draw(st.sampled_from([0, 0, 1, 3, 64]))
    return RingElement(a, b, ring.kind), shift


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

    @given(round_cases())
    @settings(max_examples=600, deadline=None)
    def test_round_matches_reference(self, case):
        """round(shift) returns reference_round of 2^shift x on every ring,
        ties, 2^q denominators and negative coordinates included."""
        x, shift = case
        scaled = RingElement(x.a * 2**shift, x.b * 2**shift, x.kind)
        assert x.round(shift) == reference_round(scaled)

    @pytest.mark.parametrize(
        "a, b, nearest",
        [
            # the deep hole i/sqrt(3), equidistant from 0, omega and 1 + omega
            (F(1, 3), F(2, 3), (0, 0)),
            (F(-2, 3), F(-1, 3), (-1, -1)),
            # halfway between 2 and 3: the smaller a wins, unlike over Z
            (F(5, 2), F(0), (2, 0)),
            # on the 0 | 1 + omega bisector a + b = 1
            (F(7, 12), F(5, 12), (0, 0)),
        ],
    )
    def test_eisenstein_ties(self, a, b, nearest):
        assert RingElement(a, b, "eisenstein").round() == RingElement(*nearest, "eisenstein")
        den = 12
        assert nearest_eisenstein(int(a * den), int(b * den), den) == nearest

    def test_eisenstein_round_scores_in_integers(self, monkeypatch):
        """A Z[zeta_3] round forms no candidate difference and no Fraction
        norm: the nine candidates are scored in integers."""
        calls = []
        for name in ("norm", "__sub__"):
            real = getattr(RingElement, name)

            def spy(self, *args, _real=real, _name=name):
                calls.append(_name)
                return _real(self, *args)

            monkeypatch.setattr(RingElement, name, spy)
        x = RingElement(F(7, 3), F(-11, 5), "eisenstein")
        assert x.round() == RingElement(2, -2, "eisenstein")
        x.round(40)
        assert calls == []


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
