"""Exact arithmetic over the coefficient rings used for reduction.

Supported rings: the rational integers, the Gaussian integers Z[i] and the
Eisenstein integers Z[zeta_3]. Elements are stored as exact coordinate pairs
a + b*omega with rational a, b; ring integers have integer coordinates.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm

from .lattice_core import Record, round_ratio

INTEGERS_KIND = "integers"
GAUSSIAN_KIND = "gaussian"
EISENSTEIN_KIND = "eisenstein"


class RingDescriptor(Record):
    """A norm-Euclidean coefficient ring with its Euclidean minimum."""

    kind: str
    euclidean_minimum: Fraction
    omega: complex  # complex image of the ring generator (0 for the integers)


INTEGERS = RingDescriptor(INTEGERS_KIND, Fraction(1, 4), 0j)
GAUSSIAN = RingDescriptor(GAUSSIAN_KIND, Fraction(1, 2), 1j)
EISENSTEIN = RingDescriptor(EISENSTEIN_KIND, Fraction(1, 3), cmath.exp(2j * cmath.pi / 3))

_BY_KIND = {r.kind: r for r in (INTEGERS, GAUSSIAN, EISENSTEIN)}


def ring_by_kind(kind: str) -> RingDescriptor:
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise ValueError(f"unknown ring kind {kind!r}") from None


class RingElement:
    """Element a + b*omega of the fraction field of a supported ring."""

    __slots__ = ("a", "b", "kind")

    def __init__(self, a, b=0, kind: str = INTEGERS_KIND):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)
        self.kind = kind
        if kind == INTEGERS_KIND and self.b != 0:
            raise ValueError("integer-ring element with nonzero omega part")

    def __repr__(self):
        return f"RingElement({self.a}, {self.b}, {self.kind!r})"

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.kind == other.kind
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a, self.b, self.kind))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other):
        assert self.kind == other.kind
        return RingElement(self.a + other.a, self.b + other.b, self.kind)

    def __sub__(self, other):
        assert self.kind == other.kind
        return RingElement(self.a - other.a, self.b - other.b, self.kind)

    def __neg__(self):
        return RingElement(-self.a, -self.b, self.kind)

    def __mul__(self, other):
        assert self.kind == other.kind
        a, b, c, d = self.a, self.b, other.a, other.b
        if self.kind == INTEGERS_KIND:
            return RingElement(a * c, 0, self.kind)
        if self.kind == GAUSSIAN_KIND:  # omega^2 = -1
            return RingElement(a * c - b * d, a * d + b * c, self.kind)
        # omega^2 = -1 - omega
        return RingElement(a * c - b * d, a * d + b * c - b * d, self.kind)

    def conj(self) -> "RingElement":
        if self.kind == INTEGERS_KIND:
            return self
        if self.kind == GAUSSIAN_KIND:
            return RingElement(self.a, -self.b, self.kind)
        # conj(zeta_3) = -1 - zeta_3
        return RingElement(self.a - self.b, -self.b, self.kind)

    def norm(self) -> Fraction:
        """Algebraic norm; equals the squared complex modulus for the quadratic rings."""
        a, b = self.a, self.b
        if self.kind == INTEGERS_KIND:
            return a * a
        if self.kind == GAUSSIAN_KIND:
            return a * a + b * b
        return a * a - a * b + b * b

    def round(self, shift: int = 0) -> "RingElement":
        """Nearest ring integer to 2^shift * self.

        For Z and Z[i] this is coordinate-wise rounding (half away from zero),
        which already attains the Euclidean minimum. For Z[zeta_3] coordinate
        rounding only guarantees a remainder norm of 3/4, so nearest_eisenstein
        picks the nearest of the neighbouring integer points instead
        (hexagonal Voronoi cell), restoring the N(x - round(x)) <= 1/3
        contract. The shift is applied to the integer numerators, so no scaled
        Fraction is formed.
        """
        a, b = self.a, self.b
        if self.kind != EISENSTEIN_KIND:
            return RingElement(
                round_ratio(a.numerator << shift, a.denominator),
                round_ratio(b.numerator << shift, b.denominator),
                self.kind,
            )
        d = lcm(a.denominator, b.denominator)
        p = (a.numerator * (d // a.denominator)) << shift
        r = (b.numerator * (d // b.denominator)) << shift
        return RingElement(*nearest_eisenstein(p, r, d), self.kind)

    def to_complex(self) -> complex:
        omega = _BY_KIND[self.kind].omega
        return float(self.a) + float(self.b) * omega

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "ring": self.kind}

    @classmethod
    def from_json(cls, obj: dict) -> "RingElement":
        return cls(Fraction(obj["a"]), Fraction(obj["b"]), obj["ring"])


def nearest_eisenstein(p: int, r: int, d: int) -> tuple:
    """The Eisenstein integer a + b*omega nearest to (p + r*omega) / d, d > 0.

    Scores the 3 x 3 neighbourhood of the coordinate rounding (ra, rb) by the
    integer d^2 N((p + r*omega) / d - (a + b*omega)) = x^2 - xy + y^2, with
    x = p - a d and y = r - b d, and returns the least (norm, a, b): ties go
    to the lexicographically smallest (a, b), for reproducibility.
    """
    ra, rb = round_ratio(p, d), round_ratio(r, d)
    best = None
    for a in (ra - 1, ra, ra + 1):
        x = p - a * d
        for b in (rb - 1, rb, rb + 1):
            y = r - b * d
            key = (x * x - x * y + y * y, a, b)
            if best is None or key < best:
                best = key
    return best[1], best[2]


def hdot(u, v) -> RingElement:
    """Hermitian inner product sum_i u_i * conj(v_i)."""
    assert len(u) == len(v)
    acc = RingElement(0, 0, u[0].kind) if u else None
    for x, y in zip(u, v):
        acc = acc + x * y.conj()
    return acc


def hnorm_sq(u) -> Fraction:
    """Squared Hermitian norm, an exact nonnegative rational."""
    acc = Fraction(0)
    for x in u:
        acc += x.norm()
    return acc


def euclidean_minimum_grid(ring: RingDescriptor, steps: int = 40) -> Fraction:
    """Brute-force estimate of max_x min_y N(x - y) over a fundamental domain.

    Grid search oracle used by tests to pin the stored Euclidean minima.
    """
    worst = Fraction(0)
    if ring.kind == INTEGERS_KIND:
        for i in range(steps + 1):
            x = RingElement(Fraction(i, steps), 0, ring.kind)
            worst = max(worst, (x - x.round()).norm())
        return worst
    for i in range(steps + 1):
        for j in range(steps + 1):
            x = RingElement(Fraction(i, steps), Fraction(j, steps), ring.kind)
            worst = max(worst, (x - x.round()).norm())
    return worst
