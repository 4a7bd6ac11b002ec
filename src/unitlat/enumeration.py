"""Exact lattice point enumeration: Fincke-Pohst pruned in floats, every
emitted point checked and normed in integers.

Used for exact shortest vectors (the sampler's lambda_1 at dimensions <= 8)
and by the tests as a ground truth; the sampler itself never enumerates its
support. Desk-scale only: dimensions <= 8.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .lattice_core import BasisMatrix, common_denominator, gram_schmidt, integer_rows, norm_sq
from .reduction import lll_reduce

ENUMERATION_DIM_LIMIT = 8

# relative padding of every float pruning decision; see coords_in_ball
PAD = 2.0**-40
# larger Gram-Schmidt weights are clamped here (only widens the search)
_WEIGHT_CAP = Fraction(2**1000)


def coords_in_ball(basis: BasisMatrix, radius_sq: Fraction) -> Iterator[tuple]:
    """Yield (x, n) for every integer x with ||x @ B||^2 <= radius_sq, where
    n = D^2 ||x @ B||^2 is an exact integer and D = common_denominator(basis).

    Includes the zero vector. Order: level m-1 first and x_i ascending at every
    level, i.e. ascending in the reversed tuple (x_{m-1}, ..., x_0).

    Exactness. With N = D B and G = N N^t, every candidate leaf x is kept iff
    the integer n = x^t G x is <= radius_sq D^2; the lattice point itself is
    never formed, and no Fraction is built per point.

    Pruning. With Gram-Schmidt data r_i = ||b_i*||^2 and mu_ji, write
    q_i = r_i / radius_sq, W_i = q_i^-1/2, c_i = sum_{j>i} mu_ji x_j and
    P_i = sum_{k>=i} q_k (x_k + c_k)^2 (the normalised squared norm of the
    projection orthogonal to b_0..b_{i-1}); x is in the ball iff P_0 <= 1.
    The tree is walked in floats (unit roundoff u = 2^-53). Over every node
    the search can visit, |x_j| <= X_j = 2 M_j and |c_i| <= A_i =
    2 sum_{j>i} |mu_ji| X_j, where M_i = A_i + W_i + 1 (the factors 2 absorb
    the float evaluation of these bounds). At level i:

    - the float centre misses c_i by at most (m+2) u A_i (rounded mu, rounded
      x_j, a dot product of < m terms), the float half-width
      sqrt(1 - P~) W_i falls short of the exact sqrt(1 - P) W_i by at most
      5 u W_i, and forming the interval ends adds 4 u M_i: the pruning error
      is below (m + 12) u M_i in all;
    - each float term q_i s^2 uses s = |x + c~_i| - pad_i <= |x + c_i| and a
      weight rounded down by the factor (1 - PAD), which exceeds the
      (1 + u)^(m+4) gained by rounding the product and the running sum, so
      the float partial norm P~ never exceeds the exact P.

    The search interval at level i is widened by pad_i = PAD M_i on both
    sides, and a branch is cut only when P~ > 1. Since PAD / u = 2^13 exceeds
    m + 12 for every m <= ENUMERATION_DIM_LIMIT (indeed for m < 8180), no
    point of the ball is dropped: pruning is approximate, the emitted set is
    exact. Bases with huge mu_ji only pay in speed (wider pads, more leaves
    rejected exactly). A ball too large for float magnitudes raises
    OverflowError instead of being searched.
    """
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        return
    m = basis.m
    if radius_sq == 0:
        yield (0,) * m, 0
        return

    den, ints = integer_rows(basis.rows)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in ints] for u in ints]
    den_sq = den * den
    bound = radius_sq.numerator * den_sq // radius_sq.denominator

    gs = gram_schmidt(basis)
    weights = [min(r / radius_sq, _WEIGHT_CAP) for r in gs.norms_sq()]
    q_low = [float(q) * (1 - PAD) for q in weights]
    half = [math.sqrt(float(1 / q)) for q in weights]
    # mus[i] lists mu_ji for j = i+1 .. m-1
    mus = [[float(gs.mu[j][i]) for j in range(i + 1, m)] for i in range(m)]
    pads = [0.0] * m
    x_max = [0.0] * m
    for i in reversed(range(m)):
        a = 2 * sum(abs(mu) * xm for mu, xm in zip(mus[i], x_max[i + 1:]))
        mag = a + half[i] + 1
        pads[i] = PAD * mag
        x_max[i] = 2 * mag

    coords = [0] * m

    def descend(i: int, used: float, form: int, lin: list) -> Iterator[tuple]:
        # used: float lower bound on P_{i+1}; form: exact sum_{j,k>i} G_jk x_j x_k;
        # lin[k] = sum_{j>i} G_jk x_j for k <= i
        c = sum(mu * x for mu, x in zip(mus[i], coords[i + 1:]))
        w = math.sqrt(1.0 - used) * half[i]
        pad = pads[i]
        lo = math.ceil(-c - w - pad)
        hi = math.floor(-c + w + pad)
        g_row = gram[i]
        g_ii = g_row[i]
        twice = 2 * lin[i]
        if i == 0:
            for x in range(lo, hi + 1):
                n = form + x * (twice + g_ii * x)
                if n <= bound:
                    coords[0] = x
                    yield tuple(coords), n
            return
        q = q_low[i]
        for x in range(lo, hi + 1):
            s = abs(x + c) - pad
            grown = used + q * s * s if s > 0 else used
            if grown > 1.0:
                continue
            coords[i] = x
            yield from descend(
                i - 1,
                grown,
                form + x * (twice + g_ii * x),
                [lk + gk * x for lk, gk in zip(lin, g_row[:i])],
            )

    yield from descend(m - 1, 0.0, 0, [0] * m)


def lattice_points_in_ball(basis: BasisMatrix, radius_sq: Fraction) -> list:
    """All (coords, n) pairs of coords_in_ball, in its order: the lattice
    points of norm_sq <= radius_sq, zero included, with their exact squared
    norms n / common_denominator(basis)**2."""
    return list(coords_in_ball(basis, radius_sq))


def shortest_vector_sq(basis: BasisMatrix) -> Fraction:
    """Exact squared first minimum lambda_1^2 of the lattice."""
    reduced, _ = lll_reduce(basis)
    bound = min(norm_sq(row) for row in reduced.rows)
    best = min(n for x, n in coords_in_ball(reduced, bound) if any(x))
    return Fraction(best, common_denominator(reduced) ** 2)
