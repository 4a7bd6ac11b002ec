"""Exact lattice point enumeration, walked in integers only.

The Fincke-Pohst tree (Math. Comp. 44, 1985) over the integer Gram-Schmidt
data of N = D B (lattice_core.gram_data, the data the LLL over Z keeps): each
level's range is one integer square root of the exact remaining budget, and
the norm at a leaf is the exact integer n = ||x N||^2. No float and no
Fraction is formed per node.

Used for exact shortest vectors (the sampler's lambda_1 at dimensions <= 8,
enumerated over the LLL-reduced basis) and by the tests as a ground truth;
the sampler itself never enumerates its support. Desk-scale: the tree grows
exponentially with the dimension.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .lattice_core import BasisMatrix, gram_data
from .reduction import DEFAULT_DELTA, _lll_int

ENUMERATION_DIM_LIMIT = 8


def _walk(d: list, lam: list, bound: int) -> Iterator[tuple]:
    """Yield (x, n) for every integer x with n = ||x N||^2 <= bound, where
    (d, lam) = gram_data(N); order as in lattice_points_in_ball.

    With t_i = d_{i+1} x_i + sum_{j>i} lam_ji x_j, the norm is
    ||x N||^2 = sum_i t_i^2 / (d_i d_{i+1}). The scaled tail
    E_i = d_i sum_{k>=i} t_k^2 / (d_k d_{k+1}) is d_i times the squared norm of
    the projection of sum_{j>=i} x_j n_j orthogonal to n_0, ..., n_{i-1}: a
    Gram determinant of integer rows, so an integer. Hence E_m = 0,
    E_i = (t_i^2 + d_i E_{i+1}) / d_{i+1} exactly, and E_0 = n. A projection
    is never longer than the vector, so level i keeps exactly the x_i with
    E_i <= bound d_i, i.e. |t_i| <= isqrt(d_i (bound d_{i+1} - E_{i+1})).
    """
    m = len(d) - 1
    # cols[i] lists lam_ji for j = i+1 .. m-1
    cols = [[lam[j][i] for j in range(i + 1, m)] for i in range(m)]
    coords = [0] * m

    def descend(i: int, tail: int) -> Iterator[tuple]:
        c = sum(lj * x for lj, x in zip(cols[i], coords[i + 1:]))
        dp, dn = d[i], d[i + 1]
        s = math.isqrt(dp * (bound * dn - tail))
        for x in range(-((s + c) // dn), (s - c) // dn + 1):
            t = dn * x + c
            e = (t * t + dp * tail) // dn
            coords[i] = x
            if i == 0:
                yield tuple(coords), e
            else:
                yield from descend(i - 1, e)

    yield from descend(m - 1, 0)


def lattice_points_in_ball(basis: BasisMatrix, radius_sq: Fraction) -> list:
    """All (x, n) for the integer x with ||x @ B||^2 <= radius_sq, where
    n = D^2 ||x @ B||^2 is an exact integer and D = basis.den: the lattice
    points of norm_sq <= radius_sq with their exact squared norms n / D^2.

    Includes the zero vector. Order: level m-1 first and x_i ascending at every
    level, i.e. ascending in the reversed tuple (x_{m-1}, ..., x_0). The walk
    is exact: a point is listed iff n <= floor(radius_sq D^2).
    """
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        return []
    den = basis.den
    bound = radius_sq.numerator * den * den // radius_sq.denominator
    return list(_walk(*gram_data(basis.ints), bound))


def _shortest_sq(den: int, rows: list, d: list, lam: list) -> Fraction:
    """lambda_1^2 of the lattice of rows / den, enumerated over the rows'
    Gram data (d, lam) within the shortest row's norm: on an LLL-reduced
    basis, as _lll_int returns it, that ball holds a handful of points."""
    bound = min(sum(x * x for x in row) for row in rows)
    return Fraction(min(n for x, n in _walk(d, lam, bound) if any(x)), den * den)


def shortest_vector_sq(basis: BasisMatrix) -> Fraction:
    """Exact squared first minimum lambda_1^2 of the lattice."""
    rows, _, d, lam = _lll_int(basis.ints, DEFAULT_DELTA)
    return _shortest_sq(basis.den, rows, d, lam)
