import itertools
import math
import random
from fractions import Fraction

from unitlat.enumeration import lattice_points_in_ball, shortest_vector_sq
from unitlat.lattice_core import BasisMatrix, RankError, norm_sq

F = Fraction


def rand_basis(rng, dim, lo=-5, hi=5):
    while True:
        rows = [[F(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisMatrix(rows)
        except RankError:
            continue


def rand_rational_basis(rng, dim):
    """Random non-integral entries (non-symmetric but for rare draws)."""
    while True:
        rows = [
            [F(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(dim)]
            for _ in range(dim)
        ]
        try:
            return BasisMatrix(rows)
        except RankError:
            continue


def ball_box(basis, radius_sq):
    """Bounds on |x_j| over the ball: |x_j| <= sqrt(radius_sq) ||row_j(B^t)^-1||."""
    return [
        math.isqrt(math.floor(radius_sq * norm_sq(row))) + 1 for row in basis.dual().rows
    ]


def brute_force_points(basis, radius_sq):
    """Ball coordinates in enumeration order (ascending reversed tuple)."""
    boxes = ball_box(basis, radius_sq)
    out = []
    for x in itertools.product(*(range(-b, b + 1) for b in boxes)):
        if norm_sq(basis.row_combination(x)) <= radius_sq:
            out.append(x)
    return sorted(out, key=lambda x: x[::-1])


def assert_matches_brute_force(basis, radius_sq):
    got = lattice_points_in_ball(basis, radius_sq)
    assert [x for x, _ in got] == brute_force_points(basis, radius_sq)
    scale = basis.den ** 2
    for x, n in got:
        assert F(n, scale) == norm_sq(basis.row_combination(x))


class TestEnumeration:
    def test_unit_ball_z2(self):
        pts = {x for x, _ in lattice_points_in_ball(BasisMatrix.identity(2), F(1))}
        assert pts == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(10):
            assert_matches_brute_force(rand_basis(rng, 2), F(rng.randint(1, 40)))
        # rational non-symmetric bases, radius exactly the norm of a lattice
        # vector: the boundary points must come out, in order, exactly normed;
        # skewed draws whose search box exceeds 10k candidates are skipped
        # only to bound the brute force's run time
        checked = 0
        while checked < 20:
            b = rand_rational_basis(rng, rng.randint(2, 4))
            v = b.row_combination([rng.randint(-1, 1) for _ in range(b.m)])
            if math.prod(2 * x + 1 for x in ball_box(b, norm_sq(v))) > 10_000:
                continue
            assert_matches_brute_force(b, norm_sq(v))
            checked += 1

    def test_points_carry_correct_vectors(self):
        b = BasisMatrix([[F(2), F(1)], [F(0), F(3)]])
        scale = b.den ** 2
        for coords, n in lattice_points_in_ball(b, F(30)):
            assert F(n, scale) == norm_sq(b.row_combination(coords)) <= 30

    def test_dim3(self):
        rng = random.Random(2)
        assert_matches_brute_force(rand_basis(rng, 3), F(16))


class TestShortestVector:
    def test_identity(self):
        assert shortest_vector_sq(BasisMatrix.identity(4)) == 1

    def test_scaled(self):
        assert shortest_vector_sq(BasisMatrix.diagonal([F(5)])) == 25

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(10):
            b = rand_basis(rng, 2, -4, 4)
            lam = shortest_vector_sq(b)
            best = min(
                norm_sq(b.row_combination(x))
                for x in itertools.product(range(-10, 11), repeat=2)
                if any(x)
            )
            assert lam == best

    def test_invariant_under_unimodular(self):
        b = BasisMatrix([[F(3), F(1)], [F(1), F(2)]])
        sheared = BasisMatrix(
            [
                [b.rows[0][0] + 4 * b.rows[1][0], b.rows[0][1] + 4 * b.rows[1][1]],
                list(b.rows[1]),
            ]
        )
        assert shortest_vector_sq(b) == shortest_vector_sq(sheared)
