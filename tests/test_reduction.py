import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from test_lattice_core import reference_gram_schmidt
from unitlat.lattice_core import BasisMatrix, ConfigurationError, RankError, norm_sq
from unitlat.bdd_sampler import babai_bdd, sample_dual
from unitlat.recovery import cyclotomic_log_basis, make_planted_problem
from unitlat import reduction
from unitlat.reduction import (
    DEFAULT_DELTA,
    OKMatrix,
    _lll_int,
    _lll_rows,
    check_reduced_bound,
    hnf,
    hnf_rational,
    is_reduced,
    lll_reduce,
    lll_reduce_gram,
    lll_reduce_rows,
    snf,
)
from unitlat.rings import EISENSTEIN, GAUSSIAN, INTEGERS, RingElement, hdot, hnorm_sq

F = Fraction


def rand_basis(rng, dim, lo=-9, hi=9):
    while True:
        rows = [[F(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisMatrix(rows)
        except RankError:
            continue


def rand_ok_matrix(rng, ring, dim, span=6):
    while True:
        rows = tuple(
            tuple(
                RingElement(rng.randint(-span, span), rng.randint(-span, span), ring.kind)
                for _ in range(dim)
            )
            for _ in range(dim)
        )
        mat = OKMatrix(rows, ring)
        z_rows = mat.underlying_z_rows()
        try:
            BasisMatrix([[F(x) for x in r] for r in z_rows])
        except RankError:
            continue
        return mat


def wrap_rows(basis, ring=INTEGERS):
    return [[RingElement(x, 0, ring.kind) for x in row] for row in basis.rows]


class TestIntegerLLL:
    def test_identity_fixed_point(self):
        b = BasisMatrix.identity(3)
        red, u = lll_reduce(b)
        assert red.rows == b.rows
        assert u.rows == b.rows

    def test_reduced_same_lattice_unimodular(self):
        rng = random.Random(1)
        for _ in range(25):
            b = rand_basis(rng, rng.randint(2, 5))
            red, u = lll_reduce(b)
            assert is_reduced(wrap_rows(red), DEFAULT_DELTA)
            assert abs(u.det()) == 1
            assert u.matmul(b).rows == red.rows
            assert hnf_rational(red.rows) == hnf_rational(b.rows)

    def test_classic_short_vector(self):
        # the reduced first vector obeys the classical 2^((m-1)/2) lambda_1 bound
        b = BasisMatrix([[F(201), F(37)], [F(1648), F(297)]])
        red, _ = lll_reduce(b)
        first = min(norm_sq(r) for r in red.rows)
        assert first * first <= 2 * abs(b.det()) ** 2  # gamma_2 = 2/sqrt(3)

    def test_norm_bound_near_cubic(self):
        """The det^(1/m)-relative norm bound holds on low-defect instances."""
        rng = random.Random(2)
        for _ in range(20):
            dim = rng.randint(2, 4)
            rows = [
                [F(10 * int(i == j) + rng.randint(-2, 2)) for j in range(dim)]
                for i in range(dim)
            ]
            try:
                b = BasisMatrix(rows)
            except RankError:
                continue
            red, _ = lll_reduce(b)
            assert check_reduced_bound(red)

    def test_norm_bound_fails_on_skewed_lattice(self):
        """diag(1, 4) is reduced yet violates the uniform norm bound: the
        bound is a property of bounded-defect bases, not of all reduced
        ones."""
        b = BasisMatrix.diagonal([F(1), F(4)])
        assert is_reduced(wrap_rows(b), DEFAULT_DELTA)
        assert not check_reduced_bound(b)


def rand_rows(rng, n, bits, rational, identity_block):
    """n random rows with entries up to 2^bits (over small denominators when
    rational); with identity_block, rows k x (k + m) as bp_reduce builds them."""
    width = rng.randint(1, 3) if identity_block else n
    rows = []
    for i in range(n):
        top = [
            F(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 12) if rational else 1)
            for _ in range(width)
        ]
        rows.append(top + [F(int(i == j)) for j in range(n)] if identity_block else top)
    return rows


def reference_lll_rows(rows, delta, ring):
    """(rows, transform): exact LLL over the ring that recomputes each changed
    row's Fraction Gram-Schmidt data from the rows themselves after every
    size-reduction step and after every swap. Row k is size-reduced against
    k-1, ..., 0 by ring.round quotients before the Lovasz test, and a swap
    steps back to max(k-1, 1): the decisions both library loops must make.
    RankError when the rows are dependent over the fraction field."""
    n = len(rows)
    b = [list(r) for r in rows]
    one, zero = RingElement(1, 0, ring.kind), RingElement(0, 0, ring.kind)
    u = [[one if i == j else zero for j in range(n)] for i in range(n)]
    ortho, mu = [None] * n, [None] * n

    def refresh(i):
        v, mu_row = list(b[i]), []
        for j in range(i):
            c, denom = hdot(b[i], ortho[j]), hnorm_sq(ortho[j])
            c = RingElement(c.a / denom, c.b / denom, c.kind)
            mu_row.append(c)
            v = [x - c * y for x, y in zip(v, ortho[j])]
        if hnorm_sq(v) == 0:
            raise RankError("rows are dependent over the ring's fraction field")
        ortho[i], mu[i] = v, mu_row

    for i in range(n):
        refresh(i)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = mu[k][j].round()
            if not q.is_zero():
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                refresh(k)
        lhs = hnorm_sq(ortho[k]) + mu[k][k - 1].norm() * hnorm_sq(ortho[k - 1])
        if lhs >= delta * hnorm_sq(ortho[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            for i in range(k - 1, n):
                refresh(i)
            k = max(k - 1, 1)
    return [tuple(r) for r in b], [tuple(r) for r in u]


RINGS = {r.kind: r for r in (INTEGERS, GAUSSIAN, EISENSTEIN)}


@st.composite
def bp_shaped_rows(draw, ring):
    """k x (m + k) rows as bp_reduce builds them over the ring: k small ring
    combinations of m small basis rows, scaled by 2^q and off by a few units
    per coordinate, on top of an identity block."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(m, min(m + 2, 5)))
    scale = RingElement(2 ** draw(st.sampled_from([4, 16, 40])), 0, ring.kind)

    def block(n, span):  # n rows of m ring integers with parts in [-span, span]
        part = st.integers(-span, span)
        elem = st.builds(lambda a, b: RingElement(a, b, ring.kind), part, part)
        return st.lists(st.lists(elem, min_size=m, max_size=m), min_size=n, max_size=n)

    basis, coeffs, noise = draw(block(m, 2)), draw(block(k, 2)), draw(block(k, 3))
    rows = []
    for j in range(k):
        gen = [sum((c * b[col] for c, b in zip(coeffs[j], basis)), RingElement(0, 0, ring.kind))
               for col in range(m)]
        top = [g * scale + e for g, e in zip(gen, noise[j])]
        rows.append(top + [RingElement(int(i == j), 0, ring.kind) for i in range(k)])
    return rows


@st.composite
def ring_row_sets(draw):
    """(rows, ring, delta): 1-5 non-symmetric rows of width n..n+2 over Z,
    Z[i] or Z[zeta_3], integral or over small denominators, with small
    entries (rounding ties, Lovasz equalities and dependent rows occur) or
    large ones; over Z[i] and Z[zeta_3] also bp_reduce's shape
    (bp_shaped_rows)."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    delta = draw(st.sampled_from([F(99, 100), F(3, 4), F(9, 10)]))
    if ring is not INTEGERS and draw(st.booleans()):
        return draw(bp_shaped_rows(ring)), ring, delta
    n = draw(st.integers(1, 5))
    width = n + draw(st.integers(0, 2))
    bits = draw(st.sampled_from([1, 3, 40]))
    dens = st.sampled_from([1]) if draw(st.booleans()) else st.integers(1, 12)
    part = st.integers(-(1 << bits), 1 << bits)
    omega = part if ring is not INTEGERS else st.just(0)
    entry = st.builds(
        lambda a, b, d: RingElement(F(a, d), F(b, d), ring.kind), part, omega, dens
    )
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=n, max_size=n))
    return rows, ring, delta


class TestLoopsMatchReference:
    """_lll_rows on every ring, and over Z _lll_int (directly on integer rows,
    through lll_reduce_rows on rational ones), return exactly the reference's
    rows and transform, and raise RankError where it does."""

    @given(ring_row_sets())
    @settings(max_examples=150, deadline=None)
    def test_rows_and_transform(self, case):
        rows, ring, delta = case
        try:
            expected = reference_lll_rows(rows, delta, ring)
        except RankError:
            with pytest.raises(RankError):
                _lll_rows(rows, delta, ring)
            with pytest.raises(RankError):
                lll_reduce_rows(rows, delta)
            return
        red, u = _lll_rows(rows, delta, ring)
        assert ([tuple(r) for r in red], [tuple(r) for r in u]) == expected
        assert lll_reduce_rows(rows, delta) == expected
        if ring is INTEGERS and all(e.a.denominator == 1 for r in rows for e in r):
            red, u, _, _ = _lll_int([[int(e.a) for e in r] for r in rows], delta)
            wrap = lambda m: [tuple(RingElement(x) for x in r) for r in m]
            assert (wrap(red), wrap(u)) == expected


class TestIntegerCoreMatchesReference:
    """Over Z, lll_reduce and lll_reduce_rows run the all-integer core _lll_int;
    it must return exactly the rows and transform of reference_lll_rows."""

    @pytest.mark.parametrize("delta", [F(99, 100), F(3, 4), F(9, 10)])
    def test_byte_identical(self, delta):
        rng = random.Random(int(delta * 100))
        for case in range(32):
            n = rng.randint(2, 5)
            # 1-bit entries make rounding ties and Lovasz equalities common
            bits = (1, 4, 32, 128)[case % 4]
            rational = case // 4 % 2 == 1
            identity_block = case // 8 % 2 == 1
            rows = rand_rows(rng, n, bits, rational, identity_block)
            ring_rows = [[RingElement(x, 0, INTEGERS.kind) for x in r] for r in rows]
            try:
                ref_b, ref_u = reference_lll_rows(ring_rows, delta, INTEGERS)
            except RankError:  # small entries can draw dependent rows
                with pytest.raises(RankError):
                    lll_reduce_rows(ring_rows, delta)
                continue
            red, u = lll_reduce_rows(ring_rows, delta)
            assert red == [tuple(r) for r in ref_b]
            assert u == [tuple(r) for r in ref_u]
            if not identity_block:
                red_m, u_m = lll_reduce(BasisMatrix(rows), delta)
                assert red_m.rows == tuple(tuple(e.a for e in r) for r in ref_b)
                assert u_m.rows == tuple(tuple(e.a for e in r) for r in ref_u)

    def test_gram_data_is_that_of_the_reduced_basis(self):
        """lll_reduce_gram returns lll_reduce's basis and transform, and the
        Gram data the loop kept equals the exact Gram-Schmidt of the result."""
        rng = random.Random(7)
        for case in range(24):
            bits = (1, 4, 32, 128)[case % 4]
            rows = rand_rows(rng, rng.randint(2, 6), bits, case % 2 == 1, False)
            try:
                b = BasisMatrix(rows)
            except RankError:
                continue
            den, ints, u, d, lam = lll_reduce_gram(b)
            red, u_ref = lll_reduce(b)
            assert [[F(x, den) for x in r] for r in ints] == [list(r) for r in red.rows]
            assert [tuple(r) for r in u] == [tuple(int(x) for x in r) for r in u_ref.rows]
            ortho, mu = reference_gram_schmidt(red.rows)
            assert [F(d[i + 1], d[i] * den * den) for i in range(b.m)] == [
                norm_sq(v) for v in ortho
            ]
            for k in range(b.m):
                assert [F(lam[k][j], d[j + 1]) for j in range(k)] == list(mu[k])

    def test_dependent_rows_raise(self):
        rng = random.Random(11)
        for _ in range(10):
            rows = rand_rows(rng, rng.randint(3, 5), 32, False, False)
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
            ring_rows = [[RingElement(x, 0, INTEGERS.kind) for x in r] for r in rows]
            with pytest.raises(RankError):
                reference_lll_rows(ring_rows, DEFAULT_DELTA, INTEGERS)
            with pytest.raises(RankError):
                lll_reduce_rows(ring_rows, DEFAULT_DELTA)

    @pytest.mark.parametrize("delta", [F(1, 4), F(1)])
    def test_delta_out_of_range(self, delta):
        with pytest.raises(ConfigurationError):
            lll_reduce(BasisMatrix.identity(2), delta)

    @pytest.mark.parametrize(
        "m, digest",
        [
            (11, "e90c73840e12fc29879ced2f15b17408e23401340986043e6676c5d6a7963326"),
            (13, "c0834baf81cf3d3bdc2c32f85306229da7f21f19c1d6488ff9d7ac7f145a5bfb"),
        ],
    )
    def test_cyclotomic_log_basis_pinned(self, m, digest):
        """The cyclotomic log basis, pinned. m = 11 is the value of the
        Fraction-loop implementation; m = 13 was re-pinned when the basis
        became the certified log of bp_reduce's coordinate products (one
        entry moved by 2^-128)."""
        b = cyclotomic_log_basis(m)
        assert hashlib.sha256(b.dumps().encode()).hexdigest() == digest


class TestRingFromInput:
    """The ring is read off the input: a BasisMatrix is over Z, an OKMatrix
    over its ring, ring-element rows over their entries' kind."""

    def test_basis_matrix_is_checked_over_z(self):
        """mu = 3/5 is size-reduced over Z[i] (N = 9/25 <= 1/2), not over Z."""
        b = BasisMatrix([[F(5), F(0)], [F(3), F(10)]])
        assert not is_reduced(b, F(99, 100))
        assert not is_reduced(wrap_rows(b), F(99, 100))
        gaussian = wrap_rows(b, GAUSSIAN)
        assert is_reduced(gaussian, F(99, 100))
        assert is_reduced(OKMatrix(tuple(map(tuple, gaussian)), GAUSSIAN), F(99, 100))

    @pytest.mark.parametrize("ring", [GAUSSIAN, EISENSTEIN])
    def test_rows_and_matrix_agree(self, ring):
        mat = rand_ok_matrix(random.Random(8), ring, 3)
        red, u = lll_reduce(mat)
        assert (list(red.rows), list(u.rows)) == lll_reduce_rows(mat.rows)

    def test_integer_ok_matrix_reduces_as_basis_matrix(self):
        b = BasisMatrix([[F(201), F(37)], [F(1648), F(297)]])
        red, u = lll_reduce(OKMatrix(tuple(map(tuple, wrap_rows(b))), INTEGERS))
        red_z, u_z = lll_reduce(b)
        assert tuple(tuple(e.a for e in r) for r in red.rows) == red_z.rows
        assert tuple(tuple(e.a for e in r) for r in u.rows) == u_z.rows

    @pytest.mark.parametrize("ring", [INTEGERS, GAUSSIAN, EISENSTEIN])
    def test_ragged_rows_rejected(self, ring):
        """Rows [[1, 2], [3]] were cut to [(1, 2), (2,)] over Z and raised a
        bare AssertionError in hdot over Z[i] and Z[zeta_3]."""
        rows = [[RingElement(x, 0, ring.kind) for x in r] for r in ([1, 2], [3])]
        for check in (lll_reduce_rows, is_reduced, check_reduced_bound):
            with pytest.raises(ConfigurationError, match="differ in length"):
                check(rows)

    @pytest.mark.parametrize("ring", [INTEGERS, GAUSSIAN, EISENSTEIN])
    def test_dependent_rows_rejected_by_the_checks(self, ring):
        """is_reduced and check_reduced_bound share the LLL's Gram-Schmidt and
        its RankError; they divided by zero or answered on dependent rows."""
        rows = [[RingElement(x, 0, ring.kind) for x in r] for r in ([1, 2], [2, 4], [0, 1])]
        for check in (is_reduced, check_reduced_bound):
            with pytest.raises(RankError):
                check(rows)

    def test_mixed_kinds_rejected(self):
        rows = [
            [RingElement(1, 1, GAUSSIAN.kind), RingElement(0)],
            [RingElement(0), RingElement(1)],
        ]
        for check in (lll_reduce_rows, is_reduced, check_reduced_bound):
            with pytest.raises(ConfigurationError, match="one ring kind"):
                check(rows)


class TestRingLLL:
    @pytest.mark.parametrize("ring", [GAUSSIAN, EISENSTEIN])
    def test_reduced_and_unimodular(self, ring):
        rng = random.Random(3)
        for _ in range(10):
            mat = rand_ok_matrix(rng, ring, 2)
            red, u = lll_reduce(mat, DEFAULT_DELTA)
            assert is_reduced([list(r) for r in red.rows], DEFAULT_DELTA)
            # transform entries are ring integers with unit determinant
            det = (
                u.rows[0][0] * u.rows[1][1] - u.rows[0][1] * u.rows[1][0]
            )
            assert det.norm() == 1

    @pytest.mark.parametrize("ring", [GAUSSIAN, EISENSTEIN])
    def test_forgetful_lattice_preserved(self, ring):
        rng = random.Random(4)
        for _ in range(10):
            mat = rand_ok_matrix(rng, ring, 2)
            red, _ = lll_reduce(mat, DEFAULT_DELTA)
            before = hnf_rational([[F(x) for x in r] for r in mat.underlying_z_rows()])
            after = hnf_rational([[F(x) for x in r] for r in red.underlying_z_rows()])
            assert before == after

    def test_size_reduction_condition(self):
        rng = random.Random(5)
        mat = rand_ok_matrix(rng, GAUSSIAN, 3)
        red, _ = lll_reduce(mat, DEFAULT_DELTA)
        assert is_reduced([list(r) for r in red.rows], DEFAULT_DELTA)

    def test_ring_lll_computes_gram_schmidt_once(self, monkeypatch):
        """Gram-Schmidt runs once per row; size reductions and swaps update
        B and mu in place and never recompute a row's Gram-Schmidt data."""
        calls, real = [], reduction._gs_row
        monkeypatch.setattr(
            reduction, "_gs_row", lambda b, ortho, i: calls.append(i) or real(b, ortho, i)
        )
        mat = rand_ok_matrix(random.Random(6), GAUSSIAN, 4)
        red, u = lll_reduce_rows(mat)
        assert calls == [0, 1, 2, 3]
        assert (red, u) == reference_lll_rows(mat.rows, DEFAULT_DELTA, GAUSSIAN)
        assert red != list(mat.rows)  # the loop size-reduced or swapped

    @pytest.mark.parametrize("ring", [GAUSSIAN, EISENSTEIN])
    def test_size_reduction_keeps_rows_in_integers(self, ring, monkeypatch):
        """Past Gram-Schmidt the loop does RingElement arithmetic on mu only:
        rows and transform are integer pairs. So zero columns appended to
        the rows change neither the result nor the number of RingElement
        sums, differences and products; when the rows were RingElements,
        each size-reduction step made one per entry."""
        rows = [list(r) for r in rand_ok_matrix(random.Random(9), ring, 4).rows]
        zeros = [RingElement(0, 0, ring.kind)] * 12
        counts, in_gs, real_gs = Counter(), [False], reduction._gs_row

        def gs_row(b, ortho, i):
            in_gs[0] = True
            try:
                return real_gs(b, ortho, i)
            finally:
                in_gs[0] = False

        def counted(name, real):
            def op(x, y):
                counts[name] += not in_gs[0]
                return real(x, y)
            return op

        monkeypatch.setattr(reduction, "_gs_row", gs_row)
        for name in ("__add__", "__sub__", "__mul__"):
            monkeypatch.setattr(RingElement, name, counted(name, getattr(RingElement, name)))
        red, u = lll_reduce_rows(rows)
        plain = dict(counts)
        counts.clear()
        red_padded, u_padded = lll_reduce_rows([r + zeros for r in rows])
        assert plain["__sub__"] > 0  # the loop size-reduced
        assert dict(counts) == plain
        assert (red_padded, u_padded) == ([r + tuple(zeros) for r in red], u)


def _sympy_hnf_rows(a):
    m = hermite_normal_form(sympy.Matrix(a).T).T
    rows = [list(map(int, m.row(i))) for i in range(m.rows)]
    return rows


# ---------------------------------------------------------------------------
# Reference normal forms: the same eliminations as hnf/snf, also applied to
# the unimodular transforms, so U A = H and U A V = S can be checked.
# ---------------------------------------------------------------------------


def reference_hnf(a):
    """(H, U): H as hnf returns it, U unimodular with U A = H padded with
    zero rows."""
    rows = [list(map(int, r)) for r in a]
    n = len(rows)
    ncols = len(rows[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(ncols):
        if r == n:
            break
        while True:
            nz = [i for i in range(r, n) if rows[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(rows[i][c]), i))
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, n):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
    return [rows[i] for i in range(r)], u


def reference_snf(a):
    """(S, U, V): U and V unimodular, U A V = S diagonal (rectangular-safe)
    with nonnegative entries d1 | d2 | ..."""
    s = [list(map(int, r)) for r in a]
    n = len(s)
    m = len(s[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        s[dst] = [x - q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in s:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(n, m):
        piv = None
        for i in range(t, n):
            for j in range(t, m):
                if s[i][j] != 0:
                    if piv is None or abs(s[i][j]) < abs(s[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, n):
                if s[i][t] != 0:
                    addmul_row(i, t, s[i][t] // s[t][t])
            for j in range(t + 1, m):
                if s[t][j] != 0:
                    addmul_col(j, t, s[t][j] // s[t][t])
            nz = [i for i in range(t + 1, n) if s[i][t] != 0]
            nzc = [j for j in range(t + 1, m) if s[t][j] != 0]
            if nz:
                i = min(nz, key=lambda i: abs(s[i][t]))
                swap_rows(t, i)
                continue
            if nzc:
                j = min(nzc, key=lambda j: abs(s[t][j]))
                swap_cols(t, j)
                continue
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if s[i][j] % s[t][t] != 0:
                        bad = (i, j)
                        break
                if bad:
                    break
            if bad is None:
                break
            addmul_row(t, bad[0], -1)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return s, u, v


def check_reference_hnf(a):
    """hnf(a) equals the reference H, and the reference's U A = H holds."""
    h, u = reference_hnf(a)
    assert hnf(a) == h
    k, n = len(a), len(a[0])
    prod = [[sum(u[i][j] * a[j][c] for j in range(k)) for c in range(n)] for i in range(k)]
    assert prod[: len(h)] == h
    assert all(all(x == 0 for x in row) for row in prod[len(h):])
    assert sympy.Matrix(u).det() in (1, -1)
    return h


def check_reference_snf(a):
    """snf(a) equals the reference's diagonal, and U A V = S holds."""
    s, u, v = reference_snf(a)
    assert snf(a) == [s[i][i] for i in range(min(len(a), len(a[0])))]
    assert sympy.Matrix(u) * sympy.Matrix(a) * sympy.Matrix(v) == sympy.Matrix(s)
    assert sympy.Matrix(u).det() in (1, -1)
    assert sympy.Matrix(v).det() in (1, -1)
    return s


def planted_coordinate_rows(dim, index, seed):
    """The 12 dim x dim integer rows recover_with_sublattice reduces on a
    planted instance: each dual sample Babai-rounded against M*."""
    p = make_planted_problem(dim, index, seed=seed)
    samples = sample_dual(p.hidden_dual, p.sampler, 12 * dim, p.precision_bits)
    return [list(babai_bdd(s.y_tilde, p.b_m)) for s in samples]


class TestHNF:
    def test_examples(self):
        assert hnf([[2, 0], [0, 3]]) == [[2, 0], [0, 3]]

    def test_transform_and_canonical(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(2, 4)
            k = rng.randint(n, n + 3)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
            h = check_reference_hnf(a)
            # pivots positive, entries above pivots reduced
            for r, row in enumerate(h):
                piv_col = next(c for c, x in enumerate(row) if x != 0)
                piv = row[piv_col]
                assert piv > 0
                for rr in range(r):
                    assert 0 <= h[rr][piv_col] < piv

    def test_rank_deficient_and_zero_columns(self):
        """Repeated rows, zero rows and zero columns: the pivot walk skips
        columns and stops short of the row count."""
        rng = random.Random(16)
        for _ in range(25):
            n = rng.randint(2, 5)
            base = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, n))]
            a = base + [list(rng.choice(base)) for _ in range(2)] + [[0] * n]
            for c in rng.sample(range(n), rng.randint(0, n - 1)):
                for row in a:
                    row[c] = 0
            rng.shuffle(a)
            h = check_reference_hnf(a)
            assert len(h) == sympy.Matrix(a).rank()

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_planted_coordinate_rows(self, dim):
        for seed in range(3):
            a = planted_coordinate_rows(dim, 1 + seed * dim, seed)
            check_reference_hnf(a)

    def test_against_sympy_full_rank(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(2, 4)
            while True:
                a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                if sympy.Matrix(a).det() != 0:
                    break
            h = hnf(a)
            # sympy uses a lower-triangular convention; compare the lattices:
            # each basis must be an integer unimodular combination of the other
            ours = sympy.Matrix(h)
            theirs = sympy.Matrix(_sympy_hnf_rows(a))
            change = theirs * ours.inv()
            assert all(x.is_integer for x in change)
            assert abs(change.det()) == 1


class TestSNF:
    def test_divisibility_and_transforms(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(2, 4)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            check_reference_snf(a)
            diag = snf(a)
            for x, y in zip(diag, diag[1:]):
                if y != 0:
                    assert x != 0 and y % x == 0

    def test_rank_deficient_and_rectangular(self):
        """Zero rows, repeated rows, zero columns and more columns than rows:
        the factors past the rank are 0."""
        rng = random.Random(18)
        for _ in range(25):
            k, n = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
            a += [list(rng.choice(a)), [0] * n]
            for c in rng.sample(range(n), rng.randint(0, n - 1)):
                for row in a:
                    row[c] = 0
            rng.shuffle(a)
            check_reference_snf(a)
            factors = snf(a)
            rank = sympy.Matrix(a).rank()
            assert all(f > 0 for f in factors[:rank]) and not any(factors[rank:])

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_planted_index(self, dim):
        """On the pipeline's HNF of planted coordinate rows, the factors
        multiply to the product of H's diagonal, the index."""
        for seed in range(3):
            h = hnf(planted_coordinate_rows(dim, 1 + seed * dim, seed))
            assert len(h) == dim
            check_reference_snf(h)
            assert math.prod(snf(h)) == math.prod(h[i][i] for i in range(len(h)))

    def test_against_sympy(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(2, 4)
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            ref = smith_normal_form(sympy.Matrix(a))
            assert snf(a) == [abs(int(ref[i, i])) for i in range(n)]


@st.composite
def integer_matrices(draw):
    """1-6 x 1-6 integer matrices with entries up to 10^6 in size; about half
    have a last row that is an integer combination of two others."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, k - 2)), draw(st.integers(0, k - 2))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        a[-1] = [s * x + t * y for x, y in zip(a[i], a[j])]
    return a


def transpose(a):
    return [list(col) for col in zip(*a)]


class TestSNFProperties:
    """snf against the transform-carrying reference and the invariances
    that define the Smith form."""

    @given(integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, a):
        s, _, _ = reference_snf(a)
        assert snf(a) == [s[i][i] for i in range(min(len(a), len(a[0])))]

    @given(integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_transpose_invariant(self, a):
        assert snf(a) == snf(transpose(a))

    @given(integer_matrices(), st.lists(
        st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 5), st.integers(-9, 9)),
        max_size=12,
    ))
    @settings(max_examples=150, deadline=None)
    def test_unimodular_invariant(self, a, ops):
        """Each op adds q times one row (or column) to another, or negates a
        row (or column) when both indices coincide: a unimodular change."""
        b = [list(row) for row in a]
        for on_rows, i, j, q in ops:
            if not on_rows:
                b = transpose(b)
            i, j = i % len(b), j % len(b)
            if i == j:
                b[i] = [-x for x in b[i]]
            else:
                b[i] = [x + q * y for x, y in zip(b[i], b[j])]
            if not on_rows:
                b = transpose(b)
        assert snf(b) == snf(a)


class TestHNFRational:
    def test_lattice_equality_detection(self):
        a = [[F(1), F(0)], [F(0), F(1)]]
        b = [[F(1), F(1)], [F(0), F(1)], [F(1), F(0)]]
        assert hnf_rational(a) == hnf_rational(b)
        c = [[F(2), F(0)], [F(0), F(1)]]
        assert hnf_rational(a) != hnf_rational(c)

    def test_scaling(self):
        a = [[F(1, 2), F(0)], [F(0), F(1, 2)]]
        b = [[F(1, 2), F(1, 2)], [F(0), F(1, 2)]]
        assert hnf_rational(a) == hnf_rational(b)
