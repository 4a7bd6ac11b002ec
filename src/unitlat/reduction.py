"""Basis reduction and integer normal forms.

lll_reduce runs the LLL algorithm entirely in exact arithmetic, over Z or over
the norm-Euclidean rings Z[i] and Z[zeta_3], on integer rows: rational rows
are scaled by their common denominator first. Over Z the loop is all-integer:
it keeps the Gram determinants d_i and lambda_ij = d_{j+1} mu_ij and updates
them in place (Cohen, A Course in Computational Algebraic Number Theory,
Alg. 2.6.7). Over Z[i] and Z[zeta_3] rows and transform are integer pairs
(a, b), one per entry a + b*omega, updated by the ring's integer product;
Gram-Schmidt runs once and B_i = ||b_i*||^2 and mu stay exact over the
ring's fraction field, updated in place (Cohen, Alg. 2.6.3, with the
Hermitian product): size reduction by ring-integer rounding of mu, Lovasz
condition on algebraic norms. Both loops size-reduce row k against rows
k-1, ..., 0 before the Lovasz test and step back to max(k-1, 1) after a
swap. The ring is read off the input and never passed: a BasisMatrix is
over Z, an OKMatrix over its .ring, ring-element rows over their entries'
kind. hnf and snf are exact integer normal forms that keep no transform:
hnf returns the Hermite form H, snf only the invariant factors, from
alternating row and column Hermite forms (Kannan-Bachem, SIAM J. Comput. 8,
1979) with no elimination of its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence

from .lattice_core import (
    BasisMatrix,
    ConfigurationError,
    RankError,
    Record,
    clip,
    gram_data,
    integer_rows,
    round_ratio,
)
from .rings import EISENSTEIN, INTEGERS, RingDescriptor, RingElement, hdot, hnorm_sq, ring_by_kind

DEFAULT_DELTA = Fraction(99, 100)  # matches the delta used for both Z and Z[i]


class OKMatrix(Record):
    """Matrix with entries in a norm-Euclidean ring (or its fraction field)."""

    rows: tuple
    ring: RingDescriptor

    def __post_init__(self):
        rows = tuple(tuple(e for e in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len({len(row) for row in rows}) > 1:
            raise ValueError("matrix rows differ in length")
        for row in rows:
            for e in row:
                if e.kind != self.ring.kind:
                    raise ValueError("entry ring does not match matrix ring")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def underlying_z_rows(self) -> list:
        """Z-generators of the module as rational row vectors.

        Each ring row b contributes b and omega*b, written in the per-coordinate
        (1, omega) basis, so a rank-r module yields 2r rows of twice the row length.
        """
        omega = RingElement(0, 1, self.ring.kind)
        out = []
        for row in self.rows:
            for mult in (None, omega):
                r = row if mult is None else tuple(mult * e for e in row)
                flat = []
                for e in r:
                    flat.extend([e.a, e.b])
                out.append(tuple(flat))
        return out

    def to_json(self) -> dict:
        return {
            "ring": self.ring.kind,
            "rows": [[e.to_json() for e in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OKMatrix":
        ring = ring_by_kind(obj["ring"])
        rows = tuple(
            tuple(RingElement.from_json(e) for e in row) for row in obj["rows"]
        )
        return cls(rows, ring)


def _ring_rows(basis) -> tuple:
    """(rows, ring) of a BasisMatrix (integer-ring elements), an OKMatrix (its
    own ring) or a sequence of ring-element rows (their entries' common kind)."""
    if isinstance(basis, BasisMatrix):
        return [[RingElement(x) for x in row] for row in basis.rows], INTEGERS
    if isinstance(basis, OKMatrix):
        return [list(r) for r in basis.rows], basis.ring
    rows = [list(r) for r in basis]
    if len({len(r) for r in rows}) > 1:
        raise ConfigurationError("rows differ in length")
    kinds = {e.kind for row in rows for e in row}
    if len(kinds) != 1:
        raise ConfigurationError(f"rows must share one ring kind, got {sorted(kinds)}")
    return rows, ring_by_kind(kinds.pop())


def _check_delta(delta: Fraction, ring: RingDescriptor) -> None:
    mk = ring.euclidean_minimum
    if not (mk < delta < 1):
        raise ConfigurationError(
            f"delta must lie in ({mk}, 1) for ring {ring.kind}, got {clip(delta)}"
        )


def _gs_row(b: list, ortho: list, i: int):
    """Gram-Schmidt data for row i against the already-orthogonalized prefix."""
    v = list(b[i])
    mu_row = []
    for j in range(i):
        denom = hnorm_sq(ortho[j])
        c = hdot(b[i], ortho[j])
        c = RingElement(c.a / denom, c.b / denom, c.kind)
        mu_row.append(c)
        v = [x - c * y for x, y in zip(v, ortho[j])]
    return v, mu_row


def _gram_schmidt(rows: list) -> tuple:
    """(mu, B): exact Gram-Schmidt coefficients mu[i][j], j < i, and squared
    norms B[i] = ||b_i*||^2 of the rows; RankError if they are dependent."""
    ortho, mu, B = [], [], []
    for i in range(len(rows)):
        v, mu_row = _gs_row(rows, ortho, i)
        B.append(hnorm_sq(v))
        if B[i] == 0:
            raise RankError("rows are dependent over the ring's fraction field")
        ortho.append(v)
        mu.append(mu_row)
    return mu, B


def _lll_pairs(rows: list, delta: Fraction, ring: RingDescriptor):
    """Exact LLL on rows of integer pairs (a, b), one per ring integer
    a + b*omega; returns (rows, transform) as integer pairs: _lll_int on the a
    parts over Z, else Cohen's incremental LLL (Alg. 2.6.3), whose mu and
    B[i] = ||b_i*||^2 stay exact over the fraction field from one Gram-Schmidt."""
    if ring.kind == INTEGERS.kind:
        red, u, _, _ = _lll_int([[a for a, _ in r] for r in rows], delta)
        return [[(x, 0) for x in r] for r in red], [[(x, 0) for x in r] for r in u]
    _check_delta(delta, ring)
    e = int(ring.kind == EISENSTEIN.kind)  # omega^2 = -1 - e*omega
    n = len(rows)
    b = list(rows)
    u = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    mu, B = _gram_schmidt([[RingElement(x, y, ring.kind) for x, y in r] for r in b])
    k = 1
    while k < n:
        # size-reduce row k against rows k-1 .. 0: b_k -= q b_j takes q off
        # mu_kj and q mu_ji off mu_ki for i < j; with q = qa + qb*omega,
        # x - q y = (xa - qa ya + qb yb, xb - qb ya - (qa - e qb) yb)
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            q = mk[j].round()
            if not q.is_zero():
                qa, qb = q.a.numerator, q.b.numerator
                qc = qa - e * qb
                for m in (b, u):
                    m[k] = [(xa - qa * ya + qb * yb, xb - qb * ya - qc * yb)
                            for (xa, xb), (ya, yb) in zip(m[k], m[j])]
                mk[j] = mk[j] - q
                mj = mu[j]
                for i in range(j):
                    mk[i] = mk[i] - q * mj[i]
        m1 = mk[k - 1]
        lhs = B[k] + m1.norm() * B[k - 1]
        if lhs >= delta * B[k - 1]:
            k += 1
            continue
        # swap rows k - 1 and k: the new b_(k-1)* is b_k* + m1 b_(k-1)*, of
        # squared norm lhs, on which the old b_(k-1) has coefficient
        # m1n = conj(m1) B_(k-1) / lhs; rows past k rotate their two
        # coefficients on the old pair into the new one
        b[k], b[k - 1] = b[k - 1], b[k]
        u[k], u[k - 1] = u[k - 1], u[k]
        s = B[k - 1] / lhs
        m1c = m1.conj()
        m1n = RingElement(m1c.a * s, m1c.b * s, ring.kind)
        B[k] = B[k] * s
        B[k - 1] = lhs
        mu[k], mu[k - 1] = mu[k - 1] + [m1n], mk[: k - 1]
        for i in range(k + 1, n):
            mi = mu[i]
            t = mi[k]
            mi[k] = mi[k - 1] - m1 * t
            mi[k - 1] = t + m1n * mi[k]
        k = max(k - 1, 1)
    return b, u


def _lll_int(rows: List[List[int]], delta: Fraction):
    """Exact LLL over Z on integer rows, in integers only; returns
    (rows, transform, d, lam), the last two the reduced rows' Gram data.

    d and lam start as gram_data(rows) (Gram determinants and lam[k][j] =
    d[j+1] mu_kj) and are kept exact for the current rows throughout; every
    division below is exact. Quotients are q = round_half_away(mu_kj), the
    Lovasz test is d[k+1] d[k-1] + lam^2 >= delta d[k]^2. On the rows N = D B
    of a BasisMatrix B (its ints, D its den), the reduced basis is R = N / D
    and ||r_i*||^2 = d[i+1] / (d[i] D^2).
    """
    _check_delta(delta, INTEGERS)
    p, r = delta.numerator, delta.denominator
    n = len(rows)
    b = [list(row) for row in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d, lam = gram_data(b)
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            q = round_ratio(lk[j], dj)
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                lk[j] -= q * dj
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        lmb = lk[k - 1]
        t = d[k + 1] * d[k - 1] + lmb * lmb
        if r * t >= p * d[k] * d[k]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        u[k], u[k - 1] = u[k - 1], u[k]
        lam[k], lam[k - 1] = lam[k - 1] + [lmb], lk[: k - 1]
        new_dk = t // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            old = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lmb * old) // d[k]
            li[k - 1] = (new_dk * old + lmb * li[k]) // d[k + 1]
        d[k] = new_dk
        k = max(k - 1, 1)
    return b, u, d, lam


def lll_reduce(basis, delta=DEFAULT_DELTA):
    """LLL-reduce a BasisMatrix (over Z) or an OKMatrix (over its ring);
    returns (reduced, transform) of the same flavour. transform @ input ==
    reduced, and the transform is unimodular over the ring (determinant a
    ring unit).
    """
    if isinstance(basis, BasisMatrix):
        u = BasisMatrix(_lll_int(basis.ints, delta)[1])
        return u.matmul(basis), u
    if isinstance(basis, OKMatrix):
        red, u = lll_reduce_rows(basis, delta)
        return OKMatrix(tuple(red), basis.ring), OKMatrix(tuple(u), basis.ring)
    raise TypeError("basis must be a BasisMatrix or an OKMatrix")


def lll_reduce_rows(rows, delta=DEFAULT_DELTA):
    """LLL on raw ring-element rows (not necessarily square) or an OKMatrix's
    rows, over their ring as _ring_rows reads it. Same contract as lll_reduce.
    _lll_pairs runs on the rows scaled by the common denominator D of their
    coordinates, and the reduced rows are divided back by D: mu does not see
    the scaling, B scales by D^2 and the Lovasz test is homogeneous."""
    rows, ring = _ring_rows(rows)
    den, ints = integer_rows([[x for e in r for x in (e.a, e.b)] for r in rows])
    red, u = _lll_pairs([list(zip(r[::2], r[1::2])) for r in ints], delta, ring)
    return tuple([tuple(RingElement(Fraction(a, d), Fraction(b, d), ring.kind) for a, b in r)
                  for r in m] for m, d in ((red, den), (u, 1)))


def is_reduced(basis, delta=DEFAULT_DELTA) -> bool:
    """Exact check of the two reduction conditions (size reduction + Lovasz)
    over the input's ring.

    basis: a BasisMatrix, an OKMatrix or ring-element rows, as for
    check_reduced_bound.
    """
    b, ring = _ring_rows(basis)
    mu, B = _gram_schmidt(b)
    mk = ring.euclidean_minimum
    for i in range(len(b)):
        for j in range(i):
            if mu[i][j].norm() > mk:
                return False
    for k in range(1, len(b)):
        if B[k] + mu[k][k - 1].norm() * B[k - 1] < delta * B[k - 1]:
            return False
    return True


def check_reduced_bound(basis) -> bool:
    """Norm bound ||b_j|| <= (1/(delta - m_K))^(j-1) (det L)^(1/m) for all j,
    delta = DEFAULT_DELTA.

    Evaluated exactly by comparing 2m-th powers, with det L the product of the
    Gram-Schmidt norms over the ring. A shape check for the near-cubic family
    of acceptance criterion 4, not an LLL certificate: LLL does not imply the
    bound for j >= 2 (diag(1, 4) is reduced and fails it); is_reduced is.
    """
    rows, ring = _ring_rows(basis)
    m = len(rows)
    det_sq = Fraction(1)
    for b in _gram_schmidt(rows)[1]:
        det_sq *= b
    c_sq = 1 / (DEFAULT_DELTA - ring.euclidean_minimum) ** 2
    for j in range(m):
        # ||b_j||^(2m) <= c^(2m*j) * det_sq, all exact rationals
        if hnorm_sq(rows[j]) ** m > c_sq ** (m * j) * det_sq:
            return False
    return True


# ---------------------------------------------------------------------------
# Integer normal forms
# ---------------------------------------------------------------------------


def hnf(a: Sequence[Sequence[int]]) -> list:
    """Row-style Hermite normal form: the nonzero rows of the canonical
    upper-triangular HNF of the lattice the rows of A generate.

    Pivots are positive and entries above each pivot are reduced into
    [0, pivot).
    """
    rows = [list(map(int, r)) for r in a]
    n = len(rows)
    ncols = len(rows[0]) if n else 0
    r = 0
    for c in range(ncols):
        if r == n:
            break
        # clear column c below row r by Euclidean row operations
        while True:
            nz = [i for i in range(r, n) if rows[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(rows[i][c]), i))
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
            done = True
            for i in range(r + 1, n):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            r += 1
    return rows[:r]


def hnf_rational(rows: Sequence[Sequence[Fraction]]) -> tuple:
    """Canonical HNF of a rational generating set, for lattice-equality tests.

    Clears denominators, takes the integer HNF and rescales back, so two
    generating sets span the same lattice iff their results are equal.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return ()
    den, ints = integer_rows(rows)
    h = hnf(ints)
    return tuple(tuple(Fraction(x, den) for x in row) for row in h)


def snf(a: Sequence[Sequence[int]]) -> list:
    """Invariant factors d1 | d2 | ... of an integer matrix, rectangular-safe:
    the min(rows, cols) diagonal entries of its Smith normal form, all
    nonnegative, 0 past the rank. Row and column Hermite forms alternate until
    diagonal: the leading pivot shrinks until it divides its row, then its row
    and column stay clear. One gcd/lcm pass orders the diagonal.
    """
    h = hnf(a)
    while any(x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
        h = hnf(list(zip(*h)))
    n = min(len(a), len(a[0])) if a else 0
    d = [h[i][i] for i in range(len(h))] + [0] * (n - len(h))
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d
