"""Exact lattice substrate: rational basis matrices, duals, norms, Gram-Schmidt.

Everything here is exact: matrix entries are `fractions.Fraction`, determinants
and inverses are computed by fraction-free style elimination, and the only
place irrational values appear (row 2-norms) they are returned as a rational
upper bound with relative error below 2**-64 next to the exact square.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction

ROOT_BITS = 64  # relative error of rational upper bounds on square roots


class RankError(ValueError):
    """Input matrix is singular / not of full rank."""


class ContainmentError(ValueError):
    """Claimed sublattice is not contained in the ambient lattice."""


def _to_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def sqrt_upper(x: Fraction, bits: int = ROOT_BITS) -> Fraction:
    """Rational upper bound on sqrt(x) with relative error <= 2**-bits."""
    x = _to_frac(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Fraction(0)
    scale = 1 << bits
    # sqrt(p/q) = sqrt(p*q)/q; isqrt gives the floor, +1 makes it an upper
    # bound (exact square roots are returned exactly)
    p, q = x.numerator, x.denominator
    s = math.isqrt(p * q * scale * scale)
    if s * s != p * q * scale * scale:
        s += 1
    return Fraction(s, q * scale)


def sqrt_lower(x: Fraction, bits: int = ROOT_BITS) -> Fraction:
    """Rational lower bound on sqrt(x) with relative error <= 2**-bits."""
    x = _to_frac(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Fraction(0)
    scale = 1 << bits
    p, q = x.numerator, x.denominator
    s = math.isqrt(p * q * scale * scale)
    return Fraction(s, q * scale)


def nth_root_upper(x: Fraction, n: int, bits: int = ROOT_BITS) -> Fraction:
    """Rational upper bound on x**(1/n), relative error <= 2**-bits."""
    x = _to_frac(x)
    if n < 1:
        raise ValueError("root index must be >= 1")
    if x < 0:
        raise ValueError("nth root of negative rational")
    if x == 0 or n == 1:
        return x
    # integer nth root of p * q**(n-1) over q, scaled for extra precision
    scale = 1 << bits
    p, q = x.numerator, x.denominator
    target = p * q ** (n - 1) * scale**n
    # 2^ceil(bitlen/n) >= target^(1/n), overflow-safe for huge integers
    lo, hi = 0, 1 << (-(-target.bit_length() // n))
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n >= target:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(hi, q * scale)


def round_half_away(x: Fraction) -> int:
    """Nearest integer, ties rounded away from zero (fixed for reproducibility)."""
    x = _to_frac(x)
    n, d = x.numerator, x.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    assert len(u) == len(v), "dimension mismatch in dot product"
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(v: Sequence[Fraction]) -> Fraction:
    return dot(v, v)


@dataclass(frozen=True)
class FixedPointVector:
    """Real vector stored as integer mantissas sharing one binary exponent.

    Coordinate i has exact value mantissas[i] * 2**-exponent.
    """

    mantissas: tuple
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("fixed-point exponent must be >= 0")
        object.__setattr__(self, "mantissas", tuple(int(m) for m in self.mantissas))

    @property
    def dim(self) -> int:
        return len(self.mantissas)

    def to_rationals(self) -> tuple:
        d = 1 << self.exponent
        return tuple(Fraction(m, d) for m in self.mantissas)

    def to_floats(self) -> tuple:
        d = float(1 << self.exponent)
        return tuple(m / d for m in self.mantissas)

    @classmethod
    def from_rationals(cls, values: Iterable[Fraction], exponent: int) -> "FixedPointVector":
        d = 1 << exponent
        return cls(tuple(round_half_away(_to_frac(v) * d) for v in values), exponent)

    def to_json(self) -> dict:
        return {"q": self.exponent, "mantissas": [str(m) for m in self.mantissas]}

    @classmethod
    def from_json(cls, obj: dict) -> "FixedPointVector":
        return cls(tuple(int(m) for m in obj["mantissas"]), int(obj["q"]))


class BasisMatrix:
    """Square full-rank matrix of exact rationals whose rows generate a lattice."""

    __slots__ = ("rows", "m", "_det", "_inv", "_dual")

    def __init__(self, rows):
        mat = tuple(tuple(_to_frac(x) for x in row) for row in rows)
        m = len(mat)
        if m == 0 or any(len(r) != m for r in mat):
            raise ValueError("basis matrix must be square and nonempty")
        self.rows = mat
        self.m = m
        self._det = None
        self._inv = None
        self._dual = None
        if self.det() == 0:
            raise RankError("basis matrix is singular")

    def __eq__(self, other):
        return isinstance(other, BasisMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"BasisMatrix({[[str(x) for x in r] for r in self.rows]})"

    @classmethod
    def identity(cls, m: int) -> "BasisMatrix":
        return cls([[Fraction(int(i == j)) for j in range(m)] for i in range(m)])

    @classmethod
    def diagonal(cls, entries) -> "BasisMatrix":
        es = [_to_frac(e) for e in entries]
        m = len(es)
        return cls([[es[i] if i == j else Fraction(0) for j in range(m)] for i in range(m)])

    def det(self) -> Fraction:
        if self._det is None:
            self._det, self._inv = _det_and_inverse(self.rows)
        return self._det

    def inverse_rows(self) -> tuple:
        if self._inv is None:
            self._det, self._inv = _det_and_inverse(self.rows)
        if self._inv is None:
            raise RankError("matrix is singular")
        return self._inv

    def transpose(self) -> "BasisMatrix":
        return BasisMatrix(tuple(zip(*self.rows)))

    def inverse_as_matrix(self) -> "BasisMatrix":
        return BasisMatrix(self.inverse_rows())

    def dual(self) -> "BasisMatrix":
        """Rows generating the dual lattice, (B^t)^-1 = (B^-1)^t, computed once."""
        if self._dual is None:
            self._dual = BasisMatrix(zip(*self.inverse_rows()))
        return self._dual

    def matmul(self, other: "BasisMatrix") -> "BasisMatrix":
        return BasisMatrix(_matmul(self.rows, other.rows))

    def apply(self, v: Sequence[Fraction]) -> tuple:
        """Matrix-vector product B @ v."""
        assert len(v) == self.m
        return tuple(dot(row, v) for row in self.rows)

    def row_combination(self, coeffs: Sequence[int]) -> tuple:
        """Integer combination of the rows: sum coeffs[i] * rows[i]."""
        assert len(coeffs) == self.m
        return tuple(
            sum((Fraction(c) * x for c, x in zip(coeffs, col)), Fraction(0))
            for col in zip(*self.rows)
        )

    def to_json(self) -> dict:
        return {"m": self.m, "rows": [[_frac_str(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "BasisMatrix":
        rows = [[_to_frac(x) for x in row] for row in obj["rows"]]
        if len(rows) != int(obj["m"]):
            raise ValueError("row count does not match declared dimension")
        return cls(rows)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, s: str) -> "BasisMatrix":
        return cls.from_json(json.loads(s))


def common_denominator(basis: BasisMatrix) -> int:
    """Least common denominator D of the entries: D B is an integer matrix."""
    return math.lcm(*(x.denominator for row in basis.rows for x in row))


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def _det_and_inverse(rows):
    """Exact determinant and inverse via Gauss-Jordan over Fractions.

    Returns (det, inverse_rows) with inverse_rows None when singular.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            det = -det
        p = a[col][col]
        det *= p
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return det, tuple(tuple(r) for r in inv)


@dataclass(frozen=True)
class GramSchmidtData:
    """Exact Gram-Schmidt orthogonalization of a basis.

    orthogonal[i] is b_i*, mu[i][j] = <b_i, b_j*> / ||b_j*||^2 for j < i.
    """

    orthogonal: tuple
    mu: tuple

    def norms_sq(self) -> tuple:
        return tuple(norm_sq(v) for v in self.orthogonal)


def gram_schmidt(basis: BasisMatrix) -> GramSchmidtData:
    """Orthogonalize the rows; reconstruction b_i = b_i* + sum mu_ij b_j* is exact."""
    ortho = []
    mus = []
    for row in basis.rows:
        v = list(row)
        mu_row = []
        for prev in ortho:
            c = dot(row, prev) / norm_sq(prev)
            mu_row.append(c)
            v = [x - c * y for x, y in zip(v, prev)]
        ortho.append(tuple(v))
        mus.append(tuple(mu_row))
    return GramSchmidtData(tuple(ortho), tuple(mus))


def dual_basis(basis: BasisMatrix) -> BasisMatrix:
    """Rows generating the dual lattice: (B^t)^-1."""
    return basis.dual()


def op_norm(basis: BasisMatrix, mode: str = "inf_one") -> Fraction:
    """Operator norm of the matrix.

    inf_one: max over columns of the column absolute sum (exact).
    two_rowmax: max over rows of the row 2-norm, returned as a rational upper
    bound with relative error <= 2**-64; see op_norm_two_sq for the exact square.
    """
    if mode == "inf_one":
        return max(
            sum((abs(x) for x in col), Fraction(0)) for col in zip(*basis.rows)
        )
    if mode == "two_rowmax":
        return sqrt_upper(op_norm_two_sq(basis))
    raise ValueError(f"unknown operator norm mode {mode!r}")


def op_norm_two_sq(basis: BasisMatrix) -> Fraction:
    """Exact square of the max row 2-norm."""
    return max(norm_sq(row) for row in basis.rows)


def lambda1_dual_bounds(basis: BasisMatrix) -> tuple:
    """Sound rational bounds (lower, upper) on 1/lambda_1 of the dual lattice.

    lower = 1 / (the shortest row 2-norm of the dual basis, rounded up): every
    dual basis row is a nonzero dual vector, so lambda_1(L*) <= its norm.
    upper = the max row 2-norm of B, rounded up: a nonzero dual vector w has
    <w, b_i> a nonzero integer for some row b_i, so 1 <= ||w|| ||b_i||.
    """
    lower = 1 / sqrt_upper(min(norm_sq(row) for row in basis.dual().rows))
    upper = op_norm(basis, "two_rowmax")
    assert lower <= upper
    return lower, upper


def sublattice_index(b_m: BasisMatrix, b_l: BasisMatrix) -> int:
    """Index [L:M] for M contained in L, as an exact positive integer."""
    if b_m.m != b_l.m:
        raise ValueError("dimension mismatch")
    coords = _matmul(b_m.rows, b_l.inverse_rows())
    for row in coords:
        for x in row:
            if x.denominator != 1:
                raise ContainmentError("first lattice is not a sublattice of the second")
    index = abs(b_m.det() / b_l.det())
    assert index.denominator == 1 and index > 0
    return int(index)
