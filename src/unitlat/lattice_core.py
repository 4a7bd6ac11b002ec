"""Exact lattice substrate: rational basis matrices, duals, norms, Gram-Schmidt.

Everything here is exact: matrix entries are `fractions.Fraction`, and
determinants and inverses come from one fraction-free integer Gauss-Jordan
on the rows scaled to integers (integer_rows). The only place irrational
values appear (row 2-norms) they are returned as a rational upper bound with
relative error below 2**-64 next to the exact square.
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
    # integer Newton from 2^ceil(bitlen/n) >= target^(1/n) decreases to the
    # floor root and stops there; one more step up gives the ceiling
    r = 1 << (-(-target.bit_length() // n))
    while True:
        s = ((n - 1) * r + target // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    if r**n < target:
        r += 1
    return Fraction(r, q * scale)


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
        """det B = det(D B) / det D, D the diagonal of the row denominators."""
        if self._det is None:
            dens, ints = _scaled_rows(self.rows)
            self._det = Fraction(_gauss_jordan(ints, self.m), math.prod(dens))
        return self._det

    def inverse_rows(self) -> tuple:
        """B^-1 = (D B)^-1 D, from the Gauss-Jordan of [D B | I], computed once."""
        if self._inv is None:
            m = self.m
            dens, ints = _scaled_rows(self.rows)
            aug = [row + [int(i == j) for j in range(m)] for i, row in enumerate(ints)]
            _gauss_jordan(aug, m)
            p = aug[0][0]  # the left block ends as p I
            self._inv = tuple(
                tuple(Fraction(d * x, p) for d, x in zip(dens, row[m:])) for row in aug
            )
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


def integer_rows(rows) -> tuple:
    """(D, N): D the least common denominator of the rational entries (1 if
    there are none) and N = D rows, as lists of ints."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def common_denominator(basis: BasisMatrix) -> int:
    """Least common denominator D of the entries: D B is an integer matrix."""
    return integer_rows(basis.rows)[0]


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def _scaled_rows(rows) -> tuple:
    """(d, N): d_i the common denominator of row i and N_i = d_i row_i."""
    pairs = [integer_rows((row,)) for row in rows]
    return [d for d, _ in pairs], [n for _, (n,) in pairs]


def _gauss_jordan(a: list, m: int) -> int:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on integer
    rows, in place; returns the determinant of the leading m x m block A.

    Step k replaces row i by (p_k a_i - a_ik a_k) / p_{k-1}, p_k the k-th
    pivot and p_{-1} = 1; every entry is then a minor of the input, so each
    division is exact. Rows of width m are eliminated below the pivot only
    (enough for det); wider rows above it too, so [A | I] ends as
    [p I | p A^-1] with p = +-det. A singular A returns 0.
    """
    sign, prev = 1, 1
    for k in range(m):
        piv = next((r for r in range(k, m) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row_k = a[k]
        p = row_k[k]
        for i in range(m) if len(row_k) > m else range(k + 1, m):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row_k)]
        prev = p
    return sign * prev


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
