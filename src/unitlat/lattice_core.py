"""Exact lattice substrate: rational basis matrices, duals, norms, integer
Gram-Schmidt data.

Everything here is exact: a basis matrix is stored as integer rows over one
common denominator (integer_rows), its determinant and inverse come from one
fraction-free integer Gauss-Jordan on those rows, and the Gram-Schmidt data
of integer rows are the integer Gram determinants and scaled coefficients
that LLL and enumeration share (gram_data). Square roots of rationals are
bracketed by rational bounds with relative error below 2**-64.

The package's error classes live here too, all under UnitlatError.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Sequence

ROOT_BITS = 64  # relative error of rational upper bounds on square roots


class UnitlatError(Exception):
    """Root of every error unitlat raises on purpose; the CLI maps it to an
    exit code."""


class ConfigurationError(UnitlatError, ValueError):
    """A parameter, conductor or field profile lies outside its domain."""


class RankError(UnitlatError, ValueError):
    """Matrix or generating set is not of full rank."""


class PrecisionError(UnitlatError, ValueError):
    """Too few bits: the input or the working precision is below what the
    bound q or the certified evaluation demands."""


class ContainmentError(UnitlatError, ValueError):
    """Claimed sublattice is not contained in the ambient lattice."""


class InsufficientSamplesError(UnitlatError, RuntimeError):
    """The drawn coordinate rows do not span a rank-m lattice; retry with a
    fresh seed."""


class ContractViolationError(UnitlatError, RuntimeError):
    """Recovered index exceeds the promised bound."""


def clip(value) -> str:
    """str(value) for an error message, cut after 40 characters."""
    text = str(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _to_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def sqrt_lower(x: Fraction, bits: int = ROOT_BITS) -> Fraction:
    """Rational lower bound on sqrt(x) with relative error <= 2**-bits:
    sqrt(p/q) = sqrt(p q)/q, and isqrt gives the floor at scale 2**bits."""
    x = _to_frac(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    p, q = x.numerator, x.denominator
    return Fraction(math.isqrt(p * q << 2 * bits), q << bits)


def sqrt_upper(x: Fraction, bits: int = ROOT_BITS) -> Fraction:
    """Rational upper bound on sqrt(x) with relative error <= 2**-bits:
    sqrt_lower's floor one step of 1/(q 2**bits) up, unless it is exact."""
    lo = sqrt_lower(x, bits)
    x = _to_frac(x)
    return lo if lo * lo == x else lo + Fraction(1, x.denominator << bits)


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
    return round_ratio(x.numerator, x.denominator)


def round_ratio(n: int, d: int) -> int:
    """round_half_away(n / d) for integers n and d > 0, with no Fraction formed."""
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    assert len(u) == len(v), "dimension mismatch in dot product"
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(v: Sequence[Fraction]) -> Fraction:
    return dot(v, v)


def _check_exponent(exponent: int) -> int:
    if exponent < 0:
        raise ValueError("fixed-point exponent must be >= 0")
    return exponent


# Stores a record field, as assignment raises. Fields are never written
# through __dict__: touching it gives up the interpreter's inline attribute
# values and makes every later read about twice as slow.
_set_field = object.__setattr__


class Record:
    """Immutable record: the fields are the class annotations, in order, and
    a class attribute of the same name is the field's default.

    __init__ takes the fields positionally or by name, then __post_init__
    validates or normalises them (through object.__setattr__). Equality, hash
    and repr are over the fields; assignment raises; replace(**changes) is a
    copy with some fields changed, validated again. Nothing is generated when
    a subclass is defined, so importing the records costs no compilation.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        if len(args) > len(fields) or any(k in values or k not in fields for k in kwargs):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        values.update(kwargs)
        for f in fields:
            if f in values:
                _set_field(self, f, values[f])
            elif f in self._defaults:
                _set_field(self, f, self._defaults[f])
            else:
                raise TypeError(f"{type(self).__name__}: missing field {f!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = (f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({', '.join(pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; use replace()")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def replace(self, **changes) -> "Record":
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class FixedPointVector(Record):
    """Real vector stored as integer mantissas sharing one binary exponent.

    Coordinate i has exact value mantissas[i] * 2**-exponent.
    """

    mantissas: tuple
    exponent: int

    def __init__(self, mantissas, exponent):  # one per sample: faster than the generic one
        _set_field(self, "mantissas", tuple(map(int, mantissas)))
        _set_field(self, "exponent", _check_exponent(exponent))

    @property
    def dim(self) -> int:
        return len(self.mantissas)

    def to_rationals(self) -> tuple:
        d = 1 << self.exponent
        return tuple(Fraction(m, d) for m in self.mantissas)

    @classmethod
    def from_rationals(cls, values: Iterable[Fraction], exponent: int) -> "FixedPointVector":
        d = 1 << _check_exponent(exponent)
        return cls(tuple(round_half_away(_to_frac(v) * d) for v in values), exponent)

    def to_json(self) -> dict:
        return {"q": self.exponent, "mantissas": [str(m) for m in self.mantissas]}


class BasisMatrix:
    """Square full-rank matrix of exact rationals whose rows generate a lattice.

    Stored as integer rows `ints` over one positive denominator `den`,
    reduced so that gcd(den, every entry) = 1: equal matrices have equal
    storage. `rows` is a Fraction view built on each access and never kept.
    """

    __slots__ = ("den", "ints", "m", "_det", "_dual")

    def __init__(self, rows):
        mat = [[_to_frac(x) for x in row] for row in rows]
        m = len(mat)
        if m == 0 or any(len(r) != m for r in mat):
            raise ValueError("basis matrix must be square and nonempty")
        # the least common denominator leaves no common factor with the entries
        den, ints = integer_rows(mat)
        self.den = den
        self.ints = tuple(map(tuple, ints))
        self.m = m
        dens, scaled = _lowest_rows(den, self.ints)
        self._det = _gauss_jordan(scaled, m) * math.prod(den // d for d in dens)
        self._dual = None
        if self._det == 0:
            raise RankError("basis matrix is singular")

    @classmethod
    def _with_det(cls, den: int, ints, det: int) -> "BasisMatrix":
        """The matrix ints / den, den != 0 of either sign, whose nonzero
        det(ints) is already known from how the rows were made: nothing is
        re-eliminated."""
        self = cls.__new__(cls)
        ints = tuple(map(tuple, ints))
        m = len(ints)
        g = math.gcd(den, *(x for row in ints for x in row))
        if den < 0:
            g = -g
        if g != 1:
            ints = tuple(tuple(x // g for x in row) for row in ints)
            det //= g**m
        self.den = den // g
        self.ints = ints
        self.m = m
        self._det = det
        self._dual = None
        return self

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, built anew on each access."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.ints)

    def __eq__(self, other):
        return isinstance(other, BasisMatrix) and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, self.ints))

    def __repr__(self):
        return f"BasisMatrix({[[str(x) for x in r] for r in self.rows]})"

    @classmethod
    def identity(cls, m: int) -> "BasisMatrix":
        if m < 1:
            raise ValueError("basis matrix must be square and nonempty")
        return cls._with_det(1, [[int(i == j) for j in range(m)] for i in range(m)], 1)

    @classmethod
    def diagonal(cls, entries) -> "BasisMatrix":
        es = [_to_frac(e) for e in entries]
        m = len(es)
        return cls([[es[i] if i == j else Fraction(0) for j in range(m)] for i in range(m)])

    def det(self) -> Fraction:
        """det B = det(ints) / den^m."""
        return Fraction(self._det, self.den**self.m)

    def transpose(self) -> "BasisMatrix":
        return BasisMatrix._with_det(self.den, zip(*self.ints), self._det)

    def inverse_as_matrix(self) -> "BasisMatrix":
        return self.dual().transpose()

    def dual(self) -> "BasisMatrix":
        """Rows generating the dual lattice, (B^t)^-1 = (B^-1)^t, computed once;
        the dual of the result is this matrix again, not a second inversion.

        With B = D^-1 S, D = diag(d_i) and S the rows in lowest terms
        (_lowest_rows), the Gauss-Jordan of [S | I] ends as [p I | X],
        X = p S^-1 and p = +-det S, so B^-1 = X D / p.
        """
        if self._dual is None:
            m, den = self.m, self.den
            dens, scaled = _lowest_rows(den, self.ints)
            aug = [row + [int(i == j) for j in range(m)] for i, row in enumerate(scaled)]
            _gauss_jordan(aug, m)
            p = aug[0][0]
            cols = zip(*(row[m:] for row in aug))
            ints = [[d * x for x in col] for d, col in zip(dens, cols)]
            # det(ints) / p^m = 1 / det B = den^m / det(self.ints)
            self._dual = BasisMatrix._with_det(p, ints, (p * den) ** m // self._det)
            self._dual._dual = self
        return self._dual

    def matmul(self, other: "BasisMatrix") -> "BasisMatrix":
        cols = tuple(zip(*other.ints))
        ints = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in self.ints]
        return BasisMatrix._with_det(self.den * other.den, ints, self._det * other._det)

    def row_combination(self, coeffs: Sequence[int]) -> tuple:
        """Integer combination of the rows: sum coeffs[i] * rows[i]."""
        assert len(coeffs) == self.m
        return tuple(
            Fraction(sum(c * x for c, x in zip(coeffs, col)), self.den) for col in zip(*self.ints)
        )

    def to_json(self) -> dict:
        return {"m": self.m, "rows": [[_frac_str(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "BasisMatrix":
        """The matrix of to_json's object. An m that is not a JSON integer and
        an entry that is a boolean raise TypeError, as other wrong entry types
        do: a float m is not truncated, true is not 1."""
        m = obj["m"]
        if type(m) is not int:
            raise TypeError(f"m must be a JSON integer, got {clip(json.dumps(m))}")
        if any(type(x) is bool for row in obj["rows"] for x in row):
            raise TypeError("rows entries must be integers or rational strings, not booleans")
        rows = [[_to_frac(x) for x in row] for row in obj["rows"]]
        if len(rows) != m:
            raise ValueError("row count does not match declared dimension")
        return cls(rows)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def integer_rows(rows) -> tuple:
    """(D, N): D the least common denominator of the rational entries (1 if
    there are none) and N = D rows, as lists of ints."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _lowest_rows(den: int, ints) -> tuple:
    """(d, S): row i of ints / den in lowest terms is S_i / d_i, as lists.
    Eliminating S rather than ints keeps rows with unrelated denominators
    from carrying each other's factors; over one denominator the integers
    would add up their sizes."""
    dens, scaled = [], []
    for row in ints:
        g = math.gcd(den, *row)
        dens.append(den // g)
        scaled.append([x // g for x in row] if g != 1 else list(row))
    return dens, scaled


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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


def gram_data(rows) -> tuple:
    """Integer Gram-Schmidt data (d, lam) of linearly independent integer
    rows b_0, ..., b_{n-1} (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7, step 1).

    d[i] is the Gram determinant of rows 0..i-1 (d[0] = 1), so
    ||b_i*||^2 = d[i+1] / d[i], and lam[k][j] = d[j+1] mu_kj for j < k. Both
    are integers and every division below is exact. Dependent rows raise
    RankError.
    """
    n = len(rows)
    d = [1] * (n + 1)
    lam = [[0] * k for k in range(n)]
    for k in range(n):
        for j in range(k + 1):
            g = sum(x * y for x, y in zip(rows[k], rows[j]))
            for i in range(j):
                g = (d[i + 1] * g - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = g
            else:
                d[k + 1] = g
        if d[k + 1] == 0:
            raise RankError("rows are dependent over the ring's fraction field")
    return d, lam


def op_norm_two_sq(basis: BasisMatrix) -> Fraction:
    """Exact square of the max row 2-norm."""
    return Fraction(max(sum(x * x for x in row) for row in basis.ints), basis.den**2)


def sublattice_index(b_m: BasisMatrix, b_l: BasisMatrix) -> int:
    """Index [L:M] for M contained in L, as an exact positive integer."""
    if b_m.m != b_l.m:
        raise ValueError("dimension mismatch")
    # M lies in L iff the coordinates B_M B_L^-1 are integers
    if b_m.matmul(b_l.inverse_as_matrix()).den != 1:
        raise ContainmentError("first lattice is not a sublattice of the second")
    index = abs(b_m.det() / b_l.det())
    assert index.denominator == 1 and index > 0
    return int(index)
