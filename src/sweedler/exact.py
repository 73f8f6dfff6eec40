"""Exact linear algebra over the rationals.

Vectors and matrices carry ``fractions.Fraction`` entries, so every identity
checked downstream holds on the nose: equality is structural equality of
reduced fractions, never a tolerance.  Dimensions are deliberately small
(at most ``MAX_DIM``); anything larger is a usage error, not a truncation.
"""

from __future__ import annotations

from fractions import Fraction

MAX_DIM = 8

Scalar = Fraction


class DimensionError(ValueError):
    """Raised for dimensions outside 1..MAX_DIM or mismatched shapes."""


def check_dim(dim):
    if not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        raise DimensionError("dimension must be an integer in 1..%d, got %r" % (MAX_DIM, dim))
    return dim


def as_scalar(value) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError("not an exact scalar: %r" % (value,))


def parse_scalar(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with optional sign; exact, no floats."""
    s = text.strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("bad scalar %r: %s" % (text, exc)) from None


def scalar_str(c) -> str:
    """Render 'p/q', omitting the denominator when it is 1."""
    c = as_scalar(c)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


_BASIS_CACHE = {}


class Vec:
    """Immutable vector in Q^dim."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords):
        coords = tuple(as_scalar(c) for c in coords)
        check_dim(len(coords))
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("Vec is immutable")

    @classmethod
    def zero(cls, dim):
        check_dim(dim)
        return cls((0,) * dim)

    @classmethod
    def basis(cls, dim, i):
        check_dim(dim)
        if not 0 <= i < dim:
            raise DimensionError("basis index %d out of range for dim %d" % (i, dim))
        cached = _BASIS_CACHE.get((dim, i))
        if cached is None:
            cached = cls(tuple(1 if j == i else 0 for j in range(dim)))
            _BASIS_CACHE[(dim, i)] = cached
        return cached

    @property
    def dim(self):
        return len(self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionError("vector dims %d and %d differ" % (self.dim, other.dim))
        return Vec(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Vec(tuple(-a for a in self.coords))

    def scale(self, c):
        c = as_scalar(c)
        return Vec(tuple(c * a for a in self.coords))

    def concat(self, other):
        return Vec(self.coords + other.coords)

    def __eq__(self, other):
        return isinstance(other, Vec) and self.coords == other.coords

    def __hash__(self):
        # rational hashes are costly and kets live in dicts; cache lazily
        try:
            return self._hash
        except AttributeError:
            h = hash(("Vec", self.coords))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "(%s)" % ", ".join(scalar_str(c) for c in self.coords)

    def to_json(self):
        return [scalar_str(c) for c in self.coords]

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list):
            raise ValueError("vector JSON must be an array, got %r" % (data,))
        return cls(tuple(as_scalar(c) for c in data))


class Matrix:
    """Immutable rational matrix; composition is ordinary matrix product."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(as_scalar(c) for c in row) for row in rows)
        if not rows:
            raise DimensionError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DimensionError("ragged matrix rows")
        check_dim(len(rows))
        check_dim(width)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        check_dim(n)
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, nrows, ncols):
        return cls(((0,) * ncols,) * nrows)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def is_zero(self):
        return all(c == 0 for row in self.rows for c in row)

    def apply(self, v: Vec) -> Vec:
        if v.dim != self.ncols:
            raise DimensionError("matrix is %dx%d, vector has dim %d" % (self.nrows, self.ncols, v.dim))
        return Vec(tuple(sum((c * x for c, x in zip(row, v.coords)), Fraction(0)) for row in self.rows))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("matrix shapes differ")
        return Matrix(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix(tuple(tuple(-a for a in row) for row in self.rows))

    def scale(self, c):
        c = as_scalar(c)
        return Matrix(tuple(tuple(c * a for a in row) for row in self.rows))

    def __matmul__(self, other):
        """Matrix product self @ other, i.e. the composite self after other."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionError(
                "cannot compose %dx%d with %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        return Matrix(tuple(
            tuple(sum((self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)), Fraction(0))
                  for j in range(other.ncols))
            for i in range(self.nrows)))

    def power(self, n):
        if self.nrows != self.ncols:
            raise DimensionError("power of a non-square matrix")
        if n < 0:
            raise ValueError("negative power")
        acc = Matrix.identity(self.nrows)
        for _ in range(n):
            acc = acc @ self
        return acc

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(("Matrix", self.rows))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "[%s]" % "; ".join(" ".join(scalar_str(c) for c in row) for row in self.rows)

    def to_json(self):
        return [[scalar_str(c) for c in row] for row in self.rows]

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix JSON must be an array of arrays, got %r" % (data,))
        return cls(tuple(tuple(as_scalar(c) for c in row) for row in data))