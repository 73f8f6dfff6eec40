"""Exact linear algebra over the rationals.

Vectors and matrices carry ``fractions.Fraction`` entries, so every identity
checked downstream holds on the nose: equality is structural equality of
reduced fractions, never a tolerance.  Dimensions are deliberately small
(at most ``MAX_DIM``); anything larger is a usage error, not a truncation.

Invariant: every entry of a ``Vec`` or ``Matrix`` is a reduced ``Fraction``
(gcd 1, positive denominator).  Both are ``record`` classes.  The public
constructors validate outside input (ints, 'p' or 'p/q' strings of ASCII
digits with a sign on p and no decimal point, exponent or underscore, shapes
and dimensions) before ``_fill`` stores it; the private ``_of`` constructors
(``record.trusted_maker``) skip ``__init__`` and the checks, trust the
invariant and are what the arithmetic uses, since Fraction operations on
Fraction entries of checked shapes yield Fraction entries of the same
shapes.  The arithmetic skips every product with a zero factor and every sum
with a zero term, so sparse operands (elementary matrices, basis vectors)
cost only their nonzero entries.  ``Matrix.apply`` and ``@`` reduce each
output entry once: the one ``_dot`` sums it over the plain-int numerators
and denominators of its factors and builds one ``Fraction`` at the end.  A
matrix reads its rows' integers at its first ``apply`` and keeps them in the
non-field slot ``_int_rows`` for the next; ``@``, ``power``, ``+`` and
``scale`` read each operand once and keep nothing.
Values are immutable, so cached ones (basis vectors, zero matrices, the
``Fraction`` of each integer up to 64 in size that the scalar readers and the
dot product return) and ``scale(1)`` returning ``self`` are safe to share.
``ONE`` is the 1 of every integer scalar, basis coordinate and unit element;
``_mul`` returns the other factor itself when one factor is ``ONE``.
"""

from __future__ import annotations

import re
import reprlib
from decimal import Decimal
from fractions import Fraction

from .record import record, trusted_maker

MAX_DIM = 8


class DimensionError(ValueError):
    """Raised for dimensions outside 1..MAX_DIM or mismatched shapes."""


def check_dim(dim):
    if not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        raise DimensionError("dimension must be an integer in 1..%d, got %r" % (MAX_DIM, dim))
    return dim


_SMALL = 64
_SMALL_INTS = tuple(Fraction(n) for n in range(-_SMALL, _SMALL + 1))


def _int_scalar(n: int) -> Fraction:
    """Fraction(n), one shared object for |n| <= _SMALL: most entries are small."""
    return _SMALL_INTS[n + _SMALL] if -_SMALL <= n <= _SMALL else Fraction(n)


ONE = _int_scalar(1)


def _mul(a, b):
    """a * b, with no Fraction product when either side is the shared ONE;
    an identity test, so any other operand equal to 1 is still multiplied."""
    return b if a is ONE else a if b is ONE else a * b


def as_scalar(value) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to an exact scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return _int_scalar(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError("not an exact scalar: %r" % (value,))


class JSONScalarError(TypeError, ValueError):
    """A JSON scalar of the wrong type: bad outside input, hence also a ValueError."""


def json_scalar(value) -> Fraction:
    """Read a scalar from JSON: an integer or a 'p/q' string, never a boolean or null."""
    if isinstance(value, str):
        return parse_scalar(value)
    if type(value) is int:
        return _int_scalar(value)
    # reprlib: a bad value may nest hundreds deep, its message stays short
    raise JSONScalarError("expected an integer or a \"p/q\" string, got %s"
                          % reprlib.repr(value))


_SCALAR = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_scalar(text: str) -> Fraction:
    """Parse 'p' or 'p/q': ASCII digits, an optional sign on p, whitespace
    around; no decimal point, exponent or underscore, so exact and no floats."""
    m = _SCALAR.fullmatch(text)
    try:
        if m is None:
            raise ValueError
        c = Fraction(int(m[1]), int(m[2] or 1))  # int() refuses past 4300 digits
    except (ValueError, ZeroDivisionError):
        raise ValueError("bad scalar %s: expected p or p/q, q nonzero"
                         % reprlib.repr(text)) from None
    return _int_scalar(c.numerator) if c.denominator == 1 else c


def scalar_str(c) -> str:
    """Render 'p/q', omitting the denominator when it is 1, at any size:
    ``Decimal`` has no digit limit, where ``str(int)`` stops at 4300."""
    c = as_scalar(c)
    if c.denominator == 1:
        return str(Decimal(c.numerator))
    return "%s/%s" % (Decimal(c.numerator), Decimal(c.denominator))


_ZERO = _int_scalar(0)
_BASIS_CACHE = {}
_ZERO_CACHE = {}  # Matrix.zero by (nrows, ncols)


def _add(a, b):
    """a + b, with no Fraction operation when either side is 0."""
    if not b:
        return a
    if not a:
        return b
    return a + b


def _nonzero(entries):
    """(j, numerator, denominator) of each nonzero entry: a ``_dot`` operand."""
    return tuple([(j, n, x.denominator) for j, x in enumerate(entries) if (n := x.numerator)])


def _dot(nonzero, xs):
    """The sum of c * xs[j] over the ``_nonzero`` triples (j, cn, cd) of c as
    one int fraction n/d, reduced once at the end; d stays 1 while every
    factor is an integer."""
    n, d = 0, 1
    for j, cn, cd in nonzero:
        x = xs[j]
        xn = x.numerator  # an int test, not the Python-level Fraction.__bool__
        if xn:
            pn, pd = cn * xn, cd * x.denominator
            if pd == d:
                n += pn
            else:
                n, d = n * pd + pn * d, d * pd
    return _int_scalar(n) if d == 1 else Fraction(n, d)


@record
class Vec:
    """Immutable vector in Q^dim."""

    coords: tuple

    def __init__(self, coords):
        coords = tuple(as_scalar(c) for c in coords)
        check_dim(len(coords))
        self._fill(coords)

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
            cached = _BASIS_CACHE[(dim, i)] = cls(tuple(1 if j == i else 0 for j in range(dim)))
        return cached

    @property
    def dim(self):
        return len(self.coords)

    def is_zero(self):
        for c in self.coords:
            if c.numerator:  # an int test, not Fraction.__eq__
                return False
        return True

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionError("vector dims %d and %d differ" % (self.dim, other.dim))
        return Vec._of(tuple(map(_add, self.coords, other.coords)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Vec._of(tuple(-a for a in self.coords))

    def scale(self, c):
        c = as_scalar(c)
        if c == 1:
            return self
        return Vec._of(tuple(_mul(c, a) if a else a for a in self.coords))

    def concat(self, other):
        return Vec(self.coords + other.coords)

    def __repr__(self):
        return "(%s)" % ", ".join(scalar_str(c) for c in self.coords)

    def to_json(self):
        return [scalar_str(c) for c in self.coords]

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list):
            raise ValueError("vector JSON must be an array, got %s" % reprlib.repr(data))
        return cls([json_scalar(c) for c in data])


# trusted constructor: ``coords`` is a tuple of Fractions of valid length
Vec._of = staticmethod(trusted_maker(Vec))


@record(slots=("_int_rows",))
class Matrix:
    """Immutable rational matrix; composition is ordinary matrix product."""

    rows: tuple

    def __init__(self, rows):
        rows = tuple(tuple(as_scalar(c) for c in row) for row in rows)
        if not rows:
            raise DimensionError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DimensionError("ragged matrix rows")
        check_dim(len(rows))
        check_dim(width)
        self._fill(rows)

    @classmethod
    def _from_columns(cls, cols):
        """Trusted constructor: ``cols`` are 1..MAX_DIM Vecs of one dim."""
        return cls._of(tuple(zip(*[c.coords for c in cols])))

    @classmethod
    def identity(cls, n):
        check_dim(n)
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, nrows, ncols):
        check_dim(nrows)
        check_dim(ncols)
        cached = _ZERO_CACHE.get((nrows, ncols))
        if cached is None:
            cached = _ZERO_CACHE[(nrows, ncols)] = cls._of(((_ZERO,) * ncols,) * nrows)
        return cached

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def is_zero(self):
        return not any(c.numerator for row in self.rows for c in row)

    def apply(self, v: Vec) -> Vec:
        coords = v.coords
        if len(coords) != len(self.rows[0]):
            raise DimensionError("matrix is %dx%d, vector has dim %d" % (self.nrows, self.ncols, v.dim))
        try:
            rows = self._int_rows
        except AttributeError:  # the first application reads the integers once
            rows = tuple(map(_nonzero, self.rows))
            object.__setattr__(self, "_int_rows", rows)
        return Vec._of(tuple([_dot(row, coords) for row in rows]))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("matrix shapes differ")
        return Matrix._of(tuple(tuple(map(_add, r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._of(tuple(tuple(-a for a in row) for row in self.rows))

    def scale(self, c):
        c = as_scalar(c)
        if c == 1:
            return self
        return Matrix._of(tuple(tuple(c * a if a else a for a in row) for row in self.rows))

    def __matmul__(self, other):
        """Matrix product self @ other, i.e. the composite self after other."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionError(
                "cannot compose %dx%d with %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        cols = tuple(zip(*other.rows))
        return Matrix._of(tuple(
            tuple(_dot(row, col) for col in cols)
            for row in map(_nonzero, self.rows)))

    def power(self, n):
        if self.nrows != self.ncols:
            raise DimensionError("power of a non-square matrix")
        if n < 0:
            raise ValueError("negative power")
        acc = Matrix.identity(self.nrows)
        for _ in range(n):
            acc = acc @ self
        return acc

    def __repr__(self):
        return "[%s]" % "; ".join(" ".join(scalar_str(c) for c in row) for row in self.rows)

    def to_json(self):
        return [[scalar_str(c) for c in row] for row in self.rows]

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix JSON must be an array of arrays, got %s"
                             % reprlib.repr(data))
        return cls([[json_scalar(c) for c in row] for row in data])


# trusted constructor: ``rows`` is a non-ragged tuple of tuples of Fractions
Matrix._of = staticmethod(trusted_maker(Matrix))
