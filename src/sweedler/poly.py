"""Multivariate rational polynomials and the residue pairing.

The pairing sends a ket |v1,...,vs>_P and a polynomial f to the iterated
directional derivative of f along the tangents, evaluated at the point:

    <|v1,...,vs>_P, f>  =  (d_{v1} ... d_{vs} f)(P).

Everything is exact; this module is the independent witness that the
coalgebra maps are the duals of ordinary polynomial calculus.  A tensor of
kets pairs factor by factor: the law for Delta multiplies ``residue_pairing``
of the two factors of each of ``bang.coproduct_pairs``.  A polynomial is
a ``bang._TermSum`` over its variable count, so it shares ``+``, ``-``,
``scale``, ``==``, ``hash``, the builder ``_sum`` and the printer with the kets
it is paired with and adds only its validating constructor, product, calculus,
term order (degree first, descending) and monomial text.  Only outside input
is validated: sums, scalings, products, derivatives and reflections are valid
by construction and are built through the trusted ``_TermSum._of``.
"""

from __future__ import annotations

import itertools
import math

from .exact import ZERO, DimensionError, Vec, _add, _mul, _neg, as_scalar
from .bang import BangElement, BaseSpace, Ket, SpaceError, _TermSum


class Polynomial(_TermSum):
    """Polynomial over Q in variables x1..xn: a term sum over ``nvars`` whose
    terms are exponent tuples."""

    __slots__ = ()

    def __init__(self, nvars, terms):
        if not isinstance(nvars, int) or nvars < 1:
            raise DimensionError("nvars must be a positive integer")
        clean = {}
        for expo, c in dict(terms).items():
            expo = tuple(expo)
            if len(expo) != nvars or any(e < 0 or not isinstance(e, int) for e in expo):
                raise ValueError("bad exponent tuple %r for %d variables" % (expo, nvars))
            c = as_scalar(c)
            if c != 0:
                clean[expo] = c
        super().__init__(nvars, clean)

    @property
    def nvars(self):
        return self.space

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: as_scalar(c)})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionError("polynomials over different variable counts")
        return Polynomial._sum(self.nvars, (
            (tuple(a + b for a, b in zip(e1, e2)), _mul(c1, c2))
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()))

    def partial(self, i):
        """d/dx_{i+1}."""
        acc = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            # distinct terms stay distinct, none vanishes
            acc[e2] = c if e[i] == 1 else _mul(c, as_scalar(e[i]))
        return Polynomial._of(self.nvars, acc)

    def directional(self, v: Vec):
        """Directional derivative along a vector."""
        if v.dim != self.nvars:
            raise DimensionError("direction has dim %d, polynomial has %d vars" % (v.dim, self.nvars))
        return Polynomial._sum(self.nvars, (
            (e, _mul(c, cd)) for i, c in enumerate(v.coords) if c
            for e, cd in self.partial(i).terms.items()))

    def eval_at(self, p: Vec):
        if p.dim != self.nvars:
            raise DimensionError("point has dim %d, polynomial has %d vars" % (p.dim, self.nvars))
        total = ZERO
        for e, c in self.terms.items():
            val = c
            for x, k in zip(p.coords, e):
                for _ in range(k):
                    val = _mul(val, x)
            total = _add(total, val)
        return total

    def reflect(self):
        """Substitute x -> -x."""
        return Polynomial._of(self.nvars, {e: (c if sum(e) % 2 == 0 else _neg(c))
                                           for e, c in self.terms.items()})

    def _sort_key(self, item):
        """Degree first, descending; then exponents, descending."""
        e = item[0]
        return -sum(e), tuple(-k for k in e)

    def _term_str(self, e):
        bits = []
        for i, k in enumerate(e):
            if k == 1:
                bits.append("x%d" % (i + 1))
            elif k > 1:
                bits.append("x%d^%d" % (i + 1, k))
        return " ".join(bits)


def shift_doubling(f: Polynomial) -> Polynomial:
    """Send f(x) over n variables to f(x + y) over 2n variables x1..xn,y1..yn."""
    # expand prod_i (x_i + y_i)^{e_i} by the binomial theorem, one choice of j per i
    return Polynomial._sum(2 * f.nvars, (
        (tuple(js) + tuple(k - j for k, j in zip(e, js)),
         _mul(c, as_scalar(math.prod([math.comb(k, j) for k, j in zip(e, js)]))))
        for e, c in f.terms.items()
        for js in itertools.product(*(range(k + 1) for k in e))))


# ---------------------------------------------------------------------------
# residue pairing


def _ket_pair(k: Ket, f: Polynomial):
    g = f
    for v in k.tangents:
        g = g.directional(v)
    return g.eval_at(k.point)


def residue_pairing(t: BangElement, f: Polynomial):
    """<t, f> for t in !V with V a concrete base space."""
    if not isinstance(t.space, BaseSpace):
        raise SpaceError("residue pairing needs a concrete base space")
    if f.nvars != t.space.dim:
        raise DimensionError("polynomial has %d vars, space has dim %d" % (f.nvars, t.space.dim))
    total = ZERO
    for k, c in t.terms.items():
        total = _add(total, _mul(c, _ket_pair(k, f)))
    return total
