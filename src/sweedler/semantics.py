"""Denotational semantics: formulas become spaces, proofs become linear maps.

A propositional variable of dimension n denotes Q^n (``Base``, the base
space of ``bang``); -o denotes the space of linear maps (``HomSpace``); *
denotes ``TensorSpace``; ! denotes the cofree coalgebra over the space of
its formula (``bang.BangSpace``).  A proof of A1, ..., Ak |- B denotes a
multilinear map, packaged as a ``Denotation`` with one callable slot per
context formula.  The seven context rules -- tensor-left, dereliction,
contraction, weakening, codereliction, cocontraction and coweakening --
precompose the premise with one map of ``bang``: the pair split, d, Delta,
epsilon, dbar, nabla and u.  One table (``_STRUCTURAL``) gives each its slots
and its own closure, which calls the premise once per term of that map.
Promotion hands its premise to ``bang.promote_blocks`` as the block map, and
evaluation at a ket builds it with ``bang.BangElement.ket``; kets come from ``bang``.

A denotation is linear in each slot, so a zero argument gives a zero value.
``LolliL`` and ``Cut`` pass a premise a value they computed themselves, h(x)
and the left premise's value; when that value is zero they return the target's
zero and make no premise call.  Every value answers ``is_zero``, a lazy map too.

Every formula space is an entry space of ``bang``, so elements of !A are
canonical ket sums over the space of A itself.  Values are plain objects:
a ``Vec`` for a base space, a ``Matrix`` for a map between base spaces, a
``BangElement`` for !A, a ``TensorVal`` for A * B; the last two share their
representation and arithmetic, ``bang._TermSum``.  A linear map whose
domain or codomain is not concrete stays lazy: a ``MapVal``, the term sum of
its ``Curried`` atoms (a ``LolliR`` premise with every slot but the last
filled), which ``apply_hom`` alone runs; lazy maps that differ structurally
are compared by probing them with seeded arguments.  Every value does its own
arithmetic: ``+``, unary ``-`` and ``scale``.

Denotations are shared per distinct proof, weakly: proofs are records that
compare and hash by value, so a proof rebuilt or parsed again, or a sub-tree
repeated inside one proof, finds the live ``Denotation`` of an equal proof
instead of building its closures again.  An entry lasts only as long as its
denotation does.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import reprlib
import weakref

from . import bang as bg
from . import syntax as syn
from .bang import BangSpace, BaseSpace as Base
from .exact import ONE, Matrix, Vec, _mul, _ratio, as_scalar, json_scalar, scalar_str
from .record import Immutable, record


class SpaceMismatch(ValueError):
    pass


class ProbeDepthError(RuntimeError):
    """Extensional comparison ran out of probes before reaching a concrete space."""


# -- spaces -----------------------------------------------------------------


@record
class HomSpace:
    """Linear maps dom -> cod: a Matrix between base spaces, else a MapVal.

    As an entry space, a matrix expands into elementary matrices and a lazy
    map into its atoms, so kets over any Hom space canonicalize like kets
    over a base space.
    """

    dom: object
    cod: object

    @property
    def concrete(self):
        return isinstance(self.dom, Base) and isinstance(self.cod, Base)

    def contains(self, v):
        if isinstance(v, Matrix):
            return self.concrete and (v.nrows, v.ncols) == (self.cod.dim, self.dom.dim)
        return isinstance(v, MapVal) and v.space == self

    def expand(self, v):
        if not self.contains(v):
            raise bg.SpaceError("expected a map of %s, got %r" % (self.label(), v))
        if isinstance(v, MapVal):
            return [(c, MapVal._of(self, {atom: ONE})) for atom, c in v.terms.items()]
        return [(c, _matrix_unit(v.nrows, v.ncols, i, j))
                for i, row in enumerate(v.rows) for j, c in enumerate(row) if c]

    def key(self, v):
        return v.term_key() if isinstance(v, MapVal) else v.rows

    def zero(self):
        return Matrix.zero(self.cod.dim, self.dom.dim) if self.concrete else MapVal(self, {})

    def label(self):
        return "(%s -o %s)" % (self.dom.label(), self.cod.label())


@record
class TensorSpace:
    """A * B; as an entry space, each pure tensor of a TensorVal is one unit."""

    left: object
    right: object

    def contains(self, v):
        return isinstance(v, TensorVal) and v.space == self

    def expand(self, v):
        if not self.contains(v):
            raise bg.SpaceError("expected a tensor of %s, got %r" % (self.label(), v))
        return [(c, TensorVal(self, {pair: ONE})) for pair, c in v.sorted_terms()]

    def key(self, v):
        return v.term_key()

    def zero(self):
        return TensorVal(self, {})

    def label(self):
        return "(%s * %s)" % (self.left.label(), self.right.label())


@functools.cache
def _matrix_unit(nrows, ncols, i, j):
    return Matrix(tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(ncols))
                        for r in range(nrows)))


def denote_formula(f: syn.Formula):
    if isinstance(f, syn.PropVar):
        return Base(f.dim)
    if isinstance(f, syn.Tensor):
        return TensorSpace(denote_formula(f.left), denote_formula(f.right))
    if isinstance(f, syn.Lolli):
        return HomSpace(denote_formula(f.left), denote_formula(f.right))
    if isinstance(f, syn.Bang):
        return BangSpace(denote_formula(f.inner))
    raise TypeError("not a formula: %r" % (f,))


# -- values -----------------------------------------------------------------


@record
class Curried:
    """One atom of a lazy map: a denotation with every slot but the last filled."""

    den: Denotation
    args: tuple


class MapVal(bg._TermSum):
    """A lazy linear map, the sum of c * Curried atoms run by ``apply_hom``; an
    atom sorts by its denotation's serial, then by its arguments' keys."""

    __slots__ = ()
    _bare_unit = True

    def _sort_key(self, item):
        den, args = item[0].den, item[0].args
        return den.serial, tuple(s.key(v) for s, v in zip(den.source, args))

    def _term_str(self, atom):
        return "<linear map %s>" % self.space.label()


class TensorVal(bg._TermSum):
    """A sum of pure tensors over a ``TensorSpace``, keyed by their pair of
    canonical units; ``bang._TermSum`` holds, sums, keys and prints the terms."""

    __slots__ = ()

    @classmethod
    def make(cls, space, items):
        return cls._sum(space, (
            ((ua, ub), _mul(_mul(as_scalar(coeff), ca), cb)) for coeff, (a, b) in items
            for (ca, ua), (cb, ub) in itertools.product(space.left.expand(a),
                                                        space.right.expand(b))))

    def _sort_key(self, item):
        a, b = item[0]
        return self.space.left.key(a), self.space.right.key(b)

    def _term_str(self, pair):
        return "%r (x) %r" % pair


# -- generic value operations ------------------------------------------------


def add_values(a, b):
    return a + b


def apply_hom(h, x):
    if isinstance(h, Matrix):
        if not isinstance(x, Vec):
            raise SpaceMismatch("matrix applied to non-vector %r" % (x,))
        return h.apply(x)
    if isinstance(h, MapVal):
        require_value(x, h.space.dom, "argument")
        acc = None
        for atom, c in h.terms.items():
            v = atom.den.fn(*atom.args, x)
            v = v if c is ONE else v.scale(c)
            acc = v if acc is None else acc + v
        return h.space.cod.zero() if acc is None else acc
    raise SpaceMismatch("not a linear map: %r" % (h,))


def require_value(v, space, what="value"):
    if not space.contains(v):
        raise SpaceMismatch("%s does not lie in %s: %r" % (what, space.label(), v))
    return v


# -- denotations -------------------------------------------------------------


_serials = itertools.count()


class Denotation(Immutable):
    """A proof's multilinear map, equal only to itself; ``serial`` counts
    creations, to order lazy maps."""

    __slots__ = ("source", "target", "fn", "serial", "__weakref__")

    def __init__(self, source, target, fn):
        for slot, value in zip(self.__slots__, (source, target, fn, next(_serials))):
            object.__setattr__(self, slot, value)

    def eval(self, *args):
        if len(args) != len(self.source):
            raise SpaceMismatch("denotation takes %d arguments, got %d"
                                % (len(self.source), len(args)))
        for i, (v, s) in enumerate(zip(args, self.source)):
            require_value(v, s, "argument %d" % i)
        return self.fn(*args)


def denote_proof(p: syn.Proof) -> Denotation:
    return denote_sequent(p)[1]


def denote_sequent(p: syn.Proof):
    """The proof's sequent and its denotation, from one walk of the checker."""
    return syn.check_proof(p), _den(p)


def _identity(x):
    return x


_denotations = weakref.WeakValueDictionary()


def _den(p) -> Denotation:
    d = _denotations.get(p)
    if d is None:
        d = _denotations[p] = _build(p)
    return d


# The context rules: rule -> (k, conclusion spaces, make).  The rule at index i
# replaces the premise's k slots i.. by the conclusion's slots i..j, whose spaces
# it computes from those k.  make(prem, i, j) builds the closure that sums the
# premise over the rule's map at slots i..j, from its own frame (one frame per
# level); it reads prem.fn at each call, so it holds prem and the weak cache keeps it.

def _tensor_left(prem, i, j):
    def fn(*vals):
        acc = None
        for (a, b), c in vals[i].sorted_terms():
            v = prem.fn(*vals[:i], a, b, *vals[j:])
            v = v if c is ONE else v.scale(c)
            acc = v if acc is None else acc + v
        return prem.target.zero() if acc is None else acc
    return fn


def _ctr(prem, i, j):
    def fn(*vals):
        acc = None
        for left, right in bg.coproduct_pairs(vals[i]):   # one per distinct left factor
            v = prem.fn(*vals[:i], left, right, *vals[j:])
            acc = v if acc is None else acc + v
        return prem.target.zero() if acc is None else acc
    return fn


def _weak(prem, i, j):
    def fn(*vals):
        c = bg.counit(vals[i])
        if not c:
            return prem.target.zero()
        v = prem.fn(*vals[:i], *vals[j:])
        return v if c is ONE else v.scale(c)
    return fn


_STRUCTURAL = {
    syn.TensorL: (2, lambda p, a, b: (TensorSpace(a, b),), _tensor_left),
    # d kills kets of order >= 2: with none of order <= 1 there is no call
    syn.Der: (1, lambda p, a: (BangSpace(a),), lambda prem, i, j: lambda *vals: (
        prem.target.zero() if (x := bg.derelict(vals[i])) is None
        else prem.fn(*vals[:i], x, *vals[j:]))),
    syn.Ctr: (2, lambda p, a, b: (a,), _ctr),
    syn.Weak: (0, lambda p: (denote_formula(p.formula),), _weak),
    syn.Coder: (1, lambda p, a: (a.inner,), lambda prem, i, j: lambda *vals: prem.fn(
        *vals[:i], bg.codereliction(prem.source[i].inner, vals[i]), *vals[j:])),
    syn.Coctr: (1, lambda p, a: (a, a), lambda prem, i, j: lambda *vals: prem.fn(
        *vals[:i], bg.cocontract(vals[i], vals[i + 1]), *vals[j:])),
    syn.Coweak: (1, lambda p, a: (), lambda prem, i, j: lambda *vals: prem.fn(
        *vals[:i], bg.coweaken(prem.source[i].inner), *vals[j:])),
}


def _build(p) -> Denotation:
    # premises are denoted through the module-global ``_den``, so a wrapper
    # bound to that name sees every node
    rule = _STRUCTURAL.get(type(p))
    if rule is not None:
        k, spaces, make = rule
        prem = _den(p.premise)
        i = p.index
        conc = spaces(p, *prem.source[i:i + k])
        return Denotation(prem.source[:i] + conc + prem.source[i + k:], prem.target,
                          make(prem, i, i + len(conc)))

    if isinstance(p, syn.Axiom):
        s = denote_formula(p.formula)
        return Denotation((s,), s, _identity)

    if isinstance(p, syn.LolliR):
        prem = _den(p.premise)
        dom, cod = prem.source[-1], prem.target
        src = prem.source[:-1]
        hom = HomSpace(dom, cod)
        if hom.concrete:
            def fn(*args):
                return Matrix._from_columns(
                    [prem.fn(*args, Vec.basis(dom.dim, j)) for j in range(dom.dim)])
        else:
            def fn(*args):
                return MapVal._of(hom, {Curried(prem, args): ONE})
        return Denotation(src, hom, fn)

    if isinstance(p, syn.LolliL):
        argd, bodyd = _den(p.arg), _den(p.body)
        i, na = p.index, len(argd.source)
        b = bodyd.source[i]
        hom = HomSpace(argd.target, b)
        src = argd.source + bodyd.source[:i] + (hom,) + bodyd.source[i + 1:]

        def fn(*vals):
            # h lies in hom, so h(x) lies in b: a matrix of hom has b.dim rows,
            # and every atom of a lazy map of hom returns into b;
            # an axiom argument (every comp_proof link) passes its value as is;
            # the body is linear in slot i, so h(x) = 0 makes it 0 uncalled
            head, rest = vals[:na], vals[na:]
            x = apply_hom(rest[i], head[0] if argd.fn is _identity else argd.fn(*head))
            if x.is_zero():
                return bodyd.target.zero()
            return bodyd.fn(*rest[:i], x, *rest[i + 1:])
        return Denotation(src, bodyd.target, fn)

    if isinstance(p, syn.TensorR):
        ld, rd = _den(p.left), _den(p.right)
        space = TensorSpace(ld.target, rd.target)
        nl = len(ld.source)

        def fn(*vals):
            return TensorVal.make(space, [(1, (ld.fn(*vals[:nl]), rd.fn(*vals[nl:])))])
        return Denotation(ld.source + rd.source, space, fn)

    if isinstance(p, syn.Prom):
        prem = _den(p.premise)

        def fn(*vals):
            return bg.promote_blocks(vals, prem.fn, prem.target)
        return Denotation(prem.source, BangSpace(prem.target), fn)

    if isinstance(p, syn.Cut):
        ld, rd = _den(p.left), _den(p.right)
        i, nl = p.index, len(ld.source)
        src = ld.source + rd.source[:i] + rd.source[i + 1:]

        def fn(*vals):
            x = ld.fn(*vals[:nl])
            if x.is_zero():  # rd is linear in slot i
                return rd.target.zero()
            rest = vals[nl:]
            return rd.fn(*rest[:i], x, *rest[i:])
        return Denotation(src, rd.target, fn)

    if isinstance(p, syn.Exchange):
        prem = _den(p.premise)
        perm = p.perm
        src = tuple(prem.source[j] for j in perm)
        inv = sorted(range(len(perm)), key=perm.__getitem__)  # perm[inv[m]] == m
        get = operator.itemgetter(*inv) if len(inv) > 1 else tuple

        def fn(*vals):
            return prem.fn(*get(vals))
        return Denotation(src, prem.target, fn)

    raise TypeError("unknown proof node %r" % (p,))


# -- evaluation at a ket, the entry points used everywhere --------------------


def nl_eval(p: syn.Proof, point):
    """Evaluate a proof of !A |- B at the group-like ket over the given point."""
    return _eval_at(p, point, ())


def derivative_eval(p: syn.Proof, point, tangent):
    """Evaluate a proof of !A |- B at the single-tangent ket |tangent>_point."""
    return _eval_at(p, point, (tangent,))


def _eval_at(p, point, tangents):
    s, d = denote_sequent(p)
    syn.require_nl_shape(s, "evaluation at a ket")
    return d.fn(bg.BangElement.ket(d.source[0].inner, point, tangents))


# -- extensional comparison ---------------------------------------------------


@record
class ProbeConfig:
    seed: int = 0
    samples: int = 2
    max_tangents: int = 3
    depth: int = 4


SPAN = 3  # coordinate magnitude of random probe entries and law data


def rand_fraction(rng):
    return _ratio(rng.randint(-SPAN, SPAN), rng.randint(1, 2))


def probes(space, rng, cfg, depth, budget):
    """Seeded probe values for a domain space: (value, tangent budget used)."""
    if depth <= 0:
        raise ProbeDepthError("probe recursion exhausted at %s" % space.label())
    if isinstance(space, Base):
        out = [(Vec.basis(space.dim, 0), 0)]
        for _ in range(cfg.samples):
            out.append((Vec(tuple(rand_fraction(rng) for _ in range(space.dim))), 0))
        return out
    if isinstance(space, HomSpace) and space.concrete:
        out = []
        for _ in range(cfg.samples + 1):
            rows = tuple(tuple(rand_fraction(rng) for _ in range(space.dom.dim))
                         for _ in range(space.cod.dim))
            out.append((Matrix(rows), 0))
        return out
    if isinstance(space, BangSpace):
        inner_probes = probes(space.inner, rng, cfg, depth - 1, budget)
        out = []
        for s in range(min(budget, cfg.max_tangents) + 1):
            for _ in range(max(1, cfg.samples - 1)):
                point = rng.choice(inner_probes)[0]
                tangents = tuple(rng.choice(inner_probes)[0] for _ in range(s))
                out.append((bg.BangElement.ket(space.inner, point, tangents), s))
        return out
    if isinstance(space, TensorSpace):
        left = probes(space.left, rng, cfg, depth - 1, budget)
        right = probes(space.right, rng, cfg, depth - 1, budget)
        out = []
        for _ in range(cfg.samples):
            lv, lu = rng.choice(left)
            rv, ru = rng.choice(right)
            out.append((TensorVal.make(space, [(1, (lv, rv))]), lu + ru))
        return out
    raise ProbeDepthError("cannot synthesize probes for %s" % space.label())


def _opaque(v) -> bool:
    if isinstance(v, MapVal):
        return True
    if isinstance(v, bg.BangElement):
        return any(_opaque(e) for k in v.terms for e in (k.point,) + k.tangents)
    if isinstance(v, TensorVal):
        return any(_opaque(x) for pair in v.terms for x in pair)
    return False


def extensional_equal(a, b, space, cfg: ProbeConfig | None = None) -> bool:
    """Exact equality, probing lazy linear maps with seeded arguments.

    Structural equality decides equal values, and concrete ones, outright.
    Other Hom values are applied to deterministic probes and their outputs
    compared recursively; the probe tangent budget is shared along an
    application chain.  Raises ProbeDepthError when neither route can decide.
    """
    cfg = cfg or ProbeConfig()
    rng = random.Random(cfg.seed)
    return _ext_eq(a, b, space, rng, cfg, cfg.depth, cfg.max_tangents)


def _ext_eq(a, b, space, rng, cfg, depth, budget):
    if a == b:  # a structural match short-cuts the probes
        return True
    if isinstance(space, Base) or isinstance(a, Matrix) and isinstance(b, Matrix):
        return False
    if isinstance(space, HomSpace):
        for probe, used in probes(space.dom, rng, cfg, depth, budget):
            xa = apply_hom(a, probe)
            xb = apply_hom(b, probe)
            if not _ext_eq(xa, xb, space.cod, rng, cfg, depth - 1, budget - used):
                return False
        return True
    if isinstance(space, (BangSpace, TensorSpace)):
        if _opaque(a) or _opaque(b):
            raise ProbeDepthError(
                "cannot decide equality of opaque values in %s" % space.label())
        return False
    raise TypeError("not a space: %r" % (space,))


# -- typed JSON bridging (used by the CLI and by golden tests) ----------------


def parse_value(space, data, named=None):
    """Parse a JSON-shaped value against an expected space.

    Base spaces take arrays of scalars; concrete Hom spaces take arrays of
    arrays; bang spaces take a list of ket objects {coeff, point, tangents}
    (a single object is accepted for a one-ket sum).  A hook may claim dict
    values first, so callers can support named constants.
    """
    if named is not None and isinstance(data, dict):
        v = named(space, data)
        if v is not None:
            return v
    if isinstance(space, Base):
        return Vec.from_json(data)
    if isinstance(space, HomSpace) and space.concrete:
        m = Matrix.from_json(data)
        if not space.contains(m):
            raise SpaceMismatch("expected a %dx%d matrix for %s"
                                % (space.cod.dim, space.dom.dim, space.label()))
        return m
    if isinstance(space, BangSpace):
        if isinstance(data, dict):
            data = [data]
        if not isinstance(data, list):
            raise SpaceMismatch("expected a list of kets for %s" % space.label())
        items = []
        for entry in data:
            if not isinstance(entry, dict) or "point" not in entry:
                raise SpaceMismatch("ket objects need point/tangents/coeff fields")
            coeff = json_scalar(entry.get("coeff", 1))
            point = parse_value(space.inner, entry["point"], named)
            tangents = entry.get("tangents", [])
            if not isinstance(tangents, list):
                raise SpaceMismatch("a ket's tangents must be a list, got %s"
                                    % reprlib.repr(tangents))
            items.append((coeff, point, tuple(parse_value(space.inner, t, named)
                                              for t in tangents)))
        return bg.BangElement.from_terms(space.inner, items)
    raise SpaceMismatch("no JSON form for values of %s" % space.label())


def value_to_json(v):
    """Exact JSON for concrete values; raises on closures."""
    if isinstance(v, (Vec, Matrix)):
        return v.to_json()
    if isinstance(v, bg.BangElement):
        return [{"coeff": scalar_str(c),
                 "point": value_to_json(k.point),
                 "tangents": [value_to_json(t) for t in k.tangents]}
                for k, c in v.sorted_terms()]
    if isinstance(v, TensorVal):
        return [{"coeff": scalar_str(c), "factors": [value_to_json(x) for x in pair]}
                for pair, c in v.sorted_terms()]
    raise SpaceMismatch("value has no exact JSON form: %r" % (v,))
