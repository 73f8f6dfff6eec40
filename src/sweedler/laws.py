"""Randomized verification of the engine's structural laws.

Each law is an executable identity over exact rational data.  A run draws
random elements from a seeded generator, evaluates both sides with exact
arithmetic, and reports a concrete witness on the first mismatch.  There is
no tolerance anywhere: two sides are equal or the law fails.

Laws are grouped:

* ``bang``       -- comonoid, bialgebra, antipode, (co)dereliction and
                    deriving-map identities of the bang coalgebra.
* ``poly``       -- duality between structural maps and polynomial algebra
                    through the residue pairing.
* ``semantics``  -- linearity, promotion behaviour and path coherence of the
                    proof denotations.
* ``encodings``  -- bundled proof families against closed-form matrix
                    oracles.

The ``mutate`` flag swaps the deriving map for a deliberately corrupted
variant, ``deriving_mutated``; the suite is expected to catch it (see
``deriving-dereliction``, ``deriving-promotion`` and
``deriving-via-cocontraction``).
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from . import bang as bg
from . import poly as pl
from .exact import Matrix, Vec, _mul
from .record import record
from . import encodings as enc
from .semantics import (
    SPAN, ProbeConfig, apply_hom, denote_formula, denote_proof,
    derivative_eval, extensional_equal, nl_eval, rand_fraction)
from .syntax import Axiom, Bang, Cut, Prom, PropVar, derivative_transform


# ---------------------------------------------------------------------------
# configuration and results


@record
class RunConfig:
    """Settings for a law run.  Identical configs give identical runs."""

    seed: int = 0
    dim: int = 2
    trials: int = 200
    max_tangents: int = 3
    probe_depth: int = 4
    mutate: bool = False


@record
class LawResult:
    group: str
    name: str
    passed: bool
    trials: int
    witness: str | None = None

    def line(self) -> str:
        if self.passed:
            return "PASS %s/%s (%d trials)" % (self.group, self.name, self.trials)
        return "FAIL %s/%s (trial %d): %s" % (self.group, self.name, self.trials, self.witness)


@record
class Law:
    group: str
    name: str
    fn: object
    weight: int = 1  # divides cfg.trials; expensive laws get fewer rounds


LAWS: list[Law] = []


def law(group, name, weight=1):
    def deco(fn):
        LAWS.append(Law(group, name, fn, weight))
        return fn
    return deco


def _law_seed(seed, group, name):
    return seed * 1000003 + zlib.crc32(("%s/%s" % (group, name)).encode("ascii"))


def run_law(l: Law, cfg: RunConfig) -> LawResult:
    rng = random.Random(_law_seed(cfg.seed, l.group, l.name))
    rounds = max(1, cfg.trials // l.weight)
    for i in range(rounds):
        witness = l.fn(rng, cfg)
        if witness is not None:
            return LawResult(l.group, l.name, False, i + 1, witness)
    return LawResult(l.group, l.name, True, rounds, None)


def run_laws(cfg: RunConfig, groups=None, names=None) -> list:
    picked = [l for l in LAWS
              if (groups is None or l.group in groups)
              and (names is None or l.name in names)]
    return [run_law(l, cfg) for l in picked]


# ---------------------------------------------------------------------------
# random generators


def _short(x, limit=200):
    s = str(x)
    return s if len(s) <= limit else s[:limit - 3] + "..."


def _witness(parts):
    return "; ".join("%s = %s" % (k, _short(v)) for k, v in parts)


def rand_vec(rng, dim):
    return Vec(tuple(rand_fraction(rng) for _ in range(dim)))


def rand_matrix(rng, n):
    return Matrix(tuple(tuple(rng.randint(-SPAN, SPAN) for _ in range(n)) for _ in range(n)))


def rand_bang(rng, space, max_tangents):
    items = []
    for _ in range(rng.randint(1, 2)):
        order = rng.randint(0, max_tangents)
        point = rand_vec(rng, space.dim)
        tangents = tuple(rand_vec(rng, space.dim) for _ in range(order))
        coeff = Fraction(rng.choice((-2, -1, 1, 1, 2)), rng.choice((1, 2)))
        items.append((coeff, point, tangents))
    return bg.BangElement.from_terms(space, items)


def rand_poly(rng, nvars, deg=2):
    return pl.Polynomial._sum(nvars, (
        (tuple(rng.randint(0, deg) for _ in range(nvars)), rand_fraction(rng))
        for _ in range(rng.randint(1, 3))))


def deriving_mutated(t: bg.BangElement, v) -> bg.BangElement:
    """Deliberately wrong D (tangent appended with flipped sign); used to
    demonstrate that the law suite can catch a corrupted structural map."""
    return bg.deriving(t, v).scale(-1)


def _D(cfg):
    return deriving_mutated if cfg.mutate else bg.deriving


# ---------------------------------------------------------------------------
# bang-coalgebra laws


@law("bang", "deriving-counit")
def _law_deriving_counit(rng, cfg):
    """Adjoining a tangent kills the counit."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    got = bg.counit(_D(cfg)(x, v))
    if got != 0:
        return _witness([("x", x), ("v", v), ("counit", got)])


@law("bang", "deriving-coproduct")
def _law_deriving_coproduct(rng, cfg):
    """The coproduct routes a fresh tangent into either factor."""
    space = bg.BaseSpace(cfg.dim)
    D = _D(cfg)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    lhs = bg.coproduct(D(x, v))
    rhs = bg.TensorElement.from_terms((space, space), [])
    for x1, x2 in bg.coproduct_pairs(x):
        rhs = rhs + bg.tensor(x1, D(x2, v)) + bg.tensor(D(x1, v), x2)
    if lhs != rhs:
        return _witness([("x", x), ("v", v), ("lhs", lhs), ("rhs", rhs)])


@law("bang", "deriving-dereliction")
def _law_deriving_dereliction(rng, cfg):
    """Dereliction after a fresh tangent returns counit(x) times the tangent."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    lhs = bg.dereliction(_D(cfg)(x, v))
    rhs = v.scale(bg.counit(x))
    if lhs != rhs:
        return _witness([("x", x), ("v", v), ("lhs", lhs), ("rhs", rhs)])


@law("bang", "deriving-promotion")
def _law_deriving_promotion(rng, cfg):
    """Promotion of a derived element re-derives the promoted split."""
    space = bg.BaseSpace(cfg.dim)
    D = _D(cfg)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    lhs = bg.promote(D(x, v))
    outer = bg.BangSpace(space)
    rhs = bg.BangElement.zero(outer)
    for x1, x2 in bg.coproduct_pairs(x):
        rhs = rhs + D(bg.promote(x1), D(x2, v))
    if lhs != rhs:
        return _witness([("x", x), ("v", v), ("lhs", lhs), ("rhs", rhs)])


@law("bang", "coproduct-coassociative")
def _law_coassoc(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    pairs = bg.coproduct_pairs(x)
    # (Delta (x) 1) Delta x splits each left factor, (1 (x) Delta) Delta x each
    # right one; a left factor is a unit ket
    lhs = bg.TensorElement._sum((space,) * 3, (
        ((k1, k2, k3), _mul(c2, c3)) for x1, x2 in pairs for y1, y2 in bg.coproduct_pairs(x1)
        for k1 in y1.terms for k2, c2 in y2.terms.items() for k3, c3 in x2.terms.items()))
    rhs = bg.TensorElement._sum((space,) * 3, (
        ((k1, k2, k3), c3) for x1, x2 in pairs for z1, z2 in bg.coproduct_pairs(x2)
        for k1 in x1.terms for k2 in z1.terms for k3, c3 in z2.terms.items()))
    if lhs != rhs:
        return _witness([("x", x), ("lhs", lhs), ("rhs", rhs)])


@law("bang", "coproduct-cocommutative")
def _law_cocomm(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    dx = bg.coproduct(x)
    swapped = bg.TensorElement.from_terms(
        dx.space, ((c, (k2, k1)) for (k1, k2), c in dx.terms.items()))
    if swapped != dx:
        return _witness([("x", x), ("coproduct", dx)])


@law("bang", "coproduct-counit")
def _law_counit_law(rng, cfg):
    """Collapsing one coproduct leg with the counit is the identity."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    acc = bg.BangElement.zero(space)
    for x1, x2 in bg.coproduct_pairs(x):
        acc = acc + x2.scale(bg.counit(x1))
    if acc != x:
        return _witness([("x", x), ("collapsed", acc)])


@law("bang", "promotion-dereliction")
def _law_promotion_dereliction(rng, cfg):
    """Dereliction undoes promotion (comonad counit law)."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    got = bg.dereliction(bg.promote(x))
    if got != x:
        return _witness([("x", x), ("got", got)])


@law("bang", "promotion-coalgebra-morphism")
def _law_promotion_morphism(rng, cfg):
    """Promotion intertwines the coproducts and preserves the counit."""
    space = bg.BaseSpace(cfg.dim)
    outer = bg.BangSpace(space)
    x = rand_bang(rng, space, cfg.max_tangents)
    px = bg.promote(x)
    lhs = bg.coproduct(px)
    rhs = bg.TensorElement.from_terms((outer, outer), [])
    for x1, x2 in bg.coproduct_pairs(x):
        rhs = rhs + bg.tensor(bg.promote(x1), bg.promote(x2))
    if lhs != rhs:
        return _witness([("x", x), ("lhs", lhs), ("rhs", rhs)])
    if bg.counit(px) != bg.counit(x):
        return _witness([("x", x), ("counit(promote)", bg.counit(px))])


@law("bang", "cocontraction-commutative-monoid")
def _law_cocontraction_monoid(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, 2)
    y = rand_bang(rng, space, 2)
    z = rand_bang(rng, space, 1)
    if bg.cocontract(x, y) != bg.cocontract(y, x):
        return _witness([("x", x), ("y", y)])
    if bg.cocontract(bg.cocontract(x, y), z) != bg.cocontract(x, bg.cocontract(y, z)):
        return _witness([("x", x), ("y", y), ("z", z)])
    if bg.cocontract(x, bg.coweaken(space)) != x:
        return _witness([("x", x), ("against", "unit")])


@law("bang", "bialgebra-compatibility")
def _law_bialgebra(rng, cfg):
    """Coproduct of a cocontraction factors through both coproducts."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, 2)
    y = rand_bang(rng, space, 2)
    lhs = bg.coproduct(bg.cocontract(x, y))
    rhs = bg.TensorElement.from_terms((space, space), [])
    for x1, x2 in bg.coproduct_pairs(x):
        for y1, y2 in bg.coproduct_pairs(y):
            rhs = rhs + bg.tensor(bg.cocontract(x1, y1), bg.cocontract(x2, y2))
    if lhs != rhs:
        return _witness([("x", x), ("y", y), ("lhs", lhs), ("rhs", rhs)])
    if bg.counit(bg.cocontract(x, y)) != bg.counit(x) * bg.counit(y):
        return _witness([("x", x), ("y", y), ("counit mismatch", "")])


@law("bang", "coweakening-group-like")
def _law_coweaken(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    u = bg.coweaken(space)
    if bg.coproduct(u) != bg.tensor(u, u):
        return "coproduct of the empty ket is not group-like"
    if bg.counit(u) != 1:
        return "counit of the empty ket is not 1"


@law("bang", "antipode-convolution-inverse")
def _law_antipode(rng, cfg):
    """Cocontracting the antipode against one coproduct leg gives u . counit."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    acc = bg.BangElement.zero(space)
    for x1, x2 in bg.coproduct_pairs(x):
        acc = acc + bg.cocontract(bg.antipode(x1), x2)
    target = bg.coweaken(space).scale(bg.counit(x))
    if acc != target:
        return _witness([("x", x), ("lhs", acc), ("rhs", target)])
    if bg.antipode(bg.antipode(x)) != x:
        return _witness([("x", x), ("S(S(x))", bg.antipode(bg.antipode(x)))])


@law("bang", "codereliction-primitives")
def _law_codereliction(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    v = rand_vec(rng, cfg.dim)
    e = bg.codereliction(space, v)
    u = bg.coweaken(space)
    if bg.counit(e) != 0:
        return _witness([("v", v), ("counit", bg.counit(e))])
    if bg.dereliction(e) != v:
        return _witness([("v", v), ("dereliction", bg.dereliction(e))])
    if bg.coproduct(e) != bg.tensor(e, u) + bg.tensor(u, e):
        return _witness([("v", v), ("coproduct", bg.coproduct(e))])


@law("bang", "deriving-via-cocontraction")
def _law_deriving_cocontraction(rng, cfg):
    """D(x; v) is cocontraction against a coderelicted tangent."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    lhs = _D(cfg)(x, v)
    rhs = bg.cocontract(x, bg.codereliction(space, v))
    if lhs != rhs:
        return _witness([("x", x), ("v", v), ("lhs", lhs), ("rhs", rhs)])


@law("bang", "split-merge-inverse")
def _law_split_merge(rng, cfg):
    d1, d2 = cfg.dim, max(1, cfg.dim - 1)
    a = rand_bang(rng, bg.BaseSpace(d1), cfg.max_tangents)
    b = rand_bang(rng, bg.BaseSpace(d2), cfg.max_tangents)
    merged = bg.split_merge(a, b)
    back = bg.split_inverse(merged, d1, d2)
    if back != bg.tensor(a, b):
        return _witness([("a", a), ("b", b), ("roundtrip", back)])
    if bg.counit(merged) != bg.counit(a) * bg.counit(b):
        return _witness([("a", a), ("b", b), ("counit", bg.counit(merged))])


@law("bang", "tangent-lift-primitive-pair")
def _law_tangent_lift(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    p = rand_vec(rng, cfg.dim)
    v = rand_vec(rng, cfg.dim)
    e0, e1 = bg.tangent_lift(space, p, v)
    if bg.coproduct(e0) != bg.tensor(e0, e0):
        return _witness([("p", p), ("coproduct(e0)", bg.coproduct(e0))])
    if bg.coproduct(e1) != bg.tensor(e0, e1) + bg.tensor(e1, e0):
        return _witness([("p", p), ("v", v), ("coproduct(e1)", bg.coproduct(e1))])
    if bg.counit(e0) != 1 or bg.counit(e1) != 0 or bg.dereliction(e1) != v:
        return _witness([("p", p), ("v", v)])


# ---------------------------------------------------------------------------
# residue-pairing duality laws


@law("poly", "coproduct-dual-to-multiplication")
def _law_pair_coproduct(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    f = rand_poly(rng, cfg.dim)
    g = rand_poly(rng, cfg.dim)
    lhs = Fraction(0)
    for x1, x2 in bg.coproduct_pairs(x):
        a = pl.residue_pairing(x1, f)
        if a:
            lhs += a * pl.residue_pairing(x2, g)
    rhs = pl.residue_pairing(x, f * g)
    if lhs != rhs:
        return _witness([("x", x), ("f", f), ("g", g),
                         ("lhs", lhs), ("rhs", rhs)])


@law("poly", "cocontraction-dual-to-doubling")
def _law_pair_cocontraction(rng, cfg):
    """Pairing a product of kets equals pairing blockwise against f(x + y)."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, 2)
    y = rand_bang(rng, space, 2)
    f = rand_poly(rng, cfg.dim)
    lhs = pl.residue_pairing(bg.cocontract(x, y), f)
    rhs = pl.residue_pairing(bg.split_merge(x, y), pl.shift_doubling(f))
    if lhs != rhs:
        return _witness([("x", x), ("y", y), ("f", f),
                         ("lhs", lhs), ("rhs", rhs)])


@law("poly", "deriving-dual-to-directional")
def _law_pair_deriving(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    f = rand_poly(rng, cfg.dim, deg=3)
    lhs = pl.residue_pairing(_D(cfg)(x, v), f)
    rhs = pl.residue_pairing(x, f.directional(v))
    if lhs != rhs:
        return _witness([("x", x), ("v", v), ("f", f),
                         ("lhs", lhs), ("rhs", rhs)])


@law("poly", "units-dual-to-evaluation")
def _law_pair_units(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    f = rand_poly(rng, cfg.dim)
    one = pl.Polynomial.const(cfg.dim, 1)
    origin = Vec.zero(cfg.dim)
    if pl.residue_pairing(x, one) != bg.counit(x):
        return _witness([("x", x)])
    if pl.residue_pairing(bg.coweaken(space), f) != f.eval_at(origin):
        return _witness([("f", f)])
    if pl.residue_pairing(bg.codereliction(space, v), f) != f.directional(v).eval_at(origin):
        return _witness([("v", v), ("f", f)])


@law("poly", "antipode-dual-to-reflection")
def _law_pair_antipode(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    f = rand_poly(rng, cfg.dim, deg=3)
    lhs = pl.residue_pairing(bg.antipode(x), f)
    rhs = pl.residue_pairing(x, f.reflect())
    if lhs != rhs:
        return _witness([("x", x), ("f", f), ("lhs", lhs), ("rhs", rhs)])


# ---------------------------------------------------------------------------
# semantics laws


def _probe_cfg(rng, cfg, max_tangents=2):
    return ProbeConfig(seed=rng.randint(0, 2**30), samples=2,
                       max_tangents=max_tangents, depth=cfg.probe_depth)


@law("semantics", "denotation-multilinearity", weight=5)
def _law_multilinearity(rng, cfg):
    """Proof denotations are linear in every sequent slot."""
    den = denote_proof(enc.comp_proof(3, cfg.dim))
    slot = rng.randint(0, 2)
    mats = [rand_matrix(rng, cfg.dim) for _ in range(3)]
    extra = rand_matrix(rng, cfg.dim)
    c = rand_fraction(rng)
    combo = list(mats)
    combo[slot] = mats[slot] + extra.scale(c)
    alt = list(mats)
    alt[slot] = extra
    lhs = den.eval(*combo)
    rhs = den.eval(*mats) + den.eval(*alt).scale(c)
    if lhs != rhs:
        return _witness([("slot", slot), ("c", c), ("lhs", lhs), ("rhs", rhs)])


@law("semantics", "promotion-on-identity", weight=5)
def _law_promotion_identity(rng, cfg):
    """The promoted identity proof denotes the promotion map itself."""
    a = PropVar("A", cfg.dim)
    den = denote_proof(Prom(Axiom(Bang(a))))
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, 2)
    got = den.eval(x)
    want = bg.promote(x)
    if got != want:
        return _witness([("x", x), ("got", got), ("want", want)])


@law("semantics", "promotion-group-like-totem", weight=10)
def _law_promotion_group_like(rng, cfg):
    """Promoted proofs send group-like kets to group-like kets at the image."""
    n = rng.randint(0, 3)
    den = denote_proof(Prom(enc.church_proof(n, cfg.dim)))
    alpha = rand_matrix(rng, cfg.dim)
    got = den.eval(enc.end_ket(cfg.dim, alpha))
    want = enc.end_ket(cfg.dim, enc.church_value_oracle(n, alpha))
    if got != want:
        return _witness([("n", n), ("alpha", alpha), ("got", got), ("want", want)])


@law("semantics", "promotion-tangent-totem", weight=10)
def _law_promotion_tangent(rng, cfg):
    """Promoted proofs push one tangent forward along the derivative."""
    n = rng.randint(0, 3)
    den = denote_proof(Prom(enc.church_proof(n, cfg.dim)))
    alpha = rand_matrix(rng, cfg.dim)
    nu = rand_matrix(rng, cfg.dim)
    got = den.eval(enc.end_ket(cfg.dim, alpha, nu))
    want = enc.end_ket(cfg.dim, enc.church_value_oracle(n, alpha),
                       enc.church_derivative_oracle(n, alpha, nu))
    if got != want:
        return _witness([("n", n), ("alpha", alpha), ("nu", nu),
                         ("got", got), ("want", want)])


@law("semantics", "derivative-path-coherence", weight=10)
def _law_derivative_path(rng, cfg):
    """The syntactic derivative transform matches the semantic derivative."""
    n = rng.randint(0, 3)
    p = enc.church_proof(n, cfg.dim)
    dpi = denote_proof(derivative_transform(p))
    alpha = rand_matrix(rng, cfg.dim)
    nu = rand_matrix(rng, cfg.dim)
    got = dpi.eval(enc.end_ket(cfg.dim, alpha), nu)
    want = derivative_eval(p, alpha, nu)
    oracle = enc.church_derivative_oracle(n, alpha, nu)
    if not (got == want == oracle):
        return _witness([("n", n), ("alpha", alpha), ("nu", nu),
                         ("transform", got), ("direct", want), ("oracle", oracle)])


@law("semantics", "derivative-path-coherence-curried", weight=100)
def _law_derivative_path_bint(rng, cfg):
    """Transform-vs-direct derivative agreement on a curried conclusion."""
    s = "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
    p = enc.bint_proof(s, cfg.dim, arrows=1)
    dpi = denote_proof(derivative_transform(p))
    gamma = rand_matrix(rng, cfg.dim)
    nu = rand_matrix(rng, cfg.dim)
    got = dpi.eval(enc.end_ket(cfg.dim, gamma), nu)
    want = derivative_eval(p, gamma, nu)
    target = denote_formula(enc.int_formula(cfg.dim))
    if not extensional_equal(got, want, target, _probe_cfg(rng, cfg)):
        return _witness([("s", repr(s)), ("gamma", gamma), ("nu", nu)])


@law("semantics", "cut-against-promotion", weight=100)
def _law_cut_promotion(rng, cfg):
    """Cutting a promoted string numeral into the doubling proof concatenates."""
    s = "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
    p = Cut(0, Prom(enc.bint_proof(s, cfg.dim)), enc.repeat_proof(cfg.dim))
    got = denote_proof(p).eval()
    want = enc.bint_value(s + s, cfg.dim)
    target = denote_formula(enc.bint_formula(cfg.dim))
    if not extensional_equal(got, want, target, _probe_cfg(rng, cfg)):
        return _witness([("s", repr(s))])


# ---------------------------------------------------------------------------
# encoding laws


@law("encodings", "iteration-counts-compositions", weight=10)
def _law_church_oracle(rng, cfg):
    n = rng.randint(0, 4)
    p = enc.church_proof(n, cfg.dim)
    alpha = rand_matrix(rng, cfg.dim)
    nu = rand_matrix(rng, cfg.dim)
    if nl_eval(p, alpha) != enc.church_value_oracle(n, alpha):
        return _witness([("n", n), ("alpha", alpha)])
    got = derivative_eval(p, alpha, nu)
    if got != enc.church_derivative_oracle(n, alpha, nu):
        return _witness([("n", n), ("alpha", alpha), ("nu", nu), ("got", got)])


@law("encodings", "string-numeral-oracle", weight=20)
def _law_bint_oracle(rng, cfg):
    s = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
    stang = rng.randint(0, 2)
    rtang = rng.randint(0, 2 - stang)
    gamma = rand_matrix(rng, cfg.dim)
    delta = rand_matrix(rng, cfg.dim)
    alphas = tuple(rand_matrix(rng, cfg.dim) for _ in range(stang))
    betas = tuple(rand_matrix(rng, cfg.dim) for _ in range(rtang))
    v = enc.bint_value(s, cfg.dim)
    got = apply_hom(apply_hom(v, enc.end_ket(cfg.dim, gamma, *alphas)),
                    enc.end_ket(cfg.dim, delta, *betas))
    want = enc.bint_oracle(s, gamma, delta, alphas, betas)
    if got != want:
        return _witness([("s", repr(s)), ("gamma", gamma), ("delta", delta),
                         ("alphas", alphas), ("betas", betas),
                         ("got", got), ("want", want)])


@law("encodings", "doubling-concatenates", weight=100)
def _law_repeat(rng, cfg):
    s = "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
    got = nl_eval(enc.repeat_proof(cfg.dim), enc.bint_value(s, cfg.dim))
    want = enc.bint_value(s + s, cfg.dim)
    target = denote_formula(enc.bint_formula(cfg.dim))
    if not extensional_equal(got, want, target, _probe_cfg(rng, cfg)):
        return _witness([("s", repr(s))])


@law("encodings", "multiplication-derivative", weight=50)
def _law_mult(rng, cfg):
    l, m, n = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
    dv = derivative_eval(enc.mult_by_numeral(n, cfg.dim),
                         denote_proof(enc.int_proof(l, cfg.dim)).eval(),
                         denote_proof(enc.int_proof(m, cfg.dim)).eval())
    x = rand_matrix(rng, cfg.dim)
    got = apply_hom(dv, enc.end_ket(cfg.dim, x))
    closed = enc.mult_derivative_oracle(l, m, n, x)
    interp = enc.mult_difference_quotient(l, m, n, x)
    if not (got == closed == interp):
        return _witness([("l", l), ("m", m), ("n", n), ("x", x),
                         ("got", got), ("closed", closed), ("interpolated", interp)])
