"""Randomized verification of the engine's structural laws.

Each law is an executable identity over exact rational data.  Its body draws
random inputs from a seeded generator and returns ``(inputs, checks)``: the
inputs as ``(name, value)`` pairs and its identities as ``(label, lhs, rhs)``
triples whose two sides it evaluates with exact arithmetic.  ``law`` registers
the trial built from the body; the trial alone compares the sides.  There is
no tolerance anywhere: two sides are equal or the law fails.  A law decided by
probing checks ``extensional_equal(...)`` against True.

A trial returns None when every check holds, and otherwise the witness of the
first failing check, one line of ``name = value`` parts joined by ``; ``: the
inputs in the order they were drawn, then ``check = <label>`` when the law has
more than one check, then ``lhs`` and ``rhs``.  Each value is cut at 200
characters.

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

import functools
import random
import zlib

from . import bang as bg
from . import poly as pl
from .exact import ZERO, Matrix, Vec, _add, _mul, _ratio
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
    """Register the trial of a law body; the trial keeps the body's name."""
    def deco(body):
        @functools.wraps(body)
        def trial(rng, cfg):
            return _witness(*body(rng, cfg))
        LAWS.append(Law(group, name, trial, weight))
        return trial
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


def _short(x, limit=200):
    s = str(x)
    return s if len(s) <= limit else s[:limit - 3] + "..."


def _witness(inputs, checks):
    """None if both sides of every check agree, else the first failure's witness."""
    for label, lhs, rhs in checks:
        if lhs != rhs:
            named = [("check", label)] if len(checks) > 1 else []
            parts = [*inputs, *named, ("lhs", lhs), ("rhs", rhs)]
            return "; ".join("%s = %s" % (k, _short(v)) for k, v in parts)


# ---------------------------------------------------------------------------
# random generators


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
        coeff = _ratio(rng.choice((-2, -1, 1, 1, 2)), rng.choice((1, 2)))
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
    return [("x", x), ("v", v)], [("counit", bg.counit(_D(cfg)(x, v)), 0)]


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
    return [("x", x), ("v", v)], [("coproduct", lhs, rhs)]


@law("bang", "deriving-dereliction")
def _law_deriving_dereliction(rng, cfg):
    """Dereliction after a fresh tangent returns counit(x) times the tangent."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    return [("x", x), ("v", v)], [
        ("dereliction", bg.dereliction(_D(cfg)(x, v)), v.scale(bg.counit(x)))]


@law("bang", "deriving-promotion")
def _law_deriving_promotion(rng, cfg):
    """Promotion of a derived element re-derives the promoted split."""
    space = bg.BaseSpace(cfg.dim)
    D = _D(cfg)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    lhs = bg.promote(D(x, v))
    rhs = bg.BangElement.zero(bg.BangSpace(space))
    for x1, x2 in bg.coproduct_pairs(x):
        rhs = rhs + D(bg.promote(x1), D(x2, v))
    return [("x", x), ("v", v)], [("promotion", lhs, rhs)]


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
    return [("x", x)], [("coassociative", lhs, rhs)]


@law("bang", "coproduct-cocommutative")
def _law_cocomm(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    dx = bg.coproduct(x)
    swapped = bg.TensorElement.from_terms(
        dx.space, ((c, (k2, k1)) for (k1, k2), c in dx.terms.items()))
    return [("x", x)], [("cocommutative", swapped, dx)]


@law("bang", "coproduct-counit")
def _law_counit_law(rng, cfg):
    """Collapsing one coproduct leg with the counit is the identity."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    acc = bg.BangElement.zero(space)
    for x1, x2 in bg.coproduct_pairs(x):
        acc = acc + x2.scale(bg.counit(x1))
    return [("x", x)], [("counit", acc, x)]


@law("bang", "promotion-dereliction")
def _law_promotion_dereliction(rng, cfg):
    """Dereliction undoes promotion (comonad counit law)."""
    x = rand_bang(rng, bg.BaseSpace(cfg.dim), cfg.max_tangents)
    return [("x", x)], [("dereliction", bg.dereliction(bg.promote(x)), x)]


@law("bang", "promotion-coalgebra-morphism")
def _law_promotion_morphism(rng, cfg):
    """Promotion intertwines the coproducts and preserves the counit."""
    space = bg.BaseSpace(cfg.dim)
    outer = bg.BangSpace(space)
    x = rand_bang(rng, space, cfg.max_tangents)
    px = bg.promote(x)
    rhs = bg.TensorElement.from_terms((outer, outer), [])
    for x1, x2 in bg.coproduct_pairs(x):
        rhs = rhs + bg.tensor(bg.promote(x1), bg.promote(x2))
    return [("x", x)], [("coproduct", bg.coproduct(px), rhs),
                        ("counit", bg.counit(px), bg.counit(x))]


@law("bang", "cocontraction-commutative-monoid")
def _law_cocontraction_monoid(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, 2)
    y = rand_bang(rng, space, 2)
    z = rand_bang(rng, space, 1)
    xy = bg.cocontract(x, y)
    return [("x", x), ("y", y), ("z", z)], [
        ("commutative", xy, bg.cocontract(y, x)),
        ("associative", bg.cocontract(xy, z), bg.cocontract(x, bg.cocontract(y, z))),
        ("unit", bg.cocontract(x, bg.coweaken(space)), x)]


@law("bang", "bialgebra-compatibility")
def _law_bialgebra(rng, cfg):
    """Coproduct of a cocontraction factors through both coproducts."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, 2)
    y = rand_bang(rng, space, 2)
    xy = bg.cocontract(x, y)
    rhs = bg.TensorElement.from_terms((space, space), [])
    for x1, x2 in bg.coproduct_pairs(x):
        for y1, y2 in bg.coproduct_pairs(y):
            rhs = rhs + bg.tensor(bg.cocontract(x1, y1), bg.cocontract(x2, y2))
    return [("x", x), ("y", y)], [("coproduct", bg.coproduct(xy), rhs),
                                  ("counit", bg.counit(xy), _mul(bg.counit(x), bg.counit(y)))]


@law("bang", "coweakening-group-like")
def _law_coweaken(rng, cfg):
    u = bg.coweaken(bg.BaseSpace(cfg.dim))
    return [], [("group-like", bg.coproduct(u), bg.tensor(u, u)), ("counit", bg.counit(u), 1)]


@law("bang", "antipode-convolution-inverse")
def _law_antipode(rng, cfg):
    """Cocontracting the antipode against one coproduct leg gives u . counit."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    acc = bg.BangElement.zero(space)
    for x1, x2 in bg.coproduct_pairs(x):
        acc = acc + bg.cocontract(bg.antipode(x1), x2)
    return [("x", x)], [("convolution", acc, bg.coweaken(space).scale(bg.counit(x))),
                        ("involution", bg.antipode(bg.antipode(x)), x)]


@law("bang", "codereliction-primitives")
def _law_codereliction(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    v = rand_vec(rng, cfg.dim)
    e = bg.codereliction(space, v)
    u = bg.coweaken(space)
    return [("v", v)], [("counit", bg.counit(e), 0), ("dereliction", bg.dereliction(e), v),
                        ("coproduct", bg.coproduct(e), bg.tensor(e, u) + bg.tensor(u, e))]


@law("bang", "deriving-via-cocontraction")
def _law_deriving_cocontraction(rng, cfg):
    """D(x; v) is cocontraction against a coderelicted tangent."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    return [("x", x), ("v", v)], [
        ("cocontraction", _D(cfg)(x, v), bg.cocontract(x, bg.codereliction(space, v)))]


@law("bang", "split-merge-inverse")
def _law_split_merge(rng, cfg):
    d1, d2 = cfg.dim, max(1, cfg.dim - 1)
    a = rand_bang(rng, bg.BaseSpace(d1), cfg.max_tangents)
    b = rand_bang(rng, bg.BaseSpace(d2), cfg.max_tangents)
    merged = bg.split_merge(a, b)
    return [("a", a), ("b", b)], [
        ("roundtrip", bg.split_inverse(merged, d1, d2), bg.tensor(a, b)),
        ("counit", bg.counit(merged), _mul(bg.counit(a), bg.counit(b)))]


@law("bang", "tangent-lift-primitive-pair")
def _law_tangent_lift(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    p = rand_vec(rng, cfg.dim)
    v = rand_vec(rng, cfg.dim)
    e0, e1 = bg.tangent_lift(space, p, v)
    return [("p", p), ("v", v)], [
        ("coproduct(e0)", bg.coproduct(e0), bg.tensor(e0, e0)),
        ("coproduct(e1)", bg.coproduct(e1), bg.tensor(e0, e1) + bg.tensor(e1, e0)),
        ("counit(e0)", bg.counit(e0), 1), ("counit(e1)", bg.counit(e1), 0),
        ("dereliction(e1)", bg.dereliction(e1), v)]


# ---------------------------------------------------------------------------
# residue-pairing duality laws


@law("poly", "coproduct-dual-to-multiplication")
def _law_pair_coproduct(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    f = rand_poly(rng, cfg.dim)
    g = rand_poly(rng, cfg.dim)
    lhs = ZERO
    for x1, x2 in bg.coproduct_pairs(x):
        a = pl.residue_pairing(x1, f)
        if a:
            lhs = _add(lhs, _mul(a, pl.residue_pairing(x2, g)))
    return [("x", x), ("f", f), ("g", g)], [("pairing", lhs, pl.residue_pairing(x, f * g))]


@law("poly", "cocontraction-dual-to-doubling")
def _law_pair_cocontraction(rng, cfg):
    """Pairing a product of kets equals pairing blockwise against f(x + y)."""
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, 2)
    y = rand_bang(rng, space, 2)
    f = rand_poly(rng, cfg.dim)
    return [("x", x), ("y", y), ("f", f)], [
        ("pairing", pl.residue_pairing(bg.cocontract(x, y), f),
         pl.residue_pairing(bg.split_merge(x, y), pl.shift_doubling(f)))]


@law("poly", "deriving-dual-to-directional")
def _law_pair_deriving(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    f = rand_poly(rng, cfg.dim, deg=3)
    return [("x", x), ("v", v), ("f", f)], [
        ("pairing", pl.residue_pairing(_D(cfg)(x, v), f), pl.residue_pairing(x, f.directional(v)))]


@law("poly", "units-dual-to-evaluation")
def _law_pair_units(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    v = rand_vec(rng, cfg.dim)
    f = rand_poly(rng, cfg.dim)
    origin = Vec.zero(cfg.dim)
    return [("x", x), ("v", v), ("f", f)], [
        ("counit", pl.residue_pairing(x, pl.Polynomial.const(cfg.dim, 1)), bg.counit(x)),
        ("coweakening", pl.residue_pairing(bg.coweaken(space), f), f.eval_at(origin)),
        ("codereliction", pl.residue_pairing(bg.codereliction(space, v), f),
         f.directional(v).eval_at(origin))]


@law("poly", "antipode-dual-to-reflection")
def _law_pair_antipode(rng, cfg):
    space = bg.BaseSpace(cfg.dim)
    x = rand_bang(rng, space, cfg.max_tangents)
    f = rand_poly(rng, cfg.dim, deg=3)
    return [("x", x), ("f", f)], [
        ("pairing", pl.residue_pairing(bg.antipode(x), f), pl.residue_pairing(x, f.reflect()))]


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
    return [("slot", slot), ("c", c)], [
        ("linear", den.eval(*combo), den.eval(*mats) + den.eval(*alt).scale(c))]


@law("semantics", "promotion-on-identity", weight=5)
def _law_promotion_identity(rng, cfg):
    """The promoted identity proof denotes the promotion map itself."""
    den = denote_proof(Prom(Axiom(Bang(PropVar("A", cfg.dim)))))
    x = rand_bang(rng, bg.BaseSpace(cfg.dim), 2)
    return [("x", x)], [("promotion", den.eval(x), bg.promote(x))]


@law("semantics", "promotion-group-like-totem", weight=10)
def _law_promotion_group_like(rng, cfg):
    """Promoted proofs send group-like kets to group-like kets at the image."""
    n = rng.randint(0, 3)
    den = denote_proof(Prom(enc.church_proof(n, cfg.dim)))
    alpha = rand_matrix(rng, cfg.dim)
    return [("n", n), ("alpha", alpha)], [
        ("image", den.eval(enc.end_ket(cfg.dim, alpha)),
         enc.end_ket(cfg.dim, enc.church_value_oracle(n, alpha)))]


@law("semantics", "promotion-tangent-totem", weight=10)
def _law_promotion_tangent(rng, cfg):
    """Promoted proofs push one tangent forward along the derivative."""
    n = rng.randint(0, 3)
    den = denote_proof(Prom(enc.church_proof(n, cfg.dim)))
    alpha = rand_matrix(rng, cfg.dim)
    nu = rand_matrix(rng, cfg.dim)
    return [("n", n), ("alpha", alpha), ("nu", nu)], [
        ("pushforward", den.eval(enc.end_ket(cfg.dim, alpha, nu)),
         enc.end_ket(cfg.dim, enc.church_value_oracle(n, alpha),
                     enc.church_derivative_oracle(n, alpha, nu)))]


@law("semantics", "derivative-path-coherence", weight=10)
def _law_derivative_path(rng, cfg):
    """The syntactic derivative transform matches the semantic derivative."""
    n = rng.randint(0, 3)
    p = enc.church_proof(n, cfg.dim)
    dpi = denote_proof(derivative_transform(p))
    alpha = rand_matrix(rng, cfg.dim)
    nu = rand_matrix(rng, cfg.dim)
    direct = derivative_eval(p, alpha, nu)
    return [("n", n), ("alpha", alpha), ("nu", nu)], [
        ("transform = direct", dpi.eval(enc.end_ket(cfg.dim, alpha), nu), direct),
        ("direct = oracle", direct, enc.church_derivative_oracle(n, alpha, nu))]


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
    return [("s", repr(s)), ("gamma", gamma), ("nu", nu)], [
        ("probes agree", extensional_equal(got, want, target, _probe_cfg(rng, cfg)), True)]


@law("semantics", "cut-against-promotion", weight=100)
def _law_cut_promotion(rng, cfg):
    """Cutting a promoted string numeral into the doubling proof concatenates."""
    s = "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
    p = Cut(0, Prom(enc.bint_proof(s, cfg.dim)), enc.repeat_proof(cfg.dim))
    got = denote_proof(p).eval()
    want = enc.bint_value(s + s, cfg.dim)
    target = denote_formula(enc.bint_formula(cfg.dim))
    return [("s", repr(s))], [
        ("probes agree", extensional_equal(got, want, target, _probe_cfg(rng, cfg)), True)]


# ---------------------------------------------------------------------------
# encoding laws


@law("encodings", "iteration-counts-compositions", weight=10)
def _law_church_oracle(rng, cfg):
    n = rng.randint(0, 4)
    p = enc.church_proof(n, cfg.dim)
    alpha = rand_matrix(rng, cfg.dim)
    nu = rand_matrix(rng, cfg.dim)
    return [("n", n), ("alpha", alpha), ("nu", nu)], [
        ("value", nl_eval(p, alpha), enc.church_value_oracle(n, alpha)),
        ("derivative", derivative_eval(p, alpha, nu), enc.church_derivative_oracle(n, alpha, nu))]


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
    return [("s", repr(s)), ("gamma", gamma), ("delta", delta), ("alphas", alphas),
            ("betas", betas)], [("oracle", got, enc.bint_oracle(s, gamma, delta, alphas, betas))]


@law("encodings", "doubling-concatenates", weight=100)
def _law_repeat(rng, cfg):
    s = "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
    got = nl_eval(enc.repeat_proof(cfg.dim), enc.bint_value(s, cfg.dim))
    want = enc.bint_value(s + s, cfg.dim)
    target = denote_formula(enc.bint_formula(cfg.dim))
    return [("s", repr(s))], [
        ("probes agree", extensional_equal(got, want, target, _probe_cfg(rng, cfg)), True)]


@law("encodings", "multiplication-derivative", weight=50)
def _law_mult(rng, cfg):
    l, m, n = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
    dv = derivative_eval(enc.mult_by_numeral(n, cfg.dim),
                         denote_proof(enc.int_proof(l, cfg.dim)).eval(),
                         denote_proof(enc.int_proof(m, cfg.dim)).eval())
    x = rand_matrix(rng, cfg.dim)
    closed = enc.mult_derivative_oracle(l, m, n, x)
    return [("l", l), ("m", m), ("n", n), ("x", x)], [
        ("closed form", apply_hom(dv, enc.end_ket(cfg.dim, x)), closed),
        ("difference quotient", closed, enc.mult_difference_quotient(l, m, n, x))]
