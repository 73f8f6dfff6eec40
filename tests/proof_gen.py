"""A seeded generator of well-typed proofs over all fourteen rules.

``well_typed_proofs(seed, count)`` grows a pool from axioms.  Each step draws
a rule and applies it to proofs drawn from the pool: a context rule at each
index its arity in ``syntax.CONTEXT_RULES`` allows, the other rules where
their shape fits.  Of the applications the checker accepts, one is drawn and
joins the pool, so every proof returned checks.  Contexts stay at most
``MAX_CONTEXT`` long and formulas at most ``MAX_FORMULA`` deep, so the proofs
stay small enough to denote and evaluate.
"""

import random

from sweedler import syntax as syn
from sweedler.syntax import (
    Axiom, Bang, Cut, Exchange, LolliL, LolliR, Prom, PropVar, ProofError, TensorR,
    check_proof)

ATOMS = (PropVar("G", 1), PropVar("H", 2))
MAX_CONTEXT = 4
MAX_FORMULA = 3


def _depth(f):
    if isinstance(f, PropVar):
        return 0
    if isinstance(f, Bang):
        return 1 + _depth(f.inner)
    return 1 + max(_depth(f.left), _depth(f.right))


def _context_rule(rng, rule, pool):
    """rule applied at each index its arity allows, to a few proofs of the pool."""
    k = syn.CONTEXT_RULES[rule][1]
    out = []
    for q, s in rng.sample(pool, min(len(pool), 4)):
        for i in range(len(s.context) + (k == 0)):
            if "formula" not in rule._fields:
                out.append(rule(i, q))
            elif k:     # coweak names the formula it deletes
                out.append(rule(i, s.context[i], q))
            else:       # weak inserts a !-formula of the context or a fresh one
                for f in dict.fromkeys(s.context + (Bang(rng.choice(ATOMS)),)):
                    out.append(rule(i, f if isinstance(f, Bang) else Bang(f), q))
    return out


def _other_rule(rng, rule, pool):
    """An application of a rule that is not a context rule."""
    (q, s), (r, t) = rng.choice(pool), rng.choice(pool)
    if rule is Axiom:
        return [Axiom(rng.choice(ATOMS + tuple(s.context)))]
    if rule is LolliR:
        return [LolliR(q)]
    if rule is TensorR:
        return [TensorR(q, r)]
    if rule is Prom:    # needs an all-! context: try a few
        return [Prom(p) for p, _ in rng.sample(pool, min(len(pool), 4))]
    if rule is Exchange:
        perm = list(range(len(s.context)))
        rng.shuffle(perm)
        return [Exchange(perm, q)]
    if rule is LolliL:
        return [LolliL(i, q, r) for i in range(len(t.context))]
    # cut: the left proof is one from the pool that proves the formula cut away
    # from r, or else that formula's axiom
    return [Cut(i, next((p for p, u in pool if u.conclusion == f), Axiom(f)), r)
            for i, f in enumerate(t.context)]


def _fits(s):
    return (len(s.context) <= MAX_CONTEXT
            and all(_depth(f) <= MAX_FORMULA for f in s.context + (s.conclusion,)))


def well_typed_proofs(seed, count):
    """count well-typed proofs, drawn with random.Random(seed), each with its sequent."""
    rng = random.Random(seed)
    rules = list(syn.Proof.__args__)
    pool = [(Axiom(f), check_proof(Axiom(f))) for f in ATOMS]
    out = []
    while len(out) < count:
        rule = rng.choice(rules)
        make = _context_rule if rule in syn.CONTEXT_RULES else _other_rule
        checked = []
        for p in make(rng, rule, pool):
            try:
                s = check_proof(p)
            except ProofError:
                continue
            if _fits(s):
                checked.append((p, s))
        if checked:
            drawn = rng.choice(checked)
            pool.append(drawn)
            out.append(drawn)
    return out
