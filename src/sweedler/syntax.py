"""Sequent calculus for intuitionistic linear logic with exponentials.

Formulas are propositional variables tagged with a dimension, closed under
tensor, linear implication and the exponential !.  Proof trees store only
the rule applied and its premises; ``check_proof`` reconstructs every
sequent bottom-up and reports the exact path of the first violation.

Context conventions (fixed once, here, and relied on by the encodings):
  * lolli_r always abstracts the *last* context formula;
  * lolli_l and cut place the left premise's context *first*;
  * exchange carries an explicit permutation: conclusion[j] = premise[perm[j]];
  * the seven context rules, each in place of k formulas at its index, are
    declared once, in ``CONTEXT_RULES``.
"""

from __future__ import annotations

from .exact import check_dim
from .record import record


# -- formulas ---------------------------------------------------------------


@record
class PropVar:
    name: str
    dim: int

    def __init__(self, name, dim):
        self._fill(name, check_dim(dim))

    def __str__(self):
        return self.name


@record
class Tensor:
    left: "Formula"
    right: "Formula"

    def __str__(self):
        return "(%s * %s)" % (self.left, self.right)


@record
class Lolli:
    left: "Formula"
    right: "Formula"

    def __str__(self):
        return "(%s -o %s)" % (self.left, self.right)


@record
class Bang:
    inner: "Formula"

    def __str__(self):
        return "!%s" % self.inner


Formula = PropVar | Tensor | Lolli | Bang


@record
class Sequent:
    context: tuple
    conclusion: Formula

    def __str__(self):
        left = ", ".join(str(f) for f in self.context)
        return "%s |- %s" % (left or "·", self.conclusion)


# -- proof trees ------------------------------------------------------------


@record
class Axiom:
    formula: Formula


@record
class LolliR:
    premise: "Proof"


@record
class LolliL:
    index: int          # position of the consumed B inside the right premise
    arg: "Proof"        # proves  Gamma |- A
    body: "Proof"       # proves  Delta1, B, Delta2 |- C
    # concludes Gamma, Delta1, A -o B, Delta2 |- C


@record
class TensorR:
    left: "Proof"
    right: "Proof"


@record
class TensorL:
    index: int
    premise: "Proof"


@record
class Der:
    index: int
    premise: "Proof"


@record
class Ctr:
    index: int          # merges the adjacent pair at index, index+1
    premise: "Proof"


@record
class Weak:
    index: int
    formula: Formula    # the banged formula inserted at index
    premise: "Proof"


@record
class Prom:
    premise: "Proof"


@record
class Cut:
    index: int          # position of the cut formula inside the right premise
    left: "Proof"       # proves  Gamma |- A
    right: "Proof"      # proves  Delta1, A, Delta2 |- C


@record
class Exchange:
    perm: tuple         # conclusion[j] = premise[perm[j]]
    premise: "Proof"

    def __init__(self, perm, premise):
        # a perm given as a list is kept as a tuple, so every proof is hashable
        self._fill(tuple(perm), premise)


@record
class Coder:
    index: int
    premise: "Proof"


@record
class Coctr:
    index: int
    premise: "Proof"


@record
class Coweak:
    index: int
    formula: Formula
    premise: "Proof"


Proof = (Axiom | LolliR | LolliL | TensorR | TensorL | Der | Ctr | Weak | Prom
         | Cut | Exchange | Coder | Coctr | Coweak)


class ProofError(ValueError):
    """A rule application that does not type-check; carries the node path."""

    def __init__(self, path, message):
        self.path = tuple(path)
        self.message = message
        where = "/".join(str(i) for i in self.path) or "root"
        super().__init__("at %s: %s" % (where, message))


def check_proof(p: Proof) -> Sequent:
    """Reconstruct the conclusion sequent, raising ProofError on violations."""
    return _check(p, ())


def _fail(path, fmt, *args):
    raise ProofError(path, fmt % args if args else fmt)


def _need_index(path, ctx, i, what, gaps=0):  # gaps=1: i may also be len(ctx)
    if not 0 <= i < len(ctx) + gaps:
        _fail(path, "%s index %d out of range for context of length %d", what, i, len(ctx))


def _tensor_l(path, p, s, a, b=None):
    if b is None:
        _fail(path, "tensor-l needs two formulas at index %d, context is %s", p.index, s)
    return (Tensor(a, b),)


def _ctr(path, p, s, a, b=None):
    if b is None:
        _fail(path, "ctr needs an adjacent pair at index %d in %s", p.index, s)
    if a != b or not isinstance(a, Bang):
        _fail(path, "ctr needs two equal !-formulas, found %s and %s", a, b)
    return (a,)


def _weak(path, p, s):
    if not isinstance(p.formula, Bang):
        _fail(path, "weak inserts a !-formula, got %s", p.formula)
    return (p.formula,)


def _bang_at(path, p, a, fmt):
    if not isinstance(a, Bang):
        _fail(path, fmt, p.index, a)
    return a


def _coweak(path, p, s, a):
    if p.formula != _bang_at(path, p, a, "coweak deletes a !-formula, index %d holds %s"):
        _fail(path, "coweak annotation %s does not match context formula %s", p.formula, a)
    return ()


# The context rules: rule -> (head, k, conclusion).  At index i a rule puts
# conclusion(path, p, s, *formulas) in place of the k formulas there in its
# premise's sequent s; it gets those that lie there (one, for a pair rule at the
# last slot) and raises ProofError when they do not fit.  Weak, whose k is 0,
# checks its own formula first, then inserts it at any i <= len(context).
CONTEXT_RULES = {
    TensorL: ("tensor-l", 2, _tensor_l),
    Der: ("der", 1, lambda path, p, s, a: (Bang(a),)),
    Ctr: ("ctr", 2, _ctr),
    Weak: ("weak", 0, _weak),
    Coder: ("coder", 1, lambda path, p, s, a: (
        _bang_at(path, p, a, "coder needs a !-formula at index %d, found %s").inner,)),
    Coctr: ("coctr", 1, lambda path, p, s, a: (
        _bang_at(path, p, a, "coctr needs a !-formula at index %d, found %s"),) * 2),
    Coweak: ("coweak", 1, _coweak),
}


def _check(p, path) -> Sequent:
    rule = CONTEXT_RULES.get(type(p))
    if rule is not None:
        head, k, conclude = rule
        s = _check(p.premise, path + (0,))
        ctx, i = s.context, p.index
        if k:  # the formulas it reads must be there
            _need_index(path, ctx, i, head)
        new = conclude(path, p, s, *ctx[i:i + k])
        _need_index(path, ctx, i, head, gaps=1)  # weak's index, after its formula
        return Sequent(ctx[:i] + new + ctx[i + k:], s.conclusion)

    if isinstance(p, Axiom):
        return Sequent((p.formula,), p.formula)

    if isinstance(p, LolliR):
        s = _check(p.premise, path + (0,))
        if not s.context:
            _fail(path, "lolli-r needs a nonempty context, premise proves %s", s)
        return Sequent(s.context[:-1], Lolli(s.context[-1], s.conclusion))

    if isinstance(p, LolliL):
        sa = _check(p.arg, path + (0,))
        sb = _check(p.body, path + (1,))
        _need_index(path, sb.context, p.index, "lolli-l")
        b = sb.context[p.index]
        new = sb.context[:p.index] + (Lolli(sa.conclusion, b),) + sb.context[p.index + 1:]
        return Sequent(sa.context + new, sb.conclusion)

    if isinstance(p, TensorR):
        sl = _check(p.left, path + (0,))
        sr = _check(p.right, path + (1,))
        return Sequent(sl.context + sr.context, Tensor(sl.conclusion, sr.conclusion))

    if isinstance(p, Prom):
        s = _check(p.premise, path + (0,))
        for j, f in enumerate(s.context):
            if not isinstance(f, Bang):
                _fail(path, "prom needs an all-! context, slot %d is %s in %s", j, f, s)
        return Sequent(s.context, Bang(s.conclusion))

    if isinstance(p, Cut):
        sl = _check(p.left, path + (0,))
        sr = _check(p.right, path + (1,))
        _need_index(path, sr.context, p.index, "cut")
        a = sr.context[p.index]
        if a != sl.conclusion:
            _fail(path, "cut formula mismatch: left proves %s, right expects %s",
                  sl.conclusion, a)
        ctx = sl.context + sr.context[:p.index] + sr.context[p.index + 1:]
        return Sequent(ctx, sr.conclusion)

    if isinstance(p, Exchange):
        s = _check(p.premise, path + (0,))
        if sorted(p.perm) != list(range(len(s.context))):
            _fail(path, "exchange %r is not a permutation of a %d-slot context",
                  p.perm, len(s.context))
        ctx = tuple(s.context[j] for j in p.perm)
        return Sequent(ctx, s.conclusion)

    raise ProofError(path, "unknown proof node %r" % (p,))


def require_nl_shape(s: Sequent, what):
    """Raise ProofError unless s has the shape !A |- B, which ``what`` needs."""
    if len(s.context) != 1 or not isinstance(s.context[0], Bang):
        raise ProofError((), "%s needs a proof of !A |- B, got %s" % (what, s))


def derivative_transform(p: Proof) -> Proof:
    """The syntactic derivative: turn a proof of !A |- B into one of !A, A |- B.

    Composition with cocontraction duplicates the !A input, and codereliction
    turns the fresh copy into a bare A; semantically this is precomposition
    with the deriving map.
    """
    require_nl_shape(check_proof(p), "derivative transform")
    return Coder(1, Coctr(0, p))
