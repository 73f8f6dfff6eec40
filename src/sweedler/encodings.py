"""Proof-level programs over a generic endomorphism type, with oracles.

Everything here is parameterized by the dimension of the base type A and
built from the plain sequent rules; the exchange permutations are explicit.
With E = A -o A:

  * comp_proof(n):   E, ..., E |- E        -- n-fold composition, first
                                              context slot applied first
  * church_proof(n): !E |- E               -- n-fold iteration of one map
  * bint_proof(S):   |- !E -o (!E -o E)    -- a 0/1 string S becomes the
                                              composite that substitutes the
                                              first argument for the 0s of S
                                              (leftmost character acting
                                              first) and the second for the
                                              1s
  * repeat_proof():  !(bint) |- bint       -- self-concatenation S |-> SS
  * mult_proof():    !(int), int |- int    -- composition of iterators

``bint_value`` and ``end_ket`` build the semantic values that the CLI and
the laws feed to these programs.  The matrix oracles compute the same values
by direct calculus on rational matrices, with no coalgebra machinery, and are
frozen into the test suite; ``bint_001_examples`` writes out the paper's
displayed values of the string 001, which ``sweedler examples`` and the
acceptance suite both check.
"""

from __future__ import annotations

import itertools
import reprlib
from fractions import Fraction

from .bang import BangElement, BaseSpace
from .exact import Matrix
from .semantics import HomSpace, denote_proof
from .syntax import (
    Axiom, Bang, Ctr, Cut, Der, Exchange, Lolli, LolliL, LolliR, Prom, PropVar,
    Weak)

DEFAULT_DIM = 2


def base_formula(dim=DEFAULT_DIM):
    return PropVar("A", dim)


def end_formula(dim=DEFAULT_DIM):
    a = base_formula(dim)
    return Lolli(a, a)


def int_formula(dim=DEFAULT_DIM):
    e = end_formula(dim)
    return Lolli(Bang(e), e)


def bint_formula(dim=DEFAULT_DIM):
    e = end_formula(dim)
    return Lolli(Bang(e), Lolli(Bang(e), e))


def parse_bits(s) -> tuple:
    """A 0/1 string or sequence (leftmost entry acts first) to a bit tuple."""
    if not all(b in ("0", "1", 0, 1) and not isinstance(b, bool) for b in s):
        raise ValueError("binary sequences use only 0 and 1, got %s" % reprlib.repr(s))
    return tuple(int(b) for b in s)


# -- proof constructors -------------------------------------------------------


def comp_proof(n, dim=DEFAULT_DIM):
    """E^n |- E; slot j is the j-th map applied, so the value is f_n ... f_1."""
    if n < 0:
        raise ValueError("composition length must be nonnegative")
    a = base_formula(dim)
    if n == 0:
        return LolliR(Axiom(a))
    body = Axiom(a)
    for _ in range(n):  # a loop, so that long chains build without recursion
        body = LolliL(0, Axiom(a), body)
    rotate = tuple(range(1, n + 1)) + (0,)
    return LolliR(Exchange(rotate, body))


def church_proof(n, dim=DEFAULT_DIM):
    """!E |- E: the body of the string 0^n, one slot taking every map."""
    if n < 0:
        raise ValueError("numerals are nonnegative")
    return _string_body((0,) * n, dim)


def int_proof(n, dim=DEFAULT_DIM):
    """|- int: the closed numeral."""
    return LolliR(church_proof(n, dim))


def _string_body(bits, dim):
    """!E, !E |- E for a bit tuple, or !E |- E if it holds no 1.

    One composition slot per bit is derelicted; the 0-slots contract into
    slot 0 (a weakening if there are none) and the 1-slots into slot 1.
    """
    l = len(bits)
    p = comp_proof(l, dim)
    for i in range(l):
        p = Der(i, p)
    zeros = [j for j in range(l) if bits[j] == 0]
    ones = [j for j in range(l) if bits[j] == 1]
    perm = tuple(zeros + ones)
    if perm != tuple(range(l)):
        p = Exchange(perm, p)
    for _ in range(len(zeros) - 1):
        p = Ctr(0, p)
    for _ in range(len(ones) - 1):
        p = Ctr(1 if zeros else 0, p)
    if not zeros:
        p = Weak(0, Bang(end_formula(dim)), p)
    return p


def bint_proof(s, dim=DEFAULT_DIM, arrows=2):
    """The binary-sequence program; `arrows` right-introductions are applied.

    arrows=2 gives |- !E -o (!E -o E) (first argument replaces the 0s),
    arrows=1 gives !E |- !E -o E, arrows=0 the two-slot body !E, !E |- E.
    """
    bits = parse_bits(s)
    p = _string_body(bits, dim)
    if 1 not in bits:
        p = Weak(1, Bang(end_formula(dim)), p)
    if arrows not in (0, 1, 2):
        raise ValueError("arrows must be 0, 1 or 2")
    for _ in range(arrows):
        p = LolliR(p)
    return p


def repeat_proof(dim=DEFAULT_DIM):
    """!(bint) |- bint, sending the program for S to the program for SS."""
    e = end_formula(dim)
    xe = Bang(e)
    c2 = comp_proof(2, dim)                       # E, E |- E
    l1 = LolliL(0, Axiom(xe), c2)                 # !E, int, E |- E
    l2 = LolliL(1, Axiom(xe), l1)                 # !E, !E, bint, E |- E
    l3 = LolliL(3, Axiom(xe), l2)                 # !E, !E, !E, bint, int |- E
    l4 = LolliL(4, Axiom(xe), l3)                 # !E x4, bint, bint |- E
    p = Exchange((0, 2, 1, 3, 4, 5), l4)          # group the two argument copies
    p = Ctr(0, p)
    p = Ctr(1, p)                                 # !E, !E, bint, bint |- E
    p = Exchange((2, 3, 0, 1), p)                 # bint, bint, !E, !E |- E
    p = LolliR(LolliR(p))                         # bint, bint |- bint
    p = Der(1, Der(0, p))
    return Ctr(0, p)                              # !(bint) |- bint


def mult_proof(dim=DEFAULT_DIM):
    """!(int), int |- int, composing the iterations of its two arguments."""
    e = end_formula(dim)
    xe = Bang(e)
    g0 = LolliL(0, Axiom(xe), Axiom(e))           # !E, int |- E
    g1 = Der(1, g0)                               # !E, !(int) |- E
    gamma = Prom(g1)                              # !E, !(int) |- !E
    m0 = LolliL(0, gamma, Axiom(e))               # !E, !(int), int |- E
    m1 = Exchange((1, 2, 0), m0)                  # !(int), int, !E |- E
    return LolliR(m1)


def mult_by_numeral(n, dim=DEFAULT_DIM):
    """!(int) |- int: multiplication with the closed numeral n cut in."""
    return Cut(1, int_proof(n, dim), mult_proof(dim))


# -- values -------------------------------------------------------------------


def bint_value(s, dim):
    """The value of the closed string numeral for s: a map of bint."""
    return denote_proof(bint_proof(s, dim)).eval()


def end_ket(dim, point, *tangents):
    """The ket |tangents>_point over End(dim), where numerals take their inputs."""
    return BangElement.ket(HomSpace(BaseSpace(dim), BaseSpace(dim)), point, tangents)


# -- matrix oracles -----------------------------------------------------------


def church_value_oracle(n, alpha: Matrix) -> Matrix:
    return alpha.power(n)


def church_derivative_oracle(n, alpha: Matrix, nu: Matrix) -> Matrix:
    """The derivative of alpha |-> alpha^n at alpha in direction nu."""
    total = Matrix.zero(alpha.nrows, alpha.ncols)
    for i in range(1, n + 1):
        total = total + alpha.power(i - 1) @ nu @ alpha.power(n - i)
    return total


def bint_oracle(s, gamma: Matrix, delta: Matrix, alphas=(), betas=()) -> Matrix:
    """Direct evaluation of the program for s on tangent-decorated inputs.

    Sums over injections of the alpha tangents into the 0-positions and the
    beta tangents into the 1-positions; each summand is the product of the
    per-position matrices with the leftmost character of s acting first.
    """
    bits = parse_bits(s)
    l = len(bits)
    # position i counts 1..l from the right; its character is bits[l - i]
    n0 = [i for i in range(1, l + 1) if bits[l - i] == 0]
    n1 = [i for i in range(1, l + 1) if bits[l - i] == 1]
    alphas, betas = tuple(alphas), tuple(betas)
    dim = gamma.nrows
    total = Matrix.zero(dim, dim)
    for f in itertools.permutations(n0, len(alphas)):
        for g in itertools.permutations(n1, len(betas)):
            at = dict(zip(f, alphas))
            at.update(zip(g, betas))
            prod = Matrix.identity(dim)
            for i in range(1, l + 1):
                base = gamma if bits[l - i] == 0 else delta
                prod = prod @ at.get(i, base)
            total = total + prod
    return total


def bint_001_examples(g, d, a, a2, b):
    """The paper's displayed values of the string 001 at matrices g, d, a, a2, b.

    Rows are (label, first slot, second slot, closed form); a slot is a point
    followed by its tangents.  The last row has more tangents than 0s.
    """
    return (
        ("001 at (|>_g, |>_d)", (g,), (d,), d @ g @ g),
        ("001 at (|a>_g, |>_d)", (g, a), (d,), d @ a @ g + d @ g @ a),
        ("001 at (|a1,a2>_g, |>_d)", (g, a, a2), (d,), d @ a @ a2 + d @ a2 @ a),
        ("001 at (|>_g, |b>_d)", (g,), (d, b), b @ g @ g),
        ("001 at (|a>_g, |b>_d)", (g, a), (d, b), b @ a @ g + b @ g @ a),
        ("001 with three tangents on the first slot", (g, a, a2, a), (d,),
         Matrix.zero(g.nrows, g.ncols)),
    )


def mult_derivative_oracle(l, m, n, x: Matrix) -> Matrix:
    """d/dt (x^l + t x^m)^n at t = 0, in closed form: n x^{l(n-1)+m}."""
    if n == 0:
        return Matrix.zero(x.nrows, x.ncols)
    return x.power(l * (n - 1) + m).scale(n)


def mult_difference_quotient(l, m, n, x: Matrix) -> Matrix:
    """The same derivative via exact interpolation of difference quotients.

    q(h) = ((x^l + h x^m)^n - x^{ln}) / h is a matrix of polynomials in h of
    degree n - 1, so its value at 0 -- the derivative -- is the Lagrange
    interpolation of q(1), ..., q(n) evaluated at 0.
    """
    if n == 0:
        return Matrix.zero(x.nrows, x.ncols)
    base = x.power(l)
    bump = x.power(m)
    p0 = x.power(l * n)

    def q(h):
        ph = (base + bump.scale(h)).power(n)
        return (ph - p0).scale(Fraction(1, h))

    total = Matrix.zero(x.nrows, x.ncols)
    for k in range(1, n + 1):
        weight = Fraction(1)
        for j in range(1, n + 1):
            if j != k:
                weight *= Fraction(-j, k - j)
        total = total + q(k).scale(weight)
    return total


# -- bundled proof files -------------------------------------------------------

BUNDLED = (
    ("comp-3", lambda: comp_proof(3)),
    ("church-0", lambda: church_proof(0)),
    ("church-1", lambda: church_proof(1)),
    ("church-2", lambda: church_proof(2)),
    ("church-3", lambda: church_proof(3)),
    ("int-2", lambda: int_proof(2)),
    ("bint-empty", lambda: bint_proof("")),
    ("bint-0", lambda: bint_proof("0")),
    ("bint-10", lambda: bint_proof("10")),
    ("bint-001", lambda: bint_proof("001")),
    ("repeat", lambda: repeat_proof()),
    ("mult", lambda: mult_proof()),
    ("mult-2", lambda: mult_by_numeral(2)),
)


def bundled_proofs() -> dict:
    return {name: make() for name, make in BUNDLED}


def write_proof_files(directory):
    """Regenerate the committed .sexp files for every bundled proof."""
    import os
    from .sexpr import print_proof
    from .syntax import check_proof
    os.makedirs(directory, exist_ok=True)
    for name, proof in bundled_proofs().items():
        seq = check_proof(proof)
        path = os.path.join(directory, name + ".sexp")
        with open(path, "w") as fh:
            fh.write("; %s : %s\n" % (name, seq))
            fh.write(print_proof(proof))
    return sorted(name for name, _ in BUNDLED)
