"""S-expression surface syntax for formulas and proofs.

Formulas:   (pvar A 2) | (lolli F G) | (tensor F G) | (bang F)
Proofs:     (axiom F) | (lolli-r P) | (lolli-l i P Q) | (tensor-r P Q)
            | (tensor-l i P) | (der i P) | (ctr i P) | (weak i F P)
            | (prom P) | (cut i P Q) | (exch (j ...) P)
            | (coder i P) | (coctr i P) | (coweak i F P)

Comments run from ';' to end of line; '(' nests at most ``MAX_DEPTH`` deep.
Parse errors carry line and column.  The printer indents one rule per line.
Parser and printer both read the grammar from ``_SHAPES``, so they round-trip.
"""

from __future__ import annotations

import re

from . import syntax as syn
from .record import record

# Deepest '(' nesting the reader accepts.  Evaluating and printing 197 nested
# proms at a one-tangent ket, the costliest case, needs a recursion limit of 806.
MAX_DEPTH = 200


class ParseError(ValueError):
    def __init__(self, message, line, col):
        self.line, self.col = line, col
        super().__init__("%d:%d: %s" % (line, col, message))


@record
class _Atom:
    text: str
    line: int
    col: int


@record
class _List:
    items: tuple
    line: int
    col: int


# a parenthesis or an atom, within one line whose comment is cut off
_TOKEN = re.compile(r"[()]|[^ \t\r();]+")


def _tokenize(text):
    """(token, line, col) of each parenthesis and atom, then (None, line, col)
    where the input ends.  Only '\\n' ends a line; a tab or '\\r' is one
    column, and a comment, from ';' to the end of its line, is none."""
    lines = [s.partition(";")[0] for s in text.split("\n")]
    for line, s in enumerate(lines, 1):
        for m in _TOKEN.finditer(s):
            yield m.group(), line, m.start()
    yield None, len(lines), len(lines[-1])


def _read(text):
    tokens = list(_tokenize(text))
    pos = 0

    def rec(depth):
        nonlocal pos
        tok, line, col = tokens[pos]
        if tok is None:
            raise ParseError("unexpected end of input", line, col)
        pos += 1
        if tok == "(":
            if depth == MAX_DEPTH:
                raise ParseError("'(' nested deeper than %d levels" % MAX_DEPTH, line, col)
            items = []
            while tokens[pos][0] != ")":
                if tokens[pos][0] is None:
                    raise ParseError("unclosed '(' opened here", line, col)
                items.append(rec(depth + 1))
            pos += 1
            return _List(tuple(items), line, col)
        if tok == ")":
            raise ParseError("unmatched ')'", line, col)
        return _Atom(tok, line, col)

    form = rec(0)
    tok, line, col = tokens[pos]
    if tok is not None:
        raise ParseError("trailing input after the first expression", line, col)
    return form


# head -> (class, kinds of its arguments in field order).  Kinds: "name" (an
# atom), "dimension" and "index" (integers), "perm" (a list of integers),
# "formula" and "proof" (nested forms).  Proofs come last: the printer puts
# them on lines of their own, after the other arguments.
_SHAPES = {
    "pvar": (syn.PropVar, ("name", "dimension")),
    "lolli": (syn.Lolli, ("formula", "formula")),
    "tensor": (syn.Tensor, ("formula", "formula")),
    "bang": (syn.Bang, ("formula",)),
    "axiom": (syn.Axiom, ("formula",)),
    "lolli-r": (syn.LolliR, ("proof",)),
    "lolli-l": (syn.LolliL, ("index", "proof", "proof")),
    "tensor-r": (syn.TensorR, ("proof", "proof")),
    "tensor-l": (syn.TensorL, ("index", "proof")),
    "der": (syn.Der, ("index", "proof")),
    "ctr": (syn.Ctr, ("index", "proof")),
    "weak": (syn.Weak, ("index", "formula", "proof")),
    "prom": (syn.Prom, ("proof",)),
    "cut": (syn.Cut, ("index", "proof", "proof")),
    "exch": (syn.Exchange, ("perm", "proof")),
    "coder": (syn.Coder, ("index", "proof")),
    "coctr": (syn.Coctr, ("index", "proof")),
    "coweak": (syn.Coweak, ("index", "formula", "proof")),
}
_SORTS = {"formula": syn.Formula.__args__, "proof": syn.Proof.__args__}
# class -> (sort, head, ((field name, kind), ...)), for the printer
_PRINTED = {cls: (sort, head, tuple(zip(cls._fields, kinds)))
            for head, (cls, kinds) in _SHAPES.items() for sort in _SORTS if cls in _SORTS[sort]}


def _int_atom(sx, what):
    if not isinstance(sx, _Atom):
        raise ParseError("expected an integer %s" % what, sx.line, sx.col)
    try:
        return int(sx.text)
    except ValueError:
        raise ParseError("expected an integer %s, got %r" % (what, sx.text),
                         sx.line, sx.col) from None


def _parse(sx, sort):
    if not isinstance(sx, _List) or not sx.items or not isinstance(sx.items[0], _Atom):
        raise ParseError("expected a %s form" % sort, sx.line, sx.col)
    head, args = sx.items[0].text, sx.items[1:]
    cls, kinds = _SHAPES.get(head, (None, ()))
    if cls not in _SORTS[sort]:
        raise ParseError("unknown %s head %r" % (sort, head), sx.line, sx.col)
    if len(args) != len(kinds):
        raise ParseError("%s takes %d arguments, got %d" % (head, len(kinds), len(args)),
                         sx.line, sx.col)
    values = []
    for kind, arg in zip(kinds, args):
        if kind in _SORTS:
            values.append(_parse(arg, kind))
        elif kind in ("index", "dimension"):
            values.append(_int_atom(arg, kind))
        elif kind == "name":
            if not isinstance(arg, _Atom):
                raise ParseError("%s name must be an atom" % head, sx.line, sx.col)
            values.append(arg.text)
        else:
            if not isinstance(arg, _List):
                raise ParseError("%s needs a parenthesized permutation" % head,
                                 sx.line, sx.col)
            values.append(tuple(_int_atom(a, "permutation entry") for a in arg.items))
    try:
        return cls(*values)
    except ValueError as exc:
        raise ParseError(str(exc), sx.line, sx.col) from None


def parse_formula(text: str) -> syn.Formula:
    return _parse(_read(text), "formula")


def parse_proof(text: str) -> syn.Proof:
    return _parse(_read(text), "proof")


# -- printing ---------------------------------------------------------------


def _words(x, sort):
    """x's head and inline arguments, and the premises printed below it."""
    sort_of, head, shape = _PRINTED.get(type(x), (None, None, ()))
    if sort_of != sort:
        raise TypeError("not a %s: %r" % (sort, x))
    words, premises = [head], []
    for name, kind in shape:
        value = getattr(x, name)
        if kind == "proof":
            premises.append(value)
        elif kind == "formula":
            words.append(print_formula(value))
        elif kind == "perm":
            words.append("(%s)" % " ".join(str(j) for j in value))
        else:
            words.append(str(value))
    return words, premises


def print_formula(f: syn.Formula) -> str:
    return "(%s)" % " ".join(_words(f, "formula")[0])


def _proof_lines(p: syn.Proof, depth, lines):
    words, premises = _words(p, "proof")
    lines.append("  " * depth + "(" + " ".join(words))
    for q in premises:
        _proof_lines(q, depth + 1, lines)
    lines[-1] += ")"


def print_proof(p: syn.Proof) -> str:
    lines = []
    _proof_lines(p, 0, lines)
    return "\n".join(lines) + "\n"
