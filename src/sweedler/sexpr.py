"""S-expression surface syntax for formulas and proofs.

Formulas:   (pvar A 2) | (lolli F G) | (tensor F G) | (bang F)
Proofs:     (axiom F) | (lolli-r P) | (lolli-l i P Q) | (tensor-r P Q)
            | (tensor-l i P) | (der i P) | (ctr i P) | (weak i F P)
            | (prom P) | (cut i P Q) | (exch (j ...) P)
            | (coder i P) | (coctr i P) | (coweak i F P)

Comments run from ';' to end of line; '(' nests at most ``MAX_DEPTH`` deep.
Parse errors carry line and column.  The reader checks the nesting in one flat
pass and parses over token indices, with no tree in between.  The printer
indents one rule per line.  Parser and printer both read the grammar from
``_SHAPES``, so they round-trip.
"""

from __future__ import annotations

import re

from . import syntax as syn

# Deepest '(' nesting the reader accepts.  Evaluating and printing 197 nested
# proms at a one-tangent ket, the costliest case, needs a recursion limit of 806.
MAX_DEPTH = 200


class ParseError(ValueError):
    def __init__(self, message, line, col):
        self.line, self.col = line, col
        super().__init__("%d:%d: %s" % (line, col, message))


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
    """The token list and, for the index of each '(', the index of its ')'.

    One flat pass raises every structural error, each where a left-to-right
    reading meets it first: the end of input, nesting past ``MAX_DEPTH``, an
    unclosed '(', an unmatched ')' and input after the first expression."""
    tokens = list(_tokenize(text))
    close, opens = {}, []
    for i, (tok, line, col) in enumerate(tokens):
        if tok == "(":
            if len(opens) == MAX_DEPTH:
                raise ParseError("'(' nested deeper than %d levels" % MAX_DEPTH, line, col)
            opens.append(i)
            continue
        if tok is None:
            if opens:
                raise ParseError("unclosed '(' opened here", *tokens[opens[-1]][1:])
            raise ParseError("unexpected end of input", line, col)
        if tok == ")":
            if not opens:
                raise ParseError("unmatched ')'", line, col)
            close[opens.pop()] = i
        if not opens:
            tok, line, col = tokens[i + 1]
            if tok is not None:
                raise ParseError("trailing input after the first expression", line, col)
            return tokens, close


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


def _parse(text, sort):
    """The ``sort`` read from ``text``, descending over token indices."""
    tokens, close = _read(text)

    def int_atom(i, what):
        tok, line, col = tokens[i]
        if tok == "(":
            raise ParseError("expected an integer %s" % what, line, col)
        try:
            return int(tok)
        except ValueError:
            raise ParseError("expected an integer %s, got %r" % (what, tok),
                             line, col) from None

    def items(i):
        """The token indices of the items of the list opened at i."""
        out, j, end = [], i + 1, close[i]
        while j < end:
            out.append(j)
            j = close.get(j, j) + 1
        return out

    def parse(i, sort):
        tok, line, col = tokens[i]
        if tok != "(" or tokens[i + 1][0] in ("(", ")"):
            raise ParseError("expected a %s form" % sort, line, col)
        head, args = tokens[i + 1][0], items(i)[1:]
        cls, kinds = _SHAPES.get(head, (None, ()))
        if cls not in _SORTS[sort]:
            raise ParseError("unknown %s head %r" % (sort, head), line, col)
        if len(args) != len(kinds):
            raise ParseError("%s takes %d arguments, got %d" % (head, len(kinds), len(args)),
                             line, col)
        values = []
        for kind, arg in zip(kinds, args):
            if kind in _SORTS:
                values.append(parse(arg, kind))
            elif kind in ("index", "dimension"):
                values.append(int_atom(arg, kind))
            elif kind == "name":
                if tokens[arg][0] == "(":
                    raise ParseError("%s name must be an atom" % head, *tokens[arg][1:])
                values.append(tokens[arg][0])
            else:
                if tokens[arg][0] != "(":
                    raise ParseError("%s needs a parenthesized permutation" % head,
                                     *tokens[arg][1:])
                values.append(tuple(int_atom(a, "permutation entry") for a in items(arg)))
        try:
            return cls(*values)
        except ValueError as exc:
            raise ParseError(str(exc), line, col) from None

    return parse(0, sort)


def parse_formula(text: str) -> syn.Formula:
    return _parse(text, "formula")


def parse_proof(text: str) -> syn.Proof:
    return _parse(text, "proof")


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
