import os

import pytest
from hypothesis import given, strategies as st

from sweedler import sexpr, syntax
from sweedler.syntax import (
    Axiom, Bang, Coctr, Coder, Coweak, Ctr, Cut, Der, Exchange, Lolli, LolliL,
    LolliR, Prom, PropVar, ProofError, Sequent, Tensor, TensorL, TensorR, Weak,
    check_proof, derivative_transform)
from sweedler.sexpr import ParseError, parse_formula, parse_proof, print_formula, print_proof

A = PropVar("A", 2)
B = PropVar("B", 3)
C = PropVar("C", 1)
PROOFS = os.path.join(os.path.dirname(__file__), "..", "proofs")


def test_axiom():
    assert check_proof(Axiom(A)) == Sequent((A,), A)


def test_lolli_r_moves_last_formula():
    p = LolliL(0, Axiom(A), Axiom(B))          # A, A -o B |- B
    assert check_proof(p) == Sequent((A, Lolli(A, B)), B)
    q = LolliR(p)                              # A |- (A -o B) -o B
    assert check_proof(q) == Sequent((A,), Lolli(Lolli(A, B), B))
    r = LolliR(q)
    assert check_proof(r) == Sequent((), Lolli(A, Lolli(Lolli(A, B), B)))
    with pytest.raises(ProofError):
        check_proof(LolliR(r))                 # nothing left to abstract


def test_lolli_l_places_left_context_first():
    body = Weak(0, Bang(C), Axiom(B))          # !C, B |- B
    p = LolliL(1, Axiom(A), body)              # A, !C, A -o B |- B
    assert check_proof(p) == Sequent((A, Bang(C), Lolli(A, B)), B)


def test_tensor_rules():
    p = TensorR(Axiom(A), Axiom(B))
    assert check_proof(p) == Sequent((A, B), Tensor(A, B))
    q = TensorL(0, p)
    assert check_proof(q) == Sequent((Tensor(A, B),), Tensor(A, B))
    with pytest.raises(ProofError):
        check_proof(TensorL(1, p))


def test_der_weak_ctr():
    d = Der(0, Axiom(A))                       # !A |- A
    assert check_proof(d) == Sequent((Bang(A),), A)
    w = Weak(0, Bang(A), d)                    # !A, !A |- A
    assert check_proof(w) == Sequent((Bang(A), Bang(A)), A)
    c = Ctr(0, w)                              # !A |- A
    assert check_proof(c) == Sequent((Bang(A),), A)


def test_ctr_requires_adjacent_equal_bangs():
    mixed = Weak(0, Bang(B), Der(0, Axiom(A)))  # !B, !A |- A
    with pytest.raises(ProofError, match="equal !-formulas"):
        check_proof(Ctr(0, mixed))
    with pytest.raises(ProofError, match="weak inserts"):
        check_proof(Weak(0, A, Axiom(A)))


def test_prom_needs_banged_context():
    d = Der(0, Axiom(A))
    assert check_proof(Prom(d)) == Sequent((Bang(A),), Bang(A))
    err = pytest.raises(ProofError, match="all-!").value if False else None
    with pytest.raises(ProofError, match="all-!"):
        check_proof(Prom(Axiom(A)))


def test_cut():
    d = Der(0, Axiom(A))                       # !A |- A
    p = Cut(0, d, Axiom(A))                    # !A |- A
    assert check_proof(p) == Sequent((Bang(A),), A)
    with pytest.raises(ProofError, match="mismatch"):
        check_proof(Cut(0, d, Axiom(B)))


def test_exchange_convention_frozen():
    body = Weak(0, Bang(C), Axiom(B))
    p = LolliL(1, Axiom(A), body)              # [A, !C, A -o B] |- B
    e = Exchange((2, 0, 1), p)
    assert check_proof(e) == Sequent((Lolli(A, B), A, Bang(C)), B)
    with pytest.raises(ProofError, match="permutation"):
        check_proof(Exchange((0, 0, 1), p))


def test_costructural_rules():
    d = Der(0, Axiom(A))                       # !A |- A
    assert check_proof(Coctr(0, d)) == Sequent((Bang(A), Bang(A)), A)
    assert check_proof(Coder(0, d)) == Sequent((A,), A)
    assert check_proof(Coweak(0, Bang(A), d)) == Sequent((), A)
    with pytest.raises(ProofError, match="annotation"):
        check_proof(Coweak(0, Bang(B), d))
    with pytest.raises(ProofError, match="!-formula"):
        check_proof(Coder(0, Axiom(A)))


def test_error_paths_point_inside_the_tree():
    bad = LolliR(Ctr(5, Der(0, Axiom(A))))
    with pytest.raises(ProofError) as exc:
        check_proof(bad)
    assert exc.value.path == (0,)
    bad2 = Cut(0, Axiom(A), Ctr(3, Axiom(B)))
    with pytest.raises(ProofError) as exc2:
        check_proof(bad2)
    assert exc2.value.path == (1,)


def test_derivative_transform_shape():
    d = Der(0, Axiom(A))                       # !A |- A
    t = derivative_transform(d)
    assert check_proof(t) == Sequent((Bang(A), A), A)
    with pytest.raises(ProofError, match="!A"):
        derivative_transform(Axiom(A))
    with pytest.raises(ProofError):
        derivative_transform(Weak(0, Bang(A), LolliL(0, Axiom(A), Axiom(A))))


# -- s-expressions ----------------------------------------------------------


def test_formula_round_trip():
    f = Lolli(Bang(Tensor(A, B)), PropVar("Z", 1))
    assert parse_formula(print_formula(f)) == f
    assert parse_formula("(lolli (pvar A 2) (pvar A 2))") == Lolli(A, A)


def test_proof_round_trip_every_node():
    d = Der(0, Axiom(A))
    p = Coweak(0, Bang(A),
               Coder(1,
                     Coctr(0,
                           Cut(0, Prom(d),
                               Exchange((0,),
                                        Prom(Ctr(0, Weak(0, Bang(A), d))))))))
    q = LolliR(LolliL(0, Axiom(A), TensorL(0, TensorR(Axiom(A), Axiom(B)))))
    for proof in (p, q):
        text = print_proof(proof)
        assert parse_proof(text) == proof
    check_proof(p)


def test_parse_comments_and_whitespace():
    text = """
    ; the identity on !A via dereliction
    (der 0  ; slot zero
         (axiom (pvar A 2)))
    """
    assert parse_proof(text) == Der(0, Axiom(A))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_proof("(axiom (pvar A 2)")
    assert exc.value.line == 1
    with pytest.raises(ParseError, match="unknown proof head"):
        parse_proof("(bogus 1)")
    with pytest.raises(ParseError, match="integer"):
        parse_proof("(der x (axiom (pvar A 2)))")
    with pytest.raises(ParseError, match="trailing"):
        parse_proof("(axiom (pvar A 2)) junk")
    with pytest.raises(ParseError, match="dimension|integer"):
        parse_formula("(pvar A two)")
    with pytest.raises(ParseError):
        parse_formula("(pvar A 9)")  # dimension guard surfaces as a parse error
    with pytest.raises(ParseError, match="takes"):
        parse_proof("(ctr 0)")


# (text, line, col, message): a tab or '\r' is one column, only '\n' ends a
# line, and a comment moves no column, also when it ends the input.
PARSE_ERROR_POSITIONS = [
    ("(der\tx\t(axiom\t(pvar A 2)))", 1, 5, "integer index"),
    ("\t\t(bogus 1)", 1, 2, "unknown proof head"),
    ("(der 0\r\n\t(axiom (pvar A two)))", 2, 16, "integer dimension"),
    ("(axiom (pvar A 2))\r junk", 1, 20, "trailing input"),
    ("(axiom (pvar A 2)\r\n", 1, 0, "unclosed"),
    ("; only a comment", 1, 0, "unexpected end of input"),
    ("\t ; a comment", 1, 2, "unexpected end of input"),
    ("  ; nothing\n\t; still nothing", 2, 1, "unexpected end of input"),
    ("", 1, 0, "unexpected end of input"),
    ("\t(der 0 ; no close", 1, 1, "unclosed"),
    ("(cut 0\n  (axiom (pvar A 2))\n  (axiom (pvar A 2)", 3, 2, "unclosed"),
    ("\n\t)", 2, 1, "unmatched"),
    ("(axiom (pvar A 2)))", 1, 18, "trailing input"),
    ("(axiom (pvar A 2))\n  junk ; comment", 2, 2, "trailing input"),
    # a bad argument is reported where it starts, not at its form's '('
    ("(axiom (pvar (A) 2))", 1, 13, "pvar name must be an atom"),
    ("(exch 0\n(axiom (pvar A 2)))", 1, 6, "exch needs a parenthesized permutation"),
    ("(der (0) (axiom (pvar A 2)))", 1, 5, "expected an integer index"),
    ("(der 0 x)", 1, 7, "expected a proof form"),
]


@pytest.mark.parametrize("text,line,col,message", PARSE_ERROR_POSITIONS)
def test_parse_error_line_and_column(text, line, col, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_proof(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value).startswith("%d:%d: " % (line, col))


# Inputs with two faults: a structural fault (end of input, nesting, an
# unclosed '(', an unmatched ')', trailing input) is reported before any shape
# fault, and a form's argument count before the shape of its arguments.
TWO_FAULTS = [
    ("(der x (axiom (pvar A 2))", 1, 0, "unclosed '(' opened here"),
    ("(cut 0 (bogus)\n  (axiom", 2, 2, "unclosed '(' opened here"),
    ("(bogus 1) junk", 1, 10, "trailing input after the first expression"),
    ("(exch (0 x) (axiom (pvar A 2))) )", 1, 32, "trailing input after the first expression"),
    ("(bogus " + "(" * 200 + ")" * 201, 1, 206, "'(' nested deeper than 200 levels"),
    ("(der 0 (axiom (pvar A 2)) (x y))", 1, 0, "der takes 2 arguments, got 3"),
    ("(tensor-r () (axiom (pvar A 2)) junk)", 1, 0, "tensor-r takes 2 arguments, got 3"),
    ("(der 0\n  (axiom (pvar A 2 ())))", 2, 9, "pvar takes 2 arguments, got 3"),
]


@pytest.mark.parametrize("text,line,col,message", TWO_FAULTS)
def test_structural_faults_come_before_shape_faults(text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse_proof(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == "%d:%d: %s" % (line, col, message)


def _read_by_character(text):
    """The token stream ``sexpr._tokenize`` must give, read one character at a time."""
    tokens, line, col, i = [], 1, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 0, i + 1
        elif ch in " \t\r":
            col, i = col + 1, i + 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append((ch, line, col))
            col, i = col + 1, i + 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            tokens.append((text[i:j], line, col))
            col, i = col + j - i, j
    tokens.append((None, line, col))
    return tokens


@given(st.text(alphabet=" \t\r\n();ab1-\u00e9\x0b", max_size=40))
def test_tokens_and_positions_match_a_character_reading(text):
    assert list(sexpr._tokenize(text)) == _read_by_character(text)


def test_bundled_proof_files_tokenize_as_read_by_character():
    names = sorted(os.listdir(PROOFS))
    assert names
    for name in names:
        with open(os.path.join(PROOFS, name), encoding="utf-8") as fh:
            text = fh.read()
        assert list(sexpr._tokenize(text)) == _read_by_character(text), name


def test_print_proof_is_indented():
    text = print_proof(Ctr(0, Weak(0, Bang(A), Der(0, Axiom(A)))))
    lines = text.strip("\n").split("\n")
    assert lines[0].startswith("(ctr 0")
    assert lines[1].startswith("  (weak")
    assert lines[-1].endswith(")))")


def test_shape_table_covers_each_class_once_with_a_kind_per_field():
    classes = [cls for cls, _ in sexpr._SHAPES.values()]
    assert len(classes) == len(set(classes)) == 18
    assert set(classes) == set(syntax.Proof.__args__) | set(syntax.Formula.__args__)
    for cls, kinds in sexpr._SHAPES.values():
        assert len(kinds) == len(cls._fields), cls
        assert set(kinds) <= {"name", "dimension", "index", "perm", "formula", "proof"}
        assert list(kinds) == sorted(kinds, key=lambda kind: kind == "proof"), cls
