"""The record contract shared by proofs, formulas, spaces and configs."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from sweedler.bang import Ket
from sweedler.encodings import church_proof, repeat_proof
from sweedler.exact import Matrix, Vec
from sweedler.laws import RunConfig
from sweedler.record import Immutable, record
from sweedler.semantics import Base, Denotation, HomSpace, ProbeConfig, denote_proof
from sweedler.sexpr import parse_proof, print_proof
from sweedler.syntax import (
    Axiom, Bang, Ctr, Der, Exchange, Lolli, PropVar, Sequent, Tensor, TensorR, Weak)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
A = PropVar("A", 2)
B = PropVar("B", 3)


def test_importing_the_cli_loads_no_code_generation_modules():
    code = ("import sys, sweedler.cli, sweedler.laws, sweedler.encodings; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_rebuilt_equal_proofs_are_equal_and_hash_equal():
    for build in (lambda: church_proof(3), lambda: repeat_proof(2)):
        p, q = build(), build()
        assert p is not q and p == q and hash(p) == hash(q)
        r = parse_proof(print_proof(p))
        assert r == p and hash(r) == hash(p)
    assert Exchange([1, 0], Axiom(A)) == Exchange((1, 0), Axiom(A))
    assert hash(Exchange([1, 0], Axiom(A))) == hash(Exchange((1, 0), Axiom(A)))


def test_equality_holds_only_within_one_class():
    p = Axiom(Bang(A))
    assert Der(0, p) != Ctr(0, p)
    assert Tensor(A, B) != Lolli(A, B)
    assert Sequent((A,), B) != ((A,), B)
    d = denote_proof(Der(0, Axiom(A)))
    assert d == d and d != Denotation(d.source, d.target, d.fn)
    assert Vec((1,)) != Matrix(((1,),)) and Matrix(((1,),)) != Vec((1,))
    assert Vec((1, 2)) != (Fraction(1), Fraction(2))
    k = Ket(Vec((1, 2)), (Vec((0, 1)),))
    assert k == Ket(Vec((1, 2)), (Vec((0, 1)),)) and k != (k.point, k.tangents)


def test_trusted_constructors_build_equal_values():
    pairs = [(Vec._of((Fraction(1, 2), Fraction(3))), Vec(("1/2", 3))),
             (Matrix._of(((Fraction(1), Fraction(-2, 3)), (Fraction(0), Fraction(4)))),
              Matrix(((1, "-2/3"), (0, 4))))]
    for trusted, checked in pairs:
        assert trusted == checked and hash(trusted) == hash(checked)


@pytest.mark.parametrize("value, field", [
    (A, "dim"), (Ctr(0, Axiom(Bang(A))), "index"), (Sequent((A,), A), "context"),
    (HomSpace(Base(1), Base(2)), "dom"), (ProbeConfig(), "seed"), (RunConfig(), "dim"),
    (Vec((1, 2)), "coords"), (Matrix(((1,),)), "rows"), (Ket(Vec((1,)), ()), "tangents"),
])
def test_fields_cannot_be_assigned_or_deleted(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_keyword_and_default_construction():
    assert ProbeConfig() == ProbeConfig(0, 2, 3, 4)
    assert ProbeConfig(seed=5, depth=2) == ProbeConfig(5, 2, 3, 2)
    assert RunConfig(dim=3, mutate=True) == RunConfig(0, 3, 200, 3, 4, True)
    assert Ctr(premise=Axiom(A), index=0) == Ctr(0, Axiom(A))
    for bad in (lambda: ProbeConfig(1, seed=2), lambda: ProbeConfig(depth_=1),
                lambda: RunConfig(1, 2, 3, 4, 5, 6, 7), lambda: Ctr(0)):
        with pytest.raises(TypeError):
            bad()


def test_repr_is_unchanged():
    assert repr(Ctr(0, Weak(0, Bang(A), Der(0, Axiom(A))))) == (
        "Ctr(index=0, premise=Weak(index=0, formula=Bang(inner=PropVar(name='A', dim=2)), "
        "premise=Der(index=0, premise=Axiom(formula=PropVar(name='A', dim=2)))))")
    assert repr(Exchange([1, 0], TensorR(Axiom(A), Axiom(A)))) == (
        "Exchange(perm=(1, 0), premise=TensorR(left=Axiom(formula=PropVar(name='A', dim=2)), "
        "right=Axiom(formula=PropVar(name='A', dim=2))))")
    assert repr(ProbeConfig(seed=3, depth=2)) == (
        "ProbeConfig(seed=3, samples=2, max_tangents=3, depth=2)")
    assert repr(HomSpace(Base(1), Base(2))) == "HomSpace(dom=BaseSpace(dim=1), cod=BaseSpace(dim=2))"


def test_a_non_field_slot_is_kept_out_of_fields_equality_hash_and_repr():
    @record(slots=("_memo",))
    class Point:
        x: int
        y: int = 0

    p, q = Point(1), Point(1)
    object.__setattr__(p, "_memo", ["filled"])
    assert Point._fields == ("x", "y") and p._values == q._values == (1, 0)
    assert p == q and q == p and hash(p) == hash(q)
    assert repr(p) == repr(q) and repr(p).endswith("Point(x=1, y=0)")
    assert p._memo == ["filled"] and not hasattr(q, "_memo")
    for value in (p, q):
        with pytest.raises(AttributeError, match="immutable"):
            value._memo = 1
        with pytest.raises(AttributeError, match="immutable"):
            del value._memo
    assert isinstance(p, Immutable) and p._memo == ["filled"]

    m = Matrix(((1, "2/3"), (0, -4)))
    m.apply(Vec((1, 1)))
    assert Matrix._fields == ("rows",) and m._values == (m.rows,)
    assert m == Matrix(((1, "2/3"), (0, -4))) and hash(m) == hash(Matrix._of(m.rows))
    with pytest.raises(AttributeError, match="immutable"):
        m._int_rows = ()
