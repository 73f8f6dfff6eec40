from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sweedler.exact import Vec
from sweedler.bang import BangElement, BaseSpace, coproduct_pairs
from sweedler.poly import Polynomial, residue_pairing, shift_doubling


def test_str_round_trip():
    f = Polynomial(3, {(2, 1, 0): Fraction(3, 2), (0, 0, 1): -1, (0, 0, 0): 7})
    assert repr(f) == "3/2 x1^2 x2 - x3 + 7"
    assert repr(Polynomial(1, {(1,): 1, (2,): 1})) == "x1^2 + x1"
    assert repr(Polynomial.zero(2)) == "0"


def test_term_order_does_not_matter():
    terms = [((2, 0), 1), ((0, 1), Fraction(-3, 2)), ((1, 1), 4)]
    f, g = Polynomial(2, terms), Polynomial(2, terms[::-1])
    assert f == g and hash(f) == hash(g)
    assert f + Polynomial(2, {(0, 0): 0}) == f


def test_sum_with_negation_is_zero():
    f = Polynomial(2, {(2, 1): Fraction(1, 3), (0, 0): -5})
    assert (f + (-f)).is_zero()
    assert f + (-f) == Polynomial.zero(2) == f - f
    assert f.scale(0) == Polynomial.zero(2)


def test_mixed_variable_counts_are_refused():
    f, g = Polynomial(1, {(1,): 1}), Polynomial(2, {(0, 1): 1})
    for op in (lambda: f + g, lambda: f - g, lambda: f * g):
        with pytest.raises(ValueError):
            op()


def test_fields_cannot_be_assigned():
    f = Polynomial(1, {(1,): 1})
    for name, value in (("nvars", 2), ("terms", {})):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    assert f == Polynomial(1, {(1,): 1})


def test_calculus_frozen():
    f = Polynomial(2, {(2, 1): 1})
    assert f.partial(0) == Polynomial(2, {(1, 1): 2})
    assert f.partial(1) == Polynomial(2, {(2, 0): 1})
    assert f.directional(Vec((1, 1))) == Polynomial(2, {(1, 1): 2, (2, 0): 1})
    assert f.eval_at(Vec((3, 2))) == 18
    assert Polynomial(1, {(1,): 1, (0,): 1}) * Polynomial(1, {(1,): 1, (0,): -1}) \
        == Polynomial(1, {(2,): 1, (0,): -1})


def test_reflect():
    f = Polynomial(1, {(1,): 1, (2,): 1})
    assert f.reflect() == Polynomial(1, {(2,): 1, (1,): -1})


def test_shift_doubling_frozen():
    f = Polynomial(1, {(2,): 1})
    g = shift_doubling(f)
    assert g.nvars == 2
    assert g == Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    h = shift_doubling(Polynomial(2, {(1, 1): 1}))
    # (x1+y1)(x2+y2) with y1 = x3, y2 = x4
    assert h == Polynomial(4, {(1, 1, 0, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1,
                               (0, 0, 1, 1): 1})


def test_residue_frozen_single_tangent():
    V2 = BaseSpace(2)
    t = BangElement.ket(V2, Vec((1, 0)), (Vec((0, 1)),))
    assert residue_pairing(t, Polynomial(2, {(1, 1): 1})) == 1
    assert residue_pairing(t, Polynomial(2, {(2, 0): 1})) == 0


def test_residue_frozen_group_like_evaluates():
    V2 = BaseSpace(2)
    g = BangElement.ket(V2, Vec((2, 3)))
    assert residue_pairing(g, Polynomial(2, {(1, 1): 1, (1, 0): 1})) == 8


def test_residue_frozen_repeated_tangent():
    V1 = BaseSpace(1)
    t = BangElement.ket(V1, Vec((0,)), (Vec((1,)), Vec((1,))))
    assert residue_pairing(t, Polynomial(1, {(2,): 1})) == 2
    assert residue_pairing(t, Polynomial(1, {(3,): 1})) == 0
    assert residue_pairing(t, Polynomial(1, {(1,): 1})) == 0


def test_coproduct_dual_to_multiplication_smoke():
    V2 = BaseSpace(2)
    t = BangElement.ket(V2, Vec((1, 2)), (Vec((1, 0)), Vec((0, 1))))
    f = Polynomial(2, {(1, 1): 1})
    g = Polynomial(2, {(0, 1): 1})
    assert residue_pairing(t, f * g) == sum(
        residue_pairing(t1, f) * residue_pairing(t2, g) for t1, t2 in coproduct_pairs(t))


_small = st.integers(min_value=-4, max_value=4)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.fractions(min_value=-20, max_value=20, max_denominator=5),
                       max_size=5))
def test_partial_commutes(terms):
    f = Polynomial(2, terms)
    assert f.partial(0).partial(1) == f.partial(1).partial(0)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.fractions(min_value=-20, max_value=20, max_denominator=5), max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.fractions(min_value=-20, max_value=20, max_denominator=5), max_size=4),
       st.tuples(_small, _small), st.tuples(_small, _small))
def test_directional_is_a_derivation(t1, t2, vraw, praw):
    f, g = Polynomial(2, t1), Polynomial(2, t2)
    v, p = Vec(vraw), Vec(praw)
    lhs = (f * g).directional(v)
    rhs = f.directional(v) * g + f * g.directional(v)
    assert lhs.eval_at(p) == rhs.eval_at(p)
    assert lhs == rhs
