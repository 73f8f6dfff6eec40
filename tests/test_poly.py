import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sweedler.exact import DimensionError, Vec
from sweedler.bang import BangElement, BaseSpace, coproduct, tensor_pair
from sweedler.poly import (
    Polynomial, parse_poly, residue_pairing, residue_pairing_tensor,
    shift_doubling)


def test_parse_frozen():
    f = parse_poly("3/2 x1^2 x2 - x3")
    assert f.nvars == 3
    assert f.terms == {(2, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1)}


def test_parse_is_whitespace_insensitive():
    assert parse_poly("3/2x1^2x2-x3") == parse_poly("3/2 x1^2 x2 - x3")
    assert parse_poly("  - x1+ +2") == parse_poly("2 - x1")


def test_parse_constants_and_repeats():
    f = parse_poly("x1 x1 x1", nvars=2)
    assert f.terms == {(3, 0): Fraction(1)}
    assert parse_poly("5/3", nvars=1).terms == {(0,): Fraction(5, 3)}


def test_parse_rejects_garbage():
    for bad in ("", "x0", "3 *", "x1 ^", "+"):
        with pytest.raises(ValueError):
            parse_poly(bad)
    with pytest.raises(DimensionError):
        parse_poly("x5", nvars=2)


def test_str_round_trip():
    f = parse_poly("3/2 x1^2 x2 - x3 + 7")
    assert parse_poly(f.to_str()) == f
    assert parse_poly(Polynomial.zero(2).to_str(), nvars=2).is_zero()


def test_calculus_frozen():
    f = parse_poly("x1^2 x2")
    assert f.partial(0) == parse_poly("2 x1 x2")
    assert f.partial(1) == parse_poly("x1^2", nvars=2)
    assert f.directional(Vec((1, 1))) == parse_poly("2 x1 x2 + x1^2")
    assert f.eval_at(Vec((3, 2))) == 18
    assert parse_poly("x1 + 1") * parse_poly("x1 - 1") == parse_poly("x1^2 - 1")


def test_reflect():
    f = parse_poly("x1 + x1^2")
    assert f.reflect() == parse_poly("x1^2 - x1")


def test_shift_doubling_frozen():
    f = parse_poly("x1^2")
    g = shift_doubling(f)
    assert g.nvars == 2
    assert g == parse_poly("x1^2 + 2 x1 x2 + x2^2")
    h = shift_doubling(parse_poly("x1 x2"))
    # (x1+y1)(x2+y2) with y1 = x3, y2 = x4
    assert h == parse_poly("x1 x2 + x1 x4 + x3 x2 + x3 x4")


def test_residue_frozen_single_tangent():
    V2 = BaseSpace(2)
    t = BangElement.ket(V2, Vec((1, 0)), (Vec((0, 1)),))
    assert residue_pairing(t, parse_poly("x1 x2")) == 1
    assert residue_pairing(t, parse_poly("x1^2", nvars=2)) == 0


def test_residue_frozen_group_like_evaluates():
    V2 = BaseSpace(2)
    g = BangElement.ket(V2, Vec((2, 3)))
    assert residue_pairing(g, parse_poly("x1 x2 + x1")) == 8


def test_residue_frozen_repeated_tangent():
    V1 = BaseSpace(1)
    t = BangElement.ket(V1, Vec((0,)), (Vec((1,)), Vec((1,))))
    assert residue_pairing(t, parse_poly("x1^2")) == 2
    assert residue_pairing(t, parse_poly("x1^3")) == 0
    assert residue_pairing(t, parse_poly("x1", nvars=1)) == 0


def test_residue_tensor_matches_product():
    rng = random.Random(3)
    V2 = BaseSpace(2)
    for _ in range(10):
        a = BangElement.ket(V2, Vec((rng.randint(-2, 2), 1)), (Vec((1, rng.randint(-2, 2))),))
        b = BangElement.ket(V2, Vec((0, rng.randint(-2, 2))))
        f = parse_poly("x1 x2 + x2^2")
        g = parse_poly("x1 - x2")
        assert residue_pairing_tensor(tensor_pair(a, b), (f, g)) \
            == residue_pairing(a, f) * residue_pairing(b, g)


def test_coproduct_dual_to_multiplication_smoke():
    V2 = BaseSpace(2)
    t = BangElement.ket(V2, Vec((1, 2)), (Vec((1, 0)), Vec((0, 1))))
    f = parse_poly("x1 x2")
    g = parse_poly("x2", nvars=2)
    assert residue_pairing(t, f * g) \
        == residue_pairing_tensor(coproduct(t), (f, g))


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
