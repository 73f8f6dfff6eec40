import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sweedler.exact import (
    DimensionError, Matrix, Vec, parse_scalar, scalar_str)


def test_scalar_round_trip():
    assert scalar_str(Fraction(2)) == "2"
    assert scalar_str(Fraction(-3, 2)) == "-3/2"
    assert parse_scalar("7/3") == Fraction(7, 3)
    assert parse_scalar("-4") == Fraction(-4)
    assert parse_scalar(scalar_str(Fraction(22, 7))) == Fraction(22, 7)


def test_scalar_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("1.5e3x")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_vec_arithmetic():
    a = Vec(("1/2", 0))
    b = Vec((1, "1/3"))
    assert a + b == Vec(("3/2", "1/3"))
    assert a - a == Vec.zero(2)
    assert a.scale(4) == Vec((2, 0))
    assert (-b).coords == (Fraction(-1), Fraction(-1, 3))
    assert Vec.basis(3, 1) == Vec((0, 1, 0))


def test_dim_guard():
    with pytest.raises(DimensionError):
        Vec.zero(9)
    with pytest.raises(DimensionError):
        Vec(())
    with pytest.raises(DimensionError):
        Matrix.identity(0)
    with pytest.raises(DimensionError):
        Vec((1, 2)) + Vec((1, 2, 3))


def test_matrix_compose_frozen():
    f = Matrix(((1, 2), (3, 4)))
    g = Matrix(((0, 1), (1, 0)))
    assert f @ g == Matrix(((2, 1), (4, 3)))
    assert g @ f == Matrix(((3, 4), (1, 2)))
    assert f @ Matrix.identity(2) == f


def test_matrix_apply_and_power():
    f = Matrix(((1, 2), (3, 4)))
    assert f.apply(Vec((1, 1))) == Vec((3, 7))
    shear = Matrix(((1, 1), (0, 1)))
    assert shear.power(3) == Matrix(((1, 3), (0, 1)))
    assert shear.power(0) == Matrix.identity(2)


def test_matrix_shape_mismatch():
    with pytest.raises(DimensionError):
        Matrix(((1, 2),)) @ Matrix(((1, 2),))
    with pytest.raises(DimensionError):
        Matrix(((1, 2), (3,)))


def test_json_round_trip():
    v = Vec(("-1/2", 3))
    assert Vec.from_json(v.to_json()) == v
    assert v.to_json() == ["-1/2", "3"]
    m = Matrix((("5/7", 0), (1, "-2")))
    assert Matrix.from_json(m.to_json()) == m


_frac = st.fractions(min_value=-50, max_value=50, max_denominator=9)


@given(st.lists(st.lists(_frac, min_size=3, max_size=3), min_size=2, max_size=2))
def test_matrix_json_round_trip(rows):
    m = Matrix(rows)
    assert Matrix.from_json(m.to_json()) == m


def test_compose_associative_random():
    rng = random.Random(7)
    def rand_mat():
        return Matrix(tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(3)) for _ in range(3)))
    for _ in range(25):
        a, b, c = rand_mat(), rand_mat(), rand_mat()
        assert (a @ b) @ c == a @ (b @ c)
        v = Vec(tuple(rng.randint(-3, 3) for _ in range(3)))
        assert (a @ b).apply(v) == a.apply(b.apply(v))
