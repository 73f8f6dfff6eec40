import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from sweedler.exact import (
    ONE, DimensionError, Matrix, Vec, _mul, as_scalar, json_scalar, parse_scalar, scalar_str)
from sweedler.semantics import _matrix_unit


def test_scalar_round_trip():
    assert scalar_str(Fraction(2)) == "2"
    assert scalar_str(Fraction(-3, 2)) == "-3/2"
    assert parse_scalar("7/3") == Fraction(7, 3)
    assert parse_scalar("-4") == Fraction(-4)
    assert parse_scalar(scalar_str(Fraction(22, 7))) == Fraction(22, 7)


def test_scalars_past_the_int_string_limit_print_exactly():
    # str(int) refuses more than 4300 digits
    big = 10 ** 5000 - 1
    assert scalar_str(Fraction(big)) == "9" * 5000
    assert scalar_str(Fraction(-big, 10 ** 4999)) == "-" + "9" * 5000 + "/1" + "0" * 4999


def test_scalar_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("1.5e3x")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


@pytest.mark.parametrize("text, value", [
    ("7", 7), ("-7", -7), ("+7", 7), ("-0", 0), (" 3/6\n", Fraction(1, 2)),
    ("\t-10/4 ", Fraction(-5, 2)), ("007/0014", Fraction(1, 2)), ("0/5", 0),
    ("9" * 300, int("9" * 300))])
def test_scalar_grammar_accepts_signed_digits_over_digits(text, value):
    got = parse_scalar(text)
    assert type(got) is Fraction and got == value


@pytest.mark.parametrize("text", [
    "1.5", "1e3", "1E3", "1_000", ".5", "5.", "1/2.0", "1e200000000", "1e5000", "1/-2",
    "1/+2", "1 / 2", "- 3", "++1", "1/2/3", "", " ", "+", "/2", "1/", "0x10", "inf", "NaN",
    "\u0663", "1/0", "-0/0", "1" * 5000, "1/" + "3" * 5000])
def test_scalar_grammar_refuses_everything_else(text):
    with pytest.raises(ValueError, match="^bad scalar .*: expected p or p/q, q nonzero$"):
        parse_scalar(text)
    with pytest.raises(ValueError):
        json_scalar(text)


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


# -- the trusted, zero-skipping kernels against the naive Fraction formulas --

# a matrix or vector is drawn all-zero, sparse (mostly 0) or dense; nonzero
# entries are negative and non-integer as often as not, and some have a
# numerator or denominator past 2^64
_huge = st.builds(lambda n, sign, d: Fraction(sign * n, d), st.integers(2**64 + 1, 2**80),
                  st.sampled_from((1, -1)), st.one_of(st.just(1), st.integers(2**64 + 1, 2**70)))
_entry = st.one_of(_frac, _frac, _huge)
_density = st.sampled_from((
    st.just(Fraction(0)),
    st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), _entry),
    _entry))
_dims = st.integers(1, 4)


def _rows(nrows, ncols):
    return _density.flatmap(lambda entry: st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))


def _all_reduced_fractions(x):
    coords = x.coords if isinstance(x, Vec) else [c for row in x.rows for c in row]
    return all(type(c) is Fraction and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
               for c in coords)


def _naive_apply(mat, x):
    return [sum((c * y for c, y in zip(row, x.coords)), Fraction(0)) for row in mat.rows]


@given(st.data(), _dims, _dims, _dims)
def test_kernels_equal_naive_formulas(data, n, m, k):
    a = Matrix(data.draw(_rows(n, m)))
    b = Matrix(data.draw(_rows(n, m)))
    c = Matrix(data.draw(_rows(m, k)))
    v = Vec(data.draw(_rows(1, m))[0])
    w = Vec(data.draw(_rows(1, m))[0])
    vk, wk = (Vec(data.draw(_rows(1, k))[0]) for _ in range(2))
    s = data.draw(st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), _entry))
    unit = _matrix_unit(n, m, data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1)))
    zero = Fraction(0)

    results = {
        "matmul": (a @ c, [[sum((a.rows[i][j] * c.rows[j][l] for j in range(m)), zero)
                            for l in range(k)] for i in range(n)]),
        "m+": (a + b, [[x + y for x, y in zip(r, q)] for r, q in zip(a.rows, b.rows)]),
        "m-": (a - b, [[x - y for x, y in zip(r, q)] for r, q in zip(a.rows, b.rows)]),
        "-m": (-a, [[-x for x in r] for r in a.rows]),
        "m.scale": (a.scale(s), [[s * x for x in r] for r in a.rows]),
        "v+": (v + w, [x + y for x, y in zip(v.coords, w.coords)]),
        "v-": (v - w, [x - y for x, y in zip(v.coords, w.coords)]),
        "-v": (-v, [-x for x in v.coords]),
        "v.scale": (v.scale(s), [s * x for x in v.coords]),
    }
    # each matrix is applied to two vectors in turn: the second application
    # reads the integer rows the first one stored
    applied = {"a": (a, v, w), "b": (b, w, v), "c": (c, vk, wk),
               "matmul": (results["matmul"][0], vk, wk), "m+": (results["m+"][0], v, w),
               "m-": (results["m-"][0], w, v), "m.scale": (results["m.scale"][0], v, w),
               "columns": (Matrix._from_columns([Vec(col) for col in zip(*a.rows)]), v, w),
               "zero": (Matrix.zero(n, m), v, w), "unit": (unit, w, v)}
    for name, (mat, first, second) in applied.items():
        twin, shown = Matrix._of(mat.rows), repr(mat)
        for t, u in enumerate((first, second)):
            results["%s.apply%d" % (name, t)] = (mat.apply(u), _naive_apply(mat, u))
        assert mat == twin and twin == mat and hash(mat) == hash(twin), name
        assert repr(mat) == shown == repr(twin), name
    assert applied["columns"][0] == a
    for name, (got, want) in results.items():
        assert _all_reduced_fractions(got), name
        if isinstance(got, Vec):
            assert got == Vec(want), name
        else:
            assert got == Matrix(want), name


def test_only_apply_stores_integer_rows():
    """A matrix keeps its rows' integers only once it is applied: ``@``,
    ``power``, ``+``, ``-`` and ``scale`` read each operand once, so memory
    is spent only where it is reused, by the next application."""
    def stored(mat):
        return hasattr(mat, "_int_rows")
    f, g = Matrix(((1, "2/3"), (0, -4))), Matrix(((5, 0), ("-1/2", 1)))
    made = [f @ g, g.power(3), f + g, f - g, f.scale(3), g.scale("1/2"),
            Matrix._from_columns([Vec((1, 2)), Vec((3, 4))])]
    assert not any(map(stored, [f, g, *made]))
    f.apply(Vec((1, 1)))
    assert stored(f) and not any(map(stored, [g, *made]))


def test_shared_small_integer_scalars_equal_fresh_ones():
    for n in range(-70, 71):
        fresh = Fraction(n)
        read = (as_scalar(n), json_scalar(n), parse_scalar(" %d " % n), Vec((n,)).coords[0],
                Matrix(((1, 0),)).apply(Vec((n, 5))).coords[0],
                (Matrix(((n,),)) @ Matrix.identity(1)).rows[0][0])
        for got in read:
            assert type(got) is Fraction and got == fresh and hash(got) == hash(fresh)
            assert (got.numerator, got.denominator) == (n, 1) and repr(got) == repr(fresh)
        # one object per small integer, however it was read or computed
        assert all(got is read[0] for got in read) == (abs(n) <= 64)


def test_scale_by_one_and_cached_zeros_are_shared_immutable_values():
    v = Vec(("1/2", 0, -3))
    m = Matrix(((1, "-2/3"), (0, 0)))
    assert v.scale(1) is v and m.scale(Fraction(1)) is m
    assert Matrix.zero(2, 3) is Matrix.zero(2, 3)
    assert Matrix.zero(2, 3) is not Matrix.zero(3, 2)
    for shared in (v.scale(1), m.scale(1), Matrix.zero(2, 3)):
        with pytest.raises(AttributeError):
            shared.coords = shared.rows = ()
    assert v + Vec.zero(3) == v and Vec.zero(3) == Vec((0, 0, 0))
    assert m + Matrix.zero(2, 2) == m and Matrix.zero(2, 3) == Matrix(((0, 0, 0), (0, 0, 0)))
    assert all(type(c) is Fraction for row in Matrix.zero(2, 3).rows for c in row)
    assert (v.scale(0), m.scale(0)) == (Vec.zero(3), Matrix.zero(2, 2))


def test_public_constructors_still_validate():
    with pytest.raises(TypeError):
        Vec((1.5, 2))
    with pytest.raises(TypeError):
        Matrix(((1, 0.5), (0, 1)))
    with pytest.raises(TypeError):
        Vec.from_json([1, 2.0])
    with pytest.raises(TypeError):
        Matrix.from_json([[1, 0], [0, 1.0]])
    with pytest.raises(DimensionError):
        Matrix(((1, 2), (3,)))
    with pytest.raises(DimensionError):
        Matrix.from_json([[1, 2], [3]])
    for bad in (0, 9, 2.0):
        with pytest.raises(DimensionError):
            Vec.zero(bad)
        with pytest.raises(DimensionError):
            Matrix.zero(bad, 2)
        with pytest.raises(DimensionError):
            Matrix.zero(2, bad)
    with pytest.raises(DimensionError):
        Vec((1,) * 9)
    with pytest.raises(DimensionError):
        Matrix(((1,) * 9,))
    assert Vec((1, "2/4")).coords == (Fraction(1), Fraction(1, 2))


_SCALARS = st.one_of(
    st.sampled_from([ONE, Fraction(1), Fraction(-1), Fraction(0), Fraction(1, 2)]),
    st.fractions(max_denominator=50).filter(lambda c: abs(c.numerator) < 10 ** 6))


@given(_SCALARS, _SCALARS)
def test_mul_equals_the_product_and_passes_the_shared_one_through(a, b):
    got = _mul(a, b)
    assert type(got) is Fraction and got == a * b
    assert (got.numerator, got.denominator) == ((a * b).numerator, (a * b).denominator)
    assert _mul(ONE, b) is b and _mul(a, ONE) is a
    # identity, not ==: a fresh 1 is multiplied like any other factor
    fresh = Fraction(1)
    assert fresh is not ONE and _mul(fresh, b) == b and _mul(b, fresh) == b
    assert _mul(fresh, b) is not b and _mul(b, fresh) is not b


def test_the_shared_one_is_every_integer_read_of_one():
    assert ONE is as_scalar(1) is parse_scalar("1") is json_scalar(1)
    assert all(Vec.basis(3, i).coords[i] is ONE for i in range(3))
