"""repcheck.Matrix against the dense row-times-column formulas.

The reference below is the dense arithmetic Matrix used before it kept
only nonzero entries.  Exact results must be equal, float results
bit-identical: the sparse product sums over k in ascending order and
only skips terms that are exact zeros, which change no nonzero float.
"""

import math
import random
from fractions import Fraction

import pytest

from cubicalg.repcheck import Matrix

SHAPES = ("dense", "tridiagonal", "diagonal", "zero")


def dense_add(x, y):
    return [[a + b for a, b in zip(row, orow)] for row, orow in zip(x, y)]


def dense_neg(x):
    return [[-a for a in row] for row in x]


def dense_sub(x, y):
    return dense_add(x, dense_neg(y))


def dense_mul(x, y):
    cols = list(zip(*y))
    return [
        [sum(a * b for a, b in zip(row, col)) for col in cols] for row in x
    ]


def dense_scale(x, s):
    return [[a * s for a in row] for row in x]


def random_scalar(rng, kind):
    if kind is Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-4, 4)


def random_rows(rng, n, shape, kind):
    def entry(i, j):
        if shape == "zero":
            return kind(0)
        if shape == "diagonal" and i != j:
            return kind(0)
        if shape == "tridiagonal" and abs(i - j) > 1:
            return kind(0)
        return random_scalar(rng, kind)

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def assert_same(dense, matrix):
    """Entry-wise equality; nonzero floats must agree bit for bit."""
    rows = matrix.rows
    assert len(rows) == len(dense)
    for want_row, got_row in zip(dense, rows):
        assert len(got_row) == len(want_row)
        for want, got in zip(want_row, got_row):
            if want == 0:
                assert got == 0
            elif isinstance(want, float):
                assert isinstance(got, float) and got.hex() == want.hex()
            else:
                assert got == want


@pytest.mark.parametrize("kind", [Fraction, float])
def test_sparse_arithmetic_matches_dense_formulas(kind):
    rng = random.Random(20261018)
    for n in (1, 2, 5, 9):
        for left in SHAPES:
            for right in SHAPES:
                x = random_rows(rng, n, left, kind)
                y = random_rows(rng, n, right, kind)
                s = random_scalar(rng, kind)
                mx, my = Matrix(x), Matrix(y)
                assert_same(dense_mul(x, y), mx * my)
                assert_same(dense_add(x, y), mx + my)
                assert_same(dense_sub(x, y), mx - my)
                assert_same(dense_neg(x), -mx)
                assert_same(dense_scale(x, s), mx * s)
                assert_same(dense_scale(x, s), s * mx)
                assert_same(dense_scale(x, kind(0)), mx * kind(0))
                # a longer chain, as casimir.realize builds one
                chain = dense_add(
                    dense_mul(dense_mul(x, x), y), dense_scale(y, s)
                )
                assert_same(chain, (mx * mx) * my + s * my)


@pytest.mark.parametrize("kind", [Fraction, float])
def test_rows_round_trip(kind):
    rng = random.Random(7)
    for n in (1, 4):
        for shape in SHAPES:
            rows = random_rows(rng, n, shape, kind)
            m = Matrix(rows)
            assert m.rows == tuple(tuple(row) for row in rows)
            assert Matrix(m.rows) == m
            assert m.is_zero() == (shape == "zero")
            assert m.max_abs() == max(abs(v) for row in rows for v in row)


def test_equal_matrices_built_differently_are_equal():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    built = [
        Matrix.identity(3),
        Matrix(rows),
        Matrix.diagonal([1, Fraction(1), 1.0]),
        Matrix([[Fraction(v) for v in row] for row in rows]),
        Matrix.identity(3) * Matrix.identity(3),
        Matrix.identity(3) + Matrix(rows) - Matrix.identity(3),
        -(-Matrix.identity(3)),
        Fraction(1, 2) * Matrix.identity(3) * 2,
    ]
    for m in built:
        assert m == built[0]
        assert hash(m) == hash(built[0])
    zero = Matrix([[0, 0], [0, 0]])
    assert Matrix([[0.0, -0.0], [Fraction(0), 0]]) == zero
    m = Matrix([[1, 2], [3, 4]])
    assert m - m == zero and (m - m).is_zero() and (m - m).max_abs() == 0
    assert m * 0 == zero
    assert Matrix.diagonal([0, 0]) == zero
    assert m != Matrix([[1, 2], [3, 5]])
    assert Matrix.identity(2) != Matrix.identity(3)


def test_non_square_rows_are_refused():
    with pytest.raises(ValueError):
        Matrix([[1, 2]])


def test_max_abs_is_nan_wherever_a_nan_sits():
    nan = float("nan")
    for rows in ([[1.0, nan], [0.0, 2.0]], [[nan, 1.0], [0.0, 2.0]],
                 [[1.0, 0.0], [0.0, nan]], [[nan]]):
        assert math.isnan(Matrix(rows).max_abs())
    assert Matrix([[1.0, -3.0], [0.0, 2.0]]).max_abs() == 3.0
