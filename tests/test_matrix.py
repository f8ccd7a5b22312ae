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


def random_rows(rng, n, shape, kind, draw=None):
    """Rows of the shape; draw() makes each entry inside it, by default
    random_scalar(rng, kind)."""
    def entry(i, j):
        if shape == "zero":
            return kind(0)
        if shape == "diagonal" and i != j:
            return kind(0)
        if shape == "tridiagonal" and abs(i - j) > 1:
            return kind(0)
        return draw() if draw else random_scalar(rng, kind)

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
        Matrix.diagonal([1] * 3),
        Matrix(rows),
        Matrix.diagonal([1, Fraction(1), 1]),
        Matrix([[Fraction(v) for v in row] for row in rows]),
        Matrix.diagonal([1] * 3) * Matrix.diagonal([1] * 3),
        Matrix.diagonal([1] * 3) + Matrix(rows) - Matrix.diagonal([1] * 3),
        -(-Matrix.diagonal([1] * 3)),
        Fraction(1, 2) * Matrix.diagonal([1] * 3) * 2,
    ]
    for m in built:
        assert m == built[0]
        assert hash(m) == hash(built[0])
    zero = Matrix([[0, 0], [0, 0]])
    assert Matrix([[0.0, -0.0], [0.0, 0.0]]) == Matrix([[0.0] * 2] * 2)
    m = Matrix([[1, 2], [3, 4]])
    assert m - m == zero and (m - m).is_zero() and (m - m).max_abs() == 0
    assert m * 0 == zero
    assert Matrix.diagonal([0, 0]) == zero
    assert m != Matrix([[1, 2], [3, 5]])
    assert Matrix.diagonal([1] * 2) != Matrix.diagonal([1] * 3)


def test_non_square_rows_are_refused():
    with pytest.raises(ValueError):
        Matrix([[1, 2]])


def test_max_abs_is_nan_wherever_a_nan_sits():
    nan = float("nan")
    for rows in ([[1.0, nan], [0.0, 2.0]], [[nan, 1.0], [0.0, 2.0]],
                 [[1.0, 0.0], [0.0, nan]], [[nan]]):
        assert math.isnan(Matrix(rows).max_abs())
    assert Matrix([[1.0, -3.0], [0.0, 2.0]]).max_abs() == 3.0


# --- exact matrices: integer numerators over one common denominator --------

DENOMINATORS = (1, 2, 3, 4, 6, 9, 49, 343, 117649)


def assert_lowest_terms(matrix):
    """An exact matrix keeps the least common denominator of its values."""
    want = math.lcm(*(Fraction(v).denominator for row in matrix.rows
                      for v in row))
    assert matrix.den == want


def test_mixed_denominators_match_dense_fractions_in_lowest_terms():
    rng = random.Random(20261019)

    def draw():
        return Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))

    for n in (1, 3, 6):
        for left in SHAPES:
            for right in SHAPES:
                x = random_rows(rng, n, left, Fraction, draw)
                y = random_rows(rng, n, right, Fraction, draw)
                s = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)),
                             rng.choice(DENOMINATORS))
                mx, my = Matrix(x), Matrix(y)
                exact = [
                    (dense_mul(x, y), mx * my),
                    (dense_add(x, y), mx + my),
                    (dense_sub(x, y), mx - my),
                    (dense_neg(x), -mx),
                    (dense_scale(x, s), mx * s),
                    (dense_scale(x, s), s * mx),
                    (dense_scale(x, 3), 3 * mx),
                    (dense_scale(x, 0), mx * Fraction(0)),
                ]
                for want, got in exact:
                    assert_same(want, got)
                    assert_lowest_terms(got)


def test_exact_and_float_kinds_do_not_mix():
    # the float side would read the exact numerators without their den:
    # 0.5 * (1/7) read 0.5 and 0.5 + 1/7 read 1.5
    exact, fl = Matrix([[Fraction(1, 7)]]), Matrix([[0.5]])
    mixed = (
        lambda: exact + fl, lambda: fl + exact,
        lambda: exact - fl, lambda: fl - exact,
        lambda: exact * fl, lambda: fl * exact,
        lambda: exact * 0.5, lambda: 0.5 * exact,
    )
    for operation in mixed:
        with pytest.raises(TypeError):
            operation()
    # a float matrix takes a rational scalar, which rounds as float does
    assert (fl * Fraction(1, 7)).rows == ((0.5 * Fraction(1, 7),),)
    assert Matrix([[0.5]]) != Matrix([[Fraction(1, 2)]])


def test_results_reduce_to_den_1():
    x = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(5, 6), 0]])
    assert x.den == 6
    six = x * 6
    assert six.den == 1 and six == Matrix([[3, 2], [5, 0]])
    y = Matrix([[Fraction(3, 2), Fraction(1, 3)], [Fraction(5, 6), 1]])
    diff = y - x
    assert diff.den == 1 and diff == Matrix.diagonal([1] * 2)
    assert (x - x).den == 1 and (x - x).is_zero()
    prod = Matrix.diagonal([Fraction(2, 3), Fraction(7, 2)]) * Matrix.diagonal(
        [Fraction(3, 2), Fraction(2, 7)])
    assert prod.den == 1 and prod == Matrix.diagonal([1] * 2)
    scaled = Fraction(49, 9) * Matrix(
        [[Fraction(9, 49), Fraction(18, 7)], [0, Fraction(-27, 343)]])
    assert scaled.den == 7
    assert scaled.rows == ((1, 14), (0, Fraction(-3, 7)))


# --- bands: one-sided, pentadiagonal and corner diagonals, n up to 14 -------

BANDS = {
    "upper triangle": lambda n: range(0, n),
    "strict lower triangle": lambda n: range(1 - n, 0),
    "pentadiagonal": lambda n: range(-2, 3),
    "corners": lambda n: (1 - n, n - 1),
    "superdiagonal": lambda n: (1,),
    "two below": lambda n: (-2, -1),
}


def band_rows(n, offsets, kind, draw):
    """Dense rows with draw() on the diagonals j - i in offsets and
    kind(0) elsewhere."""
    offsets = set(offsets)
    return [[draw() if j - i in offsets else kind(0) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("kind", [Fraction, float])
def test_bands_match_dense_formulas(kind):
    rng = random.Random(20261020)

    def draw():
        if kind is Fraction:
            return Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))
        return random_scalar(rng, float)

    for n in (1, 2, 3, 7, 14):
        for left in BANDS.values():
            for right in BANDS.values():
                x = band_rows(n, left(n), kind, draw)
                y = band_rows(n, right(n), kind, draw)
                s = draw() or kind(3)
                mx, my = Matrix(x), Matrix(y)
                pairs = [
                    (dense_mul(x, y), mx * my),
                    (dense_mul(y, x), my * mx),
                    (dense_add(x, y), mx + my),
                    (dense_sub(x, y), mx - my),
                    (dense_neg(x), -mx),
                    (dense_scale(x, s), mx * s),
                    (dense_scale(y, s), s * my),
                    (dense_add(dense_mul(dense_mul(x, y), x),
                               dense_scale(y, s)),
                     mx * my * mx + s * my),
                ]
                for want, got in pairs:
                    assert_same(want, got)
                    built = Matrix(want)
                    assert got == built and hash(got) == hash(built)
                    if kind is Fraction:
                        assert_lowest_terms(got)


def test_zeros_inside_a_band_never_meet_an_inf():
    # the skip-zeros formulas: a term with a zero factor, and a sum with
    # a zero operand, are left out, so inf * 0 never makes a NaN
    def skip_zeros_mul(x, y):
        cols = list(zip(*y))
        out = []
        for row in x:
            out_row = []
            for col in cols:
                terms = [a * b for a, b in zip(row, col) if a != 0 and b != 0]
                total = terms[0] if terms else 0
                for t in terms[1:]:
                    total = total + t
                out_row.append(total)
            out.append(out_row)
        return out

    inf = math.inf
    # tridiagonal, with zeros stored inside the band
    x = [[inf, 0.0, 0.0], [0.0, 2.0, -inf], [0.0, 0.0, 1.0]]
    y = [[1.0, 0.0, 0.0], [inf, 0.0, 3.0], [0.0, 0.5, 0.0]]
    mx, my = Matrix(x), Matrix(y)
    for want, got in ((skip_zeros_mul(x, y), mx * my),
                      (skip_zeros_mul(y, x), my * mx),
                      (skip_zeros_mul(x, x), mx * mx)):
        for want_row, got_row in zip(want, got.rows):
            for w, g in zip(want_row, got_row):
                assert (math.isnan(w) and math.isnan(g)) or w == g
    # the dense formulas make a NaN here, from inf * 0.0 inside the band
    assert any(math.isnan(v) for row in dense_mul(x, y) for v in row)
    assert not any(math.isnan(v) for row in (mx * my).rows for v in row)
    z = [[1.0, 0.0], [0.0, 0.0]]
    assert any(math.isnan(v) for row in dense_scale(z, inf) for v in row)
    assert (Matrix(z) * inf).rows == ((inf, 0), (0, 0))
    # a stored inf times a zero scalar is a NaN in every formula
    assert math.isnan((mx * 0.0).rows[0][0])
    assert (mx * 0.0).rows[0][1] == 0
