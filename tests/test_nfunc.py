"""Rational functions of the level variable."""

from fractions import Fraction

import pytest

from cubicalg.exactnum import (
    ExactDivisionError,
    MultiPoly,
    NFunc,
    PoleError,
    PolyFraction,
    SymbolTable,
)

TABLE = SymbolTable(("beta", "delta", "u"), atoms=("beta",))


def nu():
    return NFunc.nu(TABLE)


def scalar(name):
    return PolyFraction(MultiPoly.sym(TABLE, name))


class TestArithmetic:
    def test_cancellation(self):
        v = nu()
        f = (v * v - 1) / (v - 1)
        assert f.is_polynomial()
        assert f == v + 1

    def test_add_over_common_denominator(self):
        v = nu()
        f = NFunc.const(TABLE, 1) / v + NFunc.const(TABLE, 1) / (v + 1)
        # 1/v + 1/(v+1) = (2v+1)/(v(v+1))
        expected = NFunc(TABLE, [1, 2], [(Fraction(0), 1), (Fraction(-1), 1)])
        assert f == expected

    def test_symbolic_coefficients(self):
        v = nu()
        beta = scalar("beta")
        f = beta * v * v - beta
        g = f / (v - 1)
        assert g == beta * (v + 1)

    def test_invert_splits_numerator(self):
        v = nu()
        beta = scalar("beta")
        f = -8 * beta ** 3 * (v ** 3 - v)
        inv = f.invert()
        assert (f * inv) == NFunc.const(TABLE, 1)
        assert set(inv.den) == {(Fraction(0), 1), (Fraction(1), 1), (Fraction(-1), 1)}

    def test_invert_rejects_irrational_split(self):
        v = nu()
        with pytest.raises(ExactDivisionError):
            (v * v - 2).invert()

    def test_pow_and_shift(self):
        v = nu()
        f = (v + 1) ** 2
        assert f.shift(1) == (v + 2) ** 2
        g = NFunc.const(TABLE, 1) / (v * v)
        assert g.shift(Fraction(1, 2)) == NFunc(
            TABLE, [1], [(Fraction(-1, 2), 2)]
        )

    def test_evaluate(self):
        v = nu()
        beta = scalar("beta")
        f = beta / (v - 1)
        assert f.evaluate(3) == beta * Fraction(1, 2)
        with pytest.raises(PoleError):
            f.evaluate(1)

    def test_equality_cross_multiplied(self):
        v = nu()
        lhs = (v ** 2 - Fraction(1, 4)) / (v - Fraction(1, 2))
        rhs = v + Fraction(1, 2)
        assert lhs == rhs

    def test_degree_and_coefficients(self):
        v = nu()
        f = 5 * v ** 3 + v
        assert f.degree() == 3
        assert f.coefficients()[3] == PolyFraction.const(TABLE, 5)
        assert f.coefficients()[2].is_zero()
