"""Exact Lagrange interpolation."""

from fractions import Fraction

import pytest

from cubicalg.exactnum import lagrange, upoly


class TestLagrange:
    def test_recovers_polynomial(self):
        # f(v) = v^2 - v/2 + 3
        f = [Fraction(3), Fraction(-1, 2), Fraction(1)]
        pts = [(x, upoly.evaluate(f, Fraction(x))) for x in range(3)]
        assert lagrange(pts) == f

    def test_linear_branch_samples(self):
        # samples of u(E) = -E - 1/2 at E = 0, 1, 2
        pts = [
            (Fraction(0), Fraction(-1, 2)),
            (Fraction(1), Fraction(-3, 2)),
            (Fraction(2), Fraction(-5, 2)),
        ]
        assert lagrange(pts) == [Fraction(-1, 2), Fraction(-1)]

    def test_duplicate_abscissa_rejected(self):
        with pytest.raises(ValueError):
            lagrange([(1, 1), (1, 2)])

