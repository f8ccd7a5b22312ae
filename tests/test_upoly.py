"""Univariate polynomial division and rational roots over exact rationals."""

from fractions import Fraction

from cubicalg.exactnum import upoly


def poly(*coeffs):
    """Ascending coefficients as Fractions."""
    return [Fraction(c) for c in coeffs]


class TestBasics:
    def test_divmod(self):
        # (x^2 - 1) = (x - 1)(x + 1)
        q, r = upoly.divmod_poly(poly(-1, 0, 1), poly(-1, 1))
        assert q == poly(1, 1)
        assert r == []


class TestRoots:
    def test_rational_roots_with_multiplicity(self):
        # 2x^3 + x^2 - 2x - 1 has roots 1, -1, -1/2
        p = poly(-1, -2, 1, 2)
        roots = upoly.rational_roots(p)
        assert roots == [(Fraction(-1), 1), (Fraction(-1, 2), 1), (Fraction(1), 1)]

    def test_structure_function_roots_fixed_point(self):
        # -4v^4 + 8v^3 + 6v^2 - 11v - 15/4 factors as
        # -4 (v + 1/2)^2 (v - 3/2) (v - 5/2): quartic with a double root.
        p = upoly.mul(
            upoly.mul(poly(Fraction(1, 2), 1), poly(Fraction(1, 2), 1)),
            upoly.mul(poly(Fraction(-3, 2), 1), poly(Fraction(-5, 2), 1)),
        )
        p = upoly.scale(p, -4)
        roots = upoly.rational_roots(p)
        assert roots == [
            (Fraction(-1, 2), 2),
            (Fraction(3, 2), 1),
            (Fraction(5, 2), 1),
        ]
