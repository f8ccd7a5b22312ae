"""Polynomial and restricted-fraction arithmetic."""

import random
from fractions import Fraction

import pytest

from cubicalg.exactnum import (
    ExactDivisionError,
    MultiPoly,
    PoleError,
    PolyFraction,
    SymbolTable,
    SymbolTableMismatch,
)

TABLE = SymbolTable(
    ("x", "y", "h", "a", "i"),
    imaginary="i",
    atoms=("a", ("x-a", {"x": 1, "a": -1}), ("x+a", {"x": 1, "a": 1})),
)


def sym(name):
    return MultiPoly.sym(TABLE, name)


def const(q):
    return MultiPoly.const(TABLE, q)


def random_poly(rng, nterms, den_bound):
    """Random polynomial with i to the power 0 or 1 and coefficients
    of up to 40 digits over denominators up to den_bound."""
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, 3) for _ in range(4)) + (rng.randint(0, 1),)
        num = rng.randint(-10 ** 40, 10 ** 40) or 1
        terms[exps] = Fraction(num, rng.randint(1, den_bound))
    return MultiPoly(TABLE, terms)


def product_oracle(p, q):
    """Per-term Fraction products, with i*i reduced to -1."""
    ii = TABLE.imaginary_index
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = [a + b for a, b in zip(e1, e2)]
            coeff = c1 * c2
            if exps[ii] == 2:
                exps[ii] = 0
                coeff = -coeff
            exps = tuple(exps)
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return {e: c for e, c in terms.items() if c != 0}


class TestMultiPoly:
    def test_ring_identities(self):
        x, y = sym("x"), sym("y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
        assert (p - p).is_zero()

    def test_imaginary_unit_reduces(self):
        i = sym("i")
        assert i * i == const(-1)
        assert i ** 3 == -i
        assert i ** 4 == const(1)
        assert (1 + i) * (1 - i) == const(2)

    def test_rational_coefficients(self):
        x = sym("x")
        p = Fraction(1, 2) * x + Fraction(1, 3)
        q = 6 * p
        assert q == 3 * x + 2

    def test_exact_division(self):
        x, a = sym("x"), sym("a")
        product = (x - a) * (x + a)
        assert product.exact_div(x - a) == x + a
        assert (x ** 2 - a ** 2).exact_div(x + a) == x - a
        assert (x ** 2 + a ** 2).try_div(x - a) is None
        with pytest.raises(ExactDivisionError):
            (x ** 2 + 1).exact_div(x + 1)

    def test_division_with_imaginary_coefficients(self):
        x, i = sym("x"), sym("i")
        p = (x + i) * (x - i)
        assert p == x ** 2 + 1
        assert p.exact_div(x + i) == x - i

    def test_evaluate(self):
        x, y = sym("x"), sym("y")
        p = x ** 2 * y + 3 * x
        got = p.evaluate({"x": Fraction(2), "y": Fraction(1, 2), "h": 0, "a": 0, "i": 0})
        assert got == Fraction(8)

    def test_derivative(self):
        x, y = sym("x"), sym("y")
        p = x ** 3 * y - 2 * x
        assert p.derivative("x") == 3 * x ** 2 * y - 2
        assert p.derivative("y") == x ** 3

    def test_table_mismatch_raises(self):
        other = SymbolTable(("x",))
        with pytest.raises(SymbolTableMismatch):
            sym("x") + MultiPoly.sym(other, "x")

    def test_format_round_shape(self):
        x, y = sym("x"), sym("y")
        p = -x ** 2 + Fraction(3, 4) * y - 1
        assert p.format() == "-x^2 + 3/4*y - 1"
        assert const(0).format() == "0"
        assert (-sym("x")).format() == "-x"

    @pytest.mark.parametrize("seed", range(6))
    def test_product_matches_per_term_fractions(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            dens = rng.choice((1, 12, 10 ** 30))
            p = random_poly(rng, rng.randint(0, 6), dens)
            q = random_poly(rng, rng.randint(0, 6), rng.choice((1, 7, 10 ** 25)))
            got = p * q
            assert got.terms == product_oracle(p, q)
            assert all(type(c) is Fraction for c in got.terms.values())
            assert (p * 0).is_zero() and (p * (q - q)).is_zero()
            assert (Fraction(3, 10 ** 20) * p).terms == product_oracle(
                const(Fraction(3, 10 ** 20)), p
            )

    def test_product_cancels_through_the_imaginary_unit(self):
        x, y, i = sym("x"), sym("y"), sym("i")
        half = Fraction(1, 2)
        p = half * x + Fraction(1, 3) * i * y
        q = 2 * x - 6 * i * y
        assert (p * q).terms == product_oracle(p, q)
        assert p * q == x ** 2 + 2 * y ** 2 - 3 * i * x * y + Fraction(2, 3) * i * x * y
        assert (i * x) * (i * x) == -(x ** 2)

    def test_contents(self):
        x, y = sym("x"), sym("y")
        p = 4 * x ** 2 * y + 6 * x * y
        assert p.rational_content() == 2
        assert p.monomial_content() == (1, 1, 0, 0, 0)


class TestPolyFraction:
    def test_cancellation_is_automatic(self):
        x, a = sym("x"), sym("a")
        value = PolyFraction((x ** 2 - a ** 2) * x, (0, 1, 0))
        assert value.den == (0, 0, 0)
        assert value.num == (x + a) * x

    def test_add_and_mul_with_denominators(self):
        one_over = PolyFraction(MultiPoly.const(TABLE, 1), (0, 2, 0))
        x, a = sym("x"), sym("a")
        total = one_over + one_over
        assert total == PolyFraction(const(2), (0, 2, 0))
        prod = PolyFraction(x - a) * one_over
        assert prod == PolyFraction(const(1), (0, 1, 0))

    def test_division_by_atom_product(self):
        x, a = sym("x"), sym("a")
        f = PolyFraction(x ** 2 + a ** 2)
        g = f / PolyFraction((x ** 2 - a ** 2) ** 2)
        assert g.den == (0, 2, 2)
        with pytest.raises(ExactDivisionError):
            f / PolyFraction(x + 1)

    def test_pow_negative(self):
        a = PolyFraction(sym("a"))
        inv = a ** -2
        assert inv.den == (2, 0, 0)
        assert inv * a ** 2 == PolyFraction(const(1))

    def test_evaluate_and_pole(self):
        x, a = sym("x"), sym("a")
        v = PolyFraction(x, (0, 1, 0))
        point = {"x": Fraction(3), "y": 0, "h": 1, "a": Fraction(1), "i": 0}
        assert v.evaluate(point) == Fraction(3, 2)
        with pytest.raises(PoleError):
            v.evaluate({**point, "x": Fraction(1)})

    def test_derivative_quotient_rule(self):
        x, a = sym("x"), sym("a")
        v = PolyFraction(x ** 2, (0, 1, 0))
        got = v.derivative("x")
        expected = (
            PolyFraction(2 * x, (0, 1, 0))
            - PolyFraction(x ** 2, (0, 2, 0))
        )
        assert got == expected

    def test_sum_is_one_canonical_value(self):
        x, a = sym("x"), sym("a")
        # 1/(x-a) + 1/(x+a) - 2x/((x-a)(x+a)) = 0, and x/(x-a) - a/(x-a) = 1
        total = PolyFraction.sum(TABLE, [
            (const(1), (0, 1, 0)),
            (const(1), (0, 0, 1)),
            (-2 * x, (0, 1, 1)),
        ])
        assert total.is_zero() and total.den == (0, 0, 0)
        one = PolyFraction.sum(TABLE, [(x, (0, 1, 0)), (-a, (0, 1, 0))])
        assert one == PolyFraction(const(1))
        terms = [(x ** 2 + a, (1, 2, 0)), (x * a, (0, 0, 1)), (const(3), (2, 0, 0))]
        expected = PolyFraction(const(0))
        for num, den in terms:
            expected = expected + PolyFraction(num, den)
        assert PolyFraction.sum(TABLE, terms) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_derivative_matches_quotient_rule_at_points(self, seed):
        # d(N/D)/ds = (N' D - N D') / D^2, evaluated in plain Fractions
        rng = random.Random(seed)
        for _ in range(6):
            num = random_poly(rng, rng.randint(1, 4), 5)
            den = tuple(rng.randint(0, 2) for _ in range(3))
            value = PolyFraction(num, den)
            den_poly = MultiPoly.atom_product(TABLE, den)
            for name in ("x", "a", "y"):
                got = value.derivative(name)
                assert got == PolyFraction(got.num, got.den)
                point = {s: Fraction(rng.randint(2, 9), rng.randint(1, 3))
                         for s in ("x", "y", "h", "i")}
                point["a"] = point["x"] + 5
                n, d = num.evaluate(point), den_poly.evaluate(point)
                dn = num.derivative(name).evaluate(point)
                dd = den_poly.derivative(name).evaluate(point)
                assert got.evaluate(point) == (dn * d - n * dd) / d ** 2

    def test_substitute_keeps_atoms_invertible(self):
        x, a = sym("x"), sym("a")
        v = PolyFraction(const(1), (0, 1, 0))
        shifted = v.substitute({"x": PolyFraction(x + 2 * a)})
        assert shifted == PolyFraction(const(1), (0, 0, 1))

    def test_univariate_extraction(self):
        x, y, a = sym("x"), sym("y"), sym("a")
        v = PolyFraction(x ** 2 * y + x * a + 5, (1, 0, 0))
        coeffs = v.univariate_in("x")
        assert len(coeffs) == 3
        assert coeffs[0] == PolyFraction(const(5), (1, 0, 0))
        assert coeffs[1] == PolyFraction(a, (1, 0, 0))
        assert coeffs[2] == PolyFraction(y, (1, 0, 0))
        with pytest.raises(ValueError):
            v.univariate_in("a")

    def test_sqrt(self):
        h, a = sym("h"), sym("a")
        v = PolyFraction(Fraction(9, 4) * h ** 4, (2, 0, 0))
        root = v.sqrt()
        assert root == PolyFraction(Fraction(3, 2) * h ** 2, (1, 0, 0))
        with pytest.raises(ValueError):
            PolyFraction(h ** 3).sqrt()

    def test_sign_for_positive_symbols(self):
        h, a = sym("h"), sym("a")
        assert PolyFraction(-4 * h ** 2, (1, 0, 0)).sign_for_positive_symbols() == -1
        assert PolyFraction(h + a).sign_for_positive_symbols() == 1
        assert PolyFraction(h - a).sign_for_positive_symbols() is None
        assert PolyFraction(const(0)).sign_for_positive_symbols() == 0

    def test_format(self):
        h = sym("h")
        v = PolyFraction(-4 * h ** 6, (4, 0, 0))
        assert v.format() == "-4*h^6/a^4"
        w = PolyFraction(sym("x") + sym("a"), (1, 1, 0))
        assert w.format() == "(x + a)/a/(x-a)"
