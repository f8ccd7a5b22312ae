"""Univariate polynomial helpers over Fraction and PolyFraction coefficients.

trim, evaluate, mul, syndiv and shift are checked against sympy on
seeded random coefficient lists in both rings.  Only those oracle
tests need sympy; the rest run without it.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from cubicalg.exactnum import PolyFraction, SymbolTable, upoly

try:
    import sympy
except ImportError:
    sympy = None

TABLE = SymbolTable(("E", "h", "a"), atoms=("h", "a"))
if sympy is not None:
    SYMBOLS = {name: sympy.Symbol(name) for name in TABLE.symbols}
    X = sympy.Symbol("x")
E, H, A = (PolyFraction.sym(TABLE, name) for name in TABLE.symbols)
CASES = 40


def poly(*coeffs):
    """Ascending coefficients as Fractions."""
    return [Fraction(c) for c in coeffs]


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_scalar(rng):
    """A PolyFraction with up to three terms E^i h^j a^k, -2 <= k <= 2."""
    out = PolyFraction.const(TABLE, 0)
    for _ in range(rng.randint(1, 3)):
        out = out + random_fraction(rng) * (
            E ** rng.randint(0, 2) * H ** rng.randint(0, 2)
            * A ** rng.randint(-2, 2)
        )
    return out


RINGS = {"fraction": random_fraction, "polyfraction": random_scalar}


def to_sympy(value):
    if isinstance(value, PolyFraction):
        return sympy.sympify(value.format().replace("^", "**"), locals=SYMBOLS)
    return sympy.Rational(value.numerator, value.denominator)


def as_sympy_poly(coeffs):
    return sum((to_sympy(c) * X ** k for k, c in enumerate(coeffs)),
               sympy.Integer(0))


def is_zero_expr(expr):
    return sympy.expand(expr) == 0


def random_lists(ring):
    rng = random.Random("upoly-%s" % ring)
    make = RINGS[ring]
    for _ in range(CASES):
        p = [make(rng) for _ in range(rng.randint(0, 5))]
        yield p, make(rng)


class TestBasics:
    def test_syndiv(self):
        # (x^2 - 1) = (x - 1)(x + 1)
        q, r = upoly.syndiv(poly(-1, 0, 1), Fraction(1))
        assert q == poly(1, 1)
        assert r == 0

    def test_trim_in_both_rings(self):
        zero = PolyFraction.const(TABLE, 0)
        one = PolyFraction.const(TABLE, 1)
        assert upoly.trim([one, zero, zero]) == [one]
        assert upoly.trim([zero]) == []
        assert upoly.trim(poly(1, 0, 2, 0)) == poly(1, 0, 2)

    def test_is_zero_in_every_ring(self):
        assert upoly.is_zero(0) and upoly.is_zero(0.0)
        assert upoly.is_zero(Fraction(0))
        assert upoly.is_zero(PolyFraction.const(TABLE, 0))
        assert not upoly.is_zero(PolyFraction.const(TABLE, 1))


@pytest.mark.skipif(sympy is None, reason="the oracle needs sympy")
@pytest.mark.parametrize("ring", sorted(RINGS))
class TestAgainstSympy:
    def test_syndiv(self, ring):
        for p, r in random_lists(ring):
            q, rem = upoly.syndiv(p, r)
            assert len(q) == max(len(p) - 1, 0)
            lhs = as_sympy_poly(q) * (X - to_sympy(r)) + to_sympy(rem)
            assert is_zero_expr(lhs - as_sympy_poly(p))

    def test_shift(self, ring):
        for p, s in random_lists(ring):
            shifted = upoly.shift(p, s)
            want = as_sympy_poly(p).subs(X, X + to_sympy(s))
            assert is_zero_expr(as_sympy_poly(shifted) - want)

    def test_evaluate(self, ring):
        for p, x in random_lists(ring):
            got = upoly.evaluate(p, x)
            want = as_sympy_poly(p).subs(X, to_sympy(x))
            assert is_zero_expr(to_sympy(got) - want)

    def test_mul(self, ring):
        rng = random.Random("upoly-mul-%s" % ring)
        make = RINGS[ring]
        for _ in range(CASES):
            a = [make(rng) for _ in range(rng.randint(0, 4))]
            b = [make(rng) for _ in range(rng.randint(0, 4))]
            got = upoly.mul(a, b)
            want = as_sympy_poly(a) * as_sympy_poly(b)
            assert is_zero_expr(as_sympy_poly(got) - want)


def reference_rational_roots(p):
    """rational_roots as it was before the integer root test: every
    candidate is tried by synthetic division in Fractions."""
    p = upoly.trim(p)
    roots = []
    zeros = 0
    while len(p) > 1 and p[0] == 0:
        p = p[1:]
        zeros += 1
    if zeros:
        roots.append((Fraction(0), zeros))
    if len(p) > 1:
        den = lcm(*(c.denominator for c in p))
        ints = [int(c * den) for c in p]
        g = gcd(*ints)
        candidates = {
            Fraction(s * num, d)
            for num in upoly._divisors(ints[0] // g)
            for d in upoly._divisors(ints[-1] // g)
            for s in (1, -1)
        }
        for cand in sorted(candidates):
            p, mult = upoly.divide_out(p, cand)
            if mult:
                roots.append((cand, mult))
    return sorted(roots)


# the sampled q5 structure-function quartics of the branch-root search
Q5_QUARTICS = (
    poly("-1445/324", "578/27", "98/3", "-8/3", -4),
    poly("-15309/2500", "1458/125", 30, "-8/5", -4),
    poly("-49005/9604", "-2178/343", "162/7", "8/7", -4),
)


class TestRoots:
    @pytest.mark.parametrize("seed", range(4))
    def test_integer_test_matches_the_reference(self, seed):
        rng = random.Random("roots-%d" % seed)
        for _ in range(30):
            p = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))]
            for _ in range(rng.randint(0, 3)):
                root = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                for _ in range(rng.randint(1, 3)):
                    p = upoly.mul(p, [-root, Fraction(1)])
            if rng.random() < 0.5:
                # an irreducible quadratic factor: no rational roots
                p = upoly.mul(p, poly(rng.choice((1, 2, 3, 5)), 0, 1))
            if rng.random() < 0.3:
                p = upoly.mul(p, poly(-2, 0, 1))
            assert upoly.rational_roots(p) == reference_rational_roots(p)

    def test_q5_quartics(self):
        for p in Q5_QUARTICS:
            roots = upoly.rational_roots(p)
            assert roots == reference_rational_roots(p)
            assert len(roots) == 4 and all(m == 1 for _, m in roots)


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
