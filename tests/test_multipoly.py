"""Polynomial and restricted-fraction arithmetic."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicalg.exactnum import (
    ExactDivisionError,
    MultiPoly,
    PoleError,
    PolyFraction,
    SymbolTable,
    SymbolTableMismatch,
)
from cubicalg.exactnum.polyfraction import _P, _mod_p, _points

TABLE = SymbolTable(
    ("x", "y", "h", "a", "g"),
    atoms=("a", ("x-a", {"x": 1, "a": -1}), ("x+a", {"x": 1, "a": 1})),
)


def sym(name):
    return MultiPoly.sym(TABLE, name)


def const(q):
    return MultiPoly.const(TABLE, q)


def random_poly(rng, nterms, den_bound):
    """Random polynomial with coefficients of up to 40 digits over
    denominators up to den_bound."""
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, 3) for _ in range(5))
        num = rng.randint(-10 ** 40, 10 ** 40) or 1
        terms[exps] = Fraction(num, rng.randint(1, den_bound))
    return MultiPoly(TABLE, terms)


def product_oracle(p, q):
    """Per-term Fraction products."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            terms[exps] = terms.get(exps, Fraction(0)) + c1 * c2
    return {e: c for e, c in terms.items() if c != 0}


def sum_oracle(*polys):
    """Per-term Fraction sum."""
    terms = {}
    for p in polys:
        for e, c in p.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
    return {e: c for e, c in terms.items() if c != 0}


def derivative_oracle(p, name):
    idx = TABLE.index(name)
    return {
        e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx]
        for e, c in p.terms.items()
        if e[idx]
    }


def div_oracle(p, q):
    """Trial division by leading terms in per-term Fractions, or None."""
    key = lambda e: (sum(e), e)
    lt = max(q.terms, key=key)
    rem = dict(p.terms)
    quot = {}
    while rem:
        exps = max(rem, key=key)
        q_exps = tuple(a - b for a, b in zip(exps, lt))
        if min(q_exps) < 0:
            return None
        coeff = rem[exps] / q.terms[lt]
        quot[q_exps] = coeff
        piece = product_oracle(MultiPoly(TABLE, {q_exps: coeff}), q)
        for e, c in piece.items():
            rem[e] = rem.get(e, Fraction(0)) - c
            if rem[e] == 0:
                del rem[e]
    return quot


def assert_primitive(p):
    """gcd 1 over the integers, a positive reduced content, and a terms
    view that agrees with both."""
    assert all(type(c) is int and c for c in p.ints.values())
    assert p.cn > 0 and p.cd > 0 and gcd(p.cn, p.cd) == 1
    if p.ints:
        assert gcd(*p.ints.values()) == 1
    else:
        assert (p.cn, p.cd) == (1, 1)
    assert p.terms == {
        e: Fraction(c * p.cn, p.cd) for e, c in p.ints.items()
    }
    return p


def random_pairs(seed, count=20):
    """Random operand pairs: zero, 40-digit numerators, mixed denominators."""
    rng = random.Random(seed)
    for _ in range(count):
        p = random_poly(rng, rng.randint(0, 6), rng.choice((1, 12, 10 ** 30)))
        q = random_poly(rng, rng.randint(0, 6), rng.choice((1, 7, 10 ** 25)))
        yield rng, p, q


class TestMultiPoly:
    def test_ring_identities(self):
        x, y = sym("x"), sym("y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
        assert (p - p).is_zero()

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

    def test_evaluate(self):
        x, y = sym("x"), sym("y")
        p = x ** 2 * y + 3 * x
        got = p.evaluate({"x": Fraction(2), "y": Fraction(1, 2), "h": 0, "a": 0, "g": 0})
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

    @pytest.mark.parametrize("seed", range(4))
    def test_every_operation_matches_per_term_fractions(self, seed):
        for rng, p, q in random_pairs(100 + seed):
            scalar = Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 20))
            k = rng.randint(-5, 5)
            cases = [
                (p + q, sum_oracle(p, q)),
                (p - q, sum_oracle(p, -q)),
                (q - p - q, sum_oracle(-p)),
                (p - p, {}),
                (-p, {e: -c for e, c in p.terms.items()}),
                (p * q, product_oracle(p, q)),
                (p * scalar, {e: c * scalar for e, c in p.terms.items() if scalar}),
                (k * q, {e: c * k for e, c in q.terms.items() if k}),
                (p * 0, {}),
                (p ** 2, product_oracle(p, p)),
                (q ** 0, {(0,) * 5: Fraction(1)}),
            ]
            for name in ("x", "a", "g"):
                cases.append((p.derivative(name), derivative_oracle(p, name)))
            for got, want in cases:
                assert assert_primitive(got).terms == want
            if q.is_zero():
                continue
            for dividend in (p * q, p + 1, p * q + 1, p * 0):
                got = dividend.try_div(q)
                want = div_oracle(dividend, q)
                assert (got is None) == (want is None)
                if got is not None:
                    assert assert_primitive(got).terms == want
            assert (p * q).exact_div(q) == p

    def test_equality_and_hash_follow_the_value(self):
        x, y, g = sym("x"), sym("y"), sym("g")
        built = (Fraction(2, 3) * x - 4) * (y + Fraction(1, 2)) + g
        stored = MultiPoly(TABLE, dict(built.terms))
        assert stored == built and hash(stored) == hash(built)
        assert stored.ints == built.ints
        assert (stored.cn, stored.cd) == (built.cn, built.cd) == (1, 3)
        assert 3 * built != built and -built != built
        assert len({built, stored, built + 0, 2 * built * Fraction(1, 2)}) == 1
        assert MultiPoly(TABLE, {}) == const(0) == sym("x") - sym("x")
        assert hash(MultiPoly(TABLE, {})) == hash(const(0))

    def test_scalar_product_moves_only_the_content(self):
        p = 6 * sym("x") ** 2 - 9 * sym("y")
        assert p.ints == {(2, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): -3}
        assert (p.cn, p.cd) == (3, 1)
        q = p * Fraction(-5, 12)
        assert q.ints == {e: -c for e, c in p.ints.items()}
        assert (q.cn, q.cd) == (5, 4)

    def test_try_div_over_the_integers(self):
        x, y = sym("x"), sym("y")
        # the leading coefficient 1 of x + 1 is not a multiple of 2
        assert (x + 1).try_div(2 * x + 1) is None
        assert (x * y + 1).try_div(2 * x + 1) is None
        # the same divisor, over rational contents, divides exactly
        half = x + Fraction(1, 2)
        assert (half * (x + 3)).try_div(2 * x + 1) == Fraction(1, 2) * (x + 3)
        assert (Fraction(4, 3) * half * (y - x)).exact_div(half) == Fraction(4, 3) * (y - x)

    def test_try_div_of_zero_is_the_canonical_zero(self):
        x, y, g = sym("x"), sym("y"), sym("g")
        zero = MultiPoly.zero(TABLE)
        for divisor in (2 * x, Fraction(1, 3) * y, 3 * x + 6 * g, const(Fraction(5, 7))):
            got = assert_primitive(zero.try_div(divisor))
            assert got == zero and hash(got) == hash(zero)
        assert const(0).exact_div(Fraction(1, 3) * y) == 0

    def test_try_div_by_a_non_monic_divisor_stays_exact(self):
        # B = 2x + 1 + g and Q = 2x^2 + 1 + g are primitive, so by Gauss's
        # lemma B*Q is too: its trial division by B meets no proper
        # fraction, and the quotient takes its content from the contents
        x, g = sym("x"), sym("g")
        b = Fraction(1, 3) * (2 * x + 1 + g)
        q = Fraction(5, 2) * (2 * x ** 2 + 1 + g)
        product = b * q
        assert (product.cn, product.cd) == (5, 6)
        assert product.try_div(b) == q
        assert product.try_div(b).terms == div_oracle(product, b)
        primitive = MultiPoly.from_ints(TABLE, dict(product.ints))
        assert primitive.try_div(b) == Fraction(6, 5) * q
        assert (x + g).try_div(2 * x + g) == div_oracle(x + g, 2 * x + g) is None

    def test_mod_p_reads_the_content(self):
        x, y = sym("x"), sym("y")
        point = _points(TABLE.nvars)
        assert _mod_p(y + Fraction(1, _P), point) is None
        assert _mod_p(Fraction(1, 2 * _P) * x, point) is None
        assert _mod_p(const(0), point) == 0
        p = Fraction(7, 3) * x ** 2 - Fraction(5, 6) * y
        want = p.evaluate({s: v for s, v in zip(TABLE.symbols, point)})
        assert _mod_p(p, point) == want.numerator * pow(want.denominator, -1, _P) % _P

    @pytest.mark.parametrize("exps", [(1, 0, 0, 0), (1, 0, 0, 0, 0, 0)])
    def test_constructors_refuse_exponents_of_the_wrong_length(self, exps):
        # a tuple that does not have one entry per symbol is refused at
        # construction, not met later as an IndexError inside arithmetic
        with pytest.raises(ValueError, match="5 symbols"):
            MultiPoly(TABLE, {exps: 1})
        with pytest.raises(ValueError, match="5 symbols"):
            MultiPoly.from_ints(TABLE, {(0,) * 5: 1, exps: 2}, 1, 3)
        with pytest.raises(ValueError):
            MultiPoly.monomial(TABLE, exps)

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
        point = {"x": Fraction(3), "y": 0, "h": 1, "a": Fraction(1), "g": 0}
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
                         for s in ("x", "y", "h", "g")}
                point["a"] = point["x"] + 5
                n, d = num.evaluate(point), den_poly.evaluate(point)
                dn = num.derivative(name).evaluate(point)
                dd = den_poly.derivative(name).evaluate(point)
                assert got.evaluate(point) == (dn * d - n * dd) / d ** 2

    @pytest.mark.parametrize("seed", range(3))
    def test_derivative_equals_a_full_build(self, seed):
        # the derivative skips the atom test for atoms that hold the
        # variable; a full build of the quotient rule tests every atom
        rng = random.Random(seed)
        seen = 0
        while seen < 12:
            mult = [rng.randint(0, 2) for _ in TABLE.atoms]
            num = random_poly(rng, rng.randint(1, 3), 5)
            num = num * MultiPoly.atom_product(TABLE, tuple(mult))
            value = PolyFraction(num, tuple(rng.randint(0, 2) for _ in TABLE.atoms))
            if not any(value.den):
                continue
            seen += 1
            den_poly = MultiPoly.atom_product(TABLE, value.den)
            for name in ("x", "y", "a"):
                got = value.derivative(name)
                full = PolyFraction(
                    value.num.derivative(name) * den_poly
                    - value.num * den_poly.derivative(name),
                    tuple(2 * e for e in value.den),
                )
                assert got.den == full.den
                assert got.num == full.num

    def test_derivative_still_tests_atoms_free_of_the_variable(self):
        x, y, a = sym("x"), sym("y"), sym("a")
        # d/dy of (y(x-a) + 1)/(x-a) is 1: x-a divides the new numerator
        value = PolyFraction(y * (x - a) + 1, (0, 1, 0))
        assert value.den == (0, 1, 0)
        assert value.derivative("y") == PolyFraction(const(1))
        assert value.derivative("y").den == (0, 0, 0)
        # d/dx of (a x + 1)/a is 1: a divides the new numerator
        value = PolyFraction(a * x + 1, (1, 0, 0))
        assert value.derivative("x").den == (0, 0, 0)
        assert value.derivative("x") == PolyFraction(const(1))

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


# --- evaluation at rational points -----------------------------------------

RATIONAL_VALUES = st.one_of(
    st.sampled_from([0, Fraction(0), 1, -1]),
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)


def evaluate_oracle(p, values):
    """Term-by-term Fraction sum of p at values."""
    total = Fraction(0)
    for exps, c in p.terms.items():
        term = c
        for name, e in zip(TABLE.symbols, exps):
            term *= Fraction(values[name]) ** e
        total += term
    return total


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    values=st.fixed_dictionaries({s: RATIONAL_VALUES for s in TABLE.symbols}),
)
def test_rational_evaluate_matches_the_term_by_term_sum(seed, values):
    rng = random.Random(seed)
    p = random_poly(rng, rng.randint(0, 8), rng.choice((1, 7, 10 ** 6)))
    got = p.evaluate(values)
    assert type(got) is Fraction
    assert got == evaluate_oracle(p, values)
    # through PolyFraction over (x - a)^2 (x + a); random p cancels no atom
    x, a = Fraction(values["x"]), Fraction(values["a"])
    f = PolyFraction(p, (0, 2, 1))
    assert f.den == ((0, 0, 0) if p.is_zero() else (0, 2, 1))
    atoms = [v ** e for v, e in zip((a, x - a, x + a), f.den) if e]
    if 0 in atoms:
        with pytest.raises(PoleError):
            f.evaluate(values)
    else:
        assert f.evaluate(values) == got / math.prod(atoms)


def test_evaluate_of_other_values_keeps_the_ring_of_the_values():
    x, y = sym("x"), sym("y")
    p = 3 * x ** 2 * y - Fraction(1, 2) * y + 5
    point = {"x": 0.5, "y": -2.0, "h": 0, "a": 0, "g": 0}
    got = p.evaluate(point)
    assert type(got) is float
    assert got == 3 * 0.25 * -2.0 - 0.5 * -2.0 + 5
    # a polynomial value substitutes: p(x + 1, y) at h = a = g = 0
    shifted = p.evaluate({"x": x + 1, "y": y, "h": 0, "a": 0, "g": 0})
    assert shifted == 3 * (x + 1) ** 2 * y - Fraction(1, 2) * y + 5
