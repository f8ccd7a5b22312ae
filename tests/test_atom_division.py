"""Atom cancellation in PolyFraction against generic trial division.

The oracle is the plain loop that divides the numerator by each atom
with MultiPoly.try_div until it fails; PolyFraction must reach the same
numerator (terms in the same order), the same exponents and the same
text on random numerators built from random polynomials times random
atom powers.
"""

import random
from fractions import Fraction

import pytest

from cubicalg.algebra import master_table
from cubicalg.exactnum import MultiPoly, PolyFraction, SymbolTable
from cubicalg.exactnum.polyfraction import _P, _div_atom, _point, _residue
from cubicalg.weylop import q5_symbol_table

TABLES = {"q5": q5_symbol_table(), "master": master_table()}


def oracle_cancel(num, den):
    """Cancel atoms by repeated generic trial division."""
    if num.is_zero():
        return num, (0,) * len(den)
    den = list(den)
    for k in range(len(den)):
        atom = MultiPoly.from_atom(num.table, k)
        while den[k] > 0:
            quotient = num.try_div(atom)
            if quotient is None:
                break
            num = quotient
            den[k] -= 1
    return num, tuple(den)


def random_poly(rng, table):
    out = MultiPoly.zero(table)
    for _ in range(rng.randint(1, 4)):
        exps = [rng.randint(0, 2) for _ in range(table.nvars)]
        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        out = out + MultiPoly.monomial(table, exps, coeff)
    return out


def atom_product(table, exps):
    out = MultiPoly.const(table, 1)
    for k, e in enumerate(exps):
        out = out * MultiPoly.from_atom(table, k) ** e
    return out


def assert_matches_oracle(num, den):
    value = PolyFraction(num, den)
    want_num, want_den = oracle_cancel(num, den)
    assert list(value.num.terms.items()) == list(want_num.terms.items())
    assert value.den == want_den
    assert value.format() == PolyFraction(want_num, want_den).format()
    return value


@pytest.mark.parametrize("name", sorted(TABLES))
def test_cancel_matches_trial_division(name):
    table = TABLES[name]
    rng = random.Random(2007)
    for _ in range(300):
        mult = [rng.randint(0, 3) for _ in table.atoms]
        num = random_poly(rng, table) * atom_product(table, mult)
        den = tuple(rng.randint(0, 3) for _ in table.atoms)
        assert_matches_oracle(num, den)


def test_denominator_divisible_by_p_skips_the_filter():
    table = TABLES["q5"]
    x, y, a = (MultiPoly.sym(table, n) for n in ("x", "y", "a"))
    k = table.atom_index("x-a")
    x_at_a = table.atoms[k].root
    coprime = y + Fraction(1, 3)
    tiny = y + Fraction(1, _P)
    assert _residue(x * coprime, table.index("x"), x_at_a) != 0
    # the residue is undefined, so the filter must not reject
    assert _residue(x * tiny, table.index("x"), x_at_a) == 0
    assert _div_atom(x * tiny, k) is None
    assert _div_atom((x - a) * tiny, k) == tiny
    assert_matches_oracle(x * tiny, (0, 2, 0))
    assert_matches_oracle((x - a) ** 2 * tiny, (0, 3, 0))


def test_synthetic_division_decides_when_the_residue_vanishes():
    table = TABLES["q5"]
    x, y, a = (MultiPoly.sym(table, n) for n in ("x", "y", "a"))
    k = table.atom_index("x-a")
    # at x := a this is y - c, zero at the filter's point y = c only
    num = (x - a) * y + y - _point(table.index("y"))
    assert _residue(num, table.index("x"), table.atoms[k].root) == 0
    assert _div_atom(num, k) is None
    value = assert_matches_oracle(num, (0, 1, 0))
    assert value.den == (0, 1, 0)


def test_atom_with_a_coefficient_that_is_not_an_integer_is_refused():
    for atom in (("x-a/2", {"x": 1, "a": Fraction(-1, 2)}),
                 ("x+1/3", {"x": 1}, Fraction(1, 3))):
        with pytest.raises(ValueError):
            SymbolTable(("x", "a"), atoms=(atom,))
    table = SymbolTable(("x", "a"), atoms=(("x-2a", {"x": 1, "a": Fraction(-2)}),))
    assert table.atoms[0].root == [(1, 2)]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_invert_rational_times_atom_powers(name):
    table = TABLES[name]
    rng = random.Random(61)
    one = PolyFraction.const(table, 1)
    for _ in range(40):
        mult = [rng.randint(0, 3) for _ in table.atoms]
        den = [rng.randint(0, 3) for _ in table.atoms]
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        value = PolyFraction(atom_product(table, mult) * scale, tuple(den))
        inv = value.invert()
        common = [min(m, d) for m, d in zip(mult, den)]
        assert inv.den == tuple(m - c for m, c in zip(mult, common))
        want = atom_product(table, [d - c for d, c in zip(den, common)]) * (1 / scale)
        assert inv.num == want
        assert inv.format() == PolyFraction(want, inv.den).format()
        assert value * inv == one


@pytest.mark.parametrize("name", sorted(TABLES))
def test_negation_keeps_the_canonical_form(name):
    # __neg__ skips the atom tests: it must give what a full build of
    # -num over the same denominator gives
    table = TABLES[name]
    rng = random.Random(4)
    seen = 0
    while seen < 60:
        mult = [rng.randint(0, 3) for _ in table.atoms]
        num = random_poly(rng, table) * atom_product(table, mult)
        value = PolyFraction(num, tuple(rng.randint(0, 3) for _ in table.atoms))
        if not any(value.den):
            continue
        seen += 1
        neg = -value
        built = PolyFraction(-value.num, value.den)
        assert list(neg.num.terms.items()) == list(built.num.terms.items())
        assert neg.den == built.den == value.den
        assert neg.table is value.table
        assert neg + value == PolyFraction.const(table, 0)
