"""Expression grammar, errors, and printer round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicalg.exactnum import (
    MultiPoly,
    ParseError,
    PolyFraction,
    SymbolTable,
    parse,
)
from cubicalg.exactnum import parser

TABLE = SymbolTable(
    ("E", "h", "a", "u", "p", "x"),
    atoms=("h", "a"),
)

WTABLE = SymbolTable(
    ("x", "y", "h", "a", "g"),
    atoms=("a", ("x-a", {"x": 1, "a": -1}), ("x+a", {"x": 1, "a": 1})),
)


def mono(table, name):
    return PolyFraction(MultiPoly.sym(table, name))


class TestGrammar:
    def test_numbers_and_rationals(self):
        assert parse("15/4", TABLE) == PolyFraction.const(TABLE, Fraction(15, 4))
        assert parse("-3/2", TABLE) == PolyFraction.const(TABLE, Fraction(-3, 2))

    def test_left_to_right_term_chain(self):
        # 3/4*x parses as (3/4)*x, not 3/(4*x)
        x = mono(TABLE, "x")
        assert parse("3/4*x", TABLE) == Fraction(3, 4) * x

    def test_precedence_and_parens(self):
        E, h, a = (mono(TABLE, s) for s in "Eha")
        got = parse("-48*h^2*E + 48*h^4/a^2", TABLE)
        expected = -48 * h ** 2 * E + 48 * h ** 4 * a ** -2
        assert got == expected

    def test_power_binds_tightest(self):
        h = mono(TABLE, "h")
        assert parse("2*h^3", TABLE) == 2 * h ** 3

    def test_atom_division(self):
        x, a = mono(WTABLE, "x"), mono(WTABLE, "a")
        got = parse("6*(x^2+a^2)/(x^2-a^2)^2", WTABLE)
        expected = 6 * (x ** 2 + a ** 2) / ((x ** 2 - a ** 2) ** 2)
        assert got == expected

    def test_unary_minus_applies_to_first_term(self):
        x, y = mono(WTABLE, "x"), mono(WTABLE, "y")
        assert parse("-x^2+y", WTABLE) == -(x ** 2) + y


class TestErrors:
    def test_unknown_symbol_offset(self):
        with pytest.raises(ParseError) as info:
            parse("x + q", TABLE)
        assert info.value.position == 4

    def test_illegal_division(self):
        with pytest.raises(ParseError):
            parse("1/(x+1)", TABLE)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x 3", TABLE)

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse("x^-2", TABLE)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("x + $", TABLE)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(x + 1", TABLE)


class TestRoundTrip:
    CASES = [
        "x",
        "-x",
        "15/4",
        "-4*h^6/a^4",
        "x^2 - 2*x + 1",
        "(x + a)/a/(x-a)",
        "3/4*x*y - 1/2",
        "x^3*y^2 + x*y + y",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_format_parse(self, text):
        table = WTABLE
        first = parse(text, table)
        second = parse(first.format(), table)
        assert first == second

    def test_format_of_parsed_canonical(self):
        v = parse("(a + x)/(x-a)/a", WTABLE)
        assert parse(v.format(), WTABLE) == v


class TestBounds:
    def test_huge_exponent_is_refused(self):
        with pytest.raises(ParseError):
            parse("2^" + "9" * 3000, TABLE)

    def test_power_past_the_term_bound_is_refused(self):
        with pytest.raises(ParseError) as info:
            parse("(E + 1)^100000000", TABLE)
        assert info.value.position == 8

    def test_deep_nesting_is_refused(self):
        with pytest.raises(ParseError):
            parse("(" * 3000 + "1" + ")" * 3000, TABLE)
        depth = parser.MAX_DEPTH
        assert parse("(" * depth + "x" + ")" * depth, TABLE) == mono(TABLE, "x")

    def test_long_integer_is_refused(self):
        with pytest.raises(ParseError):
            parse("7" * (parser.MAX_DIGITS + 1), TABLE)
        with pytest.raises(ParseError):
            parse("2^%d" % parser.MAX_BITS, TABLE)

    def test_product_bound_counts_monomials_not_term_pairs(self):
        # 166 terms squared is over MAX_TERMS, but the square has at most
        # C(3 + 18, 3) = 1330 monomials in E, h and a
        text = "((E + h + a + 1)^8 + 1/h)^2"
        value = parse(text, TABLE)
        assert len(value.num.terms) <= 1330
        assert value.den == (2, 0)
        assert parse(value.format(), TABLE) == value

    def test_values_within_the_bounds_parse(self):
        assert len(parse("(E + 1)^100", TABLE).num.terms) == 101
        assert parse("1^" + "9" * 1000, TABLE) == PolyFraction.const(TABLE, 1)
        assert parse("2^%d" % (parser.MAX_BITS // 2 - 1), TABLE) == (
            PolyFraction.const(TABLE, 2 ** (parser.MAX_BITS // 2 - 1)))


# Fuzzing: every text ends in a value or a ParseError, and every value
# prints to text that parses back to it.  Small exponents keep the
# generated values well inside the size bounds.
ALPHABET = "0123456789 Ehaupxyg()^*/+-"
FUZZ = settings(max_examples=300, deadline=2000)


def expressions():
    leaves = st.one_of(
        st.integers(0, 10 ** 6).map(str),
        st.sampled_from(("E", "h", "a", "u", "p", "x", "y", "g")),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
            inner.map("({})".format),
            inner.map("-({})".format),
            st.tuples(inner, st.integers(0, 5)).map(lambda t: "(%s)^%d" % t),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def parsed_or_refused(text, table):
    try:
        value = parse(text, table)
    except ParseError:
        return None
    assert isinstance(value, PolyFraction)
    assert parse(value.format(), table) == value
    return value


@FUZZ
@given(st.text(ALPHABET, max_size=40), st.sampled_from((TABLE, WTABLE)))
def test_fuzz_text_over_the_alphabet(text, table):
    parsed_or_refused(text, table)


@FUZZ
@given(expressions(), st.sampled_from((TABLE, WTABLE)))
def test_fuzz_grammar_expressions_round_trip(text, table):
    parsed_or_refused(text, table)
