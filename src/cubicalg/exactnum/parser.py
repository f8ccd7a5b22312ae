"""Expression parser producing PolyFraction values.

Grammar:

    expr    = ["+" | "-"] term { ("+" | "-") term }
    term    = factor { ("*" | "/") factor }
    factor  = base [ "^" uint ]
    base    = uint | symbol | "(" expr ")"

Numbers are unsigned integers; rationals arise through "/".  Symbol
names come from the table.  Division is exact fraction arithmetic, so a
divisor must reduce to a rational times a product of the table's
denominator atoms.  The printers on MultiPoly and PolyFraction emit
strings this grammar accepts, and parsing such output reproduces the
original value.

Parsing is bounded, so no text hangs it or exhausts the stack:
parentheses nest at most MAX_DEPTH deep, an integer has at most
MAX_BITS bits, and a product that could exceed MAX_TERMS terms,
MAX_BITS bits or degree MAX_DEGREE is refused before it is computed.
"/" multiplies by the inverse and "^" squares repeatedly, so each of
their steps is such a product; a sum is checked once formed.  Every
violation is a ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm

from .errors import ExactDivisionError, ParseError
from .multipoly import MultiPoly
from .polyfraction import PolyFraction

MAX_DEPTH = 100
MAX_TERMS = 4096
MAX_BITS = 4096
MAX_DEGREE = 256
MAX_DIGITS = 1234  # no integer of MAX_BITS bits has more digits

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()^*/+-]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % text[pos:].lstrip()[0],
                             len(text) - len(stripped))
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _size(value):
    """(terms, bits, degree).

    bits is that of the integer coefficients over their least common
    denominator, or of that denominator; degree is the numerator's, or
    the sum of the denominator atom exponents.
    """
    coeffs = value.num.terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    top = max((abs(c.numerator) * (den // c.denominator) for c in coeffs),
              default=0)
    degree = max(map(sum, value.num.terms), default=0)
    return len(coeffs), max(top, den).bit_length(), max(degree, sum(value.den))


def _check(what, pos, terms, bits, degree):
    if terms > MAX_TERMS or bits > MAX_BITS or degree > MAX_DEGREE:
        raise ParseError("%s could exceed %d terms, %d bits or degree %d"
                         % (what, MAX_TERMS, MAX_BITS, MAX_DEGREE), pos)


def _integer(text, pos):
    if len(text) > MAX_DIGITS or int(text).bit_length() > MAX_BITS:
        raise ParseError("integer over %d bits" % MAX_BITS, pos)
    return int(text)


def _symbols(value):
    """Symbols in the numerator or in an atom of the denominator."""
    used = set()
    for exps in value.num.terms:
        used.update(j for j, e in enumerate(exps) if e)
    for k, e in enumerate(value.den):
        if e:
            used.update(j for j, _ in value.table.atoms[k].terms)
    return used


def _product(a, b, pos):
    """a * b; each coefficient over the common denominators is a sum of
    at most min(terms) products of integers.

    The product has at most terms(a) * terms(b) terms, and no more than
    the C(v + d, v) monomials of degree <= d in its v symbols, d being
    the summed degree; cancelling a denominator atom uses only the
    atom's symbols and lowers the degree."""
    (ta, ba, ga), (tb, bb, gb) = _size(a), _size(b)
    v, d = len(_symbols(a) | _symbols(b)), ga + gb
    terms = min(ta * tb, comb(v + d, v))
    _check("product", pos, terms, ba + bb + (min(ta, tb) - 1).bit_length(),
           ga + gb)
    return a * b


def _power(base, n, pos):
    """base ** n by repeated squaring."""
    out = PolyFraction.const(base.table, 1)
    while n:
        if n & 1:
            out = _product(out, base, pos)
        n >>= 1
        if n:
            base = _product(base, base, pos)
    return out


class _Parser:
    def __init__(self, text, table):
        self.text = text
        self.table = table
        self.tokens = _tokenize(text)
        self.cursor = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.cursor]

    def advance(self):
        tok = self.tokens[self.cursor]
        self.cursor += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError("expected %r" % symbol, pos)
        return self.advance()

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self):
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            negate = value == "-"
            self.advance()
        total = self.term()
        if negate:
            total = -total
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                total = total - rhs if value == "-" else total + rhs
                _check("sum", pos, *_size(total))
            else:
                return total

    def term(self):
        total = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                if value == "/":
                    try:
                        rhs = rhs.invert()
                    except (ExactDivisionError, ZeroDivisionError) as exc:
                        raise ParseError(str(exc), pos) from None
                total = _product(total, rhs, pos)
            else:
                return total

    def factor(self):
        base = self.base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise ParseError("exponent must be an unsigned integer", pos)
            self.advance()
            base = _power(base, _integer(value, pos), pos)
        return base

    def base(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return PolyFraction.const(self.table, Fraction(_integer(value, pos)))
        if kind == "name":
            if value not in self.table.symbols:
                raise ParseError("unknown symbol %r" % value, pos)
            return PolyFraction(MultiPoly.sym(self.table, value))
        if kind == "op" and value == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError("nesting deeper than %d" % MAX_DEPTH, pos)
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a number, symbol, or parenthesis", pos)


def parse(text, table):
    """Parse expression text into a PolyFraction over the table."""
    return _Parser(text, table).parse()
