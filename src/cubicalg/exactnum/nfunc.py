"""Rational functions of one level variable nu over PolyFraction scalars.

Values have the shape N(nu) / prod (nu - r_j)^m_j where N has
PolyFraction coefficients and every denominator root r_j is rational.
That restriction makes cancellation decidable by synthetic division, and
it covers every denominator the oscillator realizations produce.
"""

from __future__ import annotations

from fractions import Fraction

from . import upoly
from .errors import ExactDivisionError, PoleError
from .multipoly import MultiPoly
from .polyfraction import PolyFraction
from .symbols import check_same


def _expand_den(items):
    """Expand prod (nu - r)^m into a Fraction coefficient list."""
    out = [Fraction(1)]
    for root, mult in items:
        for _ in range(mult):
            out = upoly.mul(out, [-root, Fraction(1)])
    return out


def _nfunc_operand(method):
    """Coerce the other operand to an NFunc, or decline its type."""

    def wrapper(self, other):
        if not isinstance(other, (NFunc, int, Fraction, MultiPoly, PolyFraction)):
            return NotImplemented
        return method(self, NFunc.coerce(self.table, other))

    return wrapper


class NFunc:
    __slots__ = ("table", "num", "den")

    def __init__(self, table, num, den=()):
        self.table = table
        lifted = [PolyFraction.coerce(table, c) for c in num]
        if any(c is None for c in lifted):
            raise TypeError("cannot use %r as coefficients" % (num,))
        num = lifted
        den = [(Fraction(r), int(m)) for r, m in den if m]
        if any(m < 0 for _, m in den):
            raise ValueError("negative denominator multiplicity")
        merged = {}
        for r, m in den:
            merged[r] = merged.get(r, 0) + m
        den = sorted(merged.items())
        num, den = self._reduce(num, den)
        self.num = tuple(num)
        self.den = tuple(den)

    @staticmethod
    def _reduce(num, den):
        num = upoly.trim(num)
        if not num:
            return [], []
        out = []
        for root, mult in den:
            num, removed = upoly.divide_out(num, root, mult)
            if mult > removed:
                out.append((root, mult - removed))
        return num, out

    @classmethod
    def coerce(cls, table, value):
        """value as an NFunc over table; a scalar becomes a constant."""
        if isinstance(value, NFunc):
            check_same(table, value.table)
            return value
        return cls(table, [value])

    @classmethod
    def const(cls, table, value):
        return cls(table, [value])

    @classmethod
    def nu(cls, table):
        return cls(table, [0, 1])

    @classmethod
    def from_coeffs(cls, table, coeffs):
        return cls(table, list(coeffs))

    def is_zero(self):
        return not self.num

    def is_polynomial(self):
        return not self.den

    def degree(self):
        """Numerator degree; meaningful as the degree when polynomial."""
        return len(self.num) - 1

    def coefficients(self):
        if self.den:
            raise ValueError("value is not polynomial: %s" % self.format())
        return list(self.num)

    @_nfunc_operand
    def __add__(self, other):
        mine, theirs = dict(self.den), dict(other.den)
        union = {r: max(mine.get(r, 0), theirs.get(r, 0))
                 for r in mine.keys() | theirs.keys()}
        a = upoly.mul(self.num, _expand_den(
            (r, m - mine.get(r, 0)) for r, m in union.items()))
        b = upoly.mul(other.num, _expand_den(
            (r, m - theirs.get(r, 0)) for r, m in union.items()))
        return NFunc(self.table, upoly.add(a, b), union.items())

    __radd__ = __add__

    def __neg__(self):
        return NFunc(self.table, upoly.scale(self.num, -1), self.den)

    @_nfunc_operand
    def __sub__(self, other):
        return self + (-other)

    @_nfunc_operand
    def __rsub__(self, other):
        return other + (-self)

    @_nfunc_operand
    def __mul__(self, other):
        num = upoly.mul(self.num, other.num)
        return NFunc(self.table, num, list(self.den) + list(other.den))

    __rmul__ = __mul__

    def invert(self):
        if not self.num:
            raise ZeroDivisionError("inverting zero")
        lead = self.num[-1]
        inv_lead = lead.invert()
        den_expanded = upoly.scale(_expand_den(self.den), inv_lead)
        if len(self.num) == 1:
            return NFunc(self.table, den_expanded)
        try:
            rational = [c.as_fraction() for c in upoly.scale(self.num, inv_lead)]
        except ValueError:
            raise ExactDivisionError(
                "cannot invert %s: non-rational coefficient ratio" % self.format()
            ) from None
        roots = upoly.rational_roots(rational)
        if sum(m for _, m in roots) != len(rational) - 1:
            raise ExactDivisionError(
                "cannot invert %s: numerator does not split over the rationals"
                % self.format()
            )
        return NFunc(self.table, den_expanded, roots)

    @_nfunc_operand
    def __truediv__(self, other):
        return self * other.invert()

    @_nfunc_operand
    def __rtruediv__(self, other):
        return other * self.invert()

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.invert() ** (-n)
        out = NFunc.const(self.table, 1)
        for _ in range(n):
            out = out * self
        return out

    @_nfunc_operand
    def __eq__(self, other):
        a = upoly.mul(self.num, _expand_den(other.den))
        b = upoly.mul(other.num, _expand_den(self.den))
        if len(a) != len(b):
            return False
        return all(x == y for x, y in zip(a, b))

    def __hash__(self):
        return hash((self.num, self.den))

    def shift(self, s):
        """Substitute nu -> nu + s.

        s is rational, or any scalar (a PolyFraction, say) when the
        value is polynomial.
        """
        if isinstance(s, (MultiPoly, PolyFraction)):
            if self.den:
                raise ValueError("shift by a scalar needs a polynomial value")
            den = ()
        else:
            s = Fraction(s)
            den = [(r - s, m) for r, m in self.den]
        return NFunc(self.table, upoly.shift(self.num, s), den)

    def evaluate(self, point):
        """Value at rational nu, as a PolyFraction."""
        point = Fraction(point)
        for r, m in self.den:
            if r == point and m:
                raise PoleError("nu = %s is a pole" % (point,))
        if not self.num:
            return PolyFraction.const(self.table, 0)
        value = upoly.evaluate(self.num, point)
        scale = Fraction(1)
        for r, m in self.den:
            scale = scale * (point - r) ** m
        return value * (1 / scale)

    def format(self):
        if not self.num:
            return "0"
        bits = []
        for k in range(len(self.num) - 1, -1, -1):
            c = self.num[k]
            if c.is_zero():
                continue
            if k == 0:
                bits.append("(%s)" % c.format())
            elif k == 1:
                bits.append("(%s)*nu" % c.format())
            else:
                bits.append("(%s)*nu^%d" % (c.format(), k))
        text = " + ".join(bits)
        if not self.den:
            return text
        dparts = []
        for r, m in self.den:
            base = "nu" if r == 0 else "(nu - %s)" % r if r > 0 else "(nu + %s)" % -r
            dparts.append(base if m == 1 else "%s^%d" % (base, m))
        return "(%s) / (%s)" % (text, "*".join(dparts))

    __str__ = format

    def __repr__(self):
        return "NFunc(%s)" % self.format()
