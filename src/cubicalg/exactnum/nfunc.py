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


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _horner(coeffs, point):
    """Evaluate a PolyFraction-coefficient polynomial at a rational."""
    if not coeffs:
        return None
    out = None
    for c in reversed(coeffs):
        out = c if out is None else out * point + c
    return out


def _syndiv(coeffs, root):
    """Quotient of an exact division by (nu - root)."""
    out = [None] * (len(coeffs) - 1)
    carry = None
    for k in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[k] if carry is None else carry * root + coeffs[k]
        out[k - 1] = carry
    return out


def _expand_den(items):
    """Expand prod (nu - r)^m into a Fraction coefficient list."""
    out = [Fraction(1)]
    for root, mult in items:
        for _ in range(mult):
            out = upoly.mul(out, [-root, Fraction(1)])
    return out


def _convolve(a, b):
    """Product of PolyFraction-list and Fraction-or-PolyFraction-list."""
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            piece = ca * cb
            out[i + j] = piece if out[i + j] is None else out[i + j] + piece
    return out


class NFunc:
    __slots__ = ("table", "num", "den")

    def __init__(self, table, num, den=()):
        self.table = table
        num = [self._lift(table, c) for c in num]
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
    def _lift(table, value):
        if isinstance(value, PolyFraction):
            check_same(table, value.table)
            return value
        if isinstance(value, MultiPoly):
            check_same(table, value.table)
            return PolyFraction(value)
        if isinstance(value, (int, Fraction)):
            return PolyFraction.const(table, value)
        raise TypeError("cannot use %r as a coefficient" % (value,))

    @staticmethod
    def _reduce(num, den):
        num = _trim(num)
        if not num:
            return [], []
        out = []
        for root, mult in den:
            while mult > 0:
                value = _horner(num, root)
                if value is None or not value.is_zero():
                    break
                num = _syndiv(num, root)
                mult -= 1
            if mult:
                out.append((root, mult))
            if not num:
                return [], []
        return num, out

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

    def coefficient(self, k):
        if k < len(self.num):
            return self.num[k]
        return PolyFraction.const(self.table, 0)

    def coefficients(self):
        if self.den:
            raise ValueError("value is not polynomial: %s" % self.format())
        return list(self.num)

    def _coerce(self, other):
        if isinstance(other, NFunc):
            check_same(self.table, other.table)
            return other
        if isinstance(other, (int, Fraction, MultiPoly, PolyFraction)):
            return NFunc(self.table, [other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        mine = dict(self.den)
        theirs = dict(other.den)
        union = sorted(
            (r, max(mine.get(r, 0), theirs.get(r, 0)))
            for r in set(mine) | set(theirs)
        )
        lift_self = _expand_den(
            [(r, m - mine.get(r, 0)) for r, m in union if m > mine.get(r, 0)]
        )
        lift_other = _expand_den(
            [(r, m - theirs.get(r, 0)) for r, m in union if m > theirs.get(r, 0)]
        )
        a = _convolve(list(self.num), lift_self)
        b = _convolve(list(other.num), lift_other)
        n = max(len(a), len(b))
        zero = PolyFraction.const(self.table, 0)
        total = [
            (a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero)
            for i in range(n)
        ]
        return NFunc(self.table, total, union)

    __radd__ = __add__

    def __neg__(self):
        return NFunc(self.table, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        num = _convolve(list(self.num), list(other.num))
        return NFunc(self.table, num, list(self.den) + list(other.den))

    __rmul__ = __mul__

    def invert(self):
        if not self.num:
            raise ZeroDivisionError("inverting zero")
        lead = self.num[-1]
        inv_lead = lead.invert()
        den_expanded = [c * inv_lead for c in _expand_den(self.den)]
        if len(self.num) == 1:
            return NFunc(self.table, den_expanded)
        monic = [c * inv_lead for c in self.num]
        rational = []
        for c in monic:
            if not c.is_rational():
                raise ExactDivisionError(
                    "cannot invert %s: non-rational coefficient ratio"
                    % self.format()
                )
            rational.append(c.as_fraction())
        roots = upoly.rational_roots(rational)
        if sum(m for _, m in roots) != len(rational) - 1:
            raise ExactDivisionError(
                "cannot invert %s: numerator does not split over the rationals"
                % self.format()
            )
        return NFunc(self.table, den_expanded, roots)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.invert()

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.invert() ** (-n)
        out = NFunc.const(self.table, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a = _convolve(list(self.num), _expand_den(other.den))
        b = _convolve(list(other.num), _expand_den(self.den))
        a, b = _trim(a), _trim(b)
        if len(a) != len(b):
            return False
        return all(x == y for x, y in zip(a, b))

    def __hash__(self):
        return hash((self.num, self.den))

    def shift(self, s):
        """Substitute nu -> nu + s for rational s."""
        s = Fraction(s)
        if not self.num:
            return self
        num = [self.num[-1]]
        for c in reversed(self.num[:-1]):
            num = _convolve(num, [s, Fraction(1)])
            num[0] = num[0] + c
        den = [(r - s, m) for r, m in self.den]
        return NFunc(self.table, num, den)

    def evaluate(self, point):
        """Value at rational nu, as a PolyFraction."""
        point = Fraction(point)
        for r, m in self.den:
            if r == point and m:
                raise PoleError("nu = %s is a pole" % (point,))
        value = _horner(list(self.num), point)
        if value is None:
            return PolyFraction.const(self.table, 0)
        scale = Fraction(1)
        for r, m in self.den:
            scale = scale * (point - r) ** m
        return value * (1 / scale)

    def format(self, var="nu"):
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
                bits.append("(%s)*%s" % (c.format(), var))
            else:
                bits.append("(%s)*%s^%d" % (c.format(), var, k))
        text = " + ".join(bits)
        if not self.den:
            return text
        dparts = []
        for r, m in self.den:
            base = var if r == 0 else "(%s - %s)" % (var, r) if r > 0 else "(%s + %s)" % (var, -r)
            dparts.append(base if m == 1 else "%s^%d" % (base, m))
        return "(%s) / (%s)" % (text, "*".join(dparts))

    __str__ = format

    def __repr__(self):
        return "NFunc(%s)" % self.format()
