"""Polynomials divided by powers of the table's denominator atoms.

A value is num / prod(atom_k ** e_k) where num is a MultiPoly and the
denominator exponents are nonnegative integers, one per declared atom.
The form is canonical: whenever an exponent is positive the numerator is
not divisible by that atom.  General division is only defined when the
divisor's numerator reduces to a rational times a product of atoms.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import ExactDivisionError, PoleError
from .multipoly import MultiPoly
from .symbols import check_same


class PolyFraction:
    __slots__ = ("table", "num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, MultiPoly):
            raise TypeError("num must be a MultiPoly")
        self.table = num.table
        if den is None:
            den = (0,) * len(self.table.atoms)
        den = tuple(int(e) for e in den)
        if len(den) != len(self.table.atoms):
            raise ValueError("denominator exponent count mismatch")
        if any(e < 0 for e in den):
            raise ValueError("negative denominator exponent")
        num, den = self._cancel(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _cancel(num, den):
        if num.is_zero():
            return num, (0,) * len(den)
        den = list(den)
        for k, e in enumerate(den):
            if e == 0:
                continue
            atom = MultiPoly.from_atom(num.table, k)
            while den[k] > 0:
                quotient = num.try_div(atom)
                if quotient is None:
                    break
                num = quotient
                den[k] -= 1
        return num, tuple(den)

    @classmethod
    def const(cls, table, value):
        return cls(MultiPoly.const(table, value))

    @classmethod
    def sym(cls, table, name):
        return cls(MultiPoly.sym(table, name))

    def is_zero(self):
        return self.num.is_zero()

    def is_rational(self):
        return self.num.is_rational() and not any(self.den)

    def as_fraction(self):
        if any(self.den):
            raise ValueError("value has a denominator: %s" % self.format())
        return self.num.as_fraction()

    def is_polynomial(self):
        return not any(self.den)

    def as_poly(self):
        if any(self.den):
            raise ValueError("value has a denominator: %s" % self.format())
        return self.num

    def _coerce(self, other):
        if isinstance(other, PolyFraction):
            check_same(self.table, other.table)
            return other
        if isinstance(other, MultiPoly):
            check_same(self.table, other.table)
            return PolyFraction(other)
        if isinstance(other, (int, Fraction)):
            return PolyFraction(MultiPoly.const(self.table, other))
        return None

    def _den_poly(self, exps=None):
        exps = self.den if exps is None else exps
        out = MultiPoly.const(self.table, 1)
        for k, e in enumerate(exps):
            if e:
                out = out * MultiPoly.from_atom(self.table, k) ** e
        return out

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        target = tuple(max(a, b) for a, b in zip(self.den, other.den))
        lift_self = self._den_poly(tuple(t - a for t, a in zip(target, self.den)))
        lift_other = self._den_poly(tuple(t - b for t, b in zip(target, other.den)))
        return PolyFraction(self.num * lift_self + other.num * lift_other, target)

    __radd__ = __add__

    def __neg__(self):
        return PolyFraction(-self.num, self.den)

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
        den = tuple(a + b for a, b in zip(self.den, other.den))
        return PolyFraction(self.num * other.num, den)

    __rmul__ = __mul__

    def invert(self):
        """Reciprocal; defined when num is rational times atom powers."""
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero")
        rest = self.num
        found = [0] * len(self.table.atoms)
        for k in range(len(self.table.atoms)):
            atom = MultiPoly.from_atom(self.table, k)
            while True:
                quotient = rest.try_div(atom)
                if quotient is None:
                    break
                rest = quotient
                found[k] += 1
        if not rest.is_rational():
            raise ExactDivisionError(
                "cannot invert %s: numerator is not a product of atoms"
                % self.format()
            )
        scale = 1 / rest.as_fraction()
        new_num = self._den_poly() * scale
        return PolyFraction(new_num, tuple(found))

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
        return PolyFraction(self.num ** n, tuple(e * n for e in self.den))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self, name):
        out = PolyFraction(self.num.derivative(name), self.den)
        for k, e in enumerate(self.den):
            if e == 0:
                continue
            atom = MultiPoly.from_atom(self.table, k)
            slope = atom.derivative(name)
            if slope.is_zero():
                continue
            bumped = list(self.den)
            bumped[k] += 1
            out = out + PolyFraction(-e * slope * self.num, tuple(bumped))
        return out

    def substitute(self, mapping):
        """Replace symbols by same-table values; atoms must stay invertible."""
        values = {}
        for name, val in mapping.items():
            coerced = self._coerce(val)
            if coerced is None:
                raise TypeError("cannot substitute %r" % (val,))
            values[name] = coerced
        num_sub = PolyFraction.const(self.table, 0)
        for exps, coeff in self.num.terms.items():
            term = PolyFraction.const(self.table, coeff)
            for idx, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.table.symbols[idx]
                if name in values:
                    term = term * values[name] ** e
                else:
                    term = term * PolyFraction.sym(self.table, name) ** e
            num_sub = num_sub + term
        out = num_sub
        for k, e in enumerate(self.den):
            if e == 0:
                continue
            atom_val = PolyFraction(MultiPoly.from_atom(self.table, k)).substitute(
                values
            ) if _atom_touches(self.table, k, values) else PolyFraction(
                MultiPoly.from_atom(self.table, k)
            )
            out = out * atom_val.invert() ** e
        return out

    def evaluate(self, mapping):
        """Evaluate all symbols at rationals, returning a Fraction."""
        value = self.num.evaluate(mapping)
        for k, e in enumerate(self.den):
            if e == 0:
                continue
            atom_val = MultiPoly.from_atom(self.table, k).evaluate(mapping)
            if atom_val == 0:
                raise PoleError("denominator atom %s vanishes" % self.table.atoms[k].name)
            value = value / atom_val ** e
        return value

    def univariate_in(self, name):
        """Coefficient list (ascending) of one symbol; atoms must not use it."""
        idx = self.table.index(name)
        for k, e in enumerate(self.den):
            atom = self.table.atoms[k]
            if e and any(i == idx for i, _ in atom.terms):
                raise ValueError("atom %s involves %s" % (atom.name, name))
        if self.num.is_zero():
            return []
        top = self.num.degree_in(name)
        buckets = [dict() for _ in range(top + 1)]
        for exps, coeff in self.num.terms.items():
            e = exps[idx]
            reduced = exps[:idx] + (0,) + exps[idx + 1 :]
            buckets[e][reduced] = buckets[e].get(reduced, Fraction(0)) + coeff
        return [
            PolyFraction(MultiPoly(self.table, {k: v for k, v in b.items() if v != 0}), self.den)
            for b in buckets
        ]

    def sqrt(self):
        """Exact square root of a rational times even atom and symbol powers."""
        mono = self.num.as_rational_monomial()
        if mono is None:
            raise ValueError("no exact square root: %s" % self.format())
        coeff, exps = mono
        if coeff < 0 or any(e % 2 for e in exps) or any(e % 2 for e in self.den):
            raise ValueError("no exact square root: %s" % self.format())
        np_ = isqrt(coeff.numerator)
        dp_ = isqrt(coeff.denominator)
        if np_ * np_ != coeff.numerator or dp_ * dp_ != coeff.denominator:
            raise ValueError("no exact square root: %s" % self.format())
        half = tuple(e // 2 for e in exps)
        num = MultiPoly.monomial(self.table, half, Fraction(np_, dp_))
        return PolyFraction(num, tuple(e // 2 for e in self.den))

    def sign_for_positive_symbols(self):
        """Sign valid whenever every symbol is positive, else None.

        Works when all numerator terms share one sign and every positive
        denominator exponent belongs to a bare symbol atom.
        """
        if self.num.is_zero():
            return 0
        for k, e in enumerate(self.den):
            if e and len(self.table.atoms[k].terms) != 1:
                return None
            if e and self.table.atoms[k].constant != 0:
                return None
        signs = {c > 0 for c in self.num.terms.values()}
        if len(signs) != 1:
            return None
        return 1 if signs.pop() else -1

    def format(self):
        num_text = self.num.format()
        parts = []
        for k, e in enumerate(self.den):
            if e == 0:
                continue
            name = self.table.atoms[k].name
            if len(self.table.atoms[k].terms) > 1 or self.table.atoms[k].constant:
                name = "(%s)" % name
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        if not parts:
            return num_text
        if len(self.num.terms) > 1:
            num_text = "(%s)" % num_text
        return num_text + "/" + "/".join(parts)

    __str__ = format

    def __repr__(self):
        return "PolyFraction(%s)" % self.format()


def _atom_touches(table, atom_index, values):
    names = {table.symbols[i] for i, _ in table.atoms[atom_index].terms}
    return any(n in values for n in names)
