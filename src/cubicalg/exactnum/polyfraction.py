"""Polynomials divided by powers of the table's denominator atoms.

A value is num / prod(atom_k ** e_k) where num is a MultiPoly and the
denominator exponents are nonnegative integers, one per declared atom.
The form is canonical: whenever an exponent is positive the numerator is
not divisible by that atom.  General division is only defined when the
divisor's numerator reduces to a rational times a product of atoms.

Divisibility by an atom is decided without general polynomial division.
A bare symbol atom divides num exactly when every term carries that
symbol, and the quotient lowers that exponent by one.  A linear atom
s + L, monic in its leading symbol s, divides num exactly when num
vanishes identically at s := -L; the quotient comes from synthetic
division in s (Horner's rule with polynomial coefficients), whose
remainder is that substituted value.  Both steps run on num's integer
primitive part: an atom with integer coefficients is primitive, so by
Gauss's lemma the quotient is primitive and keeps num's content.

Most attempts fail, so num(-L) is first evaluated modulo the prime
P = 2^61 - 1 with every other symbol at a fixed integer.  Reduction mod
P is a ring homomorphism on the rationals whose denominators P does not
divide, so a zero polynomial num(-L) has residue 0: a nonzero residue
proves that the atom does not divide num.  A zero residue proves
nothing and synthetic division decides.  The integers reduce mod P as
they stand; only the content's denominator can be divisible by P, and
then the filter is skipped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import ExactDivisionError, PoleError
from .multipoly import MultiPoly, _new, term_key
from .symbols import check_same


class PolyFraction:
    __slots__ = ("table", "num", "den")

    def __init__(self, num, den=None, *, coprime=()):
        """num / prod_k atom_k ** den[k] in canonical form.

        coprime lists atoms known not to divide num; they are not tested.
        """
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
        num, den = self._cancel(num, den, coprime)
        self.num = num
        self.den = den

    @staticmethod
    def _cancel(num, den, coprime=()):
        if num.is_zero():
            return num, (0,) * len(den)
        den = list(den)
        for k in range(len(den)):
            while den[k] > 0 and k not in coprime:
                quotient = _div_atom(num, k)
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

    def as_fraction(self):
        if any(self.den):
            raise ValueError("value has a denominator: %s" % self.format())
        return self.num.as_fraction()

    @classmethod
    def coerce(cls, table, value):
        """value as a PolyFraction over table, or None for another type."""
        if isinstance(value, PolyFraction):
            check_same(table, value.table)
            return value
        if isinstance(value, MultiPoly):
            check_same(table, value.table)
            return cls(value)
        if isinstance(value, (int, Fraction)):
            return cls(MultiPoly.const(table, value))
        return None

    @classmethod
    def sum(cls, table, pairs, coprime=()):
        """Canonical sum of num / prod_k atom_k ** den[k].

        pairs is a nonempty iterable of (num, den).  Each numerator is
        lifted to the largest exponents by cached atom products, and the
        lifted numerators are added as one polynomial over one common
        denominator, so the atoms are tested once, on the sum; coprime
        lists atoms known not to divide it.
        """
        pairs = list(pairs)
        target = tuple(max(col) for col in zip(*(den for _, den in pairs)))
        nums = [
            num if den == target else num * MultiPoly.atom_product(
                table, tuple(t - e for t, e in zip(target, den))
            )
            for num, den in pairs
        ]
        return cls(MultiPoly.sum(table, nums), target, coprime=coprime)

    def __add__(self, other):
        other = PolyFraction.coerce(self.table, other)
        if other is None:
            return NotImplemented
        return PolyFraction.sum(
            self.table, ((self.num, self.den), (other.num, other.den))
        )

    __radd__ = __add__

    def __neg__(self):
        # an atom divides -num exactly when it divides num, so the
        # negated value is canonical as it stands
        out = object.__new__(PolyFraction)
        out.table = self.table
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = PolyFraction.coerce(self.table, other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = PolyFraction.coerce(self.table, other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = PolyFraction.coerce(self.table, other)
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
            while True:
                quotient = _div_atom(rest, k)
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
        new_num = MultiPoly.atom_product(self.table, self.den) * scale
        return PolyFraction(new_num, tuple(found))

    def __truediv__(self, other):
        other = PolyFraction.coerce(self.table, other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        other = PolyFraction.coerce(self.table, other)
        if other is None:
            return NotImplemented
        return other * self.invert()

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.invert() ** (-n)
        return PolyFraction(self.num ** n, tuple(e * n for e in self.den))

    def __eq__(self, other):
        other = PolyFraction.coerce(self.table, other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self, name):
        """d/ds by the quotient rule, with one atom test per atom free of s.

        Over the lifted denominator, an atom that holds s and has a
        positive exponent e leaves the numerator -e * slope * num * (the
        other lifted atoms) modulo itself.  num and the other atoms are
        coprime to it, so it does not divide the sum and is not tested.
        Atoms free of s keep their test: d/dy of (y(x-a) + 1)/(x-a) is
        1, and d/dx of (a*x + 1)/a is 1.
        """
        table = self.table
        idx = table.index(name)
        pairs = [(self.num.derivative(name), self.den)]
        coprime = []
        for k, e in enumerate(self.den):
            if e == 0:
                continue
            atom = table.atoms[k]
            slope = sum(c for j, c in atom.terms if j == idx)
            if not slope:
                continue
            bumped = list(self.den)
            bumped[k] += 1
            pairs.append((self.num * (-e * slope), tuple(bumped)))
            coprime.append(k)
        return PolyFraction.sum(table, pairs, coprime)

    def substitute(self, mapping):
        """Replace symbols by same-table values; atoms must stay invertible."""
        values = {}
        for name, val in mapping.items():
            coerced = PolyFraction.coerce(self.table, val)
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
        """Evaluate all symbols in any field, returning a Fraction when
        every value is an int or a Fraction.

        Then the numerator's fraction-free sum and each atom's value, an
        integer n / d, are folded into one Fraction.  Other values divide
        the numerator's value by the product of the atoms' powers.
        """
        values = self.num._values(mapping)
        rational = all(isinstance(v, (int, Fraction)) for v in values)
        if rational:
            top, bottom = self.num._rational_parts(values)
        else:
            top, bottom = self.num.evaluate(mapping), 1
        for k, e in enumerate(self.den):
            if e == 0:
                continue
            atom = self.table.atoms[k]
            n, d = atom.constant, 1
            for j, c in atom.terms:
                if rational:
                    vn, vd = values[j].numerator, values[j].denominator
                    n, d = n * vd + c * vn * d, d * vd
                else:
                    n = n + c * values[j]
            if n == 0:
                raise PoleError("denominator atom %s vanishes" % atom.name)
            top *= d ** e
            bottom *= n ** e
        return Fraction(top, bottom) if rational else top / bottom

    def univariate_in(self, name):
        """Coefficient list (ascending) of one symbol; atoms must not use it."""
        idx = self.table.index(name)
        for k, e in enumerate(self.den):
            atom = self.table.atoms[k]
            if e and any(i == idx for i, _ in atom.terms):
                raise ValueError("atom %s involves %s" % (atom.name, name))
        if self.num.is_zero():
            return []
        num = self.num
        buckets = [{} for _ in range(num.degree_in(name) + 1)]
        for exps, c in num.ints.items():
            # distinct terms stay distinct within one power of the symbol
            buckets[exps[idx]][exps[:idx] + (0,) + exps[idx + 1 :]] = c
        return [
            PolyFraction(MultiPoly.from_ints(self.table, b, num.cn, num.cd), self.den)
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
        signs = {c > 0 for c in self.num.ints.values()}
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
        if len(self.num.ints) > 1:
            num_text = "(%s)" % num_text
        return num_text + "/" + "/".join(parts)

    __str__ = format

    def __repr__(self):
        return "PolyFraction(%s)" % self.format()


_P = (1 << 61) - 1


def _point(j):
    """Fixed value of symbol j in the divisibility filter, reduced mod _P."""
    return (j + 1) * 0x9E3779B97F4A7C15 % _P


@lru_cache(maxsize=None)
def _points(nvars):
    """_point(j) for each symbol of a table with nvars symbols."""
    return tuple(_point(j) for j in range(nvars))


def _mod_p(num, point):
    """num mod _P with symbol j at point[j], a tuple.

    The integers are summed against the monomial values mod _P and the
    sum is scaled by the content.  Returns None when the content's
    denominator is divisible by _P, where the value is undefined.
    """
    if not num.ints:
        return 0
    if num.cd % _P == 0:
        return None
    values = _monomials(point)
    acc = 0
    for exps, c in num.ints.items():
        v = values.get(exps)
        if v is None:
            v = 1
            for j, e in enumerate(exps):
                if e:
                    v = v * pow(point[j], e, _P) % _P
            values[exps] = v
        acc += c * v
    acc = acc % _P * num.cn % _P
    if num.cd != 1:
        acc = acc * pow(num.cd, -1, _P) % _P
    return acc


@lru_cache(maxsize=64)
def _monomials(point):
    """exponents -> monomial value mod _P at point, filled as met.

    The filter evaluates at few points: the fixed one, and one per atom
    with that atom's root in place of its leading symbol.  One q5
    derivation looks up 21,426 monomials at 4 points and finds 17,938
    of them here; computing the powers per call instead makes the
    filter about 2.5 times slower.
    """
    return {}


def _residue(num, s, root):
    """num at s := root and symbol j := _point(j) otherwise, mod _P.

    root is an atom's root: (symbol index, integer) pairs, None standing
    for the constant term.  Returns 0 when num's content denominator is
    divisible by _P, where the residue is undefined and the filter must
    not reject.
    """
    point = list(_points(num.table.nvars))
    point[s] = sum(c if j is None else c * point[j] for j, c in root) % _P
    return _mod_p(num, tuple(point)) or 0


def _descending(num, ints):
    """num's content over the primitive ints in descending order, as
    try_div builds them."""
    return _new(
        num.table,
        {e: ints[e] for e in sorted(ints, key=term_key, reverse=True)},
        num.cn,
        num.cd,
    )


def _div_atom(num, k):
    """Exact quotient num / atom_k, or None when the atom does not divide num."""
    atom = num.table.atoms[k]
    s, root = atom.lead, atom.root
    ints = num.ints
    if not root:
        if any(exps[s] == 0 for exps in ints):
            return None
        return _descending(num, {
            exps[:s] + (exps[s] - 1,) + exps[s + 1 :]: c
            for exps, c in ints.items()
        })
    if _residue(num, s, root):
        return None
    top = max(exps[s] for exps in ints)
    buckets = [{} for _ in range(top + 1)]
    for exps, c in ints.items():
        buckets[exps[s]][exps[:s] + (0,) + exps[s + 1 :]] = c
    # Horner: carry runs through the quotient's coefficients of s^(d-1),
    # and what it holds after d = 0 is the remainder num(-L).
    quot = {}
    carry = {}
    for d in range(top, -1, -1):
        step = buckets[d]
        for exps, c in carry.items():
            for j, rc in root:
                e = exps if j is None else exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
                prod = c * rc
                old = step.get(e)
                step[e] = prod if old is None else old + prod
        carry = {e: c for e, c in step.items() if c}
        if d:
            for e, c in carry.items():
                quot[e[:s] + (d - 1,) + e[s + 1 :]] = c
    if carry:
        return None
    return _descending(num, quot)


def _atom_touches(table, atom_index, values):
    names = {table.symbols[i] for i, _ in table.atoms[atom_index].terms}
    return any(n in values for n in names)
