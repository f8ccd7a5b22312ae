"""Exact multivariate polynomials with rational coefficients.

Terms map exponent tuples to nonzero Fractions.  When the table marks a
symbol as imaginary its square reduces eagerly to -1, so stored
exponents of that symbol are always 0 or 1.  Term order everywhere is
graded lexicographic with earlier table symbols more significant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add

from .errors import ExactDivisionError
from .symbols import SymbolTable, check_same


def term_key(exps):
    return (sum(exps), exps)


def _over_common_denominator(terms):
    """([(exps, integer numerator)], d) with terms = numerator / d each."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    return [
        (e, c.numerator * (den // c.denominator)) for e, c in terms.items()
    ], den


class MultiPoly:
    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        # Internal constructor: terms must already be reduced.  Build
        # values through the classmethods or _make instead.
        self.table = table
        self.terms = terms

    @classmethod
    def _make(cls, table, raw):
        """Reduce imaginary powers, drop zero coefficients."""
        ii = table.imaginary_index
        terms = {}
        for exps, coeff in raw.items():
            if not coeff:
                continue
            if ii is not None and exps[ii] >= 2:
                q, r = divmod(exps[ii], 2)
                if q % 2:
                    coeff = -coeff
                exps = exps[:ii] + (r,) + exps[ii + 1 :]
            old = terms.get(exps)
            terms[exps] = coeff if old is None else old + coeff
        return cls(table, {e: c for e, c in terms.items() if c})

    @classmethod
    def zero(cls, table):
        return cls(table, {})

    @classmethod
    def const(cls, table, value):
        value = Fraction(value)
        if value == 0:
            return cls(table, {})
        return cls(table, {(0,) * table.nvars: value})

    @classmethod
    def sym(cls, table, name):
        exps = [0] * table.nvars
        exps[table.index(name)] = 1
        return cls(table, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, table, exps, coeff=1):
        return cls._make(table, {tuple(int(e) for e in exps): Fraction(coeff)})

    @classmethod
    def from_atom(cls, table, atom_index):
        atom = table.atoms[atom_index]
        raw = {}
        zero = (0,) * table.nvars
        for idx, coeff in atom.terms:
            exps = list(zero)
            exps[idx] = 1
            raw[tuple(exps)] = Fraction(coeff)
        if atom.constant:
            raw[zero] = atom.constant
        return cls._make(table, raw)

    @staticmethod
    @lru_cache(maxsize=1024)
    def atom_product(table, exps):
        """prod_k atom_k ** exps[k] over table, cached.

        This is the factor that lifts a numerator over denominator
        exponents d to the larger exponents d + exps.  Every caller gets
        the same object, which is safe because no MultiPoly operation
        changes its operands.
        """
        out = MultiPoly.const(table, 1)
        for k, e in enumerate(exps):
            if e:
                out = out * MultiPoly.from_atom(table, k) ** e
        return out

    def is_zero(self):
        return not self.terms

    def is_rational(self):
        if not self.terms:
            return True
        if len(self.terms) != 1:
            return False
        (exps,) = self.terms
        return not any(exps)

    def as_fraction(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("polynomial is not constant: %s" % self.format())
        return next(iter(self.terms.values()))

    def as_rational_monomial(self):
        """Return (coefficient, exponents) when the value is one term."""
        if len(self.terms) != 1:
            return None
        exps, coeff = next(iter(self.terms.items()))
        return coeff, exps

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if not self.terms:
            return -1
        idx = self.table.index(name)
        return max(e[idx] for e in self.terms)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=term_key)
        return exps, self.terms[exps]

    def rational_content(self):
        """Positive Fraction g with self/g having coprime integer parts."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def monomial_content(self):
        """Componentwise minimum exponent across all terms."""
        if not self.terms:
            return (0,) * self.table.nvars
        mins = None
        for exps in self.terms:
            if mins is None:
                mins = list(exps)
            else:
                mins = [min(a, b) for a, b in zip(mins, exps)]
        return tuple(mins)

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            check_same(self.table, other.table)
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.table, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        raw = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in raw:
                raw[exps] += coeff
            else:
                raw[exps] = coeff
        return MultiPoly(self.table, {e: c for e, c in raw.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.table, {e: -c for e, c in self.terms.items()})

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
        # Factors hold i to the power 0 or 1, so a product term holds at
        # most i^2 = -1, reduced as it comes.
        ii = self.table.imaginary_index
        short, long = self, other
        if len(short.terms) > len(long.terms):
            short, long = other, self
        if len(short.terms) <= 1:
            # A monomial shifts exponents one to one, so no two products
            # meet: one Fraction per term, from integer products.
            terms = {}
            for e1, c1 in short.terms.items():
                n1, d1 = c1.numerator, c1.denominator
                for e2, c2 in long.terms.items():
                    exps = tuple(map(add, e1, e2))
                    n = n1 * c2.numerator
                    if ii is not None and exps[ii] == 2:
                        exps = exps[:ii] + (0,) + exps[ii + 1 :]
                        n = -n
                    terms[exps] = Fraction(n, d1 * c2.denominator)
            return MultiPoly(self.table, terms)
        # Integer numerators over each factor's common denominator: one
        # Fraction per output term.
        left, den1 = _over_common_denominator(self.terms)
        right, den2 = _over_common_denominator(other.terms)
        acc = {}
        for e1, c1 in left:
            for e2, c2 in right:
                exps = tuple(map(add, e1, e2))
                coeff = c1 * c2
                if ii is not None and exps[ii] == 2:
                    exps = exps[:ii] + (0,) + exps[ii + 1 :]
                    coeff = -coeff
                if exps in acc:
                    acc[exps] += coeff
                else:
                    acc[exps] = coeff
        den = den1 * den2
        if den == 1:
            return MultiPoly(
                self.table, {e: Fraction(c) for e, c in acc.items() if c}
            )
        return MultiPoly(
            self.table, {e: Fraction(c, den) for e, c in acc.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(self.table, 1) if out is None else out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.table, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, tuple(sorted(self.terms.items()))))

    def derivative(self, name):
        idx = self.table.index(name)
        # lowering one exponent keeps distinct terms distinct
        return MultiPoly(self.table, {
            exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]: coeff * exps[idx]
            for exps, coeff in self.terms.items()
            if exps[idx]
        })

    def evaluate(self, mapping):
        """Map every symbol to a value in any commutative ring.

        Values need +, * and integer powers among themselves and with
        Fraction scalars.  With all-Fraction values the result is a
        Fraction.
        """
        values = [None] * self.table.nvars
        for name, val in mapping.items():
            values[self.table.index(name)] = val
        missing = [s for s, v in zip(self.table.symbols, values) if v is None]
        if missing:
            raise ValueError("unassigned symbols: %s" % ", ".join(missing))
        total = None
        for exps, coeff in self.terms.items():
            term = coeff
            for idx, e in enumerate(exps):
                if e:
                    term = term * values[idx] ** e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def try_div(self, divisor):
        """Exact quotient self / divisor, or None when not divisible."""
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lt_exps, lt_coeff = divisor.leading_term()
        rem = dict(self.terms)
        quot = {}
        while rem:
            exps = max(rem, key=term_key)
            q_exps = tuple(a - b for a, b in zip(exps, lt_exps))
            if any(e < 0 for e in q_exps):
                return None
            q_coeff = rem[exps] / lt_coeff
            quot[q_exps] = quot.get(q_exps, Fraction(0)) + q_coeff
            piece = MultiPoly._make(self.table, {q_exps: q_coeff}) * divisor
            for e, c in piece.terms.items():
                old = rem.get(e)
                nc = -c if old is None else old - c
                if nc == 0:
                    rem.pop(e, None)
                else:
                    rem[e] = nc
        return MultiPoly._make(self.table, quot)

    def exact_div(self, divisor):
        out = self.try_div(divisor)
        if out is None:
            raise ExactDivisionError(
                "%s is not divisible by %s"
                % (self.format(), self._coerce(divisor).format())
            )
        return out

    def format(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=term_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for idx, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.table.symbols[idx]
                factors.append(name if e == 1 else "%s^%d" % (name, e))
            mag = abs(coeff)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            bits.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
        text = " ".join(bits)
        if text.startswith("+ "):
            return text[2:]
        return "-" + text[2:]

    __str__ = format

    def __repr__(self):
        return "MultiPoly(%s)" % self.format()
