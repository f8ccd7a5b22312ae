"""Exact multivariate polynomials with rational coefficients.

A value is stored in primitive form, content times primitive part
(Geddes, Czapor & Labahn, Algorithms for Computer Algebra, 1992, ch. 2).
`ints` maps exponent tuples to nonzero integers whose gcd is 1, and the
content is one positive rational kept as a reduced integer pair
(`cn`, `cd`).  Zero has no integers and content 1.  The sign sits in
the integers, so the form is canonical: == and hash compare it as it
stands.

By Gauss's lemma a product of primitive polynomials is primitive, so a
product multiplies the contents, convolves the integers and takes no
gcd.  A scalar product only rescales the content.  A sum brings the
contents to one denominator and takes one gcd of the summed integers.
Trial division divides primitive parts over the integers; a quotient
coefficient that is not an integer proves, by the same lemma, that the
divisor does not divide.

Term order everywhere is graded lexicographic with earlier table
symbols more significant.  `terms` is a read-only {exponents: Fraction}
view, built once per value, for printing, evaluation and tests; no
arithmetic reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from types import MappingProxyType

from .errors import ExactDivisionError
from .symbols import SymbolTable, check_same


def term_key(exps):
    return (sum(exps), exps)


def _new(table, ints, cn=1, cd=1):
    """A MultiPoly from integers with gcd 1 and a reduced content cn/cd > 0."""
    out = object.__new__(MultiPoly)
    out.table = table
    out.ints = ints
    out.cn = cn
    out.cd = cd
    out._terms = None
    return out


def _primitive(table, raw, cn=1, cd=1):
    """raw * cn / cd in primitive form.

    raw maps exponents to integers, zeros allowed; cn and cd are
    positive integers.
    """
    ints = {e: c for e, c in raw.items() if c}
    if not ints:
        return _new(table, ints)
    g = gcd(*ints.values())
    if g != 1:
        ints = {e: c // g for e, c in ints.items()}
        cn *= g
    g = gcd(cn, cd)
    if g != 1:
        cn //= g
        cd //= g
    return _new(table, ints, cn, cd)


def _check_exponents(table, terms):
    if any(len(exps) != table.nvars for exps in terms):
        raise ValueError("exponent tuples need one entry for each of the "
                         "%d symbols of %r" % (table.nvars, table))


def _content_product(cn1, cd1, cn2, cd2):
    """(cn1/cd1) * (cn2/cd2) as a reduced pair, both factors reduced."""
    g1 = gcd(cn1, cd2)
    g2 = gcd(cn2, cd1)
    return (cn1 // g1) * (cn2 // g2), (cd1 // g2) * (cd2 // g1)


class MultiPoly:
    __slots__ = ("table", "ints", "cn", "cd", "_terms")

    def __init__(self, table, terms):
        """The polynomial with rational coefficients {exponents: value}.

        Arithmetic builds its results in primitive form directly.
        """
        _check_exponents(table, terms)
        terms = {e: Fraction(c) for e, c in terms.items() if c}
        den = lcm(*(c.denominator for c in terms.values()))
        made = _primitive(table, {
            e: c.numerator * (den // c.denominator) for e, c in terms.items()
        }, 1, den)
        self.table = table
        self.ints = made.ints
        self.cn = made.cn
        self.cd = made.cd
        self._terms = None

    @staticmethod
    def from_ints(table, raw, cn=1, cd=1):
        """_primitive, with the exponent tuples of raw checked."""
        _check_exponents(table, raw)
        return _primitive(table, raw, cn, cd)

    @classmethod
    def zero(cls, table):
        return _new(table, {})

    @classmethod
    def const(cls, table, value):
        value = Fraction(value)
        if value == 0:
            return _new(table, {})
        n, d = value.numerator, value.denominator
        return _new(table, {(0,) * table.nvars: 1 if n > 0 else -1}, abs(n), d)

    @classmethod
    def sym(cls, table, name):
        exps = [0] * table.nvars
        exps[table.index(name)] = 1
        return _new(table, {tuple(exps): 1})

    @classmethod
    def monomial(cls, table, exps, coeff=1):
        return cls(table, {tuple(int(e) for e in exps): coeff})

    @classmethod
    def from_atom(cls, table, atom_index):
        # monic with integer coefficients, so already primitive
        atom = table.atoms[atom_index]
        zero = (0,) * table.nvars
        ints = {zero[:j] + (1,) + zero[j + 1 :]: c for j, c in atom.terms}
        if atom.constant:
            ints[zero] = atom.constant
        return _new(table, ints)

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

    @classmethod
    def sum(cls, table, polys):
        """Sum of same-table polynomials over one common denominator."""
        polys = [p for p in polys if p.ints]
        if not polys:
            return _new(table, {})
        den = lcm(*(p.cd for p in polys))
        scales = [p.cn * (den // p.cd) for p in polys]
        num = gcd(*scales)
        acc = {}
        for p, m in zip(polys, scales):
            m //= num
            for e, c in p.ints.items():
                if e in acc:
                    acc[e] += c * m
                else:
                    acc[e] = c * m
        return _primitive(table, acc, num, den)

    @property
    def terms(self):
        """Read-only {exponents: Fraction} view, built once."""
        terms = self._terms
        if terms is None:
            cn, cd = self.cn, self.cd
            terms = self._terms = MappingProxyType(
                {e: Fraction(c * cn, cd) for e, c in self.ints.items()}
            )
        return terms

    def is_zero(self):
        return not self.ints

    def is_rational(self):
        if not self.ints:
            return True
        if len(self.ints) != 1:
            return False
        (exps,) = self.ints
        return not any(exps)

    def as_fraction(self):
        if not self.ints:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("polynomial is not constant: %s" % self.format())
        (c,) = self.ints.values()
        return Fraction(c * self.cn, self.cd)

    def as_rational_monomial(self):
        """Return (coefficient, exponents) when the value is one term."""
        if len(self.ints) != 1:
            return None
        ((exps, c),) = self.ints.items()
        return Fraction(c * self.cn, self.cd), exps

    def total_degree(self):
        if not self.ints:
            return -1
        return max(sum(e) for e in self.ints)

    def degree_in(self, name):
        if not self.ints:
            return -1
        idx = self.table.index(name)
        return max(e[idx] for e in self.ints)

    def leading_term(self):
        if not self.ints:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.ints, key=term_key)
        return exps, Fraction(self.ints[exps] * self.cn, self.cd)

    def rational_content(self):
        """Positive Fraction g with self/g having coprime integer parts."""
        return Fraction(self.cn, self.cd)

    def monomial_content(self):
        """Componentwise minimum exponent across all terms."""
        if not self.ints:
            return (0,) * self.table.nvars
        return tuple(map(min, zip(*self.ints)))

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
        return MultiPoly.sum(self.table, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return _new(
            self.table, {e: -c for e, c in self.ints.items()}, self.cn, self.cd
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly.sum(self.table, (self, -other))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly.sum(self.table, (other, -self))

    def _scale(self, value):
        """self * value for a rational value: the content moves, the
        integers keep their magnitudes."""
        if not value or not self.ints:
            return _new(self.table, {})
        n, d = value.numerator, value.denominator
        ints = self.ints
        if n < 0:
            n = -n
            ints = {e: -c for e, c in ints.items()}
        return _new(self.table, ints, *_content_product(self.cn, self.cd, n, d))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        table = self.table
        if not self.ints or not other.ints:
            return _new(table, {})
        acc = {}
        right = other.ints.items()
        for e1, c1 in self.ints.items():
            for e2, c2 in right:
                exps = tuple(map(add, e1, e2))
                if exps in acc:
                    acc[exps] += c1 * c2
                else:
                    acc[exps] = c1 * c2
        return _new(
            table,
            {e: c for e, c in acc.items() if c},
            *_content_product(self.cn, self.cd, other.cn, other.cd),
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
        return (
            self.table == other.table
            and self.cn == other.cn
            and self.cd == other.cd
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.cn, self.cd, frozenset(self.ints.items())))

    def derivative(self, name):
        idx = self.table.index(name)
        # lowering one exponent keeps distinct terms distinct
        return _primitive(self.table, {
            exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]: c * exps[idx]
            for exps, c in self.ints.items()
            if exps[idx]
        }, self.cn, self.cd)

    def evaluate(self, mapping):
        """Map every symbol to a value in any commutative ring.

        Values need +, * and integer powers among themselves and with
        Fraction scalars.  With all-Fraction values the result is a
        Fraction.  When every value is an int or a Fraction n_i / d_i,
        the sum is taken fraction-free: with D_i the top exponent of
        symbol i, each term c * prod n_i^e * d_i^(D_i - e) is an integer,
        and the result is one Fraction(total * cn, cd * prod d_i^D_i).
        Other values read the Fraction view, built once per value.
        """
        values = self._values(mapping)
        if all(isinstance(v, (int, Fraction)) for v in values):
            return Fraction(*self._rational_parts(values))
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

    def _values(self, mapping):
        """The values of mapping in table order; every symbol needs one."""
        values = [None] * self.table.nvars
        for name, val in mapping.items():
            values[self.table.index(name)] = val
        missing = [s for s, v in zip(self.table.symbols, values) if v is None]
        if missing:
            raise ValueError("unassigned symbols: %s" % ", ".join(missing))
        return values

    def _rational_parts(self, values):
        """(numerator, positive denominator) ints of the value at int or
        Fraction values, summed fraction-free."""
        if not self.ints:
            return 0, 1
        scale = 1
        zeros, powers = [], []
        for idx, top in enumerate(map(max, zip(*self.ints))):
            if not top:
                continue
            n, d = values[idx].numerator, values[idx].denominator
            if not n:
                # a zero value kills every term that holds its symbol
                zeros.append((idx, [1] + [0] * top))
                continue
            # table[e] = n^e * d^(top - e)
            table = [d ** top]
            for _ in range(top):
                table.append(table[-1] // d * n)
            scale *= table[0]
            powers.append((idx, table))
        factors = zeros + powers
        total = 0
        for exps, c in self.ints.items():
            for idx, table in factors:
                c *= table[exps[idx]]
                if not c:
                    break
            total += c
        return total * self.cn, self.cd * scale

    def try_div(self, divisor):
        """Exact quotient self / divisor, or None when not divisible.

        Divides the integers by the divisor's integers, leading term
        first; the quotient of primitive parts is primitive (Gauss).
        """
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        table = self.table
        if not self.ints:
            return _new(table, {})
        dints = divisor.ints
        lt_exps = max(dints, key=term_key)
        lt_coeff = dints[lt_exps]
        rem = dict(self.ints)
        quot = {}
        while rem:
            exps = max(rem, key=term_key)
            q_exps = tuple(a - b for a, b in zip(exps, lt_exps))
            if any(e < 0 for e in q_exps):
                return None
            q_coeff, r = divmod(rem[exps], lt_coeff)
            if r:
                return None
            quot[q_exps] = q_coeff
            for e, c in dints.items():
                e = tuple(map(add, e, q_exps))
                nc = rem.get(e, 0) - c * q_coeff
                if nc:
                    rem[e] = nc
                else:
                    rem.pop(e, None)
        return _new(
            table, quot,
            *_content_product(self.cn, self.cd, divisor.cd, divisor.cn),
        )

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
