"""Symbol tables shared by the exact arithmetic types.

A table fixes an ordered set of scalar symbols and declares which
linear forms with integer coefficients may appear in denominators.
Every polynomial and fraction carries a reference to its table, and
mixing values from different tables raises immediately.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SymbolTableMismatch


class Atom:
    """Linear form allowed as a denominator factor.

    Atoms have integer coefficients and are monic in their leading
    (lowest index) symbol, so x - a and x + a qualify while 2*x - a and
    x - a/2 do not.  A bare symbol is the degenerate single term case.
    An atom s + L stores its leading symbol index as `lead` and the
    root -L as `root`, a list of (symbol index, integer) pairs with None
    standing for the constant term.
    """

    __slots__ = ("name", "terms", "constant", "lead", "root")

    def __init__(self, name, terms, constant=0):
        self.name = str(name)
        terms = tuple(terms)
        if any(Fraction(c).denominator != 1
               for c in [c for _, c in terms] + [constant]):
            raise ValueError("atom %r has a coefficient that is not an integer"
                             % name)
        self.terms = tuple(sorted((int(i), int(c)) for i, c in terms))
        self.constant = int(constant)
        if not self.terms:
            raise ValueError("atom needs at least one symbol")
        if self.terms[0][1] != 1:
            raise ValueError("atom %r must be monic in its leading symbol" % name)
        if any(c == 0 for _, c in self.terms):
            raise ValueError("atom %r has a zero coefficient" % name)
        self.lead = self.terms[0][0]
        self.root = [(j, -c) for j, c in self.terms[1:]]
        if self.constant:
            self.root.append((None, -self.constant))

    def key(self):
        return (self.terms, self.constant)

    def __repr__(self):
        return "Atom(%r)" % (self.name,)


class SymbolTable:
    """Ordered scalar symbols plus the denominator atoms built on them."""

    def __init__(self, symbols, atoms=()):
        self.symbols = tuple(str(s) for s in symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbol name")
        self._index = {s: i for i, s in enumerate(self.symbols)}
        built = []
        for atomspec in atoms:
            if isinstance(atomspec, str):
                built.append(Atom(atomspec, ((self._index[atomspec], 1),)))
            else:
                name, mapping = atomspec[0], atomspec[1]
                constant = atomspec[2] if len(atomspec) > 2 else 0
                terms = ((self._index[s], c) for s, c in mapping.items())
                built.append(Atom(name, terms, constant))
        self.atoms = tuple(built)
        names = [a.name for a in self.atoms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate atom name")
        self._key = (self.symbols, tuple(a.key() for a in self.atoms))
        self._hash = hash(self._key)

    @property
    def nvars(self):
        return len(self.symbols)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown symbol %r" % (name,)) from None

    def atom_index(self, name):
        for i, a in enumerate(self.atoms):
            if a.name == name:
                return i
        raise KeyError("unknown atom %r" % (name,))

    def __eq__(self, other):
        return isinstance(other, SymbolTable) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "SymbolTable(%s)" % (", ".join(self.symbols),)


def check_same(table_a, table_b):
    """Raise unless both operands share one table."""
    if table_a is table_b or table_a == table_b:
        return
    raise SymbolTableMismatch("%r vs %r" % (table_a, table_b))
