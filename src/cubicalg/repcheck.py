"""Exact matrix modules for a derived structure function.

A lowest weight u with Phi(u) = 0 and Phi(u + p + 1) = 0 carries a
(p + 1)-level module: functions of nu act diagonally at u + n, the
lowering operator shifts down with unit amplitude, and the raising
operator carries rho * Phi.  Every entry is an exact rational, so the
defining relations and the central value can be checked to literal
zero.  A diagonal rescaling then gives the symmetric floating gauge,
which probes the same relations under roundoff.
"""

import math
from math import gcd, lcm
from dataclasses import dataclass
from fractions import Fraction

from . import casimir, spectrum
from .casimir import acomm, comm  # noqa: F401  (acomm re-exported)
from .exactnum import PoleError


class Matrix:
    """Square matrix over Fractions or floats, stored by its nonzero
    entries.

    Row i is a dict {column: x}, in ascending column order, of the
    entries that are not == 0.  An exact matrix (every entry an int or a
    Fraction) holds integer numerators x over one positive common
    denominator den, in lowest terms: den and the numerators have gcd 1,
    so a value is stored one way only.  A product multiplies the
    numerators and the two dens, a sum scales both sides to the lcm of
    the dens, and a rational scalar scales the numerators by its
    numerator and den by its denominator.  Each result then takes one
    gcd over den and its numerators, skipped when den is 1, where
    Fraction entries would pay a gcd for every + and *.

    Any other matrix, one with a float entry say, keeps den = 1 and its
    entries as given, Fractions among them, and does the arithmetic of
    its entries.  An exact matrix meets such a matrix or a float scalar
    with its entries as Fraction(x, den).  So a float matrix does the
    same float operations as a dense one: each product entry sums x * y
    over k in ascending order and skips only exact zeros, which change
    no nonzero float.

    +, -, negation and scalar * cost O(nonzeros), and a product of band
    matrices stays a band at O(n) cost.  rows gives the dense form, an
    exact entry as Fraction(x, den), and == and hash compare values:
    Matrix([[0.5]]) == Matrix([[Fraction(1, 2)]]).
    """

    __slots__ = ("_size", "_rows", "den", "_exact")

    def __init__(self, rows):
        rows = [tuple(row) for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        self._store(
            len(rows),
            [{j: x for j, x in enumerate(row) if x != 0} for row in rows],
        )

    @classmethod
    def from_sparse(cls, size, rows):
        """Matrix from rows {column: value} in ascending column order
        that hold no zero."""
        m = object.__new__(cls)
        m._store(size, rows)
        return m

    def _store(self, size, rows):
        self._size = size
        values = [x for row in rows for x in row.values()]
        if all(isinstance(x, (int, Fraction)) for x in values):
            # the lcm of reduced denominators leaves numerators with gcd 1
            den = lcm(*(x.denominator for x in values))
            self._rows = tuple(
                {j: x.numerator * (den // x.denominator)
                 for j, x in row.items()}
                for row in rows
            )
            self.den = den
            self._exact = True
        else:
            self._rows = tuple(rows)
            self.den = 1
            self._exact = False

    @classmethod
    def _make(cls, size, rows, den=1, exact=True):
        """Matrix from stored rows that are sorted and hold no zero."""
        m = object.__new__(cls)
        m._size = size
        m._rows = tuple(rows)
        m.den = den
        m._exact = exact
        return m

    @classmethod
    def _reduced(cls, size, rows, den):
        """The exact matrix rows / den, brought to lowest terms."""
        if den != 1:
            g = gcd(den, *[x for row in rows for x in row.values()])
            if g != 1:
                rows = [{j: x // g for j, x in row.items()} for row in rows]
                den //= g
        return cls._make(size, rows, den)

    @classmethod
    def identity(cls, n):
        return cls._make(n, [{i: 1} for i in range(n)])

    @classmethod
    def diagonal(cls, values):
        rows = [{i: x} if x != 0 else {} for i, x in enumerate(values)]
        return cls.from_sparse(len(rows), rows)

    def _values(self):
        """Rows of entry values, for arithmetic that is not exact."""
        if not self._exact or self.den == 1:
            return self._rows
        den = self.den
        return tuple(
            {j: Fraction(x, den) for j, x in row.items()} for row in self._rows
        )

    @property
    def rows(self):
        """Dense rows, a tuple of tuples with 0 off the stored entries."""
        n = self._size
        if self._exact:
            den = self.den
            return tuple(
                tuple(Fraction(row[j], den) if j in row else 0
                      for j in range(n))
                for row in self._rows
            )
        return tuple(
            tuple(row.get(j, 0) for j in range(n)) for row in self._rows
        )

    def entry(self, i, j):
        """The value at row i, column j."""
        x = self._rows[i].get(j, 0)
        return Fraction(x, self.den) if self._exact else x

    def float_rows(self):
        """Sparse rows of floats.  An exact entry is x / den, rounded
        once, as float(Fraction) rounds it; an underflow gives 0.0."""
        if self._exact:
            den = self.den
            return [{j: x / den for j, x in row.items()} for row in self._rows]
        return [{j: float(x) for j, x in row.items()} for row in self._rows]

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if self._exact and other._exact:
            den = lcm(self.den, other.den)
            rows = _add_rows(
                self._rows, other._rows, den // self.den,
                sign * (den // other.den),
            )
            return Matrix._reduced(self._size, rows, den)
        theirs = other if sign == 1 else -other
        return Matrix._make(
            self._size, _add_rows(self._values(), theirs._values()), 1, False
        )

    def __neg__(self):
        return Matrix._make(
            self._size,
            [{j: -x for j, x in row.items()} for row in self._rows],
            self.den,
            self._exact,
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self._exact and other._exact:
                return Matrix._reduced(
                    self._size, _mul_rows(self._rows, other._rows),
                    self.den * other.den,
                )
            return Matrix._make(
                self._size, _mul_rows(self._values(), other._values()),
                1, False,
            )
        if self._exact and isinstance(other, (int, Fraction)):
            n = other.numerator
            if not n:
                return Matrix._make(self._size, [{} for _ in self._rows])
            return Matrix._reduced(
                self._size,
                [{j: x * n for j, x in row.items()} for row in self._rows],
                self.den * other.denominator,
            )
        return Matrix._make(
            self._size,
            [
                {j: y for j, x in row.items() if (y := x * other) != 0}
                for row in self._values()
            ],
            1,
            False,
        )

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if not isinstance(other, Matrix) or self._size != other._size:
            return False
        if self._exact and other._exact:
            return self.den == other.den and self._rows == other._rows
        return self._values() == other._values()

    def __hash__(self):
        # equal values hash alike across int, Fraction and float
        return hash(
            (self._size, tuple(tuple(row.items()) for row in self._values()))
        )

    def is_zero(self):
        return not any(self._rows)

    def max_abs(self):
        if self._exact:
            return Fraction(
                max((abs(x) for row in self._rows for x in row.values()),
                    default=0),
                self.den,
            )
        return _max_or_nan(abs(x) for row in self._rows for x in row.values())


def _add_rows(left, right, ml=1, mr=1):
    """Row by row ml * left + mr * right, zeros dropped, columns
    ascending."""
    out = []
    for mine, theirs in zip(left, right):
        row = dict(mine) if ml == 1 else {j: x * ml for j, x in mine.items()}
        for j, y in theirs.items():
            if mr != 1:
                y = y * mr
            row[j] = row[j] + y if j in row else y
        out.append({j: row[j] for j in sorted(row) if row[j] != 0})
    return out


def _mul_rows(left, right):
    """Row by row product: entry j of row i sums x * y over k ascending."""
    out = []
    for row in left:
        acc = {}
        for k, x in row.items():
            for j, y in right[k].items():
                if j in acc:
                    acc[j] = acc[j] + x * y
                else:
                    acc[j] = x * y
        out.append({j: acc[j] for j in sorted(acc) if acc[j] != 0})
    return out


def _max_or_nan(values):
    """max(values, default=0), but NaN if any value is NaN: max itself
    keeps a NaN only when it comes first."""
    values = list(values)
    if any(v != v for v in values):
        return math.nan
    return max(values, default=0)


@dataclass(frozen=True)
class MatrixModule:
    """One finite module in the lowering-normalized gauge."""

    u: Fraction
    dimension: int
    a: Matrix
    b: Matrix
    c: Matrix
    k: Fraction
    phi: tuple


def matrix_module(sf, u, p, values):
    """Exact matrices of the (p + 1)-level module with lowest weight u.

    values must assign a rational to every symbol of the table; the
    truncation conditions Phi(u) = 0 and Phi(u + p + 1) = 0 are
    checked before any matrix is built.
    """
    u = Fraction(u)
    p = int(p)
    if p < 0:
        raise ValueError("p must be a nonnegative integer")
    n = p + 1
    phi_at = _valued(sf.phi, values)
    phi = tuple(phi_at(u + x) for x in range(n + 1))
    if phi[0] != 0 or phi[n] != 0:
        raise ValueError("Phi does not truncate at lowest weight %s" % u)
    real = sf.realization
    a_at = _valued(real.a_of_nu, values)
    b_at = _valued(real.b_of_nu, values)
    rho_at = _valued(real.rho, values)
    a = Matrix.diagonal([a_at(u + i) for i in range(n)])
    rows = []
    for j in range(n):
        row = {}
        if j:
            row[j - 1] = rho_at(u + j - 1) * phi[j]
        row[j] = b_at(u + j)
        if j + 1 < n:
            row[j + 1] = Fraction(1)
        rows.append({i: x for i, x in row.items() if x != 0})
    b = Matrix.from_sparse(n, rows)
    c = comm(a, b)
    k = sf.k.evaluate(values)
    return MatrixModule(u=u, dimension=n, a=a, b=b, c=c, k=k, phi=phi)


def _valued(nf, values):
    """nf with values put into its coefficients once: a function of
    rational nu that evaluates the numerator by Fraction Horner."""
    num = [c.evaluate(values) for c in reversed(nf.num)]
    den = nf.den

    def at(point):
        for r, _ in den:
            if r == point:
                raise PoleError("nu = %s is a pole" % (point,))
        value = Fraction(0)
        for c in num:
            value = value * point + c
        for r, m in den:
            value = value / (point - r) ** m
        return value

    return at


def q5_module(family, p, h=1, a=1):
    """Module plus the full value assignment for one family instance."""
    sf = spectrum.q5_structure_function()
    values = {
        "E": Fraction(0),
        "h": Fraction(h),
        "a": Fraction(a),
        "u": Fraction(0),
        "p": Fraction(p),
        "x": Fraction(0),
    }
    values["E"] = family.energy.evaluate(values)
    u = family.lowest.evaluate(values)
    return matrix_module(sf, u, p, values), values


def _residuals(module, spec, values, a, b, c, scalar):
    """Residuals of both relations and the central value; every constant
    is converted with scalar (Fraction or float) first."""
    exact = {name: v.evaluate(values) for name, v in spec.as_dict().items()}
    consts = {name: scalar(v) for name, v in exact.items()}
    coeffs = {
        name: scalar(v)
        for name, v in casimir.evaluate_coefficients(exact).items()
    }
    one = Matrix.identity(module.dimension)
    linear, closure = casimir.relations(consts, a, b, c, one)
    central = casimir.realize(coeffs, a, b, c) - scalar(module.k) * one
    return {"linear": linear, "closure": closure, "central": central}


def relation_residuals(module, spec, values):
    """Exact residual matrices of both relations and the central value."""
    return _residuals(
        module, spec, values, module.a, module.b, module.c, Fraction
    )


def symmetric_gauge(module):
    """Float matrices in the symmetric gauge.

    The diagonal rescaling d[i + 1] / d[i] = sqrt(rho * Phi) makes the
    two off-diagonals of B equal; it needs every interior amplitude to
    be positive, which is exactly unitarity of the module.
    """
    n = module.dimension
    d = [1.0]
    for i in range(n - 1):
        up = module.b.entry(i + 1, i)
        if up <= 0:
            raise ValueError("symmetric gauge needs positive amplitudes")
        d.append(d[-1] * math.sqrt(float(up)))

    def conjugate(m):
        return Matrix._make(
            n,
            [
                {j: y for j, x in row.items() if (y := x * d[j] / d[i]) != 0}
                for i, row in enumerate(m.float_rows())
            ],
            1,
            False,
        )

    return conjugate(module.a), conjugate(module.b), conjugate(module.c)


def symmetric_gauge_residual(module, spec, values):
    """Largest float residual of the relations in the symmetric gauge."""
    a, b, c = symmetric_gauge(module)
    residuals = _residuals(module, spec, values, a, b, c, float)
    return _max_or_nan(
        m.max_abs() for m in (comm(a, b) - c, *residuals.values())
    )
