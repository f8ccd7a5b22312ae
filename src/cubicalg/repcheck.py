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
from itertools import chain
from operator import add, mul

from . import casimir, spectrum
from .casimir import comm
from .exactnum import PoleError


class Matrix:
    """Square matrix, exact or float, stored by its diagonals.

    The diagonal at offset o = j - i is one list whose entry t sits at
    row t - min(o, 0) and column t + max(o, 0), so t = min(i, j).  Only
    diagonals that hold a nonzero entry are kept, in ascending offset
    order.  A module is a band matrix (A diagonal, B tridiagonal), so
    every product in the relations stays within a few diagonals, and an
    operation is a few list operations per diagonal, or per pair of
    diagonals for a product, rather than a loop per entry.

    A matrix has one of two kinds.  An exact matrix (every entry an int
    or a Fraction) holds integer numerators over one positive common
    denominator den, in lowest terms: den and the numerators have gcd 1,
    so a value is stored one way only.  A product multiplies the
    numerators and the two dens, a sum scales both sides to the lcm of
    the dens, and a rational scalar scales the numerators by its
    numerator and den by its denominator.  Each result then takes one
    gcd over den and its numerators, skipped when den is 1, where
    Fraction entries would pay a gcd for every + and *.

    A float matrix (any other entry) holds float(x) for every entry and
    den None; a zero that its arithmetic leaves may be held as int 0.  A
    product takes the left offsets in ascending order, so each entry
    sums x * y over k in ascending order, as the dense formulas do.  A
    term with a zero factor is left out, not computed, so a zero inside
    a band never meets an inf to make a NaN; adding a zero changes no
    nonzero float.

    The two kinds do not mix: +, - and * between an exact and a float
    matrix, and an exact matrix times a float scalar, raise TypeError.
    rows gives the dense form, an exact entry as Fraction(x, den) and
    a float matrix with 0.0 off its nonzero entries, so
    Matrix(m.rows) == m; == and hash compare kind and values.
    """

    __slots__ = ("_size", "_diags", "den")

    def __init__(self, rows):
        rows = [tuple(row) for row in rows]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self._store(n, {
            o: [rows[t - min(o, 0)][t + max(o, 0)] for t in range(n - abs(o))]
            for o in range(1 - n, n)
        })

    @classmethod
    def _of(cls, size, diags):
        """Matrix from diagonals {offset: entries} of any values."""
        m = object.__new__(cls)
        m._store(size, diags)
        return m

    def _store(self, size, diags):
        values = [x for d in diags.values() for x in d]
        if all(isinstance(x, (int, Fraction)) for x in values):
            # the lcm of reduced denominators leaves numerators with gcd 1
            den = lcm(*(x.denominator for x in values))
            diags = {
                o: [x.numerator * (den // x.denominator) for x in d]
                for o, d in diags.items()
            }
        else:
            den = None
            diags = {o: [float(x) for x in d] for o, d in diags.items()}
        self._size, self.den, self._diags = size, den, _band(diags)

    @classmethod
    def _make(cls, size, diags, den):
        """Matrix from stored diagonals, all-zero ones dropped: floats
        when den is None, else integer numerators over den, brought to
        lowest terms."""
        if den is not None and den != 1:
            g = gcd(den, *chain.from_iterable(diags.values()))
            if g != 1:
                diags = {o: [x // g for x in d] for o, d in diags.items()}
                den //= g
        m = object.__new__(cls)
        m._size, m.den, m._diags = size, den, _band(diags)
        return m

    @classmethod
    def diagonal(cls, values):
        values = list(values)
        return cls._of(len(values), {0: values})

    @property
    def rows(self):
        """Dense rows, a tuple of tuples with 0 (0.0 in a float matrix)
        off the nonzero entries."""
        n, den = self._size, self.den
        dense = [[0.0 if den is None else 0] * n for _ in range(n)]
        for o, d in self._diags.items():
            for t, x in enumerate(d):
                if x:
                    dense[t - min(o, 0)][t + max(o, 0)] = (
                        x if den is None else Fraction(x, den)
                    )
        return tuple(map(tuple, dense))

    def _same_kind(self, other):
        if (self.den is None) is not (other.den is None):
            raise TypeError("exact and float matrices do not mix")

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        self._same_kind(other)
        den, mine, theirs = None, 1, sign
        if self.den is not None:
            den = lcm(self.den, other.den)
            mine, theirs = den // self.den, sign * (den // other.den)
        return Matrix._make(self._size, _merged(
            _scaled(self._diags, mine), _scaled(other._diags, theirs)
        ), den)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        n, den = self._size, self.den
        if isinstance(other, Matrix):
            self._same_kind(other)
            if den is None:
                return Matrix._make(n, _product(
                    self._diags, other._diags, n, _nonzero_products), None)
            return Matrix._make(n, _product(
                self._diags, other._diags, n, _int_products), den * other.den)
        if den is None:
            return Matrix._make(n, {
                o: [x * other if x else 0 for x in d]
                for o, d in self._diags.items()
            }, None)
        if not isinstance(other, (int, Fraction)):
            raise TypeError("an exact matrix takes an int or Fraction scalar")
        k = other.numerator
        return Matrix._make(
            n,
            {o: [x * k for x in d] for o, d in self._diags.items()},
            den * other.denominator,
        )

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self._size == other._size
                and self.den == other.den and self._diags == other._diags)

    def __hash__(self):
        return hash((
            self._size,
            self.den,
            tuple((o, tuple(d)) for o, d in self._diags.items()),
        ))

    def is_zero(self):
        return not self._diags

    def max_abs(self):
        values = (abs(x) for d in self._diags.values() for x in d if x)
        if self.den is None:
            return _max_or_nan(values)
        return Fraction(max(values, default=0), self.den)


def _band(diags):
    """diags in ascending offset order, without the all-zero ones."""
    return {o: d for o, d in sorted(diags.items()) if any(d)}


def _scaled(diags, m):
    if m == 1:
        return diags
    return {o: [x * m for x in d] for o, d in diags.items()}


def _merged(left, right):
    """Diagonals of left + right.  A zero operand changes no nonzero
    float, an inf or a NaN included, so no sum needs to skip it."""
    out = dict(left)
    for o, ys in right.items():
        xs = out.get(o)
        out[o] = ys if xs is None else list(map(add, xs, ys))
    return out


def _int_products(xs, ys):
    return list(map(mul, xs, ys))


def _nonzero_products(xs, ys):
    return [x * y if x and y else 0 for x, y in zip(xs, ys)]


def _product(left, right, n, products):
    """Diagonals of the n x n product left * right.

    Entry (i, j) sums left[i, k] * right[k, j] over the pairs of offsets
    (j - i = o1 + o2, k = i + o1), and the outer loop takes left's
    offsets in ascending order, so the terms of an entry are added with
    k ascending.  products(xs, ys) multiplies two slices entry by entry.
    """
    out = {}
    for o1, xs in left.items():
        for o2, ys in right.items():
            o = o1 + o2
            # the rows i that have both k = i + o1 and j = i + o in range
            lo, hi = max(0, -o1, -o), min(n, n - o1, n - o)
            if lo >= hi:
                continue
            a1, a2, a = lo + min(o1, 0), lo + o1 + min(o2, 0), lo + min(o, 0)
            terms = products(xs[a1:a1 + hi - lo], ys[a2:a2 + hi - lo])
            acc = out.get(o)
            if acc is None and hi - lo == n - abs(o):
                out[o] = terms
                continue
            if acc is None:
                acc = out[o] = [0] * (n - abs(o))
            acc[a:a + hi - lo] = map(add, acc[a:a + hi - lo], terms)
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
    b = Matrix._of(n, {
        -1: [rho_at(u + i) * phi[i + 1] for i in range(n - 1)],
        0: [b_at(u + i) for i in range(n)],
        1: [1] * (n - 1),
    })
    c = comm(a, b)
    k = sf.k.evaluate(values)
    return MatrixModule(u=u, dimension=n, a=a, b=b, c=c, k=k, phi=phi)


def _valued(nf, values):
    """nf with values put into its coefficients once: a function of
    rational nu that evaluates over the integers.

    The coefficients c_i become integers over one common denominator D.
    At nu = n / d the numerator times D * d^deg is the integer
    sum c_i * n^i * d^(deg - i), summed by Horner, and each pole factor
    (nu - r)^m joins as an integer numerator and denominator, so a call
    builds one Fraction.
    """
    coeffs = [c.evaluate(values) for c in nf.num]
    common = lcm(*(c.denominator for c in coeffs))
    top_first = [c.numerator * (common // c.denominator)
                 for c in reversed(coeffs)]
    poles = [(r.numerator, r.denominator, m) for r, m in nf.den]
    deg = max(len(coeffs) - 1, 0)

    def at(point):
        n, d = point.numerator, point.denominator
        num, den, power = 0, common * d ** deg, 1
        for c in top_first:
            num = num * n + c * power
            power *= d
        for rn, rd, m in poles:
            # point - r = gap / (d * rd)
            gap = n * rd - rn * d
            if not gap:
                raise PoleError("nu = %s is a pole" % (point,))
            num *= (d * rd) ** m
            den *= gap ** m
        return Fraction(num, den)

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
    one = Matrix.diagonal([scalar(1)] * module.dimension)
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
    n, b = module.dimension, module.b
    d = [1.0]
    # B's lower diagonal, rho * Phi, as numerators over b.den
    for up in b._diags.get(-1, [0] * (n - 1)):
        if up <= 0:
            raise ValueError("symmetric gauge needs positive amplitudes")
        d.append(d[-1] * math.sqrt(up / b.den))

    def conjugate(m):
        # entry (i, j) is x / den, rounded once as float(Fraction) rounds
        # it, times d[j] / d[i]; a zero entry stays zero even where d
        # overflows
        den = m.den
        return Matrix._make(
            n,
            {
                o: [x / den * dj / di if x else 0
                    for x, di, dj in zip(xs, d[max(-o, 0):], d[max(o, 0):])]
                for o, xs in m._diags.items()
            },
            None,
        )

    return conjugate(module.a), conjugate(module.b), conjugate(module.c)


def symmetric_gauge_residual(module, spec, values):
    """Largest float residual of the relations in the symmetric gauge."""
    a, b, c = symmetric_gauge(module)
    residuals = _residuals(module, spec, values, a, b, c, float)
    return _max_or_nan(
        m.max_abs() for m in (comm(a, b) - c, *residuals.values())
    )
