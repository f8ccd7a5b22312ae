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
from dataclasses import dataclass
from fractions import Fraction

from . import casimir, spectrum
from .casimir import acomm, comm  # noqa: F401  (acomm re-exported)


class Matrix:
    """Dense square matrix over any scalar: Fractions or floats."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values):
        n = len(values)
        return cls(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def __add__(self, other):
        return Matrix(
            [
                [x + y for x, y in zip(row, orow)]
                for row, orow in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            cols = list(zip(*other.rows))
            return Matrix(
                [
                    [sum(x * y for x, y in zip(row, col)) for col in cols]
                    for row in self.rows
                ]
            )
        return Matrix([[x * other for x in row] for row in self.rows])

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def max_abs(self):
        return max(abs(x) for row in self.rows for x in row)


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
    phi = tuple(sf.phi.evaluate(u + x).evaluate(values) for x in range(n + 1))
    if phi[0] != 0 or phi[n] != 0:
        raise ValueError("Phi does not truncate at lowest weight %s" % u)
    real = sf.realization

    def at(nf, i):
        return nf.evaluate(u + i).evaluate(values)

    a = Matrix.diagonal([at(real.a_of_nu, i) for i in range(n)])
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = at(real.b_of_nu, j)
        if j + 1 < n:
            rows[j + 1][j] = at(real.rho, j) * phi[j + 1]
            rows[j][j + 1] = Fraction(1)
    b = Matrix(rows)
    c = comm(a, b)
    k = sf.k.evaluate(values)
    return MatrixModule(u=u, dimension=n, a=a, b=b, c=c, k=k, phi=phi)


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
    consts = {
        name: scalar(v.evaluate(values)) for name, v in spec.as_dict().items()
    }
    coeffs = {
        name: scalar(v.evaluate(values))
        for name, v in spec.casimir_values().items()
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
        up = module.b.rows[i + 1][i]
        if up <= 0:
            raise ValueError("symmetric gauge needs positive amplitudes")
        d.append(d[-1] * math.sqrt(float(up)))

    def conjugate(m):
        return Matrix(
            [
                [float(m.rows[i][j]) * d[j] / d[i] for j in range(n)]
                for i in range(n)
            ]
        )

    return conjugate(module.a), conjugate(module.b), conjugate(module.c)


def symmetric_gauge_residual(module, spec, values):
    """Largest float residual of the relations in the symmetric gauge."""
    a, b, c = symmetric_gauge(module)
    residuals = _residuals(module, spec, values, a, b, c, float)
    return max(
        m.max_abs() for m in (comm(a, b) - c, *residuals.values())
    )
