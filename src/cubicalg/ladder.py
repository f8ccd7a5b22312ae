"""Deformed oscillator realization of the cubic algebra.

The generators act through a number-like operator nu and a
raising/lowering pair subject to

    b f(nu) = f(nu + 1) b        f(nu) bp = bp f(nu + 1)
    b bp = Phi(nu + 1)           bp b = Phi(nu)

with the structure function Phi left as an unknown.  A is a function of
nu, B is bp rho(nu) + b(nu) + b, and C follows as [A, B].  Writing the
defining relations and the central element in this ring turns each
ladder offset into an exact functional equation; the two offset-zero
equations form a linear pair for Phi(nu) and Phi(nu + 1).  Everything
is verified by substituting the solution back into every offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import casimir
from .casimir import comm
from .errors import (
    CubicalgError,
    NonPolynomialStructure,
    SingularSystem,
    UnsupportedCase,
)
from .exactnum import ExactDivisionError, MultiPoly, NFunc, PolyFraction

MAX_PHI_DEGREE = 10


class PhiPoly:
    """Affine expression s(nu) + sum c_j(nu) Phi(nu + j).

    The calculus for a cubic algebra never multiplies two structure
    symbols; a product that would is reported as nonpolynomial.
    """

    __slots__ = ("table", "scalar", "linear")

    def __init__(self, scalar, linear=None):
        self.table = scalar.table
        self.scalar = scalar
        pruned = {}
        for j, coeff in (linear or {}).items():
            if not coeff.is_zero():
                pruned[j] = coeff
        self.linear = pruned

    def is_zero(self):
        return self.scalar.is_zero() and not self.linear

    def __add__(self, other):
        linear = dict(self.linear)
        for j, coeff in other.linear.items():
            linear[j] = linear[j] + coeff if j in linear else coeff
        return PhiPoly(self.scalar + other.scalar, linear)

    def __neg__(self):
        return PhiPoly(-self.scalar, {j: -c for j, c in self.linear.items()})

    def scaled(self, factor):
        factor = NFunc.coerce(self.table, factor)
        return PhiPoly(
            self.scalar * factor,
            {j: c * factor for j, c in self.linear.items()},
        )

    def times(self, other):
        if self.linear and other.linear:
            raise NonPolynomialStructure(
                "product of two structure-symbol terms"
            )
        if other.linear:
            return other.scaled(self.scalar)
        return self.scaled(other.scalar)

    def times_phi(self, j):
        """Multiply by Phi(nu + j)."""
        if self.linear:
            raise NonPolynomialStructure(
                "product of two structure-symbol terms"
            )
        return PhiPoly(
            NFunc.const(self.table, 0), {j: self.scalar}
        )

    def shift(self, m):
        return PhiPoly(
            self.scalar.shift(m),
            {j + m: c.shift(m) for j, c in self.linear.items()},
        )

    def substitute(self, phi):
        out = self.scalar
        for j, coeff in self.linear.items():
            out = out + coeff * phi.shift(j)
        return out


class LadderExpr:
    """Linear combination of ladder monomials.

    parts maps an offset m to a PhiPoly F: the term is bp^m F(nu) for
    m >= 0 and F(nu) b^|m| for m < 0.
    """

    __slots__ = ("table", "parts")

    def __init__(self, table, parts):
        self.table = table
        self.parts = {m: f for m, f in parts.items() if not f.is_zero()}

    @classmethod
    def from_scalar(cls, table, value):
        return cls(table, {0: PhiPoly(NFunc.coerce(table, value))})

    @classmethod
    def raising(cls, table, value):
        return cls(table, {1: PhiPoly(NFunc.coerce(table, value))})

    @classmethod
    def lowering(cls, table, value):
        return cls(table, {-1: PhiPoly(NFunc.coerce(table, value))})

    def is_zero(self):
        return not self.parts

    def component(self, m):
        if m in self.parts:
            return self.parts[m]
        return PhiPoly(NFunc.const(self.table, 0))

    def offsets(self):
        return sorted(self.parts)

    def __add__(self, other):
        if not isinstance(other, LadderExpr):
            return NotImplemented
        parts = dict(self.parts)
        for m, f in other.parts.items():
            parts[m] = parts[m] + f if m in parts else f
        return LadderExpr(self.table, parts)

    def __neg__(self):
        return LadderExpr(self.table, {m: -f for m, f in self.parts.items()})

    def __sub__(self, other):
        if not isinstance(other, LadderExpr):
            return NotImplemented
        return self + (-other)

    def scaled(self, factor):
        factor = NFunc.coerce(self.table, factor)
        return LadderExpr(
            self.table, {m: f.scaled(factor) for m, f in self.parts.items()}
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly, PolyFraction, NFunc)):
            return self.scaled(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly, PolyFraction, NFunc)):
            return self.scaled(other)
        if not isinstance(other, LadderExpr):
            return NotImplemented
        out = {}
        for m1, f1 in self.parts.items():
            for m2, f2 in other.parts.items():
                m, f = _mul_terms(m1, f1, m2, f2)
                out[m] = out[m] + f if m in out else f
        return LadderExpr(self.table, out)

    def substitute_phi(self, phi):
        """Collapse every structure symbol to the concrete function."""
        out = {}
        for m, f in self.parts.items():
            out[m] = PhiPoly(f.substitute(phi))
        return LadderExpr(self.table, out)

    def __eq__(self, other):
        if not isinstance(other, LadderExpr):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None


def _mul_terms(m1, f1, m2, f2):
    """Product of canonical terms; returns (offset, PhiPoly)."""
    p1, q1 = (m1, 0) if m1 >= 0 else (0, -m1)
    p2, q2 = (m2, 0) if m2 >= 0 else (0, -m2)
    crossings = min(q1, p2)
    if q1 <= p2:
        # b^q1 bp^p2 = bp^(p2-q1) Phi(nu+p2-q1+1) ... Phi(nu+p2)
        extra = p2 - q1
        mid = f1.shift(extra)
        for i in range(crossings):
            mid = mid.times_phi(p2 - i)
        mid = mid.times(f2)
        up, down = p1 + extra, q2
    else:
        # b^q1 bp^p2 = Phi(nu+1) ... Phi(nu+p2) b^(q1-p2)
        extra = q1 - p2
        g = f2
        for i in range(crossings):
            g = g.times_phi(p2 - i)
        mid = f1.times(g.shift(extra))
        up, down = p1, extra + q2
    while up > 0 and down > 0:
        # bp F(nu) b = F(nu-1) Phi(nu)
        mid = mid.shift(-1).times_phi(0)
        up -= 1
        down -= 1
    return up - down, mid


@dataclass(frozen=True)
class Realization:
    """Ladder data below the structure function."""

    case: str
    a_of_nu: NFunc
    b_of_nu: NFunc
    rho: NFunc


def derive_realization(spec):
    """Solve the [A, C] relation for A(nu), b(nu) and fix the gauge.

    The difference equation (A(nu+1) - A(nu))^2 = beta (A(nu+1) + A(nu))
    + delta has a quadratic solution when beta is invertible and a
    linear one when beta = 0 and delta is an exact square; both
    constants vanishing leaves C = 0 and no oscillator at all.
    """
    table = spec.table
    nu_var = NFunc.nu(table)
    if not spec.beta.is_zero():
        try:
            inv_beta = spec.beta.invert()
        except ExactDivisionError:
            raise UnsupportedCase(
                "beta = %s is not invertible" % spec.beta.format()
            ) from None
        half_beta = spec.beta * Fraction(1, 2)
        a_of_nu = (
            NFunc(table, [0, 0, half_beta])
            - Fraction(1, 8) * spec.beta
            - spec.delta * inv_beta * Fraction(1, 2)
        )
        # 2 beta A + delta = beta^2 (nu - 1/2)(nu + 1/2)
        inv_den = NFunc(
            table,
            [inv_beta * inv_beta],
            [(Fraction(1, 2), 1), (Fraction(-1, 2), 1)],
        )
        b_of_nu = (
            -(
                spec.alpha * a_of_nu * a_of_nu
                + spec.gamma * a_of_nu
                + spec.epsilon
            )
            * inv_den
        )
        rho_scale = (spec.beta ** 8 * 49152).invert()
        rho = NFunc(
            table,
            [rho_scale],
            [(Fraction(0), 1), (Fraction(-1), 1), (Fraction(-1, 2), 2)],
        )
        return Realization("quadratic", a_of_nu, b_of_nu, rho)
    if spec.delta.is_zero():
        raise UnsupportedCase(
            "beta = delta = 0 leaves no ladder: C would vanish"
        )
    try:
        root = spec.delta.sqrt()
        inv_root = root.invert()
    except (ValueError, ExactDivisionError):
        raise UnsupportedCase(
            "delta = %s has no exact square root" % spec.delta.format()
        ) from None
    a_of_nu = root * nu_var
    b_of_nu = NFunc(
        table,
        [
            -spec.epsilon * inv_root * inv_root,
            -spec.gamma * inv_root,
            -spec.alpha,
        ],
    )
    rho = NFunc.const(table, 1)
    return Realization("linear", a_of_nu, b_of_nu, rho)


@dataclass(frozen=True)
class StructureFunction:
    """Realization together with the derived Phi."""

    spec: object
    k: PolyFraction
    realization: Realization
    phi: NFunc


def generators(spec, realization):
    """Ladder expressions for A, B and C = [A, B]."""
    table = spec.table
    a_expr = LadderExpr.from_scalar(table, realization.a_of_nu)
    b_expr = (
        LadderExpr.raising(table, realization.rho)
        + LadderExpr.from_scalar(table, realization.b_of_nu)
        + LadderExpr.lowering(table, 1)
    )
    return a_expr, b_expr, comm(a_expr, b_expr)


def derive_structure_function(spec, k):
    """Derive Phi from the defining relations and the central value k.

    The offset-zero components of [B, C] and of the central element
    give two equations linear in Phi(nu) and Phi(nu + 1); they are
    solved exactly, checked for shift consistency, and the result is
    substituted back into every offset of every relation.
    """
    table = spec.table
    lifted = PolyFraction.coerce(table, k)
    if lifted is None:
        raise TypeError("cannot use %r as the central value" % (k,))
    k = lifted
    realization = derive_realization(spec)
    a_expr, b_expr, c_expr = generators(spec, realization)
    one = LadderExpr.from_scalar(table, 1)
    eq_linear, eq_closure = casimir.relations(
        spec.as_dict(), a_expr, b_expr, c_expr, one
    )
    central = casimir.realize(
        spec.casimir_values(), a_expr, b_expr, c_expr
    )
    eq_central = central - k * one
    zero = NFunc.const(table, 0)
    rows = []
    for eq in (eq_closure, eq_central):
        part = eq.component(0)
        if any(j not in (0, 1) for j in part.linear):
            raise CubicalgError(
                "unexpected structure-symbol shifts %s at offset zero"
                % sorted(part.linear)
            )
        rows.append(
            (
                part.linear.get(1, zero),
                part.linear.get(0, zero),
                part.scalar,
            )
        )
    (a1, b1, r1), (a2, b2, r2) = rows
    det = a1 * b2 - a2 * b1
    if det.is_zero():
        raise SingularSystem(
            "offset-zero equations do not determine the structure function"
        )
    try:
        inv_det = det.invert()
    except ExactDivisionError:
        raise UnsupportedCase(
            "elimination determinant does not factor over the rationals"
        ) from None
    phi0 = (a2 * r1 - a1 * r2) * inv_det
    phi1 = (r2 * b1 - r1 * b2) * inv_det
    if phi1 != phi0.shift(1):
        raise CubicalgError(
            "the two offset-zero solutions are not shifts of one function"
        )
    if not phi0.is_polynomial():
        raise NonPolynomialStructure(
            "structure function is not polynomial: %s" % phi0.format()
        )
    if phi0.degree() > MAX_PHI_DEGREE:
        raise NonPolynomialStructure(
            "structure function degree %d exceeds the cubic bound %d"
            % (phi0.degree(), MAX_PHI_DEGREE)
        )
    checks = (
        ("[A, B] - C", comm(a_expr, b_expr) - c_expr),
        ("[A, C] relation", eq_linear),
        ("[B, C] relation", eq_closure),
        ("central element", eq_central),
    )
    for label, eq in checks:
        residual = eq.substitute_phi(phi0)
        if not residual.is_zero():
            raise CubicalgError(
                "%s leaves a nonzero residual at offsets %s"
                % (label, residual.offsets())
            )
    return StructureFunction(
        spec=spec, k=k, realization=realization, phi=phi0
    )
