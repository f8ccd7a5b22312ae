"""Differential operators with exact rational-function coefficients.

A DiffOp maps derivative orders (nx, ny) to PolyFraction coefficients,
with composition by the Leibniz rule.  The module also builds the
two dimensional quantum system with two singular walls and a uniform
confining term, checks its conserved operators exactly, and rewrites
operator polynomials over a requested basis by exact linear solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

from ._memo import once
from .casimir import acomm, comm
from .errors import AmbiguousBasis, NotConserved, NotInSpan
from .exactnum import (
    InconsistentSystem,
    MultiPoly,
    PolyFraction,
    RankDeficientSystem,
    SymbolTable,
    check_same,
    parse,
    solve_exact,
)


class DiffOp:
    __slots__ = ("table", "parts")

    def __init__(self, table, parts):
        self.table = table
        self.parts = {
            key: value
            for key, value in parts.items()
            if not value.is_zero()
        }

    @classmethod
    def zero(cls, table):
        return cls(table, {})

    @classmethod
    def from_scalar(cls, table, value):
        if isinstance(value, (int, Fraction)):
            value = PolyFraction.const(table, value)
        elif isinstance(value, MultiPoly):
            value = PolyFraction(value)
        check_same(table, value.table)
        return cls(table, {(0, 0): value})

    def is_zero(self):
        return not self.parts

    def _coerce_scalar(self, value):
        if isinstance(value, (int, Fraction, MultiPoly, PolyFraction)):
            return DiffOp.from_scalar(self.table, value)
        return None

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            lifted = self._coerce_scalar(other)
            if lifted is None:
                return NotImplemented
            other = lifted
        check_same(self.table, other.table)
        parts = dict(self.parts)
        for key, value in other.parts.items():
            parts[key] = parts.get(key, PolyFraction.const(self.table, 0)) + value
        return DiffOp(self.table, parts)

    __radd__ = __add__

    def __neg__(self):
        return DiffOp(self.table, {k: -v for k, v in self.parts.items()})

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            lifted = self._coerce_scalar(other)
            if lifted is None:
                return NotImplemented
            other = lifted
        return self + (-other)

    def __rsub__(self, other):
        lifted = self._coerce_scalar(other)
        if lifted is None:
            return NotImplemented
        return lifted + (-self)

    def __mul__(self, other):
        if not isinstance(other, DiffOp):
            lifted = self._coerce_scalar(other)
            if lifted is None:
                return NotImplemented
            other = lifted
        check_same(self.table, other.table)
        xname, yname = self.table.symbols[0], self.table.symbols[1]
        # (part of other, kx, ky) -> its kx-th x and ky-th y derivative,
        # shared by every part of self
        memo = {}

        def derivative(key, kx, ky):
            got = memo.get((key, kx, ky))
            if got is None:
                if ky:
                    got = derivative(key, kx, ky - 1).derivative(yname)
                elif kx:
                    got = derivative(key, kx - 1, 0).derivative(xname)
                else:
                    got = other.parts[key]
                memo[key, kx, ky] = got
            return got

        # output part -> the (numerator, denominator exponents) of its
        # Leibniz terms, summed into one PolyFraction at the end
        out = {}
        for (ax, ay), f in self.parts.items():
            for part in other.parts:
                bx, by = part
                for kx in range(ax + 1):
                    if derivative(part, kx, 0).is_zero():
                        continue
                    for ky in range(ay + 1):
                        gxy = derivative(part, kx, ky)
                        if gxy.is_zero():
                            continue
                        num = f.num * gxy.num
                        binom = comb(ax, kx) * comb(ay, ky)
                        if binom != 1:
                            num = num * binom
                        den = tuple(map(add, f.den, gxy.den))
                        key = (ax - kx + bx, ay - ky + by)
                        out.setdefault(key, []).append((num, den))
        return DiffOp(
            self.table,
            {key: PolyFraction.sum(self.table, terms) for key, terms in out.items()},
        )

    def __rmul__(self, other):
        lifted = self._coerce_scalar(other)
        if lifted is None:
            return NotImplemented
        return lifted * self

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.table == other.table and self.parts == other.parts


def q5_symbol_table():
    return SymbolTable(
        ("x", "y", "g", "a"),
        atoms=("a", ("x-a", {"x": 1, "a": -1}), ("x+a", {"x": 1, "a": 1})),
    )


@dataclass
class OperatorSuite:
    """The conserved operator set of the two-wall system; identities
    names the commutators with H that suite proved zero."""

    table: SymbolTable
    hamiltonian: DiffOp
    first_integral: DiffOp
    second_integral: DiffOp
    commutator: DiffOp
    identities: tuple = ("[H,A]", "[H,B]", "[H,[A,B]]")


def _scalar(table, text):
    return DiffOp.from_scalar(table, parse(text, table))


@once
def suite():
    """Construct H, A, B and C = [A, B], verified exactly, on the first
    call; every call returns that suite.

    The suite is written over the real symbol g = -i*h, so the momenta
    are p = g d and h^2 = -g^2, and every coefficient is rational.  This
    is exact, not an approximation: every structure constant and the
    Casimir value is even in h, and algebra.transfer_scalar, which maps
    g^e to (-1)^(e/2) h^e, raises on an odd power.

    The third-order integral involves the angular momentum, whose overall
    sign convention is fixed by requiring [H, B] = 0; both signs are
    tried and the first that passes builds B.  Raises NotConserved when
    an identity fails.
    """
    table = q5_symbol_table()
    px = DiffOp(table, {(1, 0): parse("g", table)})
    py = DiffOp(table, {(0, 1): parse("g", table)})
    half = Fraction(1, 2)
    walls = "1/(x-a)^2 + 1/(x+a)^2"
    hamiltonian = (
        half * (px * px + py * py)
        + _scalar(table, "-g^2*((x^2+y^2)/(4*a^4)/2 + %s)" % walls)
    )
    first = (
        half * (px * px - py * py)
        + _scalar(table, "-g^2*((x^2-y^2)/(4*a^4)/2 + %s)" % walls)
    )
    if not comm(hamiltonian, first).is_zero():
        raise NotConserved("first integral fails to commute")
    f_y = _scalar(
        table,
        "y*((4*a^2-x^2)/(4*a^4) - 6*(x^2+a^2)/(x^2-a^2)^2)",
    )
    f_x = _scalar(
        table,
        "x*((x^2-4*a^2)/(4*a^4) - 2/(x^2-a^2) + 4*(x^2+a^2)/(x^2-a^2)^2)",
    )
    x_op = _scalar(table, "x")
    y_op = _scalar(table, "y")
    h2 = parse("-g^2", table)
    for sign in (1, -1):
        angular = sign * (x_op * py - y_op * px)
        second = (
            acomm(angular, px * px)
            + h2 * acomm(f_y, px)
            + h2 * acomm(f_x, py)
        )
        if comm(hamiltonian, second).is_zero():
            c_op = comm(first, second)
            if not comm(hamiltonian, c_op).is_zero():
                raise NotConserved("commutator of integrals is not conserved")
            return OperatorSuite(table, hamiltonian, first, second, c_op)
    raise NotConserved(
        "second integral fails to commute for both angular momentum signs"
    )


def express_in_basis(target, basis):
    """Write target as a scalar combination of basis operators.

    basis is a list of (label, DiffOp).  Returns {label: PolyFraction}
    with coefficients free of the coordinate symbols, the first two of
    the table; every other symbol stays in the coefficients.  Raises
    NotInSpan when no combination matches and AmbiguousBasis when more
    than one does.
    """
    table = target.table
    keys = set(target.parts)
    for _, op in basis:
        check_same(table, op.table)
        keys |= set(op.parts)
    zero_pf = PolyFraction.const(table, 0)
    ncols = len(basis) + 1
    # shape -> one cell per column: the {scalar exponents: integer} of
    # one lifted numerator, with that numerator's content
    rows = {}
    for key in sorted(keys):
        cells = [op.parts.get(key, zero_pf) for _, op in basis]
        cells.append(target.parts.get(key, zero_pf))
        lcm = tuple(max(col) for col in zip(*(pf.den for pf in cells)))
        for j, pf in enumerate(cells):
            poly = pf.num
            if pf.den != lcm:
                poly = poly * MultiPoly.atom_product(
                    table, tuple(m - e for m, e in zip(lcm, pf.den))
                )
            for exps, coeff in poly.ints.items():
                shape = (key, exps[0], exps[1])
                scalar_exps = (0, 0) + exps[2:]
                row = rows.get(shape)
                if row is None:
                    row = rows[shape] = [None] * ncols
                cell = row[j]
                if cell is None:
                    cell = row[j] = ({}, poly.cn, poly.cd)
                ints = cell[0]
                if scalar_exps in ints:
                    ints[scalar_exps] += coeff
                else:
                    ints[scalar_exps] = coeff
    matrix = []
    rhs = []
    seen = set()
    for shape in sorted(rows):
        row = tuple(
            MultiPoly.zero(table) if cell is None
            else MultiPoly.from_ints(table, *cell)
            for cell in rows.pop(shape)
        )
        if row in seen:
            continue
        seen.add(row)
        matrix.append(list(row[: len(basis)]))
        rhs.append(row[len(basis)])
    try:
        pairs = solve_exact(matrix, rhs)
    except InconsistentSystem as exc:
        raise NotInSpan(str(exc)) from None
    except RankDeficientSystem as exc:
        raise AmbiguousBasis(str(exc)) from None
    out = {}
    for (label, _), (num, den) in zip(basis, pairs):
        value = PolyFraction(num) * PolyFraction(den).invert()
        out[label] = value
    combo = DiffOp.zero(table)
    for (label, op) in basis:
        combo = combo + out[label] * op
    if not (combo - target).is_zero():
        raise NotInSpan("verification residual is nonzero")
    return out
