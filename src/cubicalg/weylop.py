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

from .casimir import acomm, comm
from .errors import AmbiguousBasis, NotInSpan
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

    @classmethod
    def partial(cls, table, nx, ny):
        return cls(table, {(nx, ny): PolyFraction.const(table, 1)})

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
        out = {}
        for (ax, ay), f in self.parts.items():
            for (bx, by), g in other.parts.items():
                # derivative caches for g along each axis
                dx_cache = [g]
                for _ in range(ax):
                    dx_cache.append(dx_cache[-1].derivative(xname))
                for kx in range(ax + 1):
                    gx = dx_cache[kx]
                    if gx.is_zero():
                        continue
                    dy_cache = [gx]
                    for _ in range(ay):
                        dy_cache.append(dy_cache[-1].derivative(yname))
                    for ky in range(ay + 1):
                        gxy = dy_cache[ky]
                        if gxy.is_zero():
                            continue
                        coeff = f * gxy * (comb(ax, kx) * comb(ay, ky))
                        key = (ax - kx + bx, ay - ky + by)
                        if key in out:
                            out[key] = out[key] + coeff
                        else:
                            out[key] = coeff
        return DiffOp(self.table, out)

    def __rmul__(self, other):
        lifted = self._coerce_scalar(other)
        if lifted is None:
            return NotImplemented
        return lifted * self

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative operator power")
        out = DiffOp.from_scalar(self.table, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.table == other.table and self.parts == other.parts

    def format(self):
        if not self.parts:
            return "0"
        xname, yname = self.table.symbols[0], self.table.symbols[1]
        bits = []
        for key in sorted(self.parts, reverse=True):
            nx, ny = key
            label = ""
            if nx:
                label += " d%s" % xname if nx == 1 else " d%s^%d" % (xname, nx)
            if ny:
                label += " d%s" % yname if ny == 1 else " d%s^%d" % (yname, ny)
            bits.append("(%s)%s" % (self.parts[key].format(), label))
        return " + ".join(bits)

    __str__ = format

    def __repr__(self):
        return "DiffOp(%s)" % self.format()


def q5_symbol_table():
    return SymbolTable(
        ("x", "y", "h", "a", "i"),
        imaginary="i",
        atoms=("a", ("x-a", {"x": 1, "a": -1}), ("x+a", {"x": 1, "a": 1})),
    )


@dataclass
class OperatorSuite:
    """The conserved operator set of the two-wall system."""

    table: SymbolTable
    hamiltonian: DiffOp
    first_integral: DiffOp
    second_integral: DiffOp
    commutator: DiffOp
    angular_sign: int


_SUITE = None


def _scalar(table, text):
    return DiffOp.from_scalar(table, parse(text, table))


def build_suite():
    """Construct H, A, B and C = [A, B], verified exactly.

    The third-order integral involves the angular momentum, whose overall
    sign convention is fixed by requiring [H, B] = 0; both signs are
    tried and the surviving one is recorded.
    """
    table = q5_symbol_table()
    px = DiffOp(table, {(1, 0): parse("-1*i*h", table)})
    py = DiffOp(table, {(0, 1): parse("-1*i*h", table)})
    half = Fraction(1, 2)
    walls = "1/(x-a)^2 + 1/(x+a)^2"
    hamiltonian = (
        half * (px * px + py * py)
        + _scalar(table, "h^2*((x^2+y^2)/(4*a^4)/2 + %s)" % walls)
    )
    first = (
        half * (px * px - py * py)
        + _scalar(table, "h^2*((x^2-y^2)/(4*a^4)/2 + %s)" % walls)
    )
    if not comm(hamiltonian, first).is_zero():
        raise AssertionError("first integral fails to commute")
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
    h2 = parse("h^2", table)
    last_error = None
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
                raise AssertionError("commutator of integrals is not conserved")
            return OperatorSuite(table, hamiltonian, first, second, c_op, sign)
        last_error = sign
    raise AssertionError(
        "second integral fails to commute for both angular momentum signs"
        " (last tried %s)" % last_error
    )


def suite():
    global _SUITE
    if _SUITE is None:
        _SUITE = build_suite()
    return _SUITE


def express_in_basis(target, basis):
    """Write target as a scalar combination of basis operators.

    basis is a list of (label, DiffOp).  Returns {label: PolyFraction}
    with coefficients free of the coordinate symbols.  Raises NotInSpan
    when no combination matches and AmbiguousBasis when more than one
    does.
    """
    table = target.table
    keys = set(target.parts)
    for _, op in basis:
        check_same(table, op.table)
        keys |= set(op.parts)
    natoms = len(table.atoms)
    zero_pf = PolyFraction.const(table, 0)
    rows = {}
    x_idx, y_idx = table.index(table.symbols[0]), table.index(table.symbols[1])
    i_idx = table.imaginary_index
    h_idx = table.index("h")
    a_idx = table.index("a")
    for key in sorted(keys):
        cols = [op.parts.get(key, zero_pf) for _, op in basis]
        tgt = target.parts.get(key, zero_pf)
        lcm = [0] * natoms
        for pf in cols + [tgt]:
            lcm = [max(m, e) for m, e in zip(lcm, pf.den)]
        cleared = []
        for pf in cols + [tgt]:
            lift = [m - e for m, e in zip(lcm, pf.den)]
            poly = pf.num
            for k, e in enumerate(lift):
                if e:
                    poly = poly * MultiPoly.from_atom(table, k) ** e
            cleared.append(poly)
        for j, poly in enumerate(cleared):
            for exps, coeff in poly.terms.items():
                shape = (key, exps[x_idx], exps[y_idx], exps[i_idx])
                scalar_exps = [0] * table.nvars
                scalar_exps[h_idx] = exps[h_idx]
                scalar_exps[a_idx] = exps[a_idx]
                row = rows.setdefault(
                    shape,
                    [MultiPoly.zero(table) for _ in range(len(basis) + 1)],
                )
                row[j] = row[j] + MultiPoly.monomial(table, scalar_exps, coeff)
    matrix = []
    rhs = []
    seen = set()
    for shape in sorted(rows):
        row = rows[shape]
        key = tuple(tuple(sorted(p.terms.items())) for p in row)
        if key in seen:
            continue
        seen.add(key)
        matrix.append(row[: len(basis)])
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
