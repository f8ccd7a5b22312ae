"""An independent oracle for the exact q5 derivation, built on sympy.

weylop.suite()'s H, A, B and C are read at fixed rational (h, a) into
coefficients n / w^k, where n is a sympy polynomial in x and y (real and
imaginary parts apart) and w = x^2 - a^2 carries both wall poles.  They
are composed by the Leibniz rule with sympy's own derivatives, and each
relation is solved over its operator basis by sympy's exact row
reduction.  The nine structure constants and the Casimir value k
recomputed this way must equal algebra.q5_algebra() at sample points
(E, h, a).  The Casimir coefficients as polynomials in the nine
constants (casimir.casimir_coefficients) are algebra-level data and are
taken as given; everything that touches the operators is redone.
"""

from fractions import Fraction
from math import comb

import pytest

pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from cubicalg import algebra, casimir, weylop  # noqa: E402
from cubicalg.exactnum import MultiPoly  # noqa: E402

XY, X, Y = ring("x,y", QQ)
ERING, E = ring("E", QQ)
# (E, h, a): away from the poles and from small integers
POINTS = ((Fraction(1, 3), Fraction(2), Fraction(3)),
          (Fraction(-5, 2), Fraction(1, 2), Fraction(7, 5)))


def q(value):
    value = Fraction(value)
    return QQ(value.numerator, value.denominator)


class Oracle:
    """Operators {(nx, ny): (re, im, k)} meaning (re + i im) / w^k."""

    def __init__(self, h, a):
        self.h, self.a = q(h), q(a)
        self.w = X ** 2 - self.a ** 2
        self.zero = (XY(0), XY(0), 0)

    def coeff(self, poly):
        """A MultiPoly at the fixed h, a, as (re, im) over Q[x, y].

        The suite writes g = -i h, so g^n contributes (-i h)^n.
        """
        table = poly.table
        ix, iy, ig, ia = (table.index(n) for n in "xyga")
        parts = [XY(0), XY(0)]
        for exps, c in poly.terms.items():
            value = q(c) * self.h ** exps[ig] * self.a ** exps[ia]
            # (-i)^n for n = 0, 1, 2, 3 mod 4: 1, -i, -1, i
            sign, part = ((1, 0), (-1, 1), (-1, 0), (1, 1))[exps[ig] % 4]
            parts[part] += sign * value * X ** exps[ix] * Y ** exps[iy]
        return parts

    def operator(self, op):
        table = op.table
        out = {}
        for key, pf in op.parts.items():
            re, im = self.coeff(pf.num)
            walls = {}
            for k, e in enumerate(pf.den):
                atom = self.coeff(MultiPoly.from_atom(table, k))[0]
                if atom.is_ground:
                    re, im = re / atom.LC ** e, im / atom.LC ** e
                else:
                    walls[atom] = e
            # over w^m = (x-a)^m (x+a)^m
            m = max(walls.values(), default=0)
            for atom in (X - self.a, X + self.a):
                spare = atom ** (m - walls.get(atom, 0))
                re, im = re * spare, im * spare
            out[key] = (re, im, m)
        return out

    def lift(self, c, k):
        factor = self.w ** (k - c[2])
        return c[0] * factor, c[1] * factor

    def plus(self, c, d):
        k = max(c[2], d[2])
        (cr, ci), (dr, di) = self.lift(c, k), self.lift(d, k)
        return (cr + dr, ci + di, k)

    def derivative(self, c, var):
        """d(n / w^k) = (n' w - k n w') / w^(k+1)."""
        re, im, k = c
        slope = self.w.diff(var)
        if not slope:
            return (re.diff(var), im.diff(var), k)
        return (re.diff(var) * self.w - k * re * slope,
                im.diff(var) * self.w - k * im * slope, k + 1)

    def reduce(self, c):
        re, im, k = c
        while k:
            (qr, rr), (qi, ri) = re.div(self.w), im.div(self.w)
            if rr or ri:
                break
            re, im, k = qr, qi, k - 1
        return (re, im, k)

    def tidy(self, op):
        return {key: self.reduce(c) for key, c in op.items() if c[0] or c[1]}

    def compose(self, p, r):
        """(f d^u)(g d^v) = sum_j C(u, j) f (d^j g) d^(u-j+v), per axis."""
        out = {}
        derivs = {}
        for (ux, uy), (fr, fi, fk) in p.items():
            for key, g in r.items():
                for jx in range(ux + 1):
                    for jy in range(uy + 1):
                        if (key, jx, jy) not in derivs:
                            d = g
                            for _ in range(jx):
                                d = self.derivative(d, X)
                            for _ in range(jy):
                                d = self.derivative(d, Y)
                            derivs[key, jx, jy] = d
                        gr, gi, gk = derivs[key, jx, jy]
                        c = comb(ux, jx) * comb(uy, jy)
                        term = (c * (fr * gr - fi * gi),
                                c * (fr * gi + fi * gr), fk + gk)
                        target = (ux - jx + key[0], uy - jy + key[1])
                        out[target] = self.plus(out.get(target, self.zero), term)
        return self.tidy(out)

    def add(self, *ops):
        out = {}
        for op in ops:
            for key, c in op.items():
                out[key] = self.plus(out.get(key, self.zero), c)
        return self.tidy(out)

    def scale(self, op, s):
        return {key: (s * re, s * im, k) for key, (re, im, k) in op.items()}

    def commutator(self, p, r):
        return self.add(self.compose(p, r), self.scale(self.compose(r, p), -1))

    def solve(self, target, basis):
        """Real coefficients c_j with target = sum c_j basis_j, unique.

        With c = u + i v, the real and imaginary parts of each derivative
        coefficient, over one power of w, give two polynomial identities
        in x, y; the solution must have every v = 0.
        """
        n = len(basis)
        rows = {}
        for key in set(target).union(*basis):
            cols = [op.get(key, self.zero) for op in basis]
            tgt = target.get(key, self.zero)
            k = max(c[2] for c in cols + [tgt])
            cols = [self.lift(c, k) for c in cols]
            tr, ti = self.lift(tgt, k)
            for side in (0, 1):
                # real part: u re - v im; imaginary part: u im + v re
                entries = [c[side] for c in cols]
                entries += [-c[1] if side == 0 else c[0] for c in cols]
                entries.append(ti if side else tr)
                for j, poly in enumerate(entries):
                    for monom, value in poly.terms():
                        row = rows.setdefault((key, side, monom),
                                              [QQ(0)] * (2 * n + 1))
                        row[j] += value
        matrix = DomainMatrix(list(rows.values()), (len(rows), 2 * n + 1), QQ)
        reduced, pivots = matrix.rref()
        assert pivots == tuple(range(2 * n)), "no unique solution"
        solution = [reduced[i, 2 * n].element for i in range(2 * n)]
        assert not any(solution[n:]), "a coefficient is not real"
        return solution[:n]

    def derive(self):
        """Nine constants as polynomials in E, and k, at the fixed h, a."""
        suite = weylop.suite()
        H, A, B, C = (self.operator(op) for op in (
            suite.hamiltonian, suite.first_integral, suite.second_integral,
            suite.commutator))
        mul, add = self.compose, self.add
        one = {(0, 0): (XY(1), XY(0), 0)}
        h2 = mul(H, H)
        h3 = mul(h2, H)
        aa = mul(A, A)
        bb = mul(B, B)
        ab = add(mul(A, B), mul(B, A))
        ah = mul(A, H)
        closure = {
            "A3": mul(aa, A), "A2H": mul(aa, H), "H3": h3, "B2": bb,
            "AB_sym": ab, "A2": aa, "HA": mul(H, A), "H2": h2, "B": B,
            "BH": mul(B, H), "A": A, "H": H, "one": one,
        }
        clo = dict(zip(closure, self.solve(
            self.commutator(B, C), list(closure.values()))))
        linear = {
            "B": B, "BH": closure["BH"], "A2": aa, "A2H": closure["A2H"],
            "AB_sym": ab, "ABH_sym": mul(ab, H), "A": A, "AH": ah,
            "AH2": mul(ah, H), "one": one, "H": H, "H2": h2, "H3": h3,
        }
        lin = dict(zip(linear, self.solve(
            self.commutator(A, C), list(linear.values()))))
        consts = {
            "alpha": lin["A2"] + lin["A2H"] * E,
            "beta": lin["AB_sym"] + lin["ABH_sym"] * E,
            "gamma": lin["A"] + lin["AH"] * E + lin["AH2"] * E ** 2,
            "delta": lin["B"] + lin["BH"] * E,
            "epsilon": lin["one"] + lin["H"] * E + lin["H2"] * E ** 2
            + lin["H3"] * E ** 3,
            "mu": ERING(clo["A3"]),
            "nu": clo["A2"] + clo["A2H"] * E,
            "xi": clo["A"] + clo["HA"] * E,
            "zeta": clo["one"] + clo["H"] * E + clo["H2"] * E ** 2
            + clo["H3"] * E ** 3,
        }
        # the Casimir element with E := H, written over powers of H
        powers = [one, H, h2, h3, mul(h3, H)]
        terms = {
            "AAB_sym": lambda: add(mul(aa, B), mul(B, aa)),
            "ABB_sym": lambda: add(mul(A, bb), mul(bb, A)),
            "AB_sym": lambda: ab, "BB": lambda: bb, "B": lambda: B,
            "A4": lambda: mul(aa, aa), "A3": lambda: closure["A3"],
            "A2": lambda: aa, "A": lambda: A,
        }
        names = casimir.CONSTANT_NAMES
        k_op = mul(C, C)
        for name, poly in casimir.casimir_coefficients().items():
            value = ERING(0)
            for exps, c in poly.terms.items():
                term = ERING(q(c))
                for idx, e in enumerate(exps):
                    if e:
                        term *= consts[names[idx]] ** e
                value += term
            for (n,), c in value.terms():
                k_op = add(k_op, self.scale(mul(powers[n], terms[name]()), c))
        kappa = self.solve(k_op, powers)
        return consts, sum((c * E ** n for n, c in enumerate(kappa)), ERING(0))


def at(pf, point):
    e, h, a = point
    return q(pf.evaluate({"E": e, "h": h, "a": a, "u": 0, "p": 0, "x": 0}))


@pytest.mark.parametrize("point", POINTS)
def test_sympy_recomputes_the_q5_constants_and_k(point):
    e, h, a = point
    consts, k = Oracle(h, a).derive()
    derived = algebra.q5_algebra()
    for name, value in derived.spec.as_dict().items():
        assert consts[name](q(e)) == at(value, point), name
    assert k(q(e)) == at(derived.k, point)
