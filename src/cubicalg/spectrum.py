"""Finite-dimensional modules read off from the structure function.

A lowest weight u needs Phi(u) = 0, and a module with p + 1 levels
also needs Phi(u + p + 1) = 0.  Pairing zeros of Phi therefore lists
every candidate family: when the spacing between two zeros depends on
the energy, the pairing fixes the energy as a function of p; when the
spacing is a bare integer, it pins p instead.  Everything here stays
exact, and a factorization that cannot be completed is reported as
such rather than approximated.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import NamedTuple

from . import algebra, ladder
from ._memo import once
from .errors import SingularSystem, UndecidedSign, UnresolvedFactor
from .exactnum import MultiPoly, SymbolTable, upoly
from .exactnum.errors import ExactDivisionError
from .exactnum.interpolate import lagrange
from .exactnum.linsolve import InconsistentSystem, RankDeficientSystem, solve_exact
from .exactnum.nfunc import NFunc
from .exactnum.polyfraction import PolyFraction

# Rational sample points for the energy; any generic values work, the
# exact division step rejects every accidental match.
SAMPLE_POINTS = (Fraction(7, 3), Fraction(11, 5), Fraction(13, 7))

ENERGY_SYMBOL = "E"
LEVEL_SYMBOL = "p"


@dataclass(frozen=True)
class Branch:
    """One zero of Phi, exact in the energy, with multiplicity."""

    root: PolyFraction
    multiplicity: int


@dataclass(frozen=True)
class Family:
    """A (p + 1)-level module family fixed by a pair of branches."""

    start: int
    end: int
    energy: PolyFraction
    lowest: PolyFraction
    phi_levels: NFunc
    lead: PolyFraction
    roots: tuple
    residual: object

    @cached_property
    def sign_form(self):
        """Phi over the levels as a SignForm, computed once."""
        if self.residual is not None:
            return SignForm(None, None, "Phi keeps an unsplit factor of "
                            "degree %d" % self.residual.degree())
        lead_sign = self.lead.sign_for_positive_symbols()
        if not lead_sign:
            return SignForm(None, None, "sign of the lead %s is not fixed by "
                            "positivity" % self.lead.format())
        roots = []
        for root in self.roots:
            try:
                parts = [c.as_fraction()
                         for c in root.univariate_in(LEVEL_SYMBOL)]
            except ValueError:
                return SignForm(None, None, "root %s depends on symbols other "
                                "than %s" % (root.format(), LEVEL_SYMBOL))
            c0, c1 = (parts + [Fraction(0)] * 2)[:2]
            if len(parts) > 2 or c1 not in (0, 1):
                return SignForm(None, None, "root %s is not c0 + c1*%s with "
                                "c1 in {0, 1}" % (root.format(), LEVEL_SYMBOL))
            roots.append((c0.numerator, c0.denominator, int(c1)))
        return SignForm(lead_sign, tuple(roots))

    @cached_property
    def verdict_table(self):
        """The Verdicts at p = 0 .. 2M + 3 (see unitarity_decision), or
        None when the family has no sign form."""
        form = self.sign_form
        if form.undecided is not None:
            return None
        bound = max((math.ceil(Fraction(abs(num), den))
                     for num, den, _ in form.roots), default=0)
        return tuple(_sign_verdict(form, p) for p in range(2 * bound + 4))


@dataclass(frozen=True)
class SignForm:
    """Phi over the levels read as sign(lead) * prod (x - c0 - c1*p).

    Each root c0 + c1*p is kept as integers (num, den, c1) with c0 =
    num/den, den > 0 and c1 in {0, 1}, so the sign of a level is an
    integer test.  When the family has no such form, undecided holds
    the reason and lead_sign and roots are None.
    """

    lead_sign: object
    roots: object
    undecided: object = None


@dataclass(frozen=True)
class Decision:
    """Unitarity for every p >= 1 at once.

    eventual is the verdict shared by all large p and exceptions the
    finite, sorted tuple of p >= 1 whose verdict differs from it; both
    are None, with the reason in undecided, when the family has no
    sign form.
    """

    eventual: object
    exceptions: object
    undecided: object = None


@dataclass(frozen=True)
class DegeneratePair:
    """Branch pair with an energy-free integer spacing; p is forced."""

    start: int
    end: int
    p: int


@dataclass(frozen=True)
class FamilyInstance:
    """One family at a concrete number of levels."""

    p: int
    energy: PolyFraction
    lowest: PolyFraction
    phi: NFunc
    values: tuple


class Verdict(NamedTuple):
    """Unitarity of one family instance; Phi must be positive inside."""

    p: int
    unitary: bool
    failure_level: object


def _atom_symbol(atom, table):
    """The symbol name of a bare-symbol atom, else None."""
    if len(atom.terms) == 1 and atom.constant == 0 and atom.terms[0][1] == 1:
        return table.symbols[atom.terms[0][0]]
    return None


def _axis_weight(value, axis_index):
    """Exponent vector over the axis symbols, or None if not a monomial."""
    mono = value.num.as_rational_monomial()
    if mono is None:
        return None
    _, exps = mono
    table = value.table
    weight = [Fraction(0)] * len(axis_index)
    for idx, e in enumerate(exps):
        if not e:
            continue
        name = table.symbols[idx]
        if name not in axis_index:
            return None
        weight[axis_index[name]] += e
    for k, e in enumerate(value.den):
        if not e:
            continue
        name = _atom_symbol(table.atoms[k], table)
        if name is None or name not in axis_index:
            return None
        weight[axis_index[name]] -= e
    return weight


def _solve_rational(rows, rhs):
    """solve_exact over the constants of a table with no symbols:
    Fraction rows in, Fraction values out."""
    table = SymbolTable(())

    def const(value):
        return MultiPoly.const(table, value)

    pairs = solve_exact([[const(v) for v in row] for row in rows],
                        [const(v) for v in rhs])
    return [num.as_fraction() / den.as_fraction() for num, den in pairs]


def _scaling_terms(coeffs):
    """(k, d, coefficient) triples of Phi split by energy degree."""
    terms = []
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        if ENERGY_SYMBOL in c.table.symbols:
            parts = c.univariate_in(ENERGY_SYMBOL)
        else:
            parts = [c]
        for d, part in enumerate(parts):
            if not part.is_zero():
                terms.append((k, d, part))
    return terms


def _detect_grading(coeffs):
    """Scaling weights (axes, omega, gamma) consistent with Phi.

    Each term phi_{k,d} nu^k E^d must be a rational monomial over the
    remaining symbols, and the exponents must satisfy
    weight + k*omega + d*gamma = const for one choice of the weight
    omega of nu and gamma of the energy E.
    """
    terms = _scaling_terms(coeffs)
    # collect every symbol that shows up in any term
    names = set()
    for _, _, part in terms:
        for exps in part.num.ints:
            for idx, e in enumerate(exps):
                if e:
                    names.add(part.table.symbols[idx])
        for k, e in enumerate(part.den):
            if not e:
                continue
            name = _atom_symbol(part.table.atoms[k], part.table)
            if name is None:
                raise UnresolvedFactor("denominator atom is not a bare symbol")
            names.add(name)
    names.discard(ENERGY_SYMBOL)
    axes = tuple(sorted(names))
    zero = [Fraction(0)] * len(axes)
    if not axes:
        return axes, zero, zero
    axis_index = {name: i for i, name in enumerate(axes)}
    rows = []
    for k, d, part in terms:
        weight = _axis_weight(part, axis_index)
        if weight is None:
            raise UnresolvedFactor(
                "coefficient %s is not a graded monomial" % part.format()
            )
        rows.append((k, d, weight))
    # solve k*omega + d*gamma - tau = -weight per axis, pruning the
    # unknowns the data cannot see
    use_omega = len({k for k, _, _ in rows}) > 1
    use_gamma = len({d for _, d, _ in rows}) > 1
    cols = []
    if use_omega:
        cols.append(0)
    if use_gamma:
        cols.append(1)
    cols.append(2)
    omega = list(zero)
    gamma = list(zero)
    matrix = [
        [(Fraction(k), Fraction(d), Fraction(-1))[c] for c in cols] for k, d, _ in rows
    ]
    for ax in range(len(axes)):
        rhs = [-w[ax] for _, _, w in rows]
        try:
            solution = _solve_rational(matrix, rhs)
        except (RankDeficientSystem, InconsistentSystem) as exc:
            raise UnresolvedFactor("no consistent scaling weight") from exc
        position = 0
        if use_omega:
            omega[ax] = solution[position]
            position += 1
        if use_gamma:
            gamma[ax] = solution[position]
    return axes, omega, gamma


def _axis_monomial(table, axes, exponents):
    out = PolyFraction.const(table, 1)
    for name, e in zip(axes, exponents):
        if e.denominator != 1:
            return None
        e = int(e)
        if not e:
            continue
        sym = PolyFraction.sym(table, name)
        try:
            out = out * (sym ** e if e > 0 else sym.invert() ** (-e))
        except ExactDivisionError:
            return None
    return out


def _lift_candidate(table, fit, axes, omega, gamma):
    """Restore the scaling monomials on a root fitted at axes = 1."""
    out = PolyFraction.const(table, 0)
    base = (
        PolyFraction.sym(table, ENERGY_SYMBOL)
        if ENERGY_SYMBOL in table.symbols
        else PolyFraction.const(table, 0)
    )
    for d, c in enumerate(fit):
        if not c:
            continue
        mono = _axis_monomial(
            table, axes, [omega[i] - d * gamma[i] for i in range(len(axes))]
        )
        if mono is None:
            return None
        out = out + mono * c * base ** d
    return out


def _sampled_roots(coeffs, point):
    table = coeffs[0].table
    mapping = {
        name: (point if name == ENERGY_SYMBOL else Fraction(1))
        for name in table.symbols
    }
    flat = [c.evaluate(mapping) for c in coeffs]
    return upoly.rational_roots(flat)


def branch_roots(phi):
    """Zeros of Phi as exact functions of the energy, with multiplicity.

    Roots are recovered in layers: rational roots of sampled instances
    propose candidates polynomial in the energy, the scaling grading of
    the coefficients restores their unit content, and exact division
    keeps only the true factors.  Raises UnresolvedFactor when a factor
    survives every layer.
    """
    if not phi.is_polynomial():
        raise ValueError("Phi must be polynomial: %s" % phi.format())
    if phi.degree() < 1:
        return ()
    table = phi.table
    coeffs = list(phi.coefficients())
    try:
        flat = [c.as_fraction() for c in coeffs]
    except ValueError:
        flat = None
    if flat is not None:
        found = [
            Branch(PolyFraction.const(table, r), m)
            for r, m in upoly.rational_roots(flat)
        ]
        if sum(b.multiplicity for b in found) < phi.degree():
            raise UnresolvedFactor("no rational split of %s" % phi.format())
        return tuple(found)

    axes, omega, gamma = _detect_grading(coeffs)
    has_energy = ENERGY_SYMBOL in table.symbols and any(
        c.num.degree_in(ENERGY_SYMBOL) > 0 for c in coeffs
    )
    max_fit = 2 if has_energy else 0
    samples = [
        (e, _sampled_roots(coeffs, e))
        for e in SAMPLE_POINTS[: max_fit + 1]
    ]

    work = list(coeffs)
    found = []
    for fit_degree in range(max_fit + 1):
        if len(work) <= 1:
            break
        candidates = set()
        # one (sample, root) pair per sample, every combination
        for combo in product(*(
            [(point, r) for r, _ in roots]
            for point, roots in samples[: fit_degree + 1]
        )):
            fit = lagrange(combo)
            if len(fit) != fit_degree + 1 and fit_degree:
                continue
            lifted = _lift_candidate(table, fit, axes, omega, gamma)
            if lifted is not None:
                candidates.add(lifted)
        for cand in sorted(candidates, key=lambda pf: pf.format()):
            work, multiplicity = upoly.divide_out(work, cand)
            if multiplicity:
                found.append(Branch(cand, multiplicity))
    if len(work) > 1:
        raise UnresolvedFactor(
            "unsplit factor of degree %d remains" % (len(work) - 1)
        )
    found.sort(key=lambda b: (b.root.num.total_degree(), b.root.format()))
    return tuple(found)


def _factor_levels(phi_x, known):
    """Split off the known roots, then whatever stays within reach.

    Returns (lead, roots, residual); residual is None once the level
    polynomial is a product of exact linear factors.  Quadratic
    leftovers are split when their discriminant has an exact square
    root; anything beyond that is returned unfactored.
    """
    table = phi_x.table
    coeffs = list(phi_x.coefficients())
    lead = coeffs[-1]
    roots = []
    for r in known:
        coeffs, remainder = upoly.syndiv(coeffs, r)
        if not remainder.is_zero():
            raise UnresolvedFactor("Phi does not vanish at %s" % r.format())
        roots.append(r)
    while len(coeffs) > 1:
        if len(coeffs) == 2:
            try:
                roots.append(-coeffs[0] * coeffs[1].invert())
            except ExactDivisionError:
                break
            coeffs = coeffs[-1:]
        elif len(coeffs) == 3:
            try:
                inv = coeffs[2].invert()
                b = coeffs[1] * inv
                c = coeffs[0] * inv
                root_of_disc = (b * b - c * 4).sqrt()
            except (ExactDivisionError, ValueError):
                break
            pair = [
                (root_of_disc - b) * Fraction(1, 2),
                (root_of_disc + b) * Fraction(-1, 2),
            ]
            pair.sort(key=lambda pf: pf.format())
            roots.extend(pair)
            coeffs = coeffs[-1:]
        else:
            break
    residual = NFunc.from_coeffs(table, coeffs) if len(coeffs) > 1 else None
    return lead, tuple(roots), residual


def energy_families(phi):
    """Every module family obtained by pairing zeros of Phi.

    Returns (branches, families, pinned).  A branch pair whose spacing
    moves with the energy fixes the energy as a function of the level
    count p and yields a Family; a pair with a constant integer spacing
    pins p itself and is reported as a DegeneratePair.  Spacings beyond
    affine in the energy are not searched.
    """
    table = phi.table
    if LEVEL_SYMBOL not in table.symbols:
        raise ValueError("level symbol %r is not in the table" % LEVEL_SYMBOL)
    branches = branch_roots(phi)
    level_sym = PolyFraction.sym(table, LEVEL_SYMBOL)
    families = []
    pinned = []
    for i, bi in enumerate(branches):
        for j, bj in enumerate(branches):
            if i == j:
                continue
            gap = bj.root - bi.root
            if ENERGY_SYMBOL in table.symbols:
                parts = gap.univariate_in(ENERGY_SYMBOL)
            else:
                parts = [gap]
            if len(parts) > 2:
                continue
            while len(parts) < 2:
                parts = parts + [PolyFraction.const(table, 0)]
            c0, c1 = parts
            if c1.is_zero():
                try:
                    spacing = gap.as_fraction()
                except ValueError:
                    continue
                if spacing >= 1 and spacing.denominator == 1:
                    pinned.append(DegeneratePair(i, j, int(spacing) - 1))
                continue
            try:
                energy = (level_sym + 1 - c0) * c1.invert()
            except ExactDivisionError:
                continue
            subs = {ENERGY_SYMBOL: energy}
            phi_e = NFunc.from_coeffs(
                table, [c.substitute(subs) for c in phi.coefficients()]
            )
            lowest = bi.root.substitute(subs)
            phi_x = phi_e.shift(lowest)
            lead, roots, residual = _factor_levels(
                phi_x, (PolyFraction.const(table, 0), level_sym + 1)
            )
            families.append(
                Family(i, j, energy, lowest, phi_x, lead, roots, residual)
            )
    return branches, tuple(families), tuple(pinned)


def family_instance(family, p_value):
    """The family at one concrete p, with Phi at x = 0 .. p + 1."""
    p_value = int(p_value)
    if p_value < 0:
        raise ValueError("p must be a nonnegative integer")
    table = family.phi_levels.table
    subs = {LEVEL_SYMBOL: Fraction(p_value)}
    phi = NFunc.from_coeffs(
        table, [c.substitute(subs) for c in family.phi_levels.coefficients()]
    )
    values = tuple(phi.evaluate(x) for x in range(p_value + 2))
    return FamilyInstance(
        p_value,
        family.energy.substitute(subs),
        family.lowest.substitute(subs),
        phi,
        values,
    )


def _sign_verdict(form, p):
    """The Verdict at p from a SignForm: integer sign tests only."""
    for x in range(1, p + 1):
        sign = form.lead_sign
        for num, den, c1 in form.roots:
            d = (x - c1 * p) * den - num
            if d < 0:
                sign = -sign
            elif d == 0:
                sign = 0
                break
        if sign <= 0:
            return Verdict(p, False, x)
    return Verdict(p, True, None)


def unitarity_verdict(family, p_value):
    """Whether Phi stays positive at the interior levels 1 .. p.

    A family with a sign form reads p off its verdict_table (see
    unitarity_decision); any other is evaluated level by level through
    family_instance, and raises UndecidedSign at a level whose sign
    positivity does not fix.
    """
    p_value = int(p_value)
    if p_value < 0:
        raise ValueError("p must be a nonnegative integer")
    table = family.verdict_table
    if table is not None:
        last = len(table) - 1
        if p_value <= last:
            return table[p_value]
        _, unitary, x = table[last]
        if x is not None and x > len(table) // 2:
            x += p_value - last
        # skips the Python-level Verdict.__new__ on this per-p path
        return tuple.__new__(Verdict, (p_value, unitary, x))
    instance = family_instance(family, p_value)
    for x in range(1, instance.p + 1):
        sign = instance.values[x].sign_for_positive_symbols()
        if sign is None:
            raise UndecidedSign(
                "sign of %s is not fixed by positivity" % instance.values[x].format()
            )
        if sign <= 0:
            return Verdict(instance.p, False, x)
    return Verdict(instance.p, True, None)


def unitarity_table(family, p_values):
    return tuple(unitarity_verdict(family, p) for p in p_values)


def unitarity_decision(family):
    """The verdict for every p >= 1, decided from Phi's factored form.

    Over the levels Phi is lead * prod (x - c0_i - c1_i*p) with c1_i in
    {0, 1}, so the sign at level x is sign(lead) times one sign per
    root.  Let M = max ceil(|c0_i|) and p >= 2M + 2.  At a low level
    x <= M every shifted root gives x - p - c0 <= 2M - p < 0, so the
    sign there depends on x alone.  At a high level x = p - y with
    0 <= y <= M every constant root gives x - c0 >= p - 2M > 0, so the
    sign depends on y alone.  At every level between (there is at
    least one), constant roots give x - c0 >= 1 and shifted roots
    x - p - c0 <= -1, so the sign is sign(lead) * (-1)^(number of
    shifted roots).  The set of signs over x = 1..p, hence the
    verdict, is the same for every p >= 2M + 2; a first failure at
    x <= M + 2 stays at x, and one above keeps y = p - x.  So the
    verdict_table holds p = 0..2M+3, its last entry gives the eventual
    verdict and every larger p, and the exceptions are the p >= 1 that
    differ.  A family without that form (an unsplit residual factor, a
    root not of the form c0 + c1*p with rational c0 and c1 in {0, 1},
    or a lead whose sign positivity does not fix) is undecided.
    """
    table = family.verdict_table
    if table is None:
        return Decision(None, None, family.sign_form.undecided)
    eventual = table[-1].unitary
    exceptions = tuple(v.p for v in table[1:-1] if v.unitary != eventual)
    return Decision(eventual, exceptions)


def complete_truncation(phi, u, p):
    """Choose k and zeta so Phi(u) = 0 = Phi(u + p + 1).

    Phi must be affine in k and zeta with rational data; the two
    truncation conditions then form a square linear system.  Raises
    SingularSystem when the pair of conditions cannot fix k and zeta.
    """
    unknowns = ("k", "zeta")
    u = Fraction(u)
    p = int(p)
    if p < 0:
        raise ValueError("p must be a nonnegative integer")
    table = phi.table
    matrix = []
    rhs = []
    for point in (u, u + p + 1):
        value = phi.evaluate(point)
        row = []
        rest = value
        for name in unknowns:
            parts = rest.univariate_in(name) if not rest.is_zero() else []
            if len(parts) > 2:
                raise ValueError("Phi is not affine in %s" % name)
            row.append(parts[1].as_fraction() if len(parts) == 2 else Fraction(0))
            rest = parts[0] if parts else PolyFraction.const(table, 0)
        matrix.append(row)
        rhs.append(-rest.as_fraction())
    try:
        solution = _solve_rational(matrix, rhs)
    except RankDeficientSystem as exc:
        raise SingularSystem(
            "truncation pair does not determine %s" % (unknowns,)
        ) from exc
    return dict(zip(unknowns, solution))


@once
def q5_structure_function():
    """Structure function of the two-wall system, cached."""
    derived = algebra.q5_algebra()
    return ladder.derive_structure_function(derived.spec, derived.k)
