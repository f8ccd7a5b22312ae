"""Structure constants of the cubic symmetry algebra.

An AlgebraSpec collects the nine constants of the defining relations

    [A, B] = C
    [A, C] = alpha A^2 + beta {A, B} + gamma A + delta B + epsilon
    [B, C] = mu A^3 + nu A^2 - beta B^2 - alpha {A, B} + xi A
             - gamma B + zeta

as exact scalars over a shared symbol table.  The quadratic and linear
coefficients of B^2, {A,B} and B in the second relation are not free:
the Jacobi identity forces them to be -beta, -alpha and -gamma, which
jacobi_reduce enforces.  For the two-wall quantum system the constants
are derived, not transcribed: the conserved operators are built as
differential operators, their commutators are expanded over an operator
basis by exact linear algebra, and the energy enters through the
central Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import casimir, weylop
from ._memo import once
from .errors import CubicalgError, JacobiViolation
from .exactnum import MultiPoly, PolyFraction, SymbolTable, parse

MASTER_SYMBOLS = ("E", "h", "a", "u", "p", "x")


@once
def master_table():
    """Shared table: energy, two positive scales, and level parameters."""
    return SymbolTable(MASTER_SYMBOLS, atoms=("h", "a"))


CONSTANT_NAMES = casimir.CONSTANT_NAMES


@dataclass(frozen=True)
class AlgebraSpec:
    table: SymbolTable
    alpha: PolyFraction
    beta: PolyFraction
    gamma: PolyFraction
    delta: PolyFraction
    epsilon: PolyFraction
    mu: PolyFraction
    nu: PolyFraction
    xi: PolyFraction
    zeta: PolyFraction

    def as_dict(self):
        return {name: getattr(self, name) for name in CONSTANT_NAMES}

    def casimir_values(self):
        return casimir.evaluate_coefficients(self.as_dict())


def _lift(table, value):
    if isinstance(value, str):
        return parse(value, table)
    lifted = PolyFraction.coerce(table, value)
    if lifted is None:
        raise TypeError("cannot use %r as a structure constant" % (value,))
    return lifted


def jacobi_reduce(values, table=None):
    """Build an AlgebraSpec, enforcing the Jacobi constraints.

    values maps constant names to scalars (PolyFraction, rational, or
    expression text).  The dependent coefficients may be supplied as
    rho, sigma, eta (for B^2, {A,B}, B in the third relation) and must
    then equal -beta, -alpha, -gamma exactly.
    """
    if table is None:
        table = master_table()
    known = dict(values)
    out = {}
    for name in CONSTANT_NAMES:
        out[name] = _lift(table, known.pop(name, 0))
    forced = {"rho": -out["beta"], "sigma": -out["alpha"], "eta": -out["gamma"]}
    for name, expected in forced.items():
        if name in known:
            got = _lift(table, known.pop(name))
            if got != expected:
                raise JacobiViolation(
                    "%s must equal %s, got %s"
                    % (name, expected.format(), got.format())
                )
    if known:
        raise ValueError("unknown constants: %s" % ", ".join(sorted(known)))
    return AlgebraSpec(table=table, **out)


# weylop.suite writes g for -i*h
_ROTATED = {"g": "h", "h": "g"}


def transfer_scalar(value, target):
    """Rebuild a PolyFraction in another table, matching symbol names.

    A g or h that the target lacks becomes the other: g^e maps to
    (-1)^(e/2) h^e and back, and an odd power raises CubicalgError, so
    a value crosses between the suite table and the master table only
    when it is real.
    """
    source = value.table
    raw = {}
    for exps, coeff in value.num.terms.items():
        new_exps = [0] * target.nvars
        for idx, e in enumerate(exps):
            if e == 0:
                continue
            name = source.symbols[idx]
            if name in _ROTATED and name not in target.symbols:
                if e % 2:
                    raise CubicalgError(
                        "%s^%d has no real image in %r" % (name, e, target)
                    )
                if e % 4:
                    coeff = -coeff
                name = _ROTATED[name]
            new_exps[target.index(name)] = e
        key = tuple(new_exps)
        raw[key] = raw.get(key, Fraction(0)) + coeff
    num = MultiPoly(target, raw)
    den = [0] * len(target.atoms)
    for k, e in enumerate(value.den):
        if e == 0:
            continue
        name = source.atoms[k].name
        den[target.atom_index(name)] = e
    return PolyFraction(num, tuple(den))


def hamiltonian_powers(suite, top):
    """[H^0, H^1, ..., H^top] for the suite's Hamiltonian."""
    one = weylop.DiffOp.from_scalar(suite.table, 1)
    powers = [one, suite.hamiltonian][: top + 1]
    while len(powers) <= top:
        powers.append(powers[-1] * suite.hamiltonian)
    return powers


def scalar_to_operator(value, suite, powers):
    """Map a polynomial in the energy to the matching operator.

    value is a PolyFraction over the master table, polynomial in E with
    coefficients in the scales; E becomes the Hamiltonian.  powers is
    hamiltonian_powers(suite, top) for a top at least value's degree
    in E.
    """
    coeffs = value.univariate_in("E")
    if len(powers) < len(coeffs):
        raise ValueError("need H powers up to %d" % (len(coeffs) - 1))
    out = weylop.DiffOp.zero(suite.table)
    for c, h_power in zip(coeffs, powers):
        if not c.is_zero():
            out = out + transfer_scalar(c, suite.table) * h_power
    return out


@dataclass
class DerivedAlgebra:
    """Structure constants and casimir value derived from the operators."""

    spec: AlgebraSpec
    k: PolyFraction
    closure_coefficients: dict
    linear_coefficients: dict
    casimir_scalars: dict


@once
def q5_algebra():
    """Derive the cubic algebra of the two-wall system, cached.

    Both defining relations are expanded over explicit operator bases.
    Constants shared between the two relations are extracted from each
    and must agree; the casimir value follows by expressing the central
    element over Hamiltonian powers.
    """
    suite = weylop.suite()
    H = suite.hamiltonian
    A = suite.first_integral
    B = suite.second_integral
    C = suite.commutator
    # H^0..H^4 serve both bases, the Casimir scalars and the k basis
    powers = hamiltonian_powers(suite, 4)
    one, _, h2, h3, _ = powers
    aa = A * A
    ab_sym = weylop.acomm(A, B)
    aah = aa * H
    ah = A * H  # H and A commute, so this is H*A as well
    bh = B * H
    closure_basis = [
        ("A3", aa * A),
        ("A2H", aah),
        ("H3", h3),
        ("B2", B * B),
        ("AB_sym", ab_sym),
        ("A2", aa),
        ("HA", ah),
        ("H2", h2),
        ("B", B),
        ("BH", bh),
        ("A", A),
        ("H", H),
        ("one", one),
    ]
    closure = weylop.express_in_basis(weylop.comm(B, C), closure_basis)
    linear_basis = [
        ("B", B),
        ("BH", bh),
        ("A2", aa),
        ("A2H", aah),
        ("AB_sym", ab_sym),
        ("ABH_sym", ab_sym * H),
        ("A", A),
        ("AH", ah),
        ("AH2", ah * H),
        ("one", one),
        ("H", H),
        ("H2", h2),
        ("H3", h3),
    ]
    linear = weylop.express_in_basis(weylop.comm(A, C), linear_basis)
    master = master_table()
    energy = PolyFraction.sym(master, "E")

    def lin(label):
        return transfer_scalar(linear[label], master)

    def clo(label):
        return transfer_scalar(closure[label], master)

    alpha = lin("A2") + lin("A2H") * energy
    beta = lin("AB_sym") + lin("ABH_sym") * energy
    gamma = lin("A") + lin("AH") * energy + lin("AH2") * energy ** 2
    delta = lin("B") + lin("BH") * energy
    epsilon = (
        lin("one")
        + lin("H") * energy
        + lin("H2") * energy ** 2
        + lin("H3") * energy ** 3
    )
    spec = jacobi_reduce(
        {
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "delta": delta,
            "epsilon": epsilon,
            "mu": clo("A3"),
            "nu": clo("A2") + clo("A2H") * energy,
            "xi": clo("A") + clo("HA") * energy,
            "zeta": clo("one")
            + clo("H") * energy
            + clo("H2") * energy ** 2
            + clo("H3") * energy ** 3,
            # the [B, C] coefficients that Jacobi ties to beta, alpha, gamma
            "rho": clo("B2"),
            "sigma": clo("AB_sym"),
            "eta": clo("B") + clo("BH") * energy,
        },
        master,
    )
    scalars = spec.casimir_values()
    op_coeffs = {
        name: scalar_to_operator(value, suite, powers)
        for name, value in scalars.items()
    }
    k_op = casimir.realize(op_coeffs, A, B, C)
    k_basis = [("one", one)] + [("H%d" % n, powers[n]) for n in range(1, 5)]
    k_parts = weylop.express_in_basis(k_op, k_basis)
    k_value = transfer_scalar(k_parts["one"], master)
    for n in range(1, 5):
        k_value = k_value + transfer_scalar(k_parts["H%d" % n], master) * energy ** n
    return DerivedAlgebra(
        spec=spec,
        k=k_value,
        closure_coefficients={
            label: transfer_scalar(v, master) for label, v in closure.items()
        },
        linear_coefficients={
            label: transfer_scalar(v, master) for label, v in linear.items()
        },
        casimir_scalars=scalars,
    )
