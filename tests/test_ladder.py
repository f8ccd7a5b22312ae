"""Ladder calculus and the derived structure function."""

import random
from fractions import Fraction

import pytest

from cubicalg.algebra import jacobi_reduce, master_table, q5_algebra
from cubicalg.errors import NonPolynomialStructure, UnsupportedCase
from cubicalg.exactnum import NFunc, PolyFraction, SymbolTable, parse
from cubicalg.ladder import (
    LadderExpr,
    PhiPoly,
    derive_realization,
    derive_structure_function,
    generators,
)

RATIONALS = SymbolTable(())


def nf(coeffs):
    return NFunc.from_coeffs(RATIONALS, [Fraction(c) for c in coeffs])


def random_nfunc(rng):
    return nf([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
               for _ in range(rng.randint(1, 3))])


def random_expr(rng, offsets):
    chosen = rng.sample(offsets, rng.randint(1, len(offsets)))
    return LadderExpr(
        RATIONALS, {m: PhiPoly(random_nfunc(rng)) for m in chosen}
    )


def eval_phipoly(part, point, phi):
    total = part.scalar.evaluate(point).as_fraction()
    for j, coeff in part.linear.items():
        total += coeff.evaluate(point).as_fraction() * phi(point + j)
    return total


def fock_matrix(expr, dim, base, phi):
    """Truncated matrix of a ladder expression on levels 0..dim-1."""
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    for m, part in expr.parts.items():
        for col in range(dim):
            row = col + m
            if row < 0 or row >= dim:
                continue
            if m >= 0:
                point = Fraction(base) + col
                amp = Fraction(1)
                for i in range(1, m + 1):
                    amp *= phi(point + i)
            else:
                point = Fraction(base) + row
                amp = Fraction(1)
            mat[row][col] += eval_phipoly(part, point, phi) * amp
    return mat


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_products_match_the_fock_oracle():
    rng = random.Random(20260816)
    dim, safe = 12, 4

    def phi(x):
        return x**3 - Fraction(5, 2) * x + 1

    # offset ranges keep every pairing to at most one contraction
    for _ in range(8):
        left = random_expr(rng, [-1, 0, 1, 2])
        right = random_expr(rng, [-1, 0, 1])
        base = Fraction(rng.randint(1, 5), 3)
        product = fock_matrix(left * right, dim, base, phi)
        composed = mat_mul(
            fock_matrix(left, dim, base, phi),
            fock_matrix(right, dim, base, phi),
        )
        for col in range(safe, dim - safe):
            for row in range(dim):
                assert product[row][col] == composed[row][col]


def test_products_associate():
    rng = random.Random(8)
    for _ in range(6):
        x = random_expr(rng, [0, 1])
        y = random_expr(rng, [0, 1])
        z = random_expr(rng, [-1, 0])
        assert (x * y) * z == x * (y * z)


def test_elementary_contractions():
    one = Fraction(1)
    lower = LadderExpr.lowering(RATIONALS, one)
    raise_ = LadderExpr.raising(RATIONALS, one)
    down_up = (lower * raise_).component(0)
    assert down_up.scalar.is_zero()
    assert set(down_up.linear) == {1}
    up_down = (raise_ * lower).component(0)
    assert set(up_down.linear) == {0}
    f = nf([Fraction(1, 3), 2])
    sandwich = (raise_ * LadderExpr.from_scalar(RATIONALS, f) * lower).component(0)
    assert sandwich.scalar.is_zero()
    assert sandwich.linear[0] == f.shift(-1)


def test_double_contraction_is_rejected():
    lower = LadderExpr.lowering(RATIONALS, 1)
    raise_ = LadderExpr.raising(RATIONALS, 1)
    with pytest.raises(NonPolynomialStructure):
        (lower * lower) * (raise_ * raise_)


def test_q5_realization_is_linear_case():
    q = q5_algebra()
    real = derive_realization(q.spec)
    master = master_table()
    assert real.case == "linear"
    assert real.a_of_nu == NFunc(master, [0, parse("h^2/a^2", master)])
    assert real.b_of_nu.is_zero()
    assert real.rho == NFunc.const(master, 1)


def test_q5_commutator_generator():
    q = q5_algebra()
    _, _, c_expr = generators(q.spec, derive_realization(q.spec))
    master = master_table()
    step = parse("h^2/a^2", master)
    assert c_expr.offsets() == [-1, 1]
    assert c_expr.component(1).scalar == NFunc.const(master, step)
    assert c_expr.component(-1).scalar == NFunc.const(master, -step)


def test_q5_structure_function_factored_form():
    q = q5_algebra()
    sf = derive_structure_function(q.spec, q.k)
    master = master_table()
    w = parse("a^2/h^2*E", master)
    nu = NFunc.nu(master)
    half = Fraction(1, 2)
    expected = (
        (nu + (w + half))
        * (nu - (w + half))
        * (nu + (w - 3 * half))
        * (nu + (w - 5 * half))
        * parse("-4*h^6/a^4", master)
    )
    assert sf.phi.degree() == 4
    assert sf.phi == expected


def test_generic_quadratic_case_is_degree_ten():
    names = ("alpha", "beta", "gamma", "delta", "epsilon",
             "mu", "nuc", "xi", "zeta", "k")
    table = SymbolTable(names, atoms=("beta",))
    values = {n: parse(n, table) for n in names[:-1]}
    values["nu"] = values.pop("nuc")
    spec = jacobi_reduce(values, table)
    sf = derive_structure_function(spec, parse("k", table))
    assert sf.phi.is_polynomial()
    assert sf.phi.degree() == 10

    # a rational instance agrees with the symbolic result
    rng = random.Random(41)
    rationals = {
        n: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for n in names[:-1]
    }
    rationals["beta"] = rationals["beta"] or Fraction(2)
    k_value = Fraction(rng.randint(-20, 20), 3)
    point = dict(rationals)
    point["k"] = k_value
    rationals["nu"] = rationals.pop("nuc")
    inst = jacobi_reduce(rationals, RATIONALS)
    got = derive_structure_function(
        inst, PolyFraction.const(RATIONALS, k_value)
    )
    sym = [c.evaluate(point) for c in sf.phi.coefficients()]
    ours = [c.as_fraction() for c in got.phi.coefficients()]
    width = max(len(sym), len(ours))
    sym += [Fraction(0)] * (width - len(sym))
    ours += [Fraction(0)] * (width - len(ours))
    assert sym == ours


def test_degenerate_pair_is_unsupported():
    spec = jacobi_reduce({"mu": 1, "zeta": 3}, RATIONALS)
    with pytest.raises(UnsupportedCase):
        derive_realization(spec)


def test_nonsquare_delta_is_unsupported():
    spec = jacobi_reduce({"delta": 2}, RATIONALS)
    with pytest.raises(UnsupportedCase):
        derive_realization(spec)


def test_noninvertible_beta_is_unsupported():
    table = SymbolTable(("s",))
    spec = jacobi_reduce({"beta": "s", "rho": "-s"}, table)
    with pytest.raises(UnsupportedCase):
        derive_realization(spec)
