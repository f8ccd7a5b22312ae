"""Differential operators of the two-wall system."""

import random
from fractions import Fraction
from math import comb

import pytest

from cubicalg import weylop
from cubicalg.errors import AmbiguousBasis, NotInSpan
from cubicalg.exactnum import MultiPoly, PolyFraction, parse
from cubicalg.weylop import DiffOp, acomm, comm, express_in_basis, q5_symbol_table


@pytest.fixture(scope="module")
def suite():
    return weylop.suite()


def test_partial_times_coordinate_obeys_leibniz():
    table = q5_symbol_table()
    dx = DiffOp(table, {(1, 0): parse("1", table)})
    x = DiffOp.from_scalar(table, parse("x", table))
    prod = dx * x
    assert prod.parts[(0, 0)] == parse("1", table)
    assert prod.parts[(1, 0)] == parse("x", table)


def test_mixed_partials_commute():
    table = q5_symbol_table()
    dx = DiffOp(table, {(1, 0): parse("1", table)})
    dy = DiffOp(table, {(0, 1): parse("1", table)})
    f = DiffOp.from_scalar(table, parse("x^2*y + y^3", table))
    assert comm(dx, dy).is_zero()
    assert (dx * (dy * f)) == ((dx * dy) * f)


def test_wall_terms_differentiate_exactly():
    table = q5_symbol_table()
    dx = DiffOp(table, {(1, 0): parse("1", table)})
    wall = DiffOp.from_scalar(table, parse("1/(x-a)^2", table))
    # d/dx (x-a)^-2 = -2 (x-a)^-3
    assert comm(dx, wall).parts[(0, 0)] == parse("-2/(x-a)^3", table)


def test_integrals_of_motion_commute_with_hamiltonian(suite):
    h = suite.hamiltonian
    assert comm(h, suite.first_integral).is_zero()
    assert comm(h, suite.second_integral).is_zero()
    assert comm(h, suite.commutator).is_zero()


def test_commutator_generator_is_nonzero(suite):
    assert not suite.commutator.is_zero()
    assert suite.commutator == comm(suite.first_integral, suite.second_integral)


def test_anticommutator_shape(suite):
    a = suite.first_integral
    b = suite.second_integral
    assert acomm(a, b) == a * b + b * a


def test_express_identity_combination(suite):
    h = suite.hamiltonian
    one = DiffOp.from_scalar(suite.table, 1)
    parts = express_in_basis(h, [("one", one), ("H", h)])
    assert parts["one"].is_zero()
    assert parts["H"] == parse("1", suite.table)


def test_express_rejects_outside_span(suite):
    one = DiffOp.from_scalar(suite.table, 1)
    x = DiffOp.from_scalar(suite.table, parse("x", suite.table))
    with pytest.raises(NotInSpan):
        express_in_basis(x, [("one", one)])


def test_express_rejects_degenerate_basis(suite):
    h = suite.hamiltonian
    with pytest.raises(AmbiguousBasis):
        express_in_basis(h, [("first", h), ("second", h)])


def leibniz_oracle(left, right):
    """left * right with one PolyFraction per Leibniz term, summed one
    term at a time."""
    table = left.table
    zero = PolyFraction.const(table, 0)
    out = {}
    for (ax, ay), f in left.parts.items():
        for (bx, by), g in right.parts.items():
            for kx in range(ax + 1):
                for ky in range(ay + 1):
                    d = g
                    for _ in range(kx):
                        d = d.derivative("x")
                    for _ in range(ky):
                        d = d.derivative("y")
                    key = (ax - kx + bx, ay - ky + by)
                    term = f * d * (comb(ax, kx) * comb(ay, ky))
                    out[key] = out.get(key, zero) + term
    return {k: v for k, v in out.items() if not v.is_zero()}


def random_coefficient(rng, table):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(table.nvars))
        terms[exps] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    den = tuple(rng.randint(0, 2) for _ in range(len(table.atoms)))
    return PolyFraction(MultiPoly(table, terms), den)


def random_op(rng, table):
    parts = {}
    for _ in range(rng.randint(1, 3)):
        parts[(rng.randint(0, 2), rng.randint(0, 2))] = random_coefficient(rng, table)
    return DiffOp(table, parts)


@pytest.mark.parametrize("seed", range(5))
def test_product_matches_per_leibniz_term_sum(seed):
    rng = random.Random(seed)
    table = q5_symbol_table()
    for _ in range(4):
        left, right = random_op(rng, table), random_op(rng, table)
        assert (left * right).parts == leibniz_oracle(left, right)


def test_suite_product_matches_per_leibniz_term_sum(suite):
    a, b = suite.first_integral, suite.second_integral
    assert (a * b).parts == leibniz_oracle(a, b)


def test_suite_parts_are_canonical(suite):
    for op in (suite.hamiltonian, suite.first_integral,
               suite.second_integral, suite.commutator):
        for part in op.parts.values():
            assert part == PolyFraction(part.num, part.den)


@pytest.mark.parametrize("seed", range(3))
def test_express_recovers_a_known_combination(suite, seed):
    rng = random.Random(seed)
    table = suite.table
    h, a = suite.hamiltonian, suite.first_integral
    one = DiffOp.from_scalar(table, 1)
    basis = [("one", one), ("H", h), ("A", a), ("A2", a * a), ("HA", h * a)]
    coeffs = {}
    for label, _ in basis:
        if rng.random() < 0.2:
            coeffs[label] = PolyFraction.const(table, 0)
            continue
        text = "%d/%d*g^%d*a^%d/a^%d" % (
            rng.randint(-9, 9) or 1, rng.randint(1, 9),
            rng.randint(0, 4), rng.randint(0, 2), rng.randint(0, 4),
        )
        coeffs[label] = parse(text, table)
    target = DiffOp.zero(table)
    for label, op in basis:
        target = target + coeffs[label] * op
    assert express_in_basis(target, basis) == coeffs
