"""Differential operators of the two-wall system."""

import pytest

from cubicalg import weylop
from cubicalg.errors import AmbiguousBasis, NotInSpan
from cubicalg.exactnum import parse
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


def test_power_matches_repeated_product():
    table = q5_symbol_table()
    dx = DiffOp(table, {(1, 0): parse("1", table)})
    x = DiffOp.from_scalar(table, parse("x", table))
    op = x * dx + dx * x
    assert op**3 == op * op * op


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
