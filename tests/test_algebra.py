"""Derived structure constants of the two-wall cubic algebra."""

import inspect
from fractions import Fraction

import pytest

from cubicalg import algebra, casimir, spectrum, weylop
from cubicalg.algebra import (
    AlgebraSpec,
    hamiltonian_powers,
    jacobi_reduce,
    master_table,
    q5_algebra,
    scalar_to_operator,
    transfer_scalar,
)
from cubicalg.errors import CubicalgError, JacobiViolation
from cubicalg.exactnum import PolyFraction, parse


@pytest.fixture(scope="module")
def derived():
    return q5_algebra()


def expect(text):
    return parse(text, master_table())


STAGE_MEMOS = [
    (algebra, "master_table"),
    (weylop, "suite"),
    (casimir, "casimir_coefficients"),
    (algebra, "q5_algebra"),
    (spectrum, "q5_structure_function"),
]


@pytest.mark.parametrize("module, name", STAGE_MEMOS,
                         ids=[name for _, name in STAGE_MEMOS])
def test_stage_memo_is_a_plain_function_of_its_module(module, name):
    # each stage is built once per process, behind a plain function that
    # keeps its own name and module, so that introspection finds it
    stage = getattr(module, name)
    assert inspect.isfunction(stage)
    assert stage.__module__ == module.__name__
    assert stage.__name__ == name
    assert stage() is stage()


def test_structure_constants(derived):
    spec = derived.spec
    assert spec.alpha.is_zero()
    assert spec.beta.is_zero()
    assert spec.gamma.is_zero()
    assert spec.epsilon.is_zero()
    assert spec.delta == expect("h^4/a^4")
    assert spec.mu == expect("-32*h^2")
    assert spec.nu == expect("-48*h^2*E + 48*h^4/a^2")
    assert spec.xi == expect("32*h^4/a^2*E + 8*h^6/a^4")
    assert spec.zeta == expect(
        "16*h^2*E^3 - 16*h^4/a^2*E^2 - 4*h^6/a^4*E - 12*h^8/a^6"
    )


def test_casimir_value(derived):
    assert derived.k == expect(
        "-16*h^2*E^4 + 32*h^4/a^2*E^3 + 16*h^6/a^4*E^2 - 40*h^8/a^6*E"
        " - 3*h^10/a^8"
    )


def test_casimir_value_at_reference_point(derived):
    point = {"E": Fraction(5, 2), "h": 1, "a": 1, "u": 0, "p": 0, "x": 0}
    assert derived.k.evaluate(point) == Fraction(-128)


def test_closure_expansion_is_cubic(derived):
    got = derived.closure_coefficients
    assert got["A3"] == expect("-32*h^2")
    assert got["A2H"] == expect("-48*h^2")
    assert got["H3"] == expect("16*h^2")
    assert got["A2"] == expect("48*h^4/a^2")
    assert got["HA"] == expect("32*h^4/a^2")
    assert got["H2"] == expect("-16*h^4/a^2")
    assert got["A"] == expect("8*h^6/a^4")
    assert got["H"] == expect("-4*h^6/a^4")
    assert got["one"] == expect("-12*h^8/a^6")
    for absent in ("B2", "AB_sym", "B", "BH"):
        assert got[absent].is_zero()


def test_linear_relation_reduces_to_delta_b(derived):
    got = derived.linear_coefficients
    assert got["B"] == expect("h^4/a^4")
    for label, value in got.items():
        if label != "B":
            assert value.is_zero(), label


def test_casimir_scalars_follow_the_constants(derived):
    scalars = derived.casimir_scalars
    assert scalars["A4"] == expect("-16*h^2")
    assert scalars["BB"] == expect("-h^4/a^4")
    assert scalars["AAB_sym"].is_zero()
    assert scalars["ABB_sym"].is_zero()


def test_jacobi_reduce_accepts_consistent_dependents():
    spec = jacobi_reduce(
        {"alpha": "2", "beta": "3", "gamma": "5", "sigma": "-2", "rho": "-3",
         "eta": "-5", "delta": 1, "mu": 7}
    )
    assert isinstance(spec, AlgebraSpec)
    assert spec.mu == expect("7")
    assert spec.zeta.is_zero()


def test_jacobi_reduce_rejects_inconsistent_dependents():
    with pytest.raises(JacobiViolation):
        jacobi_reduce({"beta": "3", "rho": "3"})


def test_jacobi_reduce_rejects_unknown_names():
    with pytest.raises(ValueError):
        jacobi_reduce({"kappa": 1})


def test_transfer_scalar_roundtrip():
    master = master_table()
    suite = weylop.suite()
    value = parse("3*h^4/a^2 - 1/2*h^2", master)
    moved = transfer_scalar(value, suite.table)
    back = transfer_scalar(moved, master)
    assert back == value


def test_transfer_scalar_rejects_an_odd_power_of_g():
    # the suite writes g = -i*h, so an odd power of g is imaginary
    suite_table = weylop.suite().table
    with pytest.raises(CubicalgError):
        transfer_scalar(parse("g^2 + g^3/a", suite_table), master_table())
    with pytest.raises(CubicalgError):
        transfer_scalar(parse("h", master_table()), suite_table)
    assert transfer_scalar(parse("g^2 - g^4/a", suite_table),
                           master_table()) == expect("-h^2 - h^4/a")


def test_scalar_to_operator_maps_energy_to_hamiltonian():
    master = master_table()
    suite = weylop.suite()
    op = scalar_to_operator(parse("E^2 - 2*h^2*E", master), suite,
                            hamiltonian_powers(suite, 2))
    h = suite.hamiltonian
    two = PolyFraction.const(suite.table, 2)
    hh = parse("-g^2", suite.table)
    assert op == h * h + (-two) * (hh * h)
