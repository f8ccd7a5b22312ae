"""Normal ordering, the rewrite rules read off the relations, and the
derived central element."""

import random
from fractions import Fraction

import pytest

from cubicalg.casimir import (
    BASIS_NAMES,
    CONSTANT_NAMES,
    Words,
    _rewrites,
    casimir_coefficients,
    comm,
    evaluate_coefficients,
    normalize,
    realize,
    verify_jacobi,
)
from cubicalg.errors import JacobiViolation
from cubicalg.exactnum import MultiPoly, SymbolTable


def symbolic_constants():
    table = SymbolTable(CONSTANT_NAMES)
    return {name: MultiPoly.sym(table, name) for name in CONSTANT_NAMES}


def hand_rules(consts):
    """The swap rules typed out from the two defining relations: the
    oracle for the rules that _rewrites reads off casimir.relations."""
    alpha = consts["alpha"]
    beta = consts["beta"]
    gamma = consts["gamma"]
    delta = consts["delta"]
    epsilon = consts["epsilon"]
    mu = consts["mu"]
    nu = consts["nu"]
    xi = consts["xi"]
    zeta = consts["zeta"]
    return {
        ("B", "A"): [(("A", "B"), 1), (("C",), -1)],
        ("C", "A"): [
            (("A", "C"), 1),
            (("A", "A"), -alpha),
            (("A", "B"), -2 * beta),
            (("C",), beta),
            (("A",), -gamma),
            (("B",), -delta),
            ((), -epsilon),
        ],
        ("C", "B"): [
            (("B", "C"), 1),
            (("A", "A", "A"), -mu),
            (("A", "A"), -nu),
            (("B", "B"), beta),
            (("A", "B"), 2 * alpha),
            (("C",), -alpha),
            (("A",), -xi),
            (("B",), gamma),
            ((), -zeta),
        ],
    }


def as_terms(rules):
    """{(pair, word): scalar}, so two rule sets compare term by term."""
    return {
        (pair, word): coeff
        for pair, replacement in rules.items()
        for word, coeff in replacement
    }


def generators(rules, one):
    return [Words({(name,): one}, rules) for name in "ABC"]


def test_rules_match_the_hand_written_table():
    consts = symbolic_constants()
    got = _rewrites(consts)
    expected = hand_rules(consts)
    assert set(got) == set(expected)
    for pair in expected:
        assert dict(got[pair]) == dict(expected[pair]), pair
        assert len(got[pair]) == len(expected[pair]), pair


def test_each_constant_moves_exactly_its_own_terms():
    # bumping one constant in the relations moves exactly the rule terms
    # that constant multiplies, by the hand table's amount
    consts = symbolic_constants()
    base = as_terms(_rewrites(consts))
    oracle = as_terms(hand_rules(consts))
    for name in CONSTANT_NAMES:
        bumped = dict(consts, **{name: consts[name] + 1})
        moved = as_terms(_rewrites(bumped))
        oracle_moved = as_terms(hand_rules(bumped))
        assert set(moved) == set(base), name
        changed = {key for key in base if moved[key] != base[key]}
        assert changed == {
            key for key in oracle if oracle_moved[key] != oracle[key]
        }, name
        assert changed, name
        for key in changed:
            assert moved[key] - base[key] == oracle_moved[key] - oracle[key]


def test_single_swap_normalizes():
    consts = symbolic_constants()
    rules = _rewrites(consts)
    table = consts["alpha"].table
    one = MultiPoly.const(table, 1)
    out = normalize({("B", "A"): one}, rules)
    assert set(out) == {("A", "B"), ("C",)}
    assert out[("A", "B")] == one
    assert out[("C",)] == -one


def test_normal_words_are_fixed_points():
    consts = symbolic_constants()
    rules = _rewrites(consts)
    table = consts["alpha"].table
    one = MultiPoly.const(table, 1)
    for word in [(), ("A",), ("A", "B"), ("A", "A", "C"), ("B", "C", "C")]:
        assert normalize({word: one}, rules) == {word: one}


def test_normalization_is_confluent_on_products():
    # associativity survives the rewrite system: (CB)A == C(BA)
    consts = symbolic_constants()
    rules = _rewrites(consts)
    one = MultiPoly.const(consts["alpha"].table, 1)
    a, b, c = generators(rules, one)
    left = (c * b) * a
    right = c * (b * a)
    assert not left.is_zero()
    assert left.terms == right.terms


def test_jacobi_holds_for_the_standard_rules():
    verify_jacobi(_rewrites(symbolic_constants()))


def test_jacobi_rejects_tampered_rules():
    consts = symbolic_constants()
    rules = _rewrites(consts)
    table = consts["alpha"].table
    bad = dict(rules)
    tampered = []
    for word, coeff in bad[("C", "B")]:
        if word == ("B", "B"):
            coeff = coeff + MultiPoly.const(table, 1)
        tampered.append((word, coeff))
    bad[("C", "B")] = tampered
    with pytest.raises(JacobiViolation):
        verify_jacobi(bad)


def test_casimir_coefficients_match_closed_forms():
    coeffs = casimir_coefficients()
    consts = symbolic_constants()
    alpha = consts["alpha"]
    beta = consts["beta"]
    gamma = consts["gamma"]
    delta = consts["delta"]
    epsilon = consts["epsilon"]
    mu = consts["mu"]
    nu = consts["nu"]
    xi = consts["xi"]
    zeta = consts["zeta"]
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    expected = {
        "AAB_sym": -alpha,
        "ABB_sym": -beta,
        "AB_sym": alpha * beta - gamma,
        "BB": beta * beta - delta,
        "B": beta * gamma - epsilon * 2,
        "A4": mu * half,
        "A3": (nu + mu * beta) * Fraction(2, 3),
        "A2": -mu * beta * beta * Fraction(1, 6)
        + beta * nu * third
        + delta * mu * half
        + alpha * alpha
        + xi,
        "A": -mu * beta * delta * Fraction(1, 6)
        + delta * nu * third
        + alpha * gamma
        + zeta * 2,
    }
    assert set(coeffs) == set(BASIS_NAMES)
    for name in BASIS_NAMES:
        assert coeffs[name] == expected[name], name


def test_central_element_commutes_at_random_constants():
    rng = random.Random(20260816)
    for _ in range(5):
        values = {
            name: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for name in CONSTANT_NAMES
        }
        coeffs = evaluate_coefficients(values)
        a, b, c = generators(_rewrites(values), Fraction(1))
        candidate = realize(coeffs, a, b, c)
        for gen in (a, b):
            assert comm(candidate, gen).is_zero()


def test_coefficients_transform_under_ladder_rescaling():
    # B -> s B, C -> s C maps the constants as
    #   (alpha, gamma, epsilon) -> s * theirs
    #   (beta, delta) fixed
    #   (mu, nu, xi, zeta) -> s^2 * theirs
    # and the central element picks up s^2 overall, so each coefficient
    # scales by s^2 over the scaling of its own basis word.
    rng = random.Random(991)
    basis_scale = {
        "AAB_sym": 1,
        "ABB_sym": 2,
        "AB_sym": 1,
        "BB": 2,
        "B": 1,
        "A4": 0,
        "A3": 0,
        "A2": 0,
        "A": 0,
    }
    for _ in range(20):
        values = {
            name: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for name in CONSTANT_NAMES
        }
        s = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        scaled = {
            "alpha": s * values["alpha"],
            "beta": values["beta"],
            "gamma": s * values["gamma"],
            "delta": values["delta"],
            "epsilon": s * values["epsilon"],
            "mu": s**2 * values["mu"],
            "nu": s**2 * values["nu"],
            "xi": s**2 * values["xi"],
            "zeta": s**2 * values["zeta"],
        }
        base = evaluate_coefficients(values)
        moved = evaluate_coefficients(scaled)
        for name in BASIS_NAMES:
            assert moved[name] == s ** (2 - basis_scale[name]) * base[name]
