"""Exact matrix modules and the symmetric floating gauge."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from cubicalg import algebra, ladder, repcheck, spectrum
from cubicalg.exactnum.parser import parse
from cubicalg.exactnum.polyfraction import PolyFraction
from cubicalg.exactnum.symbols import SymbolTable


@pytest.fixture(scope="module")
def q5():
    sf = spectrum.q5_structure_function()
    spec = algebra.q5_algebra().spec
    _, families, _ = spectrum.energy_families(sf.phi)
    return sf, spec, families


def family_with_root(families, text):
    want = parse(text, algebra.master_table())
    hits = [f for f in families if want in set(f.roots)]
    assert len(hits) == 1
    return hits[0]


def test_matrix_arithmetic():
    m = repcheck.Matrix([[1, 2], [3, 4]])
    one = repcheck.Matrix.identity(2)
    assert m * one == m and one * m == m
    assert repcheck.comm(m, m).is_zero()
    assert (Fraction(1, 2) * m + m * Fraction(1, 2)) == m
    assert repcheck.acomm(m, one) == m * 2


def test_two_level_module_entries(q5):
    _, _, families = q5
    family = family_with_root(families, "-3")
    module, _ = repcheck.q5_module(family, 1)
    assert module.u == Fraction(1, 2)
    assert module.phi == (0, 32, 0)
    assert module.a.rows == ((Fraction(1, 2), 0), (0, Fraction(3, 2)))
    assert module.b.rows == ((0, 1), (32, 0))
    assert module.c.rows == ((0, -1), (32, 0))
    assert module.k == -19


def test_q5_modules_satisfy_every_relation_exactly(q5):
    _, spec, families = q5
    scales = ((1, 1), (Fraction(17, 16), Fraction(15, 16)))
    for text in ("p + 4", "-3"):
        family = family_with_root(families, text)
        for p in (1, 4, 8):
            for h, a in scales:
                module, values = repcheck.q5_module(family, p, h, a)
                residuals = repcheck.relation_residuals(module, spec, values)
                assert set(residuals) == {"linear", "closure", "central"}
                assert all(m.is_zero() for m in residuals.values())


def test_q5_modules_are_exact_at_large_p(q5):
    _, spec, families = q5
    for family in families:
        for p in (20, 30):
            for h, a in ((1, 1), (Fraction(17, 16), Fraction(15, 16))):
                module, values = repcheck.q5_module(family, p, h, a)
                assert module.dimension == p + 1
                residuals = repcheck.relation_residuals(module, spec, values)
                assert all(m.is_zero() for m in residuals.values())


def test_q5_symmetric_gauge_stays_tight(q5):
    _, spec, families = q5
    for text in ("p + 4", "-3"):
        family = family_with_root(families, text)
        for p in (1, 4, 8):
            module, values = repcheck.q5_module(
                family, p, Fraction(9, 8), Fraction(7, 8)
            )
            residual = repcheck.symmetric_gauge_residual(module, spec, values)
            assert residual <= 1e-10
            a, b, _ = repcheck.symmetric_gauge(module)
            for i in range(module.dimension):
                for j in range(module.dimension):
                    assert b.rows[i][j] == pytest.approx(b.rows[j][i], abs=1e-12)


def test_each_perturbed_constant_shows_in_the_residuals(q5):
    # q5 has alpha = beta = gamma = epsilon = 0, so only a perturbation
    # shows that the shared relations carry those terms at all
    _, spec, families = q5
    module, values = repcheck.q5_module(family_with_root(families, "-3"), 2)
    a, b = module.a, module.b
    one = repcheck.Matrix.identity(module.dimension)
    ab = repcheck.acomm(a, b)
    # constant -> (term in [A, C], term in [B, C]) it multiplies, signed
    terms = {
        "alpha": (a * a, -ab),
        "beta": (ab, -(b * b)),
        "gamma": (a, -b),
        "delta": (b, None),
        "epsilon": (one, None),
        "mu": (None, a * a * a),
        "nu": (None, a * a),
        "xi": (None, a),
        "zeta": (None, one),
    }
    for name, (in_linear, in_closure) in terms.items():
        bumped = dataclasses.replace(spec, **{name: getattr(spec, name) + 1})
        residuals = repcheck.relation_residuals(module, bumped, values)
        for relation, term in (("linear", in_linear), ("closure", in_closure)):
            if term is None:
                assert residuals[relation].is_zero(), (name, relation)
            else:
                assert residuals[relation] == -term, (name, relation)
        gauge = repcheck.symmetric_gauge_residual(module, bumped, values)
        assert gauge > 1e-6, name


def test_nonunitary_module_is_exact_but_not_symmetrizable(q5):
    _, spec, families = q5
    family = family_with_root(families, "-2")
    module, values = repcheck.q5_module(family, 3)
    residuals = repcheck.relation_residuals(module, spec, values)
    assert all(m.is_zero() for m in residuals.values())
    with pytest.raises(ValueError):
        repcheck.symmetric_gauge(module)


def test_wrong_lowest_weight_is_refused(q5):
    sf, _, families = q5
    family = family_with_root(families, "-3")
    _, values = repcheck.q5_module(family, 2)
    u = family.lowest.evaluate(values)
    with pytest.raises(ValueError):
        repcheck.matrix_module(sf, u + Fraction(1, 3), 2, values)


def random_rational(rng, den=(1, 2, 3)):
    return Fraction(rng.randint(-4, 4), rng.choice(den))


def test_completed_random_modules_are_exact():
    rng = random.Random(20260816)
    for _ in range(5):
        table = SymbolTable(("k", "zeta"))
        beta = Fraction(0)
        while not beta:
            beta = random_rational(rng)
        constants = {
            "alpha": random_rational(rng),
            "beta": beta,
            "gamma": random_rational(rng),
            "delta": random_rational(rng),
            "epsilon": random_rational(rng),
            "mu": random_rational(rng),
            "nu": random_rational(rng),
            "xi": random_rational(rng),
            "zeta": PolyFraction.sym(table, "zeta"),
        }
        spec = algebra.jacobi_reduce(constants, table)
        sf = ladder.derive_structure_function(
            spec, PolyFraction.sym(table, "k")
        )
        u = Fraction(rng.randint(-3, 3), rng.choice((3, 5))) + Fraction(1, 7)
        p = rng.randint(0, 4)
        values = spectrum.complete_truncation(sf.phi, u, p)
        module = repcheck.matrix_module(sf, u, p, values)
        residuals = repcheck.relation_residuals(module, spec, values)
        assert all(m.is_zero() for m in residuals.values())
        assert module.phi[0] == 0 and module.phi[-1] == 0


def test_gauge_residual_over_nan_entries_is_nan(q5):
    # at a = 3e-40 the p = 0 gauge of this family has NaN residual
    # entries behind finite ones; a plain max over them read 0
    _, spec, families = q5
    family = family_with_root(families, "-3")
    module, values = repcheck.q5_module(family, 0, 1, Fraction(3, 10 ** 41))
    assert math.isnan(repcheck.symmetric_gauge_residual(module, spec, values))
