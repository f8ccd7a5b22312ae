"""Exact matrix modules and the symmetric floating gauge."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from cubicalg import algebra, casimir, ladder, repcheck, spectrum
from cubicalg.exactnum import PoleError
from cubicalg.exactnum.nfunc import NFunc
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
    one = repcheck.Matrix.diagonal([1] * 2)
    assert m * one == m and one * m == m
    assert casimir.comm(m, m).is_zero()
    assert (Fraction(1, 2) * m + m * Fraction(1, 2)) == m
    assert casimir.acomm(m, one) == m * 2


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
    one = repcheck.Matrix.diagonal([1] * module.dimension)
    ab = casimir.acomm(a, b)
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


# --- the float gauge against a dense reference ring ------------------------


class Dense:
    """Dense square matrices of floats, with the row-times-column
    formulas: each product entry sums x * y over k in ascending order."""

    def __init__(self, rows):
        self.rows = rows

    def __add__(self, other):
        return Dense([[x + y for x, y in zip(r, s)]
                      for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Dense([[x - y for x, y in zip(r, s)]
                      for r, s in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, Dense):
            cols = list(zip(*other.rows))
            return Dense([[sum(x * y for x, y in zip(row, col))
                           for col in cols] for row in self.rows])
        return Dense([[x * other for x in row] for row in self.rows])

    __rmul__ = __mul__


def dense_gauge_residual(module, spec, values):
    """symmetric_gauge_residual, computed over Dense."""
    n = module.dimension
    d = [1.0]
    for i in range(n - 1):
        d.append(d[-1] * math.sqrt(float(module.b.rows[i + 1][i])))

    def conjugate(m):
        return Dense([[float(x) * d[j] / d[i] for j, x in enumerate(row)]
                      for i, row in enumerate(m.rows)])

    a, b, c = (conjugate(m) for m in (module.a, module.b, module.c))
    exact = {name: v.evaluate(values) for name, v in spec.as_dict().items()}
    consts = {name: float(v) for name, v in exact.items()}
    coeffs = {name: float(v)
              for name, v in casimir.evaluate_coefficients(exact).items()}
    one = Dense([[float(i == j) for j in range(n)] for i in range(n)])
    linear, closure = casimir.relations(consts, a, b, c, one)
    central = casimir.realize(coeffs, a, b, c) - float(module.k) * one
    return max(abs(x) for m in (casimir.comm(a, b) - c, linear, closure,
                                central)
               for row in m.rows for x in row)


@pytest.mark.parametrize("a", [1, Fraction(2, 3), Fraction(3, 7),
                               Fraction(1, 10 ** 8), Fraction(1, 10 ** 12)])
def test_symmetric_gauge_matches_a_dense_ring_bit_for_bit(q5, a):
    # at a = 1e-8 and 1e-12 the gauge nears the top of the float range:
    # where the Dense oracle overflows, the gauge must not read finite
    _, spec, families = q5
    checked = 0
    for family in families:
        for p in range(21):
            if not spectrum.unitarity_verdict(family, p).unitary:
                continue
            module, values = repcheck.q5_module(family, p, 1, a)
            try:
                want = dense_gauge_residual(module, spec, values)
            except OverflowError:
                want = math.inf
            try:
                # an all-zero residual reads int 0, as max(..., default=0)
                got = float(
                    repcheck.symmetric_gauge_residual(module, spec, values))
            except OverflowError:
                got = math.inf
            if math.isfinite(want):
                assert got.hex() == want.hex(), (family.energy.format(), p)
            else:
                assert not math.isfinite(got), (family.energy.format(), p)
            checked += 1
    assert checked >= 40


# --- _valued against the Fraction Horner it replaced ------------------------


def fraction_horner(nf, values):
    """The nu-function by Horner's rule in Fractions, poles divided out."""
    num = [c.evaluate(values) for c in reversed(nf.num)]

    def at(point):
        for r, _ in nf.den:
            if r == point:
                raise PoleError("nu = %s is a pole" % (point,))
        value = Fraction(0)
        for c in num:
            value = value * point + c
        for r, m in nf.den:
            value = value / (point - r) ** m
        return value

    return at


POINTS = (0, 1, 3, 12, -1, -7, Fraction(1, 3), Fraction(-5, 2),
          Fraction(7, 3), Fraction(-11, 6), Fraction(9, 8))


def test_valued_matches_fraction_horner_on_q5_functions(q5):
    sf, _, families = q5
    real = sf.realization
    for a in (1, Fraction(2, 3), Fraction(3, 7)):
        for family in families:
            _, values = repcheck.q5_module(family, 2, Fraction(5, 4), a)
            for nf in (sf.phi, real.a_of_nu, real.b_of_nu, real.rho):
                got, want = repcheck._valued(nf, values), fraction_horner(
                    nf, values)
                for point in POINTS:
                    value = got(Fraction(point))
                    assert type(value) is Fraction
                    assert value == want(Fraction(point))


def test_valued_matches_fraction_horner_with_poles():
    table = SymbolTable(("E", "h"), atoms=("h",))
    e = PolyFraction.sym(table, "E")
    h = PolyFraction.sym(table, "h")
    coeffs = [e * e - 3, h * Fraction(2, 7), e / h, Fraction(-5, 3)]
    nf = NFunc(table, coeffs, [(Fraction(1, 2), 1), (Fraction(-3), 2)])
    assert nf.den  # both poles stay: no root of the numerator cancels them
    values = {"E": Fraction(-7, 5), "h": Fraction(3, 2)}
    got, want = repcheck._valued(nf, values), fraction_horner(nf, values)
    for point in POINTS:
        assert got(Fraction(point)) == want(Fraction(point))
    for pole in (Fraction(1, 2), Fraction(-3)):
        with pytest.raises(PoleError):
            got(pole)
