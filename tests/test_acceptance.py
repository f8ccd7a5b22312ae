"""End-to-end acceptance checks, one test per shipped guarantee.

Each criterion pins one externally visible promise: the conserved
integrals, the derived structure constants and casimir value, the
factored structure function with its four branches, the six energy
families, the unitarity truth table, exact matrix representations,
the randomized invertible-beta property suite, the numeric
cross-check, and byte-deterministic reports.  The terminal summary
prints one verdict line per criterion (see conftest).

Criterion 10 cross-checks the module ladder numerically against the
spectrum it describes.  The walled x-slice is exactly the Darboux
partner of an oscillator, built on its n = 2 state; the criterion
checks that identity exactly, matches every rung (p + 3)/2 to the
formal partner spectrum computed by finite differences, and matches
the confined wells to Dirichlet oscillators on the same intervals.
The confined wells themselves never reach the ladder's bottom rungs
(their lowest planar level is near 2.20, not 1.5).  That gap stays
pinned by test_two_wall_levels_disagree_with_formal_ladder in
test_schrodinger.py, and by the exit status 1 of `cubicalg compare`
and `cubicalg all`, which criterion 11 asserts.
"""

import random
import time
from fractions import Fraction

import pytest

from cubicalg import (
    algebra,
    cli,
    ladder,
    repcheck,
    schrodinger,
    spectrum,
    weylop,
)
from cubicalg.errors import SingularSystem, UnsupportedCase
from cubicalg.exactnum import NFunc, PolyFraction, SymbolTable, parse

BRANCHES = (
    "-E*a^2/h^2 - 1/2",
    "E*a^2/h^2 + 1/2",
    "-E*a^2/h^2 + 3/2",
    "-E*a^2/h^2 + 5/2",
)

# energy, lowest weight, interior roots beyond {0, p + 1}, unitary range
FAMILY_TABLE = [
    ("h^2*p/2/a^2", "-1/2*p - 1/2", ("2", "3"), "p1"),
    ("-h^2*(p + 2)/2/a^2", "-1/2*p - 1/2", ("p + 3", "p + 4"), "all"),
    ("-h^2*p/2/a^2", "-1/2*p + 1/2", ("p - 1", "p + 2"), "none"),
    ("-h^2*(p - 1)/2/a^2", "-1/2*p + 1", ("p - 2", "p"), "none"),
    ("h^2*(p + 2)/2/a^2", "-1/2*p + 1/2", ("-2", "1"), "none"),
    ("h^2*(p + 3)/2/a^2", "-1/2*p + 1", ("-3", "-1"), "all"),
]


def expect(text):
    return parse(text, algebra.master_table())


def find_family(families, energy_text):
    energy = expect(energy_text)
    hits = [f for f in families if f.energy == energy]
    assert len(hits) == 1
    return hits[0]


def q5_config(**overrides):
    base = dict(preset="q5", inline=None, k_text=None, p_max=4,
                a=Fraction(1), grid=400, cutoff=3.0, tol=2e-3,
                fmt="json", out=None)
    base.update(overrides)
    return cli.RunConfig(**base)


def test_criterion_01_integrals_commute_exactly():
    start = time.monotonic()
    suite = weylop.suite()
    for integral in (suite.first_integral, suite.second_integral):
        assert weylop.comm(suite.hamiltonian, integral).is_zero()
    assert time.monotonic() - start <= 60.0


def test_criterion_02_structure_constants_exact():
    derived = algebra.q5_algebra()
    linear = derived.linear_coefficients
    assert linear["B"] == expect("h^4/a^4")
    for label, value in linear.items():
        if label != "B":
            assert value.is_zero(), label
    closure = derived.closure_coefficients
    wanted = {
        "A3": "-32*h^2",
        "A2H": "-48*h^2",
        "H3": "16*h^2",
        "A2": "48*h^4/a^2",
        "HA": "32*h^4/a^2",
        "H2": "-16*h^4/a^2",
        "A": "8*h^6/a^4",
        "H": "-4*h^6/a^4",
        "one": "-12*h^8/a^6",
    }
    for label, text in wanted.items():
        assert closure[label] == expect(text), label
    for label in set(closure) - set(wanted):
        assert closure[label].is_zero(), label
    spec = derived.spec
    for name in ("alpha", "beta", "gamma", "epsilon"):
        assert getattr(spec, name).is_zero()
    assert spec.delta == expect("h^4/a^4")
    assert spec.mu == expect("-32*h^2")
    assert spec.nu == expect("-48*h^2*E + 48*h^4/a^2")
    assert spec.xi == expect("32*h^4/a^2*E + 8*h^6/a^4")
    assert spec.zeta == expect(
        "16*h^2*E^3 - 16*h^4/a^2*E^2 - 4*h^6/a^4*E - 12*h^8/a^6"
    )


def test_criterion_03_casimir_value_exact():
    assert algebra.q5_algebra().k == expect(
        "-16*h^2*E^4 + 32*h^4/a^2*E^3 + 16*h^6/a^4*E^2 - 40*h^8/a^6*E"
        " - 3*h^10/a^8"
    )


def test_criterion_04_structure_function_factored():
    sf = spectrum.q5_structure_function()
    lead = sf.phi.coefficients()[-1]
    assert lead == expect("-4*h^6/a^4")
    table = algebra.master_table()
    product = NFunc.const(table, 1)
    for text in BRANCHES:
        product = product * (NFunc.nu(table) - expect(text))
    assert product * lead == sf.phi
    # the diff against the printed prefactor is logged, not adopted
    doc = cli.run_derive(cli.Run(q5_config()))
    items = {d["item"]: d for d in doc["reference_deltas"]}
    delta = items["phi lead coefficient"]
    assert delta["derived"] == "-4*h^6/a^4"
    assert delta["reference"] == "-4*h^8/a^4"


def test_criterion_05_exactly_four_u_branches():
    sf = spectrum.q5_structure_function()
    branches = spectrum.branch_roots(sf.phi)
    assert len(branches) == 4
    assert all(b.multiplicity == 1 for b in branches)
    assert {b.root for b in branches} == {expect(t) for t in BRANCHES}


def test_criterion_06_energy_family_closed_forms():
    sf = spectrum.q5_structure_function()
    _, families, _ = spectrum.energy_families(sf.phi)
    assert len(families) == 6
    table = algebra.master_table()
    for energy_text, lowest_text, interior, _ in FAMILY_TABLE:
        family = find_family(families, energy_text)
        assert family.lowest == expect(lowest_text)
        assert family.lead == expect("-4*h^6/a^4")
        roots = {expect("0"), expect("p + 1")}
        roots |= {expect(t) for t in interior}
        assert set(family.roots) == roots
        product = NFunc.const(table, 1)
        for root in family.roots:
            product = product * (NFunc.nu(table) - root)
        assert product * family.lead == family.phi_levels


def test_criterion_07_unitarity_truth_table_to_p_50():
    sf = spectrum.q5_structure_function()
    _, families, _ = spectrum.energy_families(sf.phi)
    for energy_text, _, _, rule in FAMILY_TABLE:
        family = find_family(families, energy_text)
        for verdict in spectrum.unitarity_table(family, range(1, 51)):
            if rule == "all":
                assert verdict.unitary, (energy_text, verdict.p)
            elif rule == "none":
                assert not verdict.unitary, (energy_text, verdict.p)
            else:
                assert verdict.unitary == (verdict.p == 1), energy_text
    # the lone p = 1 pass is reported as an exception, never folded in
    doc = cli.run_spectrum(cli.Run(q5_config()))
    reported = [fam["exceptions"] for fam in doc["families"]]
    assert reported.count([1]) == 1
    assert reported.count([]) == 5


def test_criterion_08_exact_matrix_representations():
    start = time.monotonic()
    sf = spectrum.q5_structure_function()
    _, families, _ = spectrum.energy_families(sf.phi)
    rising = find_family(families, "h^2*(p + 3)/2/a^2")
    falling = find_family(families, "-h^2*(p + 2)/2/a^2")
    spec = algebra.q5_algebra().spec
    rng = random.Random(20260816)
    for _ in range(3):
        h = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        a = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        for family in (rising, falling):
            for p in range(0, 9):
                module, values = repcheck.q5_module(family, p, h=h, a=a)
                residuals = repcheck.relation_residuals(
                    module, spec, values
                )
                for name, matrix in residuals.items():
                    assert matrix.max_abs() == 0, (name, p, h, a)
                gauge = repcheck.symmetric_gauge_residual(
                    module, spec, values
                )
                assert gauge <= 1e-10, (p, h, a, gauge)
    assert time.monotonic() - start <= 10.0


def random_rational(rng, den=(1, 2, 3)):
    return Fraction(rng.randint(-4, 4), rng.choice(den))


def random_invertible_beta_spec(rng):
    table = SymbolTable(("k", "zeta"))
    beta = Fraction(0)
    while not beta:
        beta = random_rational(rng)
    values = {
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
    return table, values


def test_criterion_09_invertible_beta_property_suite():
    # a successful derivation has already verified shift consistency
    # and zero relation residuals symbolically; the module check below
    # replays them on explicit matrices
    rng = random.Random(20260816)
    for trial in range(20):
        table, values = random_invertible_beta_spec(rng)
        u = Fraction(rng.randint(-2, 2), rng.choice((3, 5)))
        u += Fraction(1, 7)
        p = rng.randint(0, 4)
        spec = algebra.jacobi_reduce(values, table)
        sf = ladder.derive_structure_function(
            spec, PolyFraction.sym(table, "k")
        )
        assert sf.realization.case == "quadratic", trial
        assert sf.phi.is_polynomial(), trial
        assert sf.phi.degree() <= 10, trial
        solution = spectrum.complete_truncation(sf.phi, u, p)
        concrete = dict(values)
        concrete["zeta"] = solution["zeta"]
        completed = ladder.derive_structure_function(
            algebra.jacobi_reduce(concrete, table), solution["k"]
        )
        module = repcheck.matrix_module(completed, u, p, solution)
        residuals = repcheck.relation_residuals(
            module, completed.spec, solution
        )
        for name, matrix in residuals.items():
            assert matrix.max_abs() == 0, (trial, name)
    # unsolvable inputs surface as the designated errors
    with pytest.raises(UnsupportedCase):
        ladder.derive_realization(
            algebra.jacobi_reduce({"mu": 1, "zeta": 3}, SymbolTable(()))
        )
    table = SymbolTable(("k", "zeta"))
    flat = algebra.jacobi_reduce(
        dict(alpha=0, beta=1, gamma=0, delta=0, epsilon=0, mu=0, nu=0,
             xi=0, zeta=0),
        table,
    )
    sf = ladder.derive_structure_function(flat, PolyFraction.sym(table, "k"))
    with pytest.raises(SingularSystem):
        spectrum.complete_truncation(sf.phi, Fraction(1, 3), 2)


def test_criterion_10_numeric_cross_validation():
    # The walled x-slice is the Darboux partner of the oscillator
    # V_osc = h^2 x^2/(8 a^4), built on its n = 2 state
    # psi_2 ~ (x^2 - a^2) exp(-x^2/(4 a^2)), whose nodes sit on the walls:
    # V_x = V_osc - h^2 W' - h*omega, with W = psi_2'/psi_2, omega = h/(2 a^2).
    # The modules describe the formal partner states, at oscillator levels
    # with n = 2 dropped, less h*omega; the confined wells keep the states
    # that the partner map takes from Dirichlet oscillators on (-a, a) and
    # (a, L), less the rung psi_2 itself.  Both are checked below.
    start = time.monotonic()
    box = schrodinger.box_ground(2000)
    assert abs(box - 4.934802200544679) < 1e-3
    harmonic = schrodinger.harmonic_ground(4000)
    assert abs(harmonic - 0.25) < 1e-4

    # the suite's table writes g = -i*h, so h^2 is -g^2 there
    suite = weylop.suite()
    table = suite.table

    def exact(text):
        return parse(text, table)

    v_x = suite.hamiltonian.parts[(0, 0)] - exact("-g^2*y^2/(8*a^4)")
    v_osc = exact("-g^2*x^2/(8*a^4)")
    w = exact("1/(x-a) + 1/(x+a) - x/(2*a^2)")
    dw = w.derivative("x")
    psi_2_rung = exact("-5*g^2/(4*a^2)")
    h_omega = exact("-g^2/(2*a^2)")
    assert (v_osc - exact("-g^2/2") * (dw + w * w) - psi_2_rung).is_zero()
    assert (v_osc - exact("-g^2") * dw - h_omega - v_x).is_zero()

    # at h = a = 1: h*omega = 1/2 and the psi_2 rung is 5/4
    oscillator = schrodinger.y_potential
    rungs = schrodinger.refined_levels(oscillator, -12.0, 12.0, 2000, 8)
    partner_x = [e - 0.5 for n, e in enumerate(rungs) if n != 2]
    y_levels = schrodinger.y_levels_analytic(8)
    formal = sorted(ex + ey for ex in partner_x for ey in y_levels)
    predictions = [("p=%d" % p, (p + 3) / 2.0) for p in range(5)]
    report = schrodinger.compare(predictions, formal, 2e-3)
    gaps = "; ".join(
        "%s predicted %.4f, nearest formal level %.4f, off by %.4g"
        % (row.label, row.energy, row.nearest, row.deviation)
        for row in report.rows
    )
    assert report.passed, "the formal ladder misses the modules: " + gaps

    confined_x = []
    wells = (
        ("middle", schrodinger.refined_levels(
            schrodinger.x_potential, -1.0, 1.0, 2000, 5), -1.0, 1.0, 1),
        ("outer", schrodinger.refined_levels(
            schrodinger.x_potential, 1.0, 12.0, 2000, 5), 1.0, 12.0, 2),
    )
    for name, walled, lo, hi, copies in wells:
        dirichlet = schrodinger.refined_levels(oscillator, lo, hi, 2000, 6)
        assert abs(dirichlet[0] - 1.25) < 1e-8, (name, dirichlet[0])
        mapped = [e - 0.5 for e in dirichlet[1:]]
        gap = max(abs(u - v) for u, v in zip(walled, mapped))
        assert gap < 1e-8, (name, gap)
        confined_x += mapped * copies
    # the levels that compare reports are these wells plus the y ladder
    levels = schrodinger.q5_levels(1.0, cutoff=6.0, n=2000)
    expected = sorted(
        ex + ey for ex in confined_x for ey in y_levels if ex + ey < 6.0
    )
    assert len(levels) == len(expected)
    assert max(abs(u - v) for u, v in zip(levels, expected)) < 1e-8
    assert time.monotonic() - start <= 30.0


def test_criterion_11_deterministic_outputs(tmp_path):
    for fmt in ("json", "csv"):
        outputs = []
        for run in ("one", "two"):
            out = tmp_path / (fmt + run)
            code = cli.main([
                "all", "--p-max", "2", "--grid", "400",
                "--cutoff", "3.0", "--format", fmt, "--out", str(out),
            ])
            # the chained run carries the honest comparison failure
            assert code == 1
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
