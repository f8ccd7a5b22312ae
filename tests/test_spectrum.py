"""Module families, unitarity verdicts, and truncation completion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicalg import algebra, ladder, spectrum
from cubicalg.errors import SingularSystem, UnresolvedFactor
from cubicalg.exactnum.nfunc import NFunc
from cubicalg.exactnum.parser import parse
from cubicalg.exactnum.polyfraction import PolyFraction
from cubicalg.exactnum.symbols import SymbolTable


@pytest.fixture(scope="module")
def catalog():
    sf = spectrum.q5_structure_function()
    return spectrum.energy_families(sf.phi)


def expect(text):
    return parse(text, algebra.master_table())


def find_family(families, energy_text):
    energy = expect(energy_text)
    hits = [f for f in families if f.energy == energy]
    assert len(hits) == 1
    return hits[0]


# energy, lowest weight, interior roots beyond {0, p + 1}, unitary p range
FAMILY_TABLE = [
    ("h^2*p/2/a^2", "-1/2*p - 1/2", ("2", "3"), "p1"),
    ("-h^2*(p + 2)/2/a^2", "-1/2*p - 1/2", ("p + 3", "p + 4"), "all"),
    ("-h^2*p/2/a^2", "-1/2*p + 1/2", ("p - 1", "p + 2"), "none"),
    ("-h^2*(p - 1)/2/a^2", "-1/2*p + 1", ("p - 2", "p"), "none"),
    ("h^2*(p + 2)/2/a^2", "-1/2*p + 1/2", ("-2", "1"), "none"),
    ("h^2*(p + 3)/2/a^2", "-1/2*p + 1", ("-3", "-1"), "all"),
]


def test_q5_branches_are_the_four_affine_roots(catalog):
    branches, _, _ = catalog
    roots = {b.root for b in branches}
    assert all(b.multiplicity == 1 for b in branches)
    assert roots == {
        expect("-E*a^2/h^2 - 1/2"),
        expect("E*a^2/h^2 + 1/2"),
        expect("-E*a^2/h^2 + 3/2"),
        expect("-E*a^2/h^2 + 5/2"),
    }


def test_q5_has_exactly_six_families(catalog):
    _, families, _ = catalog
    assert len(families) == 6
    energies = {f.energy for f in families}
    assert energies == {expect(text) for text, _, _, _ in FAMILY_TABLE}


def test_q5_family_factorizations(catalog):
    branches, families, _ = catalog
    lead = expect("-4*h^6/a^4")
    for energy_text, lowest_text, interior, _ in FAMILY_TABLE:
        family = find_family(families, energy_text)
        assert family.lead == lead
        assert family.residual is None
        assert family.lowest == expect(lowest_text)
        wanted = {expect("0"), expect("p + 1")} | {expect(t) for t in interior}
        assert set(family.roots) == wanted
        # the lowest weight really is the chosen branch at the family energy
        start = branches[family.start].root
        assert start.substitute({"E": family.energy}) == family.lowest


def test_q5_family_product_reconstruction(catalog):
    _, families, _ = catalog
    table = algebra.master_table()
    for family in families:
        product = NFunc.const(table, 1)
        for root in family.roots:
            product = product * (NFunc.nu(table) - root)
        assert product * family.lead == family.phi_levels


def compose_by_powers(phi, offset):
    """Phi(offset + x) summed as c_k (x + offset)^k: the reference shift."""
    table = phi.table
    base = NFunc.nu(table) + offset
    out = NFunc.const(table, 0)
    for k, c in enumerate(phi.coefficients()):
        if not c.is_zero():
            out = out + base ** k * c
    return out


def test_q5_phi_levels_match_composition_by_powers(catalog):
    phi = spectrum.q5_structure_function().phi
    _, families, _ = catalog
    assert len(families) == 6
    for fam in families:
        subs = {"E": fam.energy}
        phi_e = NFunc.from_coeffs(
            phi.table, [c.substitute(subs) for c in phi.coefficients()]
        )
        assert fam.phi_levels == compose_by_powers(phi_e, fam.lowest)


def test_q5_pinned_pairs(catalog):
    branches, _, pinned = catalog
    seen = {
        (branches[d.start].root, branches[d.end].root, d.p) for d in pinned
    }
    u1 = expect("-E*a^2/h^2 - 1/2")
    u3 = expect("-E*a^2/h^2 + 3/2")
    u4 = expect("-E*a^2/h^2 + 5/2")
    assert seen == {(u3, u4, 0), (u1, u3, 1), (u1, u4, 2)}


def test_q5_unitarity_truth_table(catalog):
    _, families, _ = catalog
    for energy_text, _, _, rule in FAMILY_TABLE:
        family = find_family(families, energy_text)
        for verdict in spectrum.unitarity_table(family, range(1, 13)):
            if rule == "all":
                assert verdict.unitary and verdict.failure_level is None
            elif rule == "none":
                assert not verdict.unitary
            else:
                assert verdict.unitary == (verdict.p == 1)


def test_q5_decisions(catalog):
    _, families, _ = catalog
    for energy_text, _, _, rule in FAMILY_TABLE:
        decision = spectrum.unitarity_decision(find_family(families, energy_text))
        assert decision.undecided is None
        assert decision.eventual == (rule == "all")
        assert decision.exceptions == ((1,) if rule == "p1" else ())


def test_q5_sign_verdicts_match_horner(catalog):
    _, families, _ = catalog
    for family in families:
        for p in range(0, 16):
            assert spectrum.unitarity_verdict(family, p) == horner_verdict(family, p)
    with pytest.raises(ValueError):
        spectrum.unitarity_verdict(families[0], -1)


def test_q5_borderline_interior_values(catalog):
    _, families, _ = catalog
    # the two look-alike families split exactly at p = 1
    passing = find_family(families, "h^2*p/2/a^2")
    assert spectrum.family_instance(passing, 1).values[1] == expect("8*h^6/a^4")
    failing = find_family(families, "-h^2*p/2/a^2")
    assert spectrum.family_instance(failing, 1).values[1] == expect("-8*h^6/a^4")


def test_q5_instance_values(catalog):
    _, families, _ = catalog
    cases = {
        "-h^2*(p + 2)/2/a^2": (0, 672, 720, 480, 192, 0),
        "h^2*(p + 3)/2/a^2": (0, 128, 360, 576, 560, 0),
    }
    unit = expect("h^6/a^4")
    for energy_text, values in cases.items():
        instance = spectrum.family_instance(find_family(families, energy_text), 4)
        assert instance.values == tuple(unit * v for v in values)
        assert instance.phi.evaluate(0).is_zero()


def test_rational_roots_with_multiplicity():
    table = SymbolTable(())
    x = NFunc.nu(table)
    phi = (x - 3) * (x - 3) * (x + Fraction(1, 2))
    branches = spectrum.branch_roots(phi)
    assert [(b.root.as_fraction(), b.multiplicity) for b in branches] == [
        (Fraction(-1, 2), 1),
        (Fraction(3), 2),
    ]


def test_irrational_split_is_reported():
    table = SymbolTable(())
    x = NFunc.nu(table)
    with pytest.raises(UnresolvedFactor):
        spectrum.branch_roots(x * x - 2)


def test_parametric_root_with_multiplicity():
    table = algebra.master_table()
    x = NFunc.nu(table)
    r = expect("E*a^2/h^2")
    phi = (x - r) * (x - r) * (x + 1)
    branches = spectrum.branch_roots(phi)
    assert {(b.root, b.multiplicity) for b in branches} == {
        (r, 2),
        (expect("-1"), 1),
    }


def test_families_need_a_level_symbol():
    table = SymbolTable(("E",))
    x = NFunc.nu(table)
    with pytest.raises(ValueError):
        spectrum.energy_families(x * x - 1)


def random_rational(rng, den=(1, 2, 3)):
    return Fraction(rng.randint(-4, 4), rng.choice(den))


def symbolic_completion_spec(rng):
    """Random invertible-beta algebra with k and zeta left symbolic."""
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


def test_truncation_completion_matches_rederivation():
    rng = random.Random(20260816)
    for _ in range(4):
        table, values = symbolic_completion_spec(rng)
        spec = algebra.jacobi_reduce(values, table)
        sf = ladder.derive_structure_function(spec, PolyFraction.sym(table, "k"))
        u = Fraction(rng.randint(-3, 3), rng.choice((3, 5))) + Fraction(1, 7)
        p = rng.randint(0, 3)
        solution = spectrum.complete_truncation(sf.phi, u, p)
        concrete = dict(values)
        concrete["zeta"] = solution["zeta"]
        sf_c = ladder.derive_structure_function(
            algebra.jacobi_reduce(concrete, table), solution["k"]
        )
        assert sf_c.phi.evaluate(u).is_zero()
        assert sf_c.phi.evaluate(u + p + 1).is_zero()
        subs = dict(solution)
        coeffs = [c.substitute(subs) for c in sf.phi.coefficients()]
        assert NFunc.from_coeffs(table, coeffs) == sf_c.phi


def test_truncation_completion_needs_both_unknowns():
    # with every cubic-side constant zero the conditions cannot see zeta
    table = SymbolTable(("k", "zeta"))
    values = dict(
        alpha=0, beta=1, gamma=0, delta=0, epsilon=0, mu=0, nu=0, xi=0, zeta=0
    )
    spec = algebra.jacobi_reduce(values, table)
    sf = ladder.derive_structure_function(spec, PolyFraction.sym(table, "k"))
    with pytest.raises(SingularSystem):
        spectrum.complete_truncation(sf.phi, Fraction(1, 3), 2)


def test_truncation_completion_rejects_negative_p(catalog):
    sf = spectrum.q5_structure_function()
    with pytest.raises(ValueError):
        spectrum.complete_truncation(sf.phi, Fraction(1, 3), -1)


def horner_verdict(family, p):
    """The verdict read off Phi evaluated at every level: the oracle."""
    instance = spectrum.family_instance(family, p)
    for x in range(1, p + 1):
        sign = instance.values[x].sign_for_positive_symbols()
        assert sign is not None
        if sign <= 0:
            return spectrum.Verdict(p, False, x)
    return spectrum.Verdict(p, True, None)


def made_family(lead_text, root_texts, residual=None):
    """A Family whose Phi over the levels is lead * prod (x - root),
    times residual (an NFunc) when one is given."""
    table = algebra.master_table()
    lead = expect(lead_text)
    roots = tuple(expect(t) for t in root_texts)
    phi = NFunc.const(table, lead)
    for root in roots:
        phi = phi * (NFunc.nu(table) - root)
    if residual is not None:
        phi = phi * residual
    zero = PolyFraction.const(table, 0)
    return spectrum.Family(0, 1, zero, zero, phi, lead, roots, residual)


ROOT = st.tuples(st.integers(-6, 6), st.sampled_from((0, 1)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((1, -1)), st.lists(ROOT, min_size=2, max_size=5))
def test_sign_test_and_decision_match_horner(lead_sign, roots):
    lead = "%d*h^2/a" % (4 * lead_sign)
    texts = ["%d + %d*p" % (c0, c1) for c0, c1 in roots]
    family = made_family(lead, texts)
    bound = max(abs(c0) for c0, _ in roots)
    last = 2 * bound + 25
    horner = [horner_verdict(family, p) for p in range(0, max(40, last) + 1)]
    assert [spectrum.unitarity_verdict(family, p)
            for p in range(0, 41)] == horner[:41]
    decision = spectrum.unitarity_decision(family)
    assert decision.undecided is None
    assert all(v.unitary == decision.eventual
               for v in horner[2 * bound + 3: last + 1])
    assert decision.exceptions == tuple(
        p for p in range(1, last + 1) if horner[p].unitary != decision.eventual
    )


def test_verdicts_past_the_table_match_full_sweeps():
    # past p = 2M + 3 a verdict is read off the table's last entry; a
    # full sweep of the levels at each p is the oracle, failure level
    # included, for rational c0 with small denominators
    rng = random.Random(15)
    for _ in range(150):
        roots = []
        for _ in range(rng.randint(1, 5)):
            den = rng.randint(1, 3)
            roots.append("%d/%d + %d*p" % (rng.randint(-14 * den, 14 * den),
                                          den, rng.randint(0, 1)))
        family = made_family(rng.choice(("4*h^2/a", "-4*h^2/a")), roots)
        table = family.verdict_table
        last = len(table) - 1
        for p in range(last + 1, last + 25):
            assert spectrum.unitarity_verdict(family, p) == \
                spectrum._sign_verdict(family.sign_form, p)


@pytest.mark.parametrize("lead, roots, residual, reason", [
    # residual x^2 + 1, by its coefficients
    ("-4*h^2", ("0", "p + 1"), ("1", "0", "1"), "unsplit factor of degree 2"),
    ("-4*h^2", ("0", "p + 1", "2*p + 3"), None, "not c0 + c1*p"),
    ("-4*h^2", ("0", "p + 1", "-h"), None, "depends on symbols other than p"),
    ("h^2 - a", ("0", "p + 1"), None, "not fixed by positivity"),
])
def test_undecided_families_keep_the_level_by_level_verdict(
        lead, roots, residual, reason):
    if residual is not None:
        residual = NFunc.from_coeffs(
            algebra.master_table(), [expect(c) for c in residual]
        )
    family = made_family(lead, roots, residual)
    decision = spectrum.unitarity_decision(family)
    assert decision.eventual is None and decision.exceptions is None
    assert reason in decision.undecided
    if "positivity" in reason:
        with pytest.raises(ValueError):
            spectrum.unitarity_verdict(family, 2)
    else:
        for p in range(0, 8):
            assert spectrum.unitarity_verdict(family, p) == horner_verdict(family, p)
