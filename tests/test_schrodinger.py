import math
import random
from fractions import Fraction

import numpy
import pytest

from cubicalg import schrodinger as sch
from cubicalg import weylop


def dense(t):
    m = numpy.diag(numpy.array(t.diagonal))
    off = numpy.array(t.offdiagonal)
    m += numpy.diag(off, 1) + numpy.diag(off, -1)
    return m


def random_tridiag(rng, n):
    diag = tuple(rng.uniform(-5.0, 5.0) for _ in range(n))
    off = tuple(rng.uniform(-3.0, 3.0) for _ in range(n - 1))
    return sch.TridiagMatrix(diag, off)


def test_grid_and_matrix_validation():
    with pytest.raises(ValueError):
        sch.Grid1D(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        sch.Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        sch.TridiagMatrix((1.0, 2.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        sch.TridiagMatrix((1.0, math.inf), (0.5,))
    grid = sch.Grid1D(0.0, 1.0, 3)
    assert grid.step == 0.25
    assert grid.nodes() == [0.25, 0.5, 0.75]


def test_discretize_box_matrix():
    t = sch.discretize(lambda x: 0.0, sch.Grid1D(0.0, 1.0, 3))
    assert t.diagonal == (16.0, 16.0, 16.0)
    assert t.offdiagonal == (-8.0, -8.0)


def test_discretize_rejects_singular_node():
    # interior node lands exactly on the wall at x = a = 1
    grid = sch.Grid1D(0.0, 2.0, 3)
    with pytest.raises(ValueError, match="singular"):
        sch.discretize(lambda x: sch.x_potential(x), grid)


def test_sturm_inertia_matches_dense_count():
    rng = random.Random(20260816)
    for _ in range(20):
        n = rng.randrange(5, 30)
        t = random_tridiag(rng, n)
        eigs = numpy.linalg.eigvalsh(dense(t))
        lam = rng.uniform(-8.0, 8.0)
        assert sch.sturm_count(t.diagonal, t.offdiagonal, lam) == int(
            numpy.sum(eigs < lam)
        )


def test_lowest_eigenvalues_match_dense_oracle():
    rng = random.Random(7)
    for _ in range(5):
        t = random_tridiag(rng, 50)
        eigs = sorted(numpy.linalg.eigvalsh(dense(t)))
        got = sch.lowest_eigenvalues(t, 7, tol=1e-12)
        assert max(abs(g - e) for g, e in zip(got, eigs)) < 1e-9
    with pytest.raises(ValueError):
        sch.lowest_eigenvalues(t, 51)


def test_box_calibration():
    assert abs(sch.box_ground() - math.pi ** 2 / 2.0) < 1e-3


def test_harmonic_calibration():
    assert abs(sch.harmonic_ground() - 0.25) < 1e-4


def test_y_ladder_analytic_and_numeric():
    assert sch.y_levels_analytic(4) == [0.25, 0.75, 1.25, 1.75]
    assert sch.y_levels_analytic(2, a=2.0) == [1 / 16, 3 / 16]
    numeric = sch.refined_levels(
        lambda y: sch.y_potential(y), -12.0, 12.0, 2000, 3
    )
    exact = sch.y_levels_analytic(3)
    assert max(abs(n - e) for n, e in zip(numeric, exact)) < 1e-6


def test_potential_matches_exact_operator_suite():
    suite = weylop.suite()
    scalar = suite.hamiltonian.parts[(0, 0)]
    kin_x = suite.hamiltonian.parts[(2, 0)]
    kin_y = suite.hamiltonian.parts[(0, 2)]
    for x, y in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(7, 2), Fraction(-1, 4))):
        values = {"x": x, "y": y, "h": 1, "a": 1, "i": 0}
        want = sch.potential(float(x), float(y))
        assert abs(float(scalar.evaluate(values)) - want) < 1e-12
        assert kin_x.evaluate(values) == Fraction(-1, 2)
        assert kin_y.evaluate(values) == Fraction(-1, 2)


def test_middle_well_reference():
    got = sch.x_levels_middle(3)
    # the well floor sits at V(0) = 2, so levels live above it; the
    # quartic trial profile caps the ground level at 4.52
    assert 2.0 < got[0] < 4.52
    frozen = [4.47010145, 10.64216441, 19.27930199]
    assert max(abs(g - f) for g, f in zip(got, frozen)) < 1e-5


def test_outer_well_reference():
    got = sch.x_levels_outer(4)
    frozen = [1.95056580, 3.10024088, 4.22487137, 5.33390453]
    assert max(abs(g - f) for g, f in zip(got, frozen)) < 1e-5
    near = sch.x_levels_outer(3, l_over_a=8.0)
    far = sch.x_levels_outer(3, l_over_a=16.0)
    assert max(abs(n - f) for n, f in zip(near, far)) < 1e-4


def test_outer_requires_wide_box():
    with pytest.raises(ValueError):
        sch.x_levels_outer(3, l_over_a=6.0)


def test_grid_refinement_convergence_witness():
    vx = lambda x: sch.x_potential(x)
    coarse = sch.dirichlet_levels(vx, 1.0, 12.0, 1000, 3)
    fine = sch.dirichlet_levels(vx, 1.0, 12.0, 2001, 3)
    assert max(abs(c - f) for c, f in zip(coarse, fine)) < 2e-3


def test_q5_levels_sorted_below_cutoff_in_mirror_pairs():
    levels = sch.q5_levels(1.0, cutoff=4.0)
    assert levels == sorted(levels)
    assert all(e < 4.0 for e in levels)
    # below the middle-well floor every x level is an outer-well level,
    # counted twice by mirror symmetry
    assert len(levels) % 2 == 0
    for even, odd in zip(levels[0::2], levels[1::2]):
        assert even == odd
    assert sch.q5_levels(1.0, cutoff=0.2) == []


def test_q5_levels_rejects_non_finite_cutoff():
    # no level compares >= inf or nan, so the y ladder would never stop
    for cutoff in (math.inf, math.nan):
        with pytest.raises(ValueError):
            sch.q5_levels(1.0, cutoff=cutoff, n=3)


def test_compare_report_semantics():
    levels = [1.0, 2.0, 3.0]
    rep = sch.compare([("g", 1.0005), ("x", 2.4)], levels, tol=1e-3)
    assert rep.rows[0].matched and rep.rows[0].nearest == 1.0
    assert not rep.rows[1].matched and rep.rows[1].nearest == 2.0
    assert not rep.passed
    assert rep.unmatched == (2.0, 3.0)

    rep = sch.compare([("neg", -0.5), ("g", 2.0)], levels, tol=1e-3)
    assert rep.rows[0].note == "not representable numerically"
    assert not rep.rows[0].matched
    assert rep.passed

    rep = sch.compare([], levels)
    assert rep.rows == () and rep.passed
    assert rep.unmatched == (1.0, 2.0, 3.0)

    rep = sch.compare([("g", 1.0)], [], tol=1e-3)
    assert not rep.passed and rep.rows[0].note == "no numeric levels below cutoff"


def test_two_wall_levels_disagree_with_formal_ladder():
    # The finite modules put energies at (p+3)/2, but the walls confine
    # the planar problem to wells whose floors sit too high: the lowest
    # combined level is the outer-well ground plus the harmonic
    # zero point, well above 3/2.  The comparison must say so.
    levels = sch.q5_levels(1.0, cutoff=4.0)
    assert abs(levels[0] - 2.2005658) < 5e-4
    preds = [("p=%d" % p, (p + 3) / 2.0) for p in range(5)]
    rep = sch.compare(preds, levels, tol=2e-3)
    assert not rep.passed
    assert all(not r.matched for r in rep.rows)
    assert min(r.deviation for r in rep.rows) > 0.14
