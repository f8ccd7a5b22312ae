import math
import random
import time
from fractions import Fraction
from itertools import islice

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(ValueError, match="out of order"):
        sch.discretize(lambda x: 0.0, 1.0, 1.0, 10)
    with pytest.raises(ValueError, match="three interior"):
        sch.discretize(lambda x: 0.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        sch.TridiagMatrix((1.0, 2.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        sch.TridiagMatrix((1.0, math.inf), (0.5,))
    nodes = []
    sch.discretize(lambda x: nodes.append(x) or 0.0, 0.0, 1.0, 3)
    assert nodes == [0.25, 0.5, 0.75]


def test_discretize_box_matrix():
    t = sch.discretize(lambda x: 0.0, 0.0, 1.0, 3)
    assert t.diagonal == (16.0, 16.0, 16.0)
    assert t.offdiagonal == (-8.0, -8.0)


def test_discretize_rejects_singular_node():
    # interior node lands exactly on the wall at x = a = 1
    with pytest.raises(ValueError, match="singular"):
        sch.discretize(lambda x: sch.x_potential(x), 0.0, 2.0, 3)


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
        got = list(islice(sch._eigenvalues(t, 1e-12), 7))
        assert max(abs(g - e) for g, e in zip(got, eigs)) < 1e-9
    with pytest.raises(ValueError):
        sch.refined_levels(sch.y_potential, -12.0, 12.0, 50, 51)


def reference_sturm_count(diag, off, lam):
    # the indexed sweep with abs() on the pivot, kept as the reference
    count = 0
    q = 1.0
    tiny = 1e-300
    for i, d in enumerate(diag):
        e2 = off[i - 1] * off[i - 1] if i else 0.0
        q = d - lam - e2 / q
        if abs(q) < tiny:
            q = -tiny
        if q < 0.0:
            count += 1
    return count


def reference_eigenvalues(t, tol, count=None):
    # each of the count lowest levels (all by default) bisected on its
    # own from the Gershgorin interval, sharing nothing with the others
    lo, hi = sch._gershgorin(t)
    out = []
    for k in range(t.size if count is None else count):
        a, b = lo, hi
        for _ in range(128):
            if b - a <= tol:
                break
            mid = 0.5 * (a + b)
            if reference_sturm_count(t.diagonal, t.offdiagonal, mid) > k:
                b = mid
            else:
                a = mid
        out.append(0.5 * (a + b))
    return out


@pytest.mark.parametrize("diag, off, lam", [
    ((1.0, 1.0, 1.0), (0.0, 0.0), 1.0),        # exact zero pivots
    ((-0.0, 2.0), (1.0,), 0.0),                 # a -0.0 pivot
    ((1.0, 2.0), (1.0,), 1.0),                  # zero pivot, then huge
    ((-5e-301, 3.0), (2.0,), 0.0),              # pivot in (-1e-300, 0)
    ((5e-301, 3.0), (2.0,), 0.0),               # pivot in (0, 1e-300)
    ((-1e-300, 1.0), (1e-150,), 0.0),           # pivot exactly -1e-300
    ((1e-300, 1.0), (1e-150,), 0.0),            # pivot exactly 1e-300
    ((1.0, math.nan, 1.0), (1.0, 1.0), 0.5),    # a NaN pivot
])
def test_sturm_count_matches_reference_on_tiny_pivots(diag, off, lam):
    assert sch.sturm_count(diag, off, lam) == reference_sturm_count(diag, off, lam)
    assert sch.sturm_count(list(diag), list(off), lam) == sch.sturm_count(diag, off, lam)


def test_shared_counts_give_the_same_floats_on_random_tridiagonals():
    rng = random.Random(386)
    for _ in range(25):
        n = rng.randrange(3, 40)
        diag = [rng.choice((1.0, -2.0, rng.uniform(-5.0, 5.0))) for _ in range(n)]
        off = [rng.choice((0.0, 1.0, rng.uniform(-3.0, 3.0))) for _ in range(n - 1)]
        t = sch.TridiagMatrix(tuple(diag), tuple(off))
        for lam in (-2.0, 0.0, 1.0, rng.uniform(-8.0, 8.0)):
            want = reference_sturm_count(t.diagonal, t.offdiagonal, lam)
            assert sch.sturm_count(t.diagonal, t.offdiagonal, lam) == want
        for tol in (1e-10, 1e-3):
            assert list(sch._eigenvalues(t, tol)) == reference_eigenvalues(t, tol)


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (1.0, 12.0)])
def test_shared_counts_give_the_same_floats_on_q5_wells(lo, hi):
    t = sch.discretize(sch.x_potential, lo, hi, 200)
    assert list(sch._eigenvalues(t, 1e-10)) == reference_eigenvalues(t, 1e-10)


def degenerate_tridiag(rng, n):
    # exact degeneracies from zero off-diagonals between repeated
    # diagonal values, and pivots that land on or under the 1e-300 floor
    diag = [rng.choice((1.0, -2.0, 0.0, -0.0, 1e-300, 5e-301,
                        rng.uniform(-5.0, 5.0))) for _ in range(n)]
    off = [rng.choice((0.0, 0.0, 1.0, 1e-150, 1e-160,
                       rng.uniform(-3.0, 3.0))) for _ in range(n - 1)]
    return sch.TridiagMatrix(tuple(diag), tuple(off))


@pytest.mark.parametrize("tol", [1e-3, 1e-10, 1e-14])
def test_replay_gives_the_same_floats_on_degenerate_tridiagonals(tol):
    rng = random.Random(1616)
    for _ in range(150):
        t = degenerate_tridiag(rng, rng.randrange(1, 30))
        assert list(sch._eigenvalues(t, tol)) == reference_eigenvalues(t, tol)


@st.composite
def small_tridiag(draw):
    # repeated diagonal values behind zero couplings give exact
    # degeneracies, couplings of 1e-12 split them far under any tol
    n = draw(st.integers(1, 12))
    value = st.floats(-5.0, 5.0, allow_nan=False)
    diag = draw(st.lists(
        st.sampled_from((1.0, -2.0, 0.0, 1.0 + 1e-12)) | value,
        min_size=n, max_size=n))
    off = draw(st.lists(
        st.sampled_from((0.0, 0.0, 1e-12, 1.0)) | value,
        min_size=n - 1, max_size=n - 1))
    return sch.TridiagMatrix(tuple(diag), tuple(off))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from((1e-3, 1e-10, 1e-14)))
def test_hints_never_move_a_level(data, tol):
    t = data.draw(small_tridiag())
    want = reference_eigenvalues(t, tol)
    lo, hi = sch._gershgorin(t)
    gaps = [0.5 * (x + y) for x, y in zip(want, want[1:])]
    hint = (
        st.none()
        | st.sampled_from(want)                      # on a level
        | st.sampled_from(gaps or want)              # between two levels
        | st.sampled_from((lo, hi, lo - 1.0, hi + 1.0, -1e300, 1e300,
                           math.inf, -math.inf, math.nan))
        | st.floats(-10.0, 10.0)
    )
    # any hint for any level, in the wrong gap included, and fewer or
    # more hints than levels
    hints = data.draw(st.lists(hint, max_size=t.size + 2))
    assert list(sch._eigenvalues(t, tol, hints)) == want
    assert list(sch._eigenvalues(t, tol, iter(hints))) == want


def symmetric_double_well():
    # two unit-depth halves of (-1, 1) behind a barrier of 2e4 on
    # |x| < 0.2, mirrored entry for entry: the pairs under the barrier
    # are split by about exp(-80), far under any tol
    half = sch.discretize(lambda x: 2e4 if x > -0.2 else 0.0,
                          -1.0, 0.0, 100)
    off = half.offdiagonal
    return sch.TridiagMatrix(half.diagonal + half.diagonal[::-1],
                             off + (off[0],) + off)


def test_replay_falls_through_to_bisection_on_unsplit_pairs(monkeypatch):
    t = symmetric_double_well()
    want = reference_eigenvalues(t, 1e-10, 6)
    assert want[0] == want[1] and want[2] == want[3] and want[4] == want[5]
    newton = []
    real = sch._sturm_newton
    monkeypatch.setattr(sch, "_sturm_newton",
                        lambda *args: newton.append(args) or real(*args))
    assert list(islice(sch._eigenvalues(t, 1e-10), 6)) == want
    assert newton == []


@pytest.mark.parametrize("n", [500, 2001])
@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (1.0, 12.0)])
def test_replay_gives_the_same_floats_on_q5_wells(lo, hi, n):
    # more than the levels q5_levels keeps below its cutoff of 6
    t = sch.discretize(sch.x_potential, lo, hi, n)
    got = list(islice(sch._eigenvalues(t, 1e-10), 8))
    assert got == reference_eigenvalues(t, 1e-10, 8)


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (1.0, 12.0)])
def test_sturm_count_is_monotone_in_lam_on_q5_wells(lo, hi):
    # the replay decides midpoints by this: ulp neighbours of each level,
    # points a few tol away and a sweep across the low spectrum
    t = sch.discretize(sch.x_potential, lo, hi, 500)
    levels = list(islice(sch._eigenvalues(t, 1e-10), 10))
    lams = [levels[0] - 2.0 + j * (levels[-1] + 4.0 - levels[0]) / 400
            for j in range(401)]
    for level in levels:
        x = y = level
        for _ in range(30):
            x = math.nextafter(x, -math.inf)
            y = math.nextafter(y, math.inf)
            lams += [x, y]
        lams += [level + j * 1e-11 for j in range(-20, 21)]
    lams.sort()
    counts = [sch.sturm_count(t.diagonal, t.offdiagonal, lam) for lam in lams]
    assert len(lams) > 1000
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[0] == 0 and counts[-1] >= 10


def test_q5_levels_sweep_budget(monkeypatch):
    # plain bisection took 564 sweeps here and Newton brackets from the
    # first isolating midpoint 206; seeding each level (the fine grid's
    # from the coarse grid, the coarse grid's from the levels below it)
    # takes 89, so an estimate that stops reaching the solver shows here
    sweeps = {"_sturm_count": 0, "_sturm_newton": 0}
    for name in sweeps:
        real = getattr(sch, name)

        def counted(*args, name=name, real=real):
            sweeps[name] += 1
            return real(*args)

        monkeypatch.setattr(sch, name, counted)
    sch.q5_levels(1.0, 6.0, 2000)
    assert sweeps == {"_sturm_count": 42, "_sturm_newton": 47}


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
        # the suite writes g = -i*h; here h = 1
        values = {"x": x, "y": y, "g": -1j, "a": 1}
        want = sch.x_potential(float(x)) + sch.y_potential(float(y))
        got = scalar.evaluate(values)
        assert got.imag == 0 and abs(got.real - want) < 1e-12
        assert kin_x.evaluate(values) == Fraction(-1, 2)
        assert kin_y.evaluate(values) == Fraction(-1, 2)


def test_middle_well_reference():
    got = sch.refined_levels(sch.x_potential, -1.0, 1.0, 2000, 3)
    # the well floor sits at V(0) = 2, so levels live above it; the
    # quartic trial profile caps the ground level at 4.52
    assert 2.0 < got[0] < 4.52
    frozen = [4.47010145, 10.64216441, 19.27930199]
    assert max(abs(g - f) for g, f in zip(got, frozen)) < 1e-5


def test_outer_well_reference():
    got = sch.refined_levels(sch.x_potential, 1.0, 12.0, 2000, 4)
    frozen = [1.95056580, 3.10024088, 4.22487137, 5.33390453]
    assert max(abs(g - f) for g, f in zip(got, frozen)) < 1e-5
    near = sch.refined_levels(sch.x_potential, 1.0, 8.0, 2000, 3)
    far = sch.refined_levels(sch.x_potential, 1.0, 16.0, 2000, 3)
    assert max(abs(n - f) for n, f in zip(near, far)) < 1e-4


def test_grid_refinement_convergence_witness():
    def levels(n):
        t = sch.discretize(sch.x_potential, 1.0, 12.0, n)
        return list(islice(sch._eigenvalues(t, 1e-10), 3))

    coarse = levels(1000)
    fine = levels(2001)
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


def test_q5_levels_refuses_a_huge_cutoff_or_grid_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        sch.q5_levels(1.0, cutoff=1e9, n=3)
    with pytest.raises(ValueError, match="at most"):
        sch.q5_levels(1.0, cutoff=6.0, n=sch.MAX_GRID + 1)
    assert time.perf_counter() - start < 1.0


def test_level_budget_accepts_the_fd_inputs():
    # numeric's default and the refined grid 2n + 1 of the largest one
    for n in (500, 1000, 2000, 4001):
        sch.check_level_budget(1.0, 6.0, n)


def test_q5_levels_refuses_a_grid_below_the_minimum():
    # grid 3 gave 57 levels starting 1.784, 1.784, 1.847 against 41
    # starting 2.2006 at grid 2000
    for n in (3, sch.MIN_GRID - 1):
        with pytest.raises(ValueError, match="at least"):
            sch.q5_levels(1.0, cutoff=6.0, n=n)
    for n in (sch.MIN_GRID, 400, 2000):
        sch.check_level_budget(1.0, 6.0, n)
    coarse = sch.q5_levels(1.0, cutoff=6.0, n=sch.MIN_GRID)
    fine = sch.q5_levels(1.0, cutoff=6.0, n=2000)
    assert len(coarse) == len(fine)
    assert max(abs(c - f) for c, f in zip(coarse, fine)) < 2e-3


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
