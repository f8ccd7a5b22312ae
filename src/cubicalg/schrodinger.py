"""Finite-difference cross-check of the two-wall spectrum.

The planar potential separates: a harmonic slice in y and a walled
slice in x whose inverse-square barriers at x = +-a are impenetrable,
so the x problem splits into three independent Dirichlet wells and the
outer two are mirror images.  Planar levels are sums of one x level
and one y level.  Each eigenvalue of the three-point discretization is
the float that bisection from the Gershgorin interval to width
LEVEL_TOL gives for it alone, with a Sturm count at each midpoint.
That float Sturm count is monotone in the shift (Kahan 1966; Demmel,
Dhillon and Ren 1995), so a point swept once decides every midpoint on
its side, for every level of the matrix.  The solver replays each level's
bisection against the points swept so far and sweeps only the
midpoints no known point decides.  Newton steps on det(T - lam) put
known points tightly around each level first, so the replay needs few
sweeps of its own.  They start from an estimate of the level where
there is one: each level of the fine grid 2n + 1 from the same level
of the grid n, O(h^2) away, and each level of grid n from the third on
from the levels below it.  An estimate only adds swept points, so it
moves no result: the default q5 levels take 89 sweeps, against 564 by
plain bisection.  Richardson extrapolation removes the leading
step-size error.  Everything here is plain floating point; the exact
modules never depend on it.
"""

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import add
from typing import Callable, Optional, Sequence, Tuple

__all__ = [
    "TridiagMatrix",
    "CompareRow",
    "CompareReport",
    "x_potential",
    "y_potential",
    "discretize",
    "sturm_count",
    "refined_levels",
    "L_OVER_A",
    "y_levels_analytic",
    "MIN_GRID",
    "MAX_GRID",
    "MAX_LEVELS",
    "check_level_budget",
    "check_float_range",
    "q5_levels",
    "compare",
    "box_ground",
    "harmonic_ground",
]


def x_potential(x, a=1.0):
    """Harmonic confinement plus the two inverse-square walls, in units
    with hbar = mass = 1."""
    return x * x / (8.0 * a ** 4) + 1.0 / (x - a) ** 2 + 1.0 / (x + a) ** 2


def y_potential(y, a=1.0):
    return y * y / (8.0 * a ** 4)


@dataclass(frozen=True)
class TridiagMatrix:
    """Symmetric tridiagonal matrix as diagonal and off-diagonal rows."""

    diagonal: Tuple[float, ...]
    offdiagonal: Tuple[float, ...]

    def __post_init__(self):
        if len(self.offdiagonal) != len(self.diagonal) - 1:
            raise ValueError("need exactly n - 1 off-diagonal entries")
        for v in self.diagonal + self.offdiagonal:
            if not math.isfinite(v):
                raise ValueError("matrix entries must be finite")

    @property
    def size(self):
        return len(self.diagonal)


def discretize(v: Callable[[float], float], lo: float, hi: float,
               n: int) -> TridiagMatrix:
    """Three-point discretization of -psi''/2 + v psi on the n uniform
    interior nodes of (lo, hi), in the units of x_potential.

    Dirichlet walls sit at lo and hi; the potential must be finite at
    every interior node.
    """
    if not lo < hi:
        raise ValueError("grid endpoints out of order")
    if n < 3:
        raise ValueError("need at least three interior points")
    h = (hi - lo) / (n + 1)
    scale = 1.0 / (h * h)
    diag = []
    for i in range(n):
        x = lo + (i + 1) * h
        try:
            val = v(x)
        except ZeroDivisionError:
            val = math.inf
        if not math.isfinite(val):
            raise ValueError("potential singular at grid node x = %r" % x)
        diag.append(scale + val)
    return TridiagMatrix(tuple(diag), (-0.5 * scale,) * (n - 1))


def sturm_count(diag, off, lam):
    """Number of eigenvalues of the tridiagonal matrix below lam.

    The pivots are q_i = d_i - lam - e_{i-1}^2 / q_{i-1}, with e_{-1} = 0;
    a pivot of magnitude under 1e-300, signed zeros included, is taken
    as -1e-300.
    """
    return _sturm_count(_pairs(diag, off), lam)


def _pairs(diag, off):
    """(d_i, e_{i-1}^2) for every row, e_{-1}^2 = 0: the squared
    couplings every sweep of one matrix reads."""
    return tuple(zip(diag, (0.0, *[e * e for e in off])))


def _sturm_count(pairs, lam):
    count = 0
    q = 1.0
    for d, s in pairs:
        q = d - lam - s / q
        if q < 1e-300:
            if q > -1e-300:
                q = -1e-300
            count += 1
    return count


def _gershgorin(t: TridiagMatrix):
    abs_off = [abs(e) for e in t.offdiagonal]
    radius = list(map(add, (0.0, *abs_off), (*abs_off, 0.0)))
    lo = min(d - r for d, r in zip(t.diagonal, radius))
    hi = max(d + r for d, r in zip(t.diagonal, radius))
    return lo, hi


def _sturm_newton(pairs, lam):
    """_sturm_count(pairs, lam), by the very same float operations,
    together with p'/p for p(lam) = det(T - lam).

    p is the product of the pivots q_i, so p'/p = sum q_i'/q_i, where
    q_i' = t w_{i-1} - 1 with t = e_{i-1}^2 / q_{i-1} and w = q'/q.
    """
    count = 0
    q = 1.0
    w = 0.0
    total = 0.0
    for d, s in pairs:
        t = s / q
        q = d - lam - t
        if q < 1e-300:
            if q > -1e-300:
                q = -1e-300
            count += 1
        w = (t * w - 1.0) / q
        total += w
    return count, total


# Newton's error after a step s is about s^2 / gap, with gap the
# distance to the nearest other level, so after a step under
# NEWTON_CLOSE * tol (1e-6 at tol = 1e-10) the next point lies within
# tol of the level wherever the gap is over 1e-2.
NEWTON_CLOSE = 1e4


def _newton_bracket(pairs, k, lam, left, right, lo, hi, tol, record):
    """Shrink (left, right), which holds level k, by Newton steps on
    det(T - lam) from lam; a step that leaves the bracket bisects it.
    Every sweep is recorded and moves one end of the bracket.  Returns
    once the bracket is under tol / 2 wide, or once a step is under
    NEWTON_CLOSE * tol and _close has finished from its end.
    """
    for _ in range(16):
        count, ratio = _sturm_newton(pairs, lam)
        record(lam, count)
        if count > k:
            right = lam
        else:
            left = lam
        if right - left <= tol / 2:
            break
        step = -1.0 / ratio if ratio else 0.0
        lam += step
        if not left < lam < right:
            lam = 0.5 * (left + right)
            if not left < lam < right:
                break
        elif abs(step) <= NEWTON_CLOSE * tol:
            return _close(pairs, k, lam, left, right, lo, hi, tol, record)
    return left, right


def _cell(lo, hi, tol, x):
    """The last interval (a, b) of the bisection from (lo, hi) to width
    tol in which every midpoint at or below x takes the upper half."""
    a, b = lo, hi
    for _ in range(128):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if mid <= x:
            a = mid
        else:
            b = mid
    return a, b


def _close(pairs, k, lam, left, right, lo, hi, tol, record):
    """Sweep the ends of the last bisection interval (a, b) that holds
    lam, where the bracket (left, right) of level k leaves them open.

    Every midpoint of that bisection lies at or below a or at or above
    b, so once a has count <= k and b count > k the replay of level k
    sweeps nothing more.  Rounding can leave Newton's root a few tol
    from where the Sturm count changes, so while the level lies beyond
    one end, lam moves past that end by tol, then twice as far each
    time, and the ends of its interval are swept in turn.
    """
    reach = tol
    for _ in range(16):
        a, b = _cell(lo, hi, tol, lam)
        for end in (a, b):
            if left < end < right:
                count = _sturm_count(pairs, end)
                record(end, count)
                if count > k:
                    right = end
                else:
                    left = end
        if right <= a:
            lam = a - reach
        elif left >= b:
            lam = b + reach
        else:
            break
        reach *= 2
    return left, right


def _descend(pairs, lo, hi, tol, record):
    """Sweep, by binary search, the midpoints at which level 0's
    bisection from (lo, hi) halves toward lo, until the last of them
    with a count above 0 and the first with count 0 are known; a walk
    down from the top would sweep each of them.
    """
    path = []
    b = hi
    for _ in range(128):
        if b - lo <= tol:
            break
        b = 0.5 * (lo + b)
        path.append(b)
    i, j = 0, len(path)
    while i < j:
        m = (i + j) // 2
        count = _sturm_count(pairs, path[m])
        record(path[m], count)
        if count > 0:
            i = m + 1
        else:
            j = m


def _eigenvalues(t: TridiagMatrix, tol: float, hints=()):
    """Eigenvalues of t, lowest first, each the float that bisection
    from the Gershgorin interval to width tol gives for it alone.

    The float Sturm count is monotone in lam (Kahan 1966; Demmel,
    Dhillon and Ren, ETNA 3 (1995) 116), so one swept point decides
    every midpoint on its side: a midpoint at or below a point whose
    count is at most k, or at or above one whose count exceeds k, takes
    that side without a sweep.  The swept points of all levels are
    kept in one sorted list.  Level k replays its bisection midpoint
    by midpoint and sweeps only those strictly inside the tightest
    such bracket.

    The other sweeps only put known points around level k first, so
    that the replay needs few sweeps of its own.  hints yields one
    estimate per level, or None, and may end early.  An estimate
    inside both the bracket and the Gershgorin interval starts Newton
    steps at once; otherwise they start from the first midpoint swept
    once the bracket holds level k alone, and level 0 without an
    estimate first finds by binary search where its bisection stops
    halving toward lo.  A level never isolated nor estimated, an exact
    or sub-tol degeneracy, falls through to plain bisection.
    """
    lo, hi = _gershgorin(t)
    pairs = _pairs(t.diagonal, t.offdiagonal)
    hints = iter(hints)
    swept, counts = [], []

    def record(lam, count):
        i = bisect_left(swept, lam)
        swept.insert(i, lam)
        counts.insert(i, count)

    for k in range(t.size):
        hint = next(hints, None)
        if hint is not None and not lo < hint < hi:
            hint = None
        if k == 0 and hint is None:
            _descend(pairs, lo, hi, tol, record)
        # the last point with count <= k and the first with count > k
        i = bisect_right(counts, k)
        left, left_count = (
            (swept[i - 1], counts[i - 1]) if i else (-math.inf, -1)
        )
        right, right_count = (
            (swept[i], counts[i]) if i < len(swept) else (math.inf, -1)
        )
        polished = hint is not None and left < hint < right
        if polished:
            left, right = _newton_bracket(
                pairs, k, hint, left, right, lo, hi, tol, record
            )
        a, b = lo, hi
        for _ in range(128):
            if b - a <= tol:
                break
            mid = 0.5 * (a + b)
            if left < mid < right:
                if not polished and left_count == k and right_count == k + 1:
                    polished = True
                    left, right = _newton_bracket(
                        pairs, k, mid, left, right, lo, hi, tol, record
                    )
                else:
                    below = _sturm_count(pairs, mid)
                    record(mid, below)
                    if below > k:
                        right, right_count = mid, below
                    else:
                        left, left_count = mid, below
            if mid <= left:
                a = mid
            else:
                b = mid
        yield 0.5 * (a + b)


# Every FD level is the bisection's float to this width.
LEVEL_TOL = 1e-10


def _refined(v, lo, hi, n):
    """Dirichlet levels at steps h and h/2, Richardson-extrapolated
    (second order), lowest first.

    Each coarse level from the third on starts from the parabola or
    line through the levels below it, and seeds the same level of the
    fine grid, O(h^2) away.
    """
    grid = discretize(v, lo, hi, n)
    coarse = []
    fine = _eigenvalues(discretize(v, lo, hi, 2 * n + 1), LEVEL_TOL, coarse)
    for c in _eigenvalues(grid, LEVEL_TOL, _extrapolated(coarse)):
        coarse.append(c)
        yield (4.0 * next(fine) - c) / 3.0


def _extrapolated(levels):
    """Estimates of each next level of the growing list levels: none
    for the first two, then the line through the last two, then the
    parabola through the last three."""
    while True:
        if len(levels) >= 3:
            yield 3.0 * (levels[-1] - levels[-2]) + levels[-3]
        elif len(levels) == 2:
            yield 2.0 * levels[-1] - levels[-2]
        else:
            yield None


def refined_levels(v, lo, hi, n, count):
    """The count lowest Richardson-refined Dirichlet eigenvalues."""
    if not 0 < count <= n:
        raise ValueError("eigenvalue count out of range")
    return list(islice(_refined(v, lo, hi, n), count))


def _levels_below(v, lo, hi, n, bound):
    """Richardson-refined levels strictly below bound, lowest first."""
    out = []
    for val in _refined(v, lo, hi, n):
        if val >= bound:
            break
        out.append(val)
    return out


# The outer x well of q5_levels ends at an artificial wall at
# L = L_OVER_A * a, far enough out that the harmonic tail has died off.
L_OVER_A = 12.0


def y_levels_analytic(count, a=1.0):
    """Harmonic slice levels (j + 1/2)/(2 a^2), exact."""
    return [(2 * j + 1) / (4.0 * a * a) for j in range(count)]


# Below MIN_GRID the Richardson-refined levels are not worth printing:
# at a = 1, cutoff 6, against grid 4000 the worst level is off by 5.8e-3
# at grid 20 and 1.4e-4 at grid 50, and grids under 20 miscount levels.
MIN_GRID = 50
MAX_GRID = 20000
MAX_LEVELS = 10 ** 7


def check_level_budget(a, cutoff, n):
    """Refuse a grid or cutoff whose worst-case level count is over the caps,
    or a grid too coarse for the levels to mean anything.

    Each of the three wells yields at most n x levels, all positive, and
    over each of them at most 2 a^2 cutoff + 1 y rungs lie below cutoff.
    """
    if n > MAX_GRID:
        raise ValueError("grid must be at most %d, got %d" % (MAX_GRID, n))
    worst = 3 * n * (2 * a * a * cutoff + 1)
    if not worst <= MAX_LEVELS:
        raise ValueError(
            "cutoff %r at grid %d and a = %s allows 3*grid*(2*a^2*cutoff + 1)"
            " levels, over the cap of %d" % (float(cutoff), n, a, MAX_LEVELS)
        )
    if n < MIN_GRID:
        raise ValueError("grid must be at least %d, got %d" % (MIN_GRID, n))


def check_float_range(a, cutoff):
    """Refuse an a whose float arithmetic in q5_levels over- or underflows.

    The y rungs divide by 4 a^2, and once cutoff reaches the lowest rung
    the x potentials divide by 8 a^4; both must be normal floats.
    """
    try:
        scale = 4.0 * float(a) ** 2
    except OverflowError:
        scale = math.inf
    divisors = [scale, scale * scale / 2.0] if cutoff * scale > 1.0 else [scale]
    if not all(math.isfinite(v) and v >= sys.float_info.min for v in divisors):
        raise ValueError(
            "a is out of the float range: 4*a^2 and, when cutoff reaches"
            " the first level, 8*a^4 must be normal floats"
        )


def q5_levels(a=1.0, cutoff=6.0, n=2000):
    """Sorted planar levels below cutoff from the separated slices.

    x levels come from the middle and outer Dirichlet wells (the outer
    well, on (a, L_OVER_A * a), is counted twice by mirror symmetry),
    y levels from the analytic harmonic ladder.
    """
    if not math.isfinite(cutoff):
        raise ValueError("cutoff must be finite, got %r" % (cutoff,))
    check_level_budget(a, cutoff, n)
    check_float_range(a, cutoff)
    ey0 = y_levels_analytic(1, a)[0]
    bound = cutoff - ey0
    if bound <= 0.0:
        return []
    vx = lambda x: x_potential(x, a)
    middle = _levels_below(vx, -a, a, n, bound)
    outer = _levels_below(vx, a, L_OVER_A * a, n, bound)
    xs = sorted(middle + outer + outer)
    out = []
    for x in xs:
        j = 0
        while True:
            e = x + (2 * j + 1) / (4.0 * a * a)
            if e >= cutoff:
                break
            out.append(e)
            j += 1
    out.sort()
    return out


@dataclass(frozen=True)
class CompareRow:
    """One catalog prediction lined up against the numeric levels."""

    label: str
    energy: float
    nearest: Optional[float]
    deviation: Optional[float]
    matched: bool
    note: str = ""


@dataclass(frozen=True)
class CompareReport:
    rows: Tuple[CompareRow, ...]
    unmatched: Tuple[float, ...]
    passed: bool


def compare(predictions: Sequence, levels: Sequence[float], tol=2e-3):
    """Line up predicted energies with numeric levels.

    predictions: (label, energy) pairs.  Nonpositive predictions are
    flagged as not representable (the operator is positive) and do not
    count against the verdict; every positive prediction must sit
    within tol of some numeric level for the report to pass.  Numeric
    levels claimed by no prediction are listed as informational.
    """
    rows = []
    claimed = [False] * len(levels)
    for label, energy in predictions:
        if energy <= 0.0:
            rows.append(
                CompareRow(label, energy, None, None, False,
                           "not representable numerically")
            )
            continue
        best = None
        best_i = -1
        for i, lev in enumerate(levels):
            if best is None or abs(lev - energy) < abs(best - energy):
                best = lev
                best_i = i
        if best is None:
            rows.append(CompareRow(label, energy, None, None, False,
                                   "no numeric levels below cutoff"))
            continue
        dev = abs(best - energy)
        ok = dev <= tol
        if ok:
            claimed[best_i] = True
        rows.append(CompareRow(label, energy, best, dev, ok))
    unmatched = tuple(
        lev for i, lev in enumerate(levels) if not claimed[i]
    )
    passed = all(r.matched for r in rows if r.energy > 0.0)
    return CompareReport(tuple(rows), unmatched, passed)


def box_ground(n=2000):
    """Ground level of the unit Dirichlet box; exact value pi^2 / 2."""
    return refined_levels(lambda x: 0.0, 0.0, 1.0, n, 1)[0]


def harmonic_ground(n=4000):
    """Ground level of the bare harmonic slice; exact value 1/4."""
    return refined_levels(lambda y: y_potential(y), -12.0, 12.0, n, 1)[0]
