"""Finite-difference cross-check of the two-wall spectrum.

The planar potential separates: a harmonic slice in y and a walled
slice in x whose inverse-square barriers at x = +-a are impenetrable,
so the x problem splits into three independent Dirichlet wells and the
outer two are mirror images.  Planar levels are sums of one x level
and one y level.  Eigenvalues of the three-point discretization come
from Sturm counting and bisection, and Richardson extrapolation
removes the leading step-size error.  Everything here is plain
floating point; the exact modules never depend on it.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

__all__ = [
    "Grid1D",
    "TridiagMatrix",
    "CompareRow",
    "CompareReport",
    "x_potential",
    "y_potential",
    "potential",
    "discretize",
    "sturm_count",
    "lowest_eigenvalues",
    "dirichlet_levels",
    "richardson",
    "refined_levels",
    "x_levels_middle",
    "x_levels_outer",
    "y_levels_analytic",
    "q5_levels",
    "compare",
    "box_ground",
    "harmonic_ground",
]


def x_potential(x, a=1.0, hbar=1.0):
    """Harmonic confinement plus the two inverse-square walls."""
    s = hbar * hbar
    return s * (
        x * x / (8.0 * a ** 4) + 1.0 / (x - a) ** 2 + 1.0 / (x + a) ** 2
    )


def y_potential(y, a=1.0, hbar=1.0):
    return hbar * hbar * y * y / (8.0 * a ** 4)


def potential(x, y, a=1.0, hbar=1.0):
    """The full planar potential of the two-wall system."""
    return x_potential(x, a, hbar) + y_potential(y, a, hbar)


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid for a Dirichlet problem on (left, right)."""

    left: float
    right: float
    n: int

    def __post_init__(self):
        if not self.left < self.right:
            raise ValueError("grid endpoints out of order")
        if self.n < 3:
            raise ValueError("need at least three interior points")

    @property
    def step(self):
        return (self.right - self.left) / (self.n + 1)

    def nodes(self):
        h = self.step
        return [self.left + (i + 1) * h for i in range(self.n)]


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


def discretize(v: Callable[[float], float], grid: Grid1D) -> TridiagMatrix:
    """Three-point discretization of -psi''/2 + v psi with hbar = mass = 1.

    Dirichlet walls sit at the grid endpoints; the potential must be
    finite at every interior node.
    """
    h = grid.step
    scale = 1.0 / (h * h)
    diag = []
    for x in grid.nodes():
        try:
            val = v(x)
        except ZeroDivisionError:
            val = math.inf
        if not math.isfinite(val):
            raise ValueError("potential singular at grid node x = %r" % x)
        diag.append(scale + val)
    return TridiagMatrix(tuple(diag), (-0.5 * scale,) * (grid.n - 1))


def sturm_count(diag, off, lam):
    """Number of eigenvalues of the tridiagonal matrix below lam."""
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


def _eigenvalue_k(t: TridiagMatrix, k: int, lo: float, hi: float, tol: float):
    a, b = lo, hi
    for _ in range(128):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if sturm_count(t.diagonal, t.offdiagonal, mid) > k:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _gershgorin(t: TridiagMatrix):
    radius = [0.0] * t.size
    for i, e in enumerate(t.offdiagonal):
        radius[i] += abs(e)
        radius[i + 1] += abs(e)
    lo = min(d - r for d, r in zip(t.diagonal, radius))
    hi = max(d + r for d, r in zip(t.diagonal, radius))
    return lo, hi


def lowest_eigenvalues(t: TridiagMatrix, m: int, tol: float = 1e-10):
    """The m lowest eigenvalues, each bracketed to width tol by bisection."""
    if not 0 < m <= t.size:
        raise ValueError("eigenvalue count out of range")
    lo, hi = _gershgorin(t)
    return [_eigenvalue_k(t, k, lo, hi, tol) for k in range(m)]


def dirichlet_levels(v, lo, hi, n, count, tol=1e-10):
    """Eigenvalues of -psi''/2 + v psi with walls at lo and hi."""
    return lowest_eigenvalues(discretize(v, Grid1D(lo, hi, n)), count, tol)


def richardson(coarse, fine):
    """Second-order step extrapolation of paired eigenvalue lists."""
    return [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]


def refined_levels(v, lo, hi, n, count, tol=1e-10):
    """Dirichlet eigenvalues at steps h and h/2, extrapolated."""
    coarse = dirichlet_levels(v, lo, hi, n, count, tol)
    fine = dirichlet_levels(v, lo, hi, 2 * n + 1, count, tol)
    return richardson(coarse, fine)


def _levels_below(v, lo, hi, n, bound, tol=1e-10):
    """Richardson-refined levels strictly below bound, lowest first."""
    coarse = discretize(v, Grid1D(lo, hi, n))
    fine = discretize(v, Grid1D(lo, hi, 2 * n + 1))
    clo, chi = _gershgorin(coarse)
    flo, fhi = _gershgorin(fine)
    out = []
    for k in range(coarse.size):
        c = _eigenvalue_k(coarse, k, clo, chi, tol)
        f = _eigenvalue_k(fine, k, flo, fhi, tol)
        val = (4.0 * f - c) / 3.0
        if val >= bound:
            break
        out.append(val)
    return out


def x_levels_middle(count, a=1.0, n=2000):
    """Levels of the walled slice between the barriers, on (-a, a)."""
    return refined_levels(lambda x: x_potential(x, a), -a, a, n, count)


def x_levels_outer(count, a=1.0, n=2000, l_over_a=12.0):
    """Levels of the walled slice outside the barriers, on (a, L).

    L = l_over_a * a; the wall at L is artificial, so keep it far
    enough out that the harmonic tail has died off (L >= 8a).
    """
    if l_over_a < 8.0:
        raise ValueError("confinement box must extend past 8a")
    lo, hi = a, l_over_a * a
    return refined_levels(lambda x: x_potential(x, a), lo, hi, n, count)


def y_levels_analytic(count, a=1.0):
    """Harmonic slice levels (j + 1/2)/(2 a^2), exact."""
    return [(2 * j + 1) / (4.0 * a * a) for j in range(count)]


def q5_levels(a=1.0, cutoff=6.0, n=2000, l_over_a=12.0):
    """Sorted planar levels below cutoff from the separated slices.

    x levels come from the middle and outer Dirichlet wells (the outer
    well is counted twice by mirror symmetry), y levels from the
    analytic harmonic ladder.
    """
    if not math.isfinite(cutoff):
        raise ValueError("cutoff must be finite, got %r" % (cutoff,))
    ey0 = y_levels_analytic(1, a)[0]
    bound = cutoff - ey0
    if bound <= 0.0:
        return []
    vx = lambda x: x_potential(x, a)
    middle = _levels_below(vx, -a, a, n, bound)
    outer = _levels_below(vx, a, l_over_a * a, n, bound)
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
