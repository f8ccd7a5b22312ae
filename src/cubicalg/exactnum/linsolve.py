"""Exact linear solving over polynomial and rational entries.

Forward elimination is fraction free in the Bareiss style, so every
intermediate entry stays a polynomial (a minor of the original matrix)
and every division is exact.  Back substitution tracks numerator and
denominator polynomials separately and simplifies opportunistically.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CubicalgError
from .multipoly import MultiPoly


class InconsistentSystem(CubicalgError):
    """No solution: an eliminated row leaves a nonzero right hand side."""


class RankDeficientSystem(CubicalgError):
    """The coefficient matrix does not determine every unknown."""


def _pivot_quality(entry, order):
    return (0 if entry.is_rational() else 1, len(entry.terms), order)


def _simplify_ratio(num, den):
    if num.is_zero():
        return num, MultiPoly.const(den.table, 1)
    quotient = num.try_div(den)
    if quotient is not None:
        return quotient, MultiPoly.const(den.table, 1)
    common = tuple(
        min(a, b)
        for a, b in zip(num.monomial_content(), den.monomial_content())
    )
    if any(common):
        mono = MultiPoly.monomial(num.table, common)
        num = num.exact_div(mono)
        den = den.exact_div(mono)
    cd = den.rational_content()
    _, lead = den.leading_term()
    sign = 1 if lead > 0 else -1
    num = num * (sign / cd)
    den = den * (sign / cd)
    return num, den


def solve_exact(rows, rhs):
    """Solve an m x n system with MultiPoly entries, m >= n.

    Returns a list of (numerator, denominator) MultiPoly pairs.  Raises
    InconsistentSystem or RankDeficientSystem when the data demands it.
    """
    if not rows:
        raise ValueError("empty system")
    table = rows[0][0].table
    ncols = len(rows[0])
    work = [list(row) + [r] for row, r in zip(rows, rhs)]
    one = MultiPoly.const(table, 1)
    prev = one
    rank = 0
    for col in range(ncols):
        best = None
        for r in range(rank, len(work)):
            entry = work[r][col]
            if entry.is_zero():
                continue
            quality = _pivot_quality(entry, r)
            if best is None or quality < best[0]:
                best = (quality, r)
        if best is None:
            raise RankDeficientSystem("no pivot for column %d" % col)
        r = best[1]
        work[rank], work[r] = work[r], work[rank]
        pivot = work[rank][col]
        for rr in range(rank + 1, len(work)):
            row = work[rr]
            if row[col].is_zero():
                factor = None
            else:
                factor = row[col]
            for cc in range(col, ncols + 1):
                updated = pivot * row[cc]
                if factor is not None:
                    updated = updated - factor * work[rank][cc]
                row[cc] = updated.exact_div(prev)
        prev = pivot
        rank += 1
    for rr in range(rank, len(work)):
        if not work[rr][ncols].is_zero():
            raise InconsistentSystem("residual row %d is nonzero" % rr)
        if any(not work[rr][c].is_zero() for c in range(ncols)):
            raise InconsistentSystem("unreduced row %d" % rr)
    solution = [None] * ncols
    for i in range(ncols - 1, -1, -1):
        acc_n = work[i][ncols]
        acc_d = one
        for j in range(i + 1, ncols):
            xn, xd = solution[j]
            coeff = work[i][j]
            if coeff.is_zero() or xn.is_zero():
                continue
            acc_n = acc_n * xd - coeff * xn * acc_d
            acc_d = acc_d * xd
            acc_n, acc_d = _simplify_ratio(acc_n, acc_d)
        acc_d = acc_d * work[i][i]
        solution[i] = _simplify_ratio(acc_n, acc_d)
    return solution


def solve_fractions(rows, rhs):
    """Dense exact solve over Fractions; same error contract."""
    m = len(rows)
    if m == 0:
        raise ValueError("empty system")
    n = len(rows[0])
    work = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    rank = 0
    for col in range(n):
        pivot_row = None
        for r in range(rank, m):
            if work[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            raise RankDeficientSystem("no pivot for column %d" % col)
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        piv = work[rank][col]
        work[rank] = [v / piv for v in work[rank]]
        for r in range(m):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    for r in range(rank, m):
        if work[r][n] != 0:
            raise InconsistentSystem("residual row %d is nonzero" % r)
    return [work[i][n] for i in range(n)]
