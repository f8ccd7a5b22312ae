"""Exact linear solving over polynomial entries.

A system with rational entries is solved as one over constant
polynomials of the table with no symbols.

Forward elimination is fraction free in the Bareiss style, so every
intermediate entry stays a polynomial (a minor of the original matrix)
and every division is exact.  Back substitution tracks numerator and
denominator polynomials separately and simplifies opportunistically.

An overdetermined m x n system is first reduced to n of its rows.  Every
entry is evaluated modulo the prime P = 2^61 - 1 at the fixed integer
point of PolyFraction's divisibility filter, and Gaussian elimination
there picks n rows.  Reduction mod P composed with evaluation is a ring
homomorphism on polynomials whose coefficient denominators P does not
divide, so a nonsingular residue matrix proves that the n x n minor of
those rows is a nonzero polynomial: the system has at most one solution,
Bareiss on the n rows finds it, and substituting it exactly into every
other row decides consistency.  An entry's residue is that of its
integer primitive part times its content, so only the content's
denominator can be divisible by P.  A singular residue matrix proves
nothing (the point may be a root of the minor), nor does an entry whose
content's denominator P divides; those systems are eliminated in full.
"""

from __future__ import annotations

from .errors import CubicalgError
from .multipoly import MultiPoly
from .polyfraction import _P, _mod_p, _points


class InconsistentSystem(CubicalgError):
    """No solution: an eliminated row leaves a nonzero right hand side."""


class RankDeficientSystem(CubicalgError):
    """The coefficient matrix does not determine every unknown."""


def _pivot_quality(entry, order):
    return (0 if entry.is_rational() else 1, len(entry.ints), order)


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
    chosen = _independent_rows(rows)
    if chosen is None:
        return _bareiss(rows, rhs)
    solution = _bareiss([rows[r] for r in chosen], [rhs[r] for r in chosen])
    _check_rows(rows, rhs, solution, set(chosen))
    return solution


def _independent_rows(rows):
    """Indices of n rows with a certified nonzero minor, or None.

    Eliminates the residues mod _P column by column.  Among the rows
    whose reduced residue is nonzero, the pivot is the one whose original
    entry _pivot_quality ranks first, so that Bareiss works on sparse
    rows.  None means the residues decide nothing.
    """
    table = rows[0][0].table
    ncols = len(rows[0])
    point = _points(table.nvars)
    residues = []
    for row in rows:
        values = []
        for entry in row:
            value = _mod_p(entry, point)
            if value is None:
                return None
            values.append(value)
        residues.append(values)
    free = list(range(len(rows)))
    chosen = []
    for col in range(ncols):
        best = None
        for r in free:
            if residues[r][col]:
                quality = _pivot_quality(rows[r][col], r)
                if best is None or quality < best[0]:
                    best = (quality, r)
        if best is None:
            return None
        r = best[1]
        free.remove(r)
        chosen.append(r)
        pivot = residues[r]
        inverse = pow(pivot[col], -1, _P)
        for rr in free:
            row = residues[rr]
            factor = row[col] * inverse % _P
            if factor:
                for c in range(col + 1, ncols):
                    row[c] = (row[c] - factor * pivot[c]) % _P
                row[col] = 0
    return chosen


def _check_rows(rows, rhs, solution, skip):
    """Raise InconsistentSystem unless the solution satisfies every row.

    With x_j = n_j / d_j and D the product of the distinct d_j, row i
    holds exactly when sum_j a_ij n_j (D / d_j) - b_i D is zero.
    """
    dens = list(dict.fromkeys(d for _, d in solution))
    whole = dens[0]
    for d in dens[1:]:
        whole = whole * d
    scaled = []
    for n, d in solution:
        for other in dens:
            if other != d:
                n = n * other
        scaled.append(n)
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if i in skip:
            continue
        acc = -(b * whole)
        for entry, x in zip(row, scaled):
            if not entry.is_zero() and not x.is_zero():
                acc = acc + entry * x
        if not acc.is_zero():
            raise InconsistentSystem("residual row %d is nonzero" % i)


def _bareiss(rows, rhs):
    """Fraction-free elimination of the whole system."""
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
