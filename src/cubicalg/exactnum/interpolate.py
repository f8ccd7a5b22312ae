"""Exact polynomial interpolation over Fraction samples."""

from __future__ import annotations

from fractions import Fraction

from . import upoly


def lagrange(points):
    """Dense coefficients of the unique degree < n interpolant."""
    points = [(Fraction(x), Fraction(y)) for x, y in points]
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate sample abscissa")
    out = []
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = upoly.mul(basis, [-xj, Fraction(1)])
            denom *= xi - xj
        out = upoly.add(out, upoly.scale(basis, yi / denom))
    return out

