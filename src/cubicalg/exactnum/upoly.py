"""Dense univariate polynomials over any coefficient ring.

A polynomial is a list (or tuple) of coefficients, ascending, over any
coefficient ring: Fractions, PolyFractions, or other values with +, *
and is_zero() (plain numbers are tested against 0).  Only
rational_roots needs Fraction coefficients.  NFunc, the branch search
in spectrum and interpolate do all their coefficient-list arithmetic
here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


def is_zero(value):
    """Zero test for any coefficient ring."""
    if isinstance(value, (int, float, Fraction)):
        return value == 0
    return value.is_zero()


def trim(p):
    p = list(p)
    while p and is_zero(p[-1]):
        p.pop()
    return p


def evaluate(p, x):
    """Horner's rule seeded with the leading coefficient; 0 for []."""
    if not p:
        return 0
    out = p[-1]
    for c in p[-2::-1]:
        out = out * x + c
    return out


def add(a, b):
    n = min(len(a), len(b))
    return trim([a[i] + b[i] for i in range(n)] + list(a[n:]) + list(b[n:]))


def scale(p, k):
    if is_zero(k):
        return []
    return [c * k for c in p]


def mul(a, b):
    """Convolution; each slot starts from its first product, not a zero."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            piece = ca * cb
            out[i + j] = piece if out[i + j] is None else out[i + j] + piece
    return out


def syndiv(p, r):
    """Divide by (x - r): (quotient, remainder), the remainder being p(r)."""
    if len(p) < 2:
        return [], (p[0] if p else 0)
    out = [p[-1]]
    for c in p[-2:0:-1]:
        out.append(out[-1] * r + c)
    return out[::-1], out[-1] * r + p[0]


def divide_out(p, r, limit=None):
    """Strip up to limit factors (x - r) from p: (quotient, how many)."""
    count = 0
    while len(p) > 1 and count != limit:
        quotient, remainder = syndiv(p, r)
        if not is_zero(remainder):
            break
        p, count = quotient, count + 1
    return p, count


def shift(p, s):
    """Coefficients of p(x + s), by the Taylor shift."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] = p[j] + p[j + 1] * s
    return p


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small if d * d != n]


def _vanishes(ints, n, d):
    """Whether n/d is a root of the integer polynomial ints (ascending):
    sum_i ints[i] n^i d^(deg - i) == 0, in integers only."""
    total = 0
    scale = 1
    for c in reversed(ints):
        total = total * n + c * scale
        scale *= d
    return total == 0


def rational_roots(p):
    """All rational roots with multiplicity, ascending; Fraction p only.

    Every candidate n/d of the rational root theorem, in lowest terms,
    is tested over the integers first; only the roots become Fractions
    and are divided out.
    """
    p = trim(p)
    roots = []
    zeros = 0
    while len(p) > 1 and p[0] == 0:
        p = p[1:]
        zeros += 1
    if zeros:
        roots.append((Fraction(0), zeros))
    if len(p) > 1:
        den = lcm(*(c.denominator for c in p))
        ints = [int(c * den) for c in p]
        g = gcd(*ints)
        ints = [c // g for c in ints]
        for num in _divisors(ints[0]):
            for d in _divisors(ints[-1]):
                for n in (num, -num):
                    if gcd(num, d) == 1 and _vanishes(ints, n, d):
                        p, mult = divide_out(p, Fraction(n, d))
                        roots.append((Fraction(n, d), mult))
    return sorted(roots)
