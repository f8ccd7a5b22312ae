"""Dense univariate polynomials over Fraction, ascending coefficients.

These back exact rational root extraction (rational_roots) and the
Lagrange fit in interpolate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    return len(trim(p)) - 1


def evaluate(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def add(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def scale(p, k):
    if k == 0:
        return []
    return [c * k for c in p]


def mul(a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def divmod_poly(a, b):
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and trim(r):
        shift = len(r) - len(b)
        factor = r[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r = trim(r) if r and r[-1] == 0 else r
        while r and r[-1] == 0:
            r.pop()
    return trim(q), trim(r)


def to_integer(p):
    """Return (integer coefficient list, Fraction scale) with p = scale*ints."""
    p = trim(p)
    if not p:
        return [], Fraction(1)
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        g = 1
    return [v // g for v in ints], Fraction(g, den)


def _divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p):
    """All rational roots with multiplicity, ascending."""
    p = trim(p)
    if degree(p) < 1:
        return []
    roots = []
    zero_mult = 0
    while p and p[0] == 0:
        zero_mult += 1
        p = p[1:]
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if degree(p) >= 1:
        ints, _ = to_integer(p)
        head, tail = ints[-1], ints[0]
        seen = set()
        for num in _divisors(tail):
            for den in _divisors(head):
                for s in (1, -1):
                    cand = Fraction(s * num, den)
                    if cand in seen:
                        continue
                    seen.add(cand)
                    if evaluate(p, cand) == 0:
                        mult = 0
                        while True:
                            q, r = divmod_poly(p, [-cand, Fraction(1)])
                            if r:
                                break
                            p = q
                            mult += 1
                        roots.append((cand, mult))
    return sorted(roots)
