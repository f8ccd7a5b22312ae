"""Central element of the cubic algebra by exact normal ordering.

Generators A < B < C with C = [A, B] and the two defining relations

    [A, C] = alpha A^2 + beta {A, B} + gamma A + delta B + epsilon
    [B, C] = mu A^3 + nu A^2 - beta B^2 - alpha {A, B} + xi A
             - gamma B + zeta

are used as rewrite rules that push generators into nondecreasing
order.  The central element is an ansatz C^2 plus unknown multiples of
nine ordered basis combinations; requiring it to commute with A and B
gives an exact overdetermined linear system for the unknowns.  The
constant term is a free direction of the centralizer and is normalized
to zero.

The same two relations and the central element are also written once
for any associative ring (comm, acomm, relations, realize), so the
ladder calculus and the matrix modules replay one formula.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import JacobiViolation, UnderdeterminedCasimir
from .exactnum import (
    InconsistentSystem,
    MultiPoly,
    RankDeficientSystem,
    SymbolTable,
    solve_exact,
)

CONSTANT_NAMES = (
    "alpha",
    "beta",
    "gamma",
    "delta",
    "epsilon",
    "mu",
    "nu",
    "xi",
    "zeta",
)

BASIS_NAMES = (
    "AAB_sym",
    "ABB_sym",
    "AB_sym",
    "BB",
    "B",
    "A4",
    "A3",
    "A2",
    "A",
)


def _rewrites(consts):
    """Single-swap rules: word pair -> replacement [(word, scalar)]."""
    alpha = consts["alpha"]
    beta = consts["beta"]
    gamma = consts["gamma"]
    delta = consts["delta"]
    epsilon = consts["epsilon"]
    mu = consts["mu"]
    nu = consts["nu"]
    xi = consts["xi"]
    zeta = consts["zeta"]
    return {
        ("B", "A"): [(("A", "B"), 1), (("C",), -1)],
        ("C", "A"): [
            (("A", "C"), 1),
            (("A", "A"), -alpha),
            (("A", "B"), -2 * beta),
            (("C",), beta),
            (("A",), -gamma),
            (("B",), -delta),
            ((), -epsilon),
        ],
        ("C", "B"): [
            (("B", "C"), 1),
            (("A", "A", "A"), -mu),
            (("A", "A"), -nu),
            (("B", "B"), beta),
            (("A", "B"), 2 * alpha),
            (("C",), -alpha),
            (("A",), -xi),
            (("B",), gamma),
            ((), -zeta),
        ],
    }


def normalize(poly, rules):
    """Normal order a {word: scalar} map under the rewrite rules."""
    out = {}
    stack = list(poly.items())
    while stack:
        word, coeff = stack.pop()
        if _is_scalar_zero(coeff):
            continue
        pos = None
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                pos = k
                break
        if pos is None:
            if word in out:
                out[word] = out[word] + coeff
            else:
                out[word] = coeff
            continue
        pair = (word[pos], word[pos + 1])
        for replacement, factor in rules[pair]:
            stack.append(
                (word[:pos] + replacement + word[pos + 2 :], coeff * factor)
            )
    return {w: c for w, c in out.items() if not _is_scalar_zero(c)}


def _is_scalar_zero(value):
    if isinstance(value, (int, float, Fraction)):
        return value == 0
    return value.is_zero()


def nc_mul(p, q, rules):
    raw = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            word = w1 + w2
            coeff = c1 * c2
            if word in raw:
                raw[word] = raw[word] + coeff
            else:
                raw[word] = coeff
    return normalize(raw, rules)


def nc_add(p, q):
    out = dict(p)
    for w, c in q.items():
        out[w] = out[w] + c if w in out else c
    return {w: c for w, c in out.items() if not _is_scalar_zero(c)}


def nc_scale(p, factor):
    return {w: c * factor for w, c in p.items()}


def nc_comm(p, q, rules):
    return nc_add(nc_mul(p, q, rules), nc_scale(nc_mul(q, p, rules), -1))


def _basis_words():
    return {
        "AAB_sym": {("A", "A", "B"): 1, ("B", "A", "A"): 1},
        "ABB_sym": {("A", "B", "B"): 1, ("B", "B", "A"): 1},
        "AB_sym": {("A", "B"): 1, ("B", "A"): 1},
        "BB": {("B", "B"): 1},
        "B": {("B",): 1},
        "A4": {("A", "A", "A", "A"): 1},
        "A3": {("A", "A", "A"): 1},
        "A2": {("A", "A"): 1},
        "A": {("A",): 1},
    }


def verify_jacobi(consts, rules=None):
    """Normal order J(A,B,C); nonzero means inconsistent constants."""
    rules = _rewrites(consts) if rules is None else rules
    gens = {name: {(name,): 1} for name in "ABC"}
    total = {}
    for x, y, z in (("A", "B", "C"), ("B", "C", "A"), ("C", "A", "B")):
        inner = nc_comm(gens[y], gens[z], rules)
        total = nc_add(total, nc_comm(gens[x], inner, rules))
    if total:
        raise JacobiViolation(
            "jacobiator is nonzero on %d monomials" % len(total)
        )


_COEFFS = None


def casimir_coefficients():
    """Casimir coefficients as polynomials in the nine constants.

    Returns {basis name: MultiPoly over the constants table}.  The
    element C^2 + sum coeff * basis commutes with A and B identically.
    """
    global _COEFFS
    if _COEFFS is not None:
        return _COEFFS
    table = SymbolTable(CONSTANT_NAMES)
    consts = {name: MultiPoly.sym(table, name) for name in CONSTANT_NAMES}
    rules = _rewrites(consts)
    verify_jacobi(consts, rules)
    one = MultiPoly.const(table, 1)
    gens = {name: {(name,): one} for name in "ABC"}
    lifted_basis = {}
    for name, words in _basis_words().items():
        lifted_basis[name] = normalize(
            {w: MultiPoly.const(table, c) for w, c in words.items()}, rules
        )
    c_squared = nc_mul(gens["C"], gens["C"], rules)
    rows_by_key = {}

    def record(gen, column, commuted):
        for word, coeff in commuted.items():
            row = rows_by_key.setdefault(
                (gen, word),
                [MultiPoly.zero(table) for _ in range(len(BASIS_NAMES) + 1)],
            )
            row[column] = row[column] + coeff

    for gen in ("A", "B"):
        record(gen, len(BASIS_NAMES), nc_comm(c_squared, gens[gen], rules))
        for j, name in enumerate(BASIS_NAMES):
            record(gen, j, nc_comm(lifted_basis[name], gens[gen], rules))
    matrix = []
    rhs = []
    for key in sorted(rows_by_key):
        row = rows_by_key[key]
        matrix.append(row[: len(BASIS_NAMES)])
        rhs.append(-row[len(BASIS_NAMES)])
    try:
        pairs = solve_exact(matrix, rhs)
    except RankDeficientSystem as exc:
        raise UnderdeterminedCasimir(str(exc)) from None
    except InconsistentSystem as exc:
        raise UnderdeterminedCasimir(
            "no central element of the assumed shape: %s" % exc
        ) from None
    coeffs = {}
    for name, (num, den) in zip(BASIS_NAMES, pairs):
        if not den.is_rational():
            raise UnderdeterminedCasimir(
                "coefficient %s is not polynomial in the constants" % name
            )
        coeffs[name] = num * (1 / den.as_fraction())
    candidate = dict(c_squared)
    for name in BASIS_NAMES:
        candidate = nc_add(candidate, nc_scale(lifted_basis[name], coeffs[name]))
    for gen in ("A", "B"):
        residual = nc_comm(candidate, gens[gen], rules)
        if residual:
            raise UnderdeterminedCasimir(
                "central element verification failed against %s" % gen
            )
    _COEFFS = coeffs
    return coeffs


def evaluate_coefficients(values):
    """Casimir coefficients at concrete constants.

    values maps the nine constant names to scalars that support ring
    arithmetic with Fractions (PolyFraction, MultiPoly, DiffOp, ...).
    """
    out = {}
    for name, poly in casimir_coefficients().items():
        out[name] = poly.evaluate(values)
    return out


def comm(x, y):
    return x * y - y * x


def acomm(x, y):
    return x * y + y * x


def relations(consts, a, b, c, one):
    """Residuals of [A, C] and [B, C] against the defining relations.

    a, b, c and the unit one live in any associative ring; consts maps
    the nine constant names to scalars that multiply its elements.
    """
    aa = a * a
    ab = acomm(a, b)
    linear = comm(a, c) - (
        consts["alpha"] * aa
        + consts["beta"] * ab
        + consts["gamma"] * a
        + consts["delta"] * b
        + consts["epsilon"] * one
    )
    closure = comm(b, c) - (
        consts["mu"] * (aa * a)
        + consts["nu"] * aa
        - consts["beta"] * (b * b)
        - consts["alpha"] * ab
        + consts["xi"] * a
        - consts["gamma"] * b
        + consts["zeta"] * one
    )
    return linear, closure


def realize(coeffs, a_op, b_op, c_op):
    """Evaluate the central element in any associative ring.

    coeffs maps basis names to scalars or same-ring elements; a scalar
    zero (checked via is_zero or == 0) skips the term.
    """
    aa = a_op * a_op
    bb = b_op * b_op
    total = c_op * c_op
    terms = {
        "AAB_sym": lambda: aa * b_op + b_op * aa,
        "ABB_sym": lambda: a_op * bb + bb * a_op,
        "AB_sym": lambda: a_op * b_op + b_op * a_op,
        "BB": lambda: bb,
        "B": lambda: b_op,
        "A4": lambda: aa * aa,
        "A3": lambda: aa * a_op,
        "A2": lambda: aa,
        "A": lambda: a_op,
    }
    for name in BASIS_NAMES:
        coeff = coeffs[name]
        if _is_scalar_zero(coeff):
            continue
        total = total + coeff * terms[name]()
    return total
