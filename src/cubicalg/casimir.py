"""Central element of the cubic algebra by exact normal ordering.

Generators A < B < C with C = [A, B] and the two defining relations

    [A, C] = alpha A^2 + beta {A, B} + gamma A + delta B + epsilon
    [B, C] = mu A^3 + nu A^2 - beta B^2 - alpha {A, B} + xi A
             - gamma B + zeta

are written once, for any associative ring: comm, acomm, relations and
realize serve the ladder calculus, the matrix modules and the ring
Words of normal-ordered words alike.

The rewrite rules that push generators into nondecreasing order are
read off the relations in Words, not typed out: BA -> AB - C from
C = [A, B], then CA and CB from the two residuals of relations().  The
Jacobi identity is verified as confluence: the jacobiator normal
orders to zero exactly when the one overlap ambiguity, CBA, resolves
(Bergman's diamond lemma, Adv. Math. 29 (1978) 178).

The central element is an ansatz C^2 plus unknown multiples of nine
ordered basis combinations; requiring it to commute with A and B gives
an exact overdetermined linear system for the unknowns.  The constant
term is a free direction of the centralizer and is normalized to zero.
"""

from __future__ import annotations

from ._memo import once
from .errors import CubicalgError, JacobiViolation
from .exactnum import (
    InconsistentSystem,
    MultiPoly,
    RankDeficientSystem,
    SymbolTable,
    solve_exact,
    upoly,
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


class Words:
    """Noncommutative polynomial {word: scalar} over generators A < B < C.

    Words are tuples of generator names.  Every product is normal
    ordered under the rewrite rules, so that comm, acomm, relations and
    realize apply to Words as they do to any other ring.  The rules
    dict is shared, not copied: _rewrites grows it while deriving it.
    """

    def __init__(self, terms, rules):
        self.terms = {w: c for w, c in terms.items() if not upoly.is_zero(c)}
        self.rules = rules

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return Words(out, self.rules)

    def __neg__(self):
        return Words({w: -c for w, c in self.terms.items()}, self.rules)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, Words):
            return NotImplemented
        raw = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                coeff = c1 * c2
                raw[word] = raw[word] + coeff if word in raw else coeff
        return Words(normalize(raw, self.rules), self.rules)

    def __rmul__(self, scalar):
        terms = {w: scalar * c for w, c in self.terms.items()}
        return Words(terms, self.rules)


def _generators(rules, one):
    return [Words({(name,): one}, rules) for name in "ABC"]


def _rewrites(consts):
    """Single-swap rules, read off the defining relations.

    A descending pair YX is rewritten as YX + r, where r = 0 is a
    defining relation: [A, B] - C for BA, then the residuals that
    relations() gives for CA and CB, computed in the free algebra under
    the BA rule.  Returns {pair: [(word, scalar)]}.
    """
    rules = {}
    a, b, c = _generators(rules, 1)
    rules[("B", "A")] = list((b * a + (comm(a, b) - c)).terms.items())
    linear, closure = relations(consts, a, b, c, Words({(): 1}, rules))
    rules[("C", "A")] = list((c * a + linear).terms.items())
    rules[("C", "B")] = list((c * b + closure).terms.items())
    return rules


def normalize(poly, rules):
    """Normal order a {word: scalar} map under the rewrite rules.

    A descending pair without a rule is left in place.
    """
    out = {}
    stack = list(poly.items())
    while stack:
        word, coeff = stack.pop()
        if upoly.is_zero(coeff):
            continue
        pos = None
        for k in range(len(word) - 1):
            if word[k] > word[k + 1] and word[k : k + 2] in rules:
                pos = k
                break
        if pos is None:
            if word in out:
                out[word] = out[word] + coeff
            else:
                out[word] = coeff
            continue
        for replacement, factor in rules[word[pos : pos + 2]]:
            stack.append(
                (word[:pos] + replacement + word[pos + 2 :], coeff * factor)
            )
    return {w: c for w, c in out.items() if not upoly.is_zero(c)}


def verify_jacobi(rules):
    """Normal order the jacobiator of A, B, C under the rules of
    _rewrites; nonzero means the rules are not confluent (the overlap CBA
    resolves two ways), so the constants are inconsistent.
    """
    a, b, c = _generators(rules, 1)
    total = comm(a, comm(b, c)) + comm(b, comm(c, a)) + comm(c, comm(a, b))
    if not total.is_zero():
        raise JacobiViolation(
            "jacobiator is nonzero on %d monomials" % len(total.terms)
        )


# The nine ordered basis elements of the central element, built from A,
# B, A^2 and B^2 in any ring; realize builds only those it needs.
_BASIS = {
    "AAB_sym": lambda a, b, aa, bb: acomm(aa, b),
    "ABB_sym": lambda a, b, aa, bb: acomm(a, bb),
    "AB_sym": lambda a, b, aa, bb: acomm(a, b),
    "BB": lambda a, b, aa, bb: bb,
    "B": lambda a, b, aa, bb: b,
    "A4": lambda a, b, aa, bb: aa * aa,
    "A3": lambda a, b, aa, bb: aa * a,
    "A2": lambda a, b, aa, bb: aa,
    "A": lambda a, b, aa, bb: a,
}
BASIS_NAMES = tuple(_BASIS)

@once
def casimir_coefficients():
    """Casimir coefficients as polynomials in the nine constants.

    Returns {basis name: MultiPoly over the constants table}.  The
    element C^2 + sum coeff * basis commutes with A and B identically.
    """
    table = SymbolTable(CONSTANT_NAMES)
    consts = {name: MultiPoly.sym(table, name) for name in CONSTANT_NAMES}
    rules = _rewrites(consts)
    verify_jacobi(rules)
    a, b, c = _generators(rules, MultiPoly.const(table, 1))
    aa, bb = a * a, b * b
    rows_by_key = {}

    def record(gen, column, commuted):
        for word, coeff in commuted.terms.items():
            row = rows_by_key.setdefault(
                (gen, word),
                [MultiPoly.zero(table) for _ in range(len(BASIS_NAMES) + 1)],
            )
            row[column] = row[column] + coeff

    for name, gen in (("A", a), ("B", b)):
        record(name, len(BASIS_NAMES), comm(c * c, gen))
        for j, build in enumerate(_BASIS.values()):
            record(name, j, comm(build(a, b, aa, bb), gen))
    matrix = []
    rhs = []
    for key in sorted(rows_by_key):
        row = rows_by_key[key]
        matrix.append(row[: len(BASIS_NAMES)])
        rhs.append(-row[len(BASIS_NAMES)])
    try:
        pairs = solve_exact(matrix, rhs)
    except RankDeficientSystem as exc:
        raise CubicalgError(str(exc)) from None
    except InconsistentSystem as exc:
        raise CubicalgError(
            "no central element of the assumed shape: %s" % exc
        ) from None
    coeffs = {}
    for name, (num, den) in zip(BASIS_NAMES, pairs):
        if not den.is_rational():
            raise CubicalgError(
                "coefficient %s is not polynomial in the constants" % name
            )
        coeffs[name] = num * (1 / den.as_fraction())
    candidate = realize(coeffs, a, b, c)
    for name, gen in (("A", a), ("B", b)):
        if not comm(candidate, gen).is_zero():
            raise CubicalgError(
                "central element verification failed against %s" % name
            )
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
    for name, build in _BASIS.items():
        coeff = coeffs[name]
        if upoly.is_zero(coeff):
            continue
        total = total + coeff * build(a_op, b_op, aa, bb)
    return total
