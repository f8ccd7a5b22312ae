"""Output checkers, computed apart from the code they check.

Expressions that cubicalg prints (structure-function coefficients,
roots, energies, lowest weights) are evaluated here in plain Fractions
by a small expression walker, and polynomial tests use local Horner and
synthetic division.  Finite-difference levels are recomputed with
scipy's tridiagonal eigensolver.  Every checker returns a list of
problems; an empty list means the output is right.
"""

import ast
import json
import math
from fractions import Fraction

# Rational sample points (E, h, a) for identities in the energy and scales.
SAMPLE_POINTS = (
    {"E": Fraction(7, 3), "h": Fraction(5, 4), "a": Fraction(3, 7)},
    {"E": Fraction(-11, 5), "h": Fraction(2, 9), "a": Fraction(13, 6)},
)
GAUGE_TOLERANCE = 1e-10
FD_REFERENCE_TOLERANCE = 1e-8
WELL_TOLERANCE = 1e-7
BOX_EXACT = math.pi ** 2 / 2
BOX_TOLERANCE = 1e-3
HARMONIC_EXACT = 0.25
HARMONIC_TOLERANCE = 1e-4

_BINARY = {
    ast.Add: lambda x, y: x + y,
    ast.Sub: lambda x, y: x - y,
    ast.Mult: lambda x, y: x * y,
    ast.Div: lambda x, y: x / y,
}


def evaluate(text, env):
    """Value of a printed expression (+ - * / ^, integers, names)."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return Fraction(env[node.id])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = walk(node.right)
            if exponent.denominator != 1:
                raise ValueError("fractional power in %r" % text)
            return walk(node.left) ** int(exponent)
        raise ValueError("unexpected %s in %r" % (type(node).__name__, text))

    return walk(tree)


def horner(coeffs, x):
    """Ascending coefficients evaluated at x."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def deflate(coeffs, root):
    """(quotient, remainder) of an ascending polynomial by (x - root)."""
    out = []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * root + c
        out.append(acc)
    remainder = out.pop()
    return list(reversed(out)), remainder


def nonzero_entries(matrix_rows):
    return sum(1 for row in matrix_rows for x in row if x != 0)


# --- q5-derive -------------------------------------------------------------


def check_roots(doc):
    """Every listed root annihilates Phi with its multiplicity, and the
    multiplicities add up to deg Phi."""
    problems = []
    phi = doc["phi"]
    roots = phi.get("roots")
    if not roots:
        return ["derive: no roots listed"]
    if len(phi["coefficients"]) != phi["degree"] + 1:
        problems.append("derive: coefficient count does not match degree")
    if sum(r["multiplicity"] for r in roots) != phi["degree"]:
        problems.append("derive: multiplicities do not add up to deg Phi")
    for point in SAMPLE_POINTS:
        coeffs = [evaluate(c, point) for c in phi["coefficients"]]
        for r in roots:
            value = evaluate(r["root"], point)
            work = coeffs
            for _ in range(r["multiplicity"]):
                work, remainder = deflate(work, value)
                if remainder != 0:
                    problems.append(
                        "derive: root %s does not annihilate Phi %d times"
                        % (r["root"], r["multiplicity"])
                    )
                    break
    return problems


def structure_function(table, constants, k_text):
    """(spec, structure function, families) from printed constants."""
    from cubicalg import algebra, ladder, spectrum
    from cubicalg.exactnum import parse

    spec = algebra.jacobi_reduce(
        {name: parse(text, table) for name, text in constants.items()}, table
    )
    sf = ladder.derive_structure_function(spec, parse(k_text, table))
    _, families, _ = spectrum.energy_families(sf.phi)
    return spec, sf, families


def check_derive_modules(doc, constants, k_text, p=2):
    """Exact modules from the derived constants, Casimir value and Phi
    satisfy both relations and the central value for every family."""
    from cubicalg import algebra, repcheck

    table = algebra.master_table()
    spec, sf, families = structure_function(table, constants, k_text)
    problems = []
    ours = [c.format() for c in sf.phi.coefficients()]
    theirs = doc["phi"]["coefficients"]
    if len(ours) != len(theirs) or any(
        evaluate(x, pt) != evaluate(y, pt)
        for pt in SAMPLE_POINTS
        for x, y in zip(ours, theirs)
    ):
        problems.append("derive: Phi differs from the one the constants give")
    if not families:
        problems.append("derive: the constants give no module family")
    for index, family in enumerate(families):
        values = {name: Fraction(0) for name in table.symbols}
        values.update(h=Fraction(1), a=Fraction(1), p=Fraction(p))
        values["E"] = family.energy.evaluate(values)
        module = repcheck.matrix_module(
            sf, family.lowest.evaluate(values), p, values
        )
        residuals = repcheck.relation_residuals(module, spec, values)
        for relation, matrix in residuals.items():
            if nonzero_entries(matrix.rows):
                problems.append(
                    "derive: family %d %s residual is nonzero" % (index, relation)
                )
    return problems


def check_derive(output):
    doc = json.loads(output["text"])
    problems = check_roots(doc)
    problems += check_derive_modules(doc, output["constants"], output["k"])
    return problems


# --- q5-catalog ------------------------------------------------------------


def check_spectrum(output, phi_coefficients):
    """Each verdict equals the sign of Phi at the interior levels, and
    Phi vanishes at both ends of every module."""
    doc = json.loads(output["text"])
    p_max = output["p_max"]
    problems = []
    if not doc["families"]:
        problems.append("spectrum: no families")
    for row in doc["families"]:
        label = row["u_branch"]
        if sorted(row["verdicts"], key=int) != [str(p) for p in range(1, p_max + 1)]:
            problems.append("spectrum %s: verdicts are not p = 1..%d" % (label, p_max))
            continue
        for p_text, verdict in row["verdicts"].items():
            p = int(p_text)
            env = {"h": 1, "a": 1, "p": p}
            energy = evaluate(row["energy"]["text"], env)
            u = evaluate(row["lowest_weight"], env)
            env["E"] = energy
            coeffs = [evaluate(c, env) for c in phi_coefficients]
            if horner(coeffs, u) != 0 or horner(coeffs, u + p + 1) != 0:
                problems.append("spectrum %s p=%d: Phi does not truncate" % (label, p))
            positive = all(horner(coeffs, u + x) > 0 for x in range(1, p + 1))
            if positive != verdict:
                problems.append("spectrum %s p=%d: verdict %s, sign test %s"
                                % (label, p, verdict, positive))
    return problems


def check_module(output):
    """Zero exact residuals, a truncating Phi, and a small float gauge
    residual wherever the module is unitary."""
    module = output["module"]
    p = output["p"]
    problems = []
    tag = "module family %d p=%d" % (output["family"], p)
    if module.dimension != p + 1:
        problems.append("%s: dimension %d" % (tag, module.dimension))
    if module.phi[0] != 0 or module.phi[-1] != 0:
        problems.append("%s: Phi does not truncate" % tag)
    for relation, matrix in output["residuals"].items():
        if nonzero_entries(matrix.rows):
            problems.append("%s: %s residual is nonzero" % (tag, relation))
    gauge = output["gauge"]
    if output["unitary"] and not (gauge is not None and gauge <= GAUGE_TOLERANCE):
        problems.append("%s: gauge residual %r" % (tag, gauge))
    return problems


# --- fd-levels -------------------------------------------------------------


def _tridiagonal(v, lo, hi, n):
    import numpy

    h = (hi - lo) / (n + 1)
    nodes = lo + h * numpy.arange(1, n + 1)
    diag = 1.0 / (h * h) + v(nodes)
    off = numpy.full(n - 1, -0.5 / (h * h))
    return diag, off


def reference_levels(v, lo, hi, n, count):
    """Richardson-extrapolated lowest levels from LAPACK at steps h, h/2."""
    from scipy.linalg import eigh_tridiagonal

    pair = []
    for size in (n, 2 * n + 1):
        diag, off = _tridiagonal(v, lo, hi, size)
        pair.append(eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(0, count - 1)
        ))
    coarse, fine = pair
    return [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]


def q5_reference(grid, a=1.0, cutoff=6.0):
    """Planar levels below cutoff from the middle and twice the outer well."""
    def vx(x):
        return x * x / (8.0 * a ** 4) + 1.0 / (x - a) ** 2 + 1.0 / (x + a) ** 2

    bound = cutoff - 1.0 / (4.0 * a * a)
    xs = []
    for lo, hi, copies in ((-a, a, 1), (a, 12.0 * a, 2)):
        count = 8
        while True:
            levels = reference_levels(vx, lo, hi, grid, count)
            if levels[-1] >= bound:
                break
            count *= 2
        xs += [x for x in levels if x < bound] * copies
    out = []
    for x in xs:
        j = 0
        while x + (2 * j + 1) / (4.0 * a * a) < cutoff:
            out.append(x + (2 * j + 1) / (4.0 * a * a))
            j += 1
    return sorted(out)


def check_numeric(output, reference):
    doc = json.loads(output["text"])
    tag = "numeric grid %d" % output["grid"]
    problems = []
    calibrations = doc["calibrations"]
    for name, exact, tol in (("box", BOX_EXACT, BOX_TOLERANCE),
                             ("harmonic", HARMONIC_EXACT, HARMONIC_TOLERANCE)):
        value = calibrations[name]["value"]
        if not (abs(value - exact) < tol and calibrations[name]["ok"]):
            problems.append("%s: %s calibration %r" % (tag, name, value))
    levels = doc["levels"]
    if len(levels) != len(reference):
        problems.append("%s: %d levels, reference has %d"
                        % (tag, len(levels), len(reference)))
    else:
        worst = max((abs(x - y) for x, y in zip(levels, reference)), default=0.0)
        if not worst <= FD_REFERENCE_TOLERANCE:
            problems.append("%s: levels off the reference by %.3g" % (tag, worst))
    return problems


def check_well(output, exact):
    worst = max(abs(x - y) for x, y in zip(output["levels"], exact))
    if len(output["levels"]) == len(exact) and worst <= WELL_TOLERANCE:
        return []
    return ["%s well n=%d: levels off the exact ones by %.3g"
            % (output["well"], output["n"], worst)]
