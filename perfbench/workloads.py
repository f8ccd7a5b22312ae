"""The three workloads: how each makes its inputs, its items and its checks.

A workload's set-up (imports, input generation, warming per-process
caches) builds one round: a fixed list of items, each a callable whose
wall time is measured by itself.  The runner repeats whole rounds, at
least three, so every run does the same operations in the same
proportions and every item is timed at least three times.  A round is
kept short (a few seconds) for that.  Outputs are kept and checked after
the timed phase.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

# The q5 structure constants and Casimir value, in the [algebra] config
# form of the README; with them no operator derivation runs.
Q5_INLINE = """\
[algebra]
alpha = 0
beta = 0
gamma = 0
delta = h^4/a^4
epsilon = 0
mu = -32*h^2
nu = (-48*E*h^2*a^2 + 48*h^4)/a^2
xi = (32*E*h^4*a^2 + 8*h^6)/a^4
zeta = (16*E^3*h^2*a^6 - 16*E^2*h^4*a^4 - 4*E*h^6*a^2 - 12*h^8)/a^6
k = (-16*E^4*h^2*a^8 + 32*E^3*h^4*a^6 + 16*E^2*h^6*a^4 - 40*E*h^8*a^2 - 3*h^10)/a^8
"""
INLINE_SYMBOLS = ("E", "h", "a", "u", "p", "x", "k", "zeta")

CATALOG_P_MAX = (50,)
# sizes the CLI's repcheck (capped at 8) never reaches; an odd number of
# them puts the median item in the middle of one size's block
CATALOG_MODULE_P = (9, 10, 11, 12, 13)
FD_GRIDS = (500, 1000, 2000)
FD_WELL_N = (1000, 2000)
FD_WELL_COUNT = 8


class Workload:
    def __init__(self, items, check):
        self.items = items  # one round: [(label, callable)]
        self.check = check  # outputs -> problems


def rotate(items, seed):
    """The round started at a seed-given item; for workloads whose
    inputs are fixed, this is all the seed changes."""
    shift = seed % len(items)
    return items[shift:] + items[:shift]


def in_process_cli(argv):
    """cubicalg's CLI run in this process; returns its stdout."""
    from cubicalg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("cubicalg %s exited %d" % (" ".join(argv), code))
    return out.getvalue()


# --- q5-derive -------------------------------------------------------------


def derive_item(outdir, trace):
    """One fresh process that imports cubicalg and derives q5."""
    path = os.path.join(outdir, "derive-%d.json" % os.getpid())
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "derive", path,
           "1" if trace else "0"]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("derive child exited %d" % proc.returncode)
    with open(path) as fh:
        output = json.load(fh)
    os.remove(path)
    output["maxrss_kb"] = usage.ru_maxrss
    return output


def setup_q5_derive(seed, outdir, trace):
    # the input is the q5 preset itself; the seed changes nothing
    items = [("derive", lambda: derive_item(outdir, trace))]

    def check(outputs):
        return [p for _, out in outputs for p in checks.check_derive(out)]

    return Workload(items, check)


# --- q5-catalog ------------------------------------------------------------


def inline_constants():
    """{name: text} of the inline config, k included."""
    return dict(line.split(" = ", 1) for line in Q5_INLINE.splitlines()[1:])


def inline_structure_function():
    from cubicalg.exactnum import SymbolTable

    constants = inline_constants()
    k_text = constants.pop("k")
    table = SymbolTable(INLINE_SYMBOLS, atoms=("h", "a"))
    return checks.structure_function(table, constants, k_text)


def module_item(spec, sf, family, index, p):
    from cubicalg import repcheck, spectrum

    values = {name: Fraction(0) for name in INLINE_SYMBOLS}
    values.update(h=Fraction(1), a=Fraction(1), p=Fraction(p))
    values["E"] = family.energy.evaluate(values)
    module = repcheck.matrix_module(sf, family.lowest.evaluate(values), p, values)
    residuals = repcheck.relation_residuals(module, spec, values)
    unitary = spectrum.unitarity_verdict(family, p).unitary
    gauge = (repcheck.symmetric_gauge_residual(module, spec, values)
             if unitary else None)
    return {"kind": "module", "family": index, "p": p, "module": module,
            "residuals": residuals, "unitary": unitary, "gauge": gauge}


def setup_q5_catalog(seed, outdir, trace):
    from cubicalg import casimir

    casimir.casimir_coefficients()
    config = os.path.join(outdir, "q5-inline.ini")
    with open(config, "w") as fh:
        fh.write(Q5_INLINE)
    spec, sf, families = inline_structure_function()
    modules = [
        ("module %d p=%d" % (index, p),
         lambda f=family, i=index, p=p: module_item(spec, sf, f, i, p))
        for index, family in enumerate(families)
        for p in CATALOG_MODULE_P
    ]
    items = []
    for p_max in CATALOG_P_MAX:
        argv = ["spectrum", "--config", config, "--p-max", str(p_max)]
        items.append(("spectrum P=%d" % p_max,
                      lambda argv=argv, p_max=p_max: {
                          "kind": "spectrum", "p_max": p_max,
                          "text": in_process_cli(argv)}))
    items = rotate(items + modules, seed)

    def check(outputs):
        derived = json.loads(in_process_cli(["derive", "--config", config]))
        phi = derived["phi"]["coefficients"]
        problems = []
        for _, out in outputs:
            if out["kind"] == "spectrum":
                problems += checks.check_spectrum(out, phi)
            else:
                problems += checks.check_module(out)
        return problems

    return Workload(items, check)


# --- fd-levels -------------------------------------------------------------


def radial_potential(x):
    return x * x / 8.0 + 1.0 / (x * x)


def well_item(name, n):
    from cubicalg import schrodinger

    if name == "oscillator":
        levels = schrodinger.refined_levels(
            schrodinger.y_potential, -12.0, 12.0, n, FD_WELL_COUNT)
    else:
        levels = schrodinger.refined_levels(
            radial_potential, 0.0, 12.0, n, FD_WELL_COUNT)
    return {"kind": "well", "well": name, "n": n, "levels": levels}


EXACT_WELL_LEVELS = {
    "oscillator": [(2 * j + 1) / 4.0 for j in range(FD_WELL_COUNT)],
    "radial": [j + 1.25 for j in range(FD_WELL_COUNT)],
}


def setup_fd_levels(seed, outdir, trace):
    items = []
    for grid in FD_GRIDS:
        argv = ["numeric", "--grid", str(grid)]
        items.append(("numeric grid=%d" % grid,
                      lambda argv=argv, grid=grid: {
                          "kind": "numeric", "grid": grid,
                          "text": in_process_cli(argv)}))
    for name in ("oscillator", "radial"):
        for n in FD_WELL_N:
            items.append(("%s n=%d" % (name, n),
                          lambda name=name, n=n: well_item(name, n)))
    items = rotate(items, seed)

    def check(outputs):
        references = {g: checks.q5_reference(g) for g in FD_GRIDS}
        problems = []
        for _, out in outputs:
            if out["kind"] == "numeric":
                problems += checks.check_numeric(out, references[out["grid"]])
            else:
                problems += checks.check_well(out, EXACT_WELL_LEVELS[out["well"]])
        return problems

    return Workload(items, check)


SETUPS = {
    "q5-derive": setup_q5_derive,
    "q5-catalog": setup_q5_catalog,
    "fd-levels": setup_fd_levels,
}
