"""Show that every workload's checker rejects a corrupted result.

Run from the root of a checkout (takes a few seconds):

    python3 perfbench/selfcheck.py

Each case builds a small genuine output with the workload's own item
code, checks that the checker accepts it, corrupts one value, and checks
that the checker rejects it.  Exit status 0 means every case held.
"""

import copy
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

OUTDIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def derive_case():
    """q5-derive: one Phi coefficient perturbed."""
    config = os.path.join(OUTDIR, "q5-inline.ini")
    with open(config, "w") as fh:
        fh.write(workloads.Q5_INLINE)
    constants = workloads.inline_constants()
    k = constants.pop("k")
    text = workloads.in_process_cli(["derive", "--config", config])
    good = {"text": text, "constants": constants, "k": k}
    doc = json.loads(text)
    doc["phi"]["coefficients"][2] += " + 1"
    bad = dict(good, text=json.dumps(doc))
    return checks.check_derive, good, bad


def catalog_verdict_case():
    """q5-catalog: one unitarity verdict flipped."""
    config = os.path.join(OUTDIR, "q5-inline.ini")
    text = workloads.in_process_cli(
        ["spectrum", "--config", config, "--p-max", "3"])
    phi = json.loads(workloads.in_process_cli(
        ["derive", "--config", config]))["phi"]["coefficients"]
    good = {"kind": "spectrum", "p_max": 3, "text": text}
    doc = json.loads(text)
    verdicts = doc["families"][0]["verdicts"]
    verdicts["2"] = not verdicts["2"]
    bad = dict(good, text=json.dumps(doc))
    return (lambda out: checks.check_spectrum(out, phi)), good, bad


def catalog_module_case():
    """q5-catalog: one exact residual entry made nonzero."""
    from cubicalg.repcheck import Matrix

    spec, sf, families = workloads.inline_structure_function()
    good = workloads.module_item(spec, sf, families[0], 0, 4)
    bad = dict(good, residuals=dict(good["residuals"]))
    rows = [list(row) for row in bad["residuals"]["closure"].rows]
    rows[1][2] += Fraction(1, 10 ** 12)
    bad["residuals"]["closure"] = Matrix(rows)
    return checks.check_module, good, bad


def fd_numeric_case():
    """fd-levels: one q5 level moved by 1e-6."""
    grid = 250
    text = workloads.in_process_cli(["numeric", "--grid", str(grid)])
    good = {"kind": "numeric", "grid": grid, "text": text}
    doc = json.loads(text)
    doc["levels"][3] += 1e-6
    bad = dict(good, text=json.dumps(doc))
    reference = checks.q5_reference(grid)
    return (lambda out: checks.check_numeric(out, reference)), good, bad


def fd_well_case():
    """fd-levels: one radial-well level moved by 1e-6."""
    good = workloads.well_item("radial", 1000)
    bad = copy.deepcopy(good)
    bad["levels"][5] += 1e-6
    exact = workloads.EXACT_WELL_LEVELS["radial"]
    return (lambda out: checks.check_well(out, exact)), good, bad


CASES = (derive_case, catalog_verdict_case, catalog_module_case,
         fd_numeric_case, fd_well_case)


def main():
    os.makedirs(OUTDIR, exist_ok=True)
    ok = True
    for case in CASES:
        check, good, bad = case()
        accepted = check(good)
        rejected = check(bad)
        held = not accepted and bool(rejected)
        ok = ok and held
        print("%-22s %s  genuine: %s; corrupted: %s" % (
            case.__name__, "ok  " if held else "FAIL",
            "; ".join(accepted) or "accepted",
            rejected[0] if rejected else "accepted"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
