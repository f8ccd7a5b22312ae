"""Batch front door: config ingestion, pipeline runs, reports.

Subcommands mirror the pipeline stages: verify-q5 checks the operator
identities, derive builds the oscillator realization and structure
function, spectrum enumerates module families with unitarity verdicts,
repcheck replays the relations on explicit matrices, numeric solves
the separated wells, compare lines the two spectra up, and all chains
everything into one document.  Outputs are deterministic: identical
configs produce byte-identical JSON or CSV.

Exit codes: 0 all checks passed, 1 some check failed, 2 bad usage or
config.
"""

import argparse
import configparser
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import algebra, errors, ladder, repcheck, schrodinger, spectrum, weylop
from .errors import UnresolvedFactor
from .exactnum import ParseError, PolyFraction, SymbolTable, parse

PIPELINE_ERRORS = (
    errors.JacobiViolation,
    errors.UnsupportedCase,
    errors.SingularSystem,
    errors.NonPolynomialStructure,
    errors.ShiftInconsistency,
    errors.UnderdeterminedCasimir,
    errors.UnresolvedFactor,
    errors.NotInSpan,
    errors.AmbiguousBasis,
)

INLINE_SYMBOLS = ("E", "h", "a", "u", "p", "x", "k", "zeta")
CONSTANT_KEYS = (
    "alpha", "beta", "gamma", "delta", "epsilon", "mu", "nu", "xi", "zeta",
)

# External reference values the derivation is diffed against; a
# mismatch is reported alongside the derived value, never adopted.
REFERENCE_PHI_LEAD = "-4*h^8/a^4"
REFERENCE_PHI_CONSTANT = (
    "4*a^4/h^2*E^4 - 12*a^2*E^3 + 11*h^4/a^2*E - 15/4*h^6/a^4"
)
REFERENCE_FAMILY_ROOTS = (("p + 2", "p - 2"),)


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    preset: Optional[str]
    inline: Optional[dict]
    k_text: Optional[str]
    p_max: int
    a: Fraction
    grid: int
    cutoff: float
    tol: float
    fmt: str
    out: Optional[str]

    def __post_init__(self):
        if (self.preset is None) == (self.inline is None):
            raise ConfigError("exactly one of preset or inline constants")
        if self.p_max < 0:
            raise ConfigError("p_max must be nonnegative")
        if self.preset is not None and self.preset != "q5":
            raise ConfigError("unknown preset %r" % self.preset)
        if self.a <= 0:
            raise ConfigError("a must be positive")
        if self.grid < 3:
            raise ConfigError("grid must have at least three points")
        for name in ("cutoff", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    "%s must be finite and positive, got %r" % (name, value)
                )
        if self.fmt not in ("json", "csv"):
            raise ConfigError("format must be json or csv")


def _read_config_file(path):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except configparser.Error as exc:
        raise ConfigError("config syntax: %s" % exc)
    return cp


def build_config(args):
    """Merge config file and command-line flags; flags win."""
    preset = None
    inline = None
    k_text = None
    p_max, a, grid = 8, Fraction(1), 2000
    cutoff, tol = 6.0, 2e-3
    fmt, out = "json", None
    if args.config:
        cp = _read_config_file(args.config)
        if cp.has_section("algebra"):
            keys = dict(cp.items("algebra"))
            k_text = keys.pop("k", None)
            if "preset" in keys:
                preset = keys.pop("preset")
                if keys:
                    raise ConfigError(
                        "preset excludes inline constants: %s"
                        % ", ".join(sorted(keys))
                    )
            elif keys:
                extra = set(keys) - set(CONSTANT_KEYS)
                if extra:
                    raise ConfigError(
                        "unknown constants: %s" % ", ".join(sorted(extra))
                    )
                inline = {name: keys.get(name, "0") for name in CONSTANT_KEYS}
        if cp.has_section("spectrum"):
            p_max = cp.getint("spectrum", "p_max", fallback=p_max)
        if cp.has_section("numeric"):
            sec = cp["numeric"]
            a = Fraction(sec.get("a", str(a)))
            grid = int(sec.get("grid", str(grid)))
            cutoff = float(sec.get("cutoff", str(cutoff)))
            tol = float(sec.get("tol", str(tol)))
        if cp.has_section("output"):
            fmt = cp.get("output", "format", fallback=fmt)
            out = cp.get("output", "path", fallback=out)
    if args.preset:
        preset = args.preset
        inline = None
    if preset is None and inline is None:
        preset = "q5"
    if args.p_max is not None:
        p_max = args.p_max
    if args.a is not None:
        try:
            a = Fraction(args.a)
        except (ValueError, ZeroDivisionError):
            raise ConfigError("a must be rational, got %r" % args.a)
    if args.grid is not None:
        grid = args.grid
    if args.cutoff is not None:
        cutoff = args.cutoff
    if args.tol is not None:
        tol = args.tol
    if args.format:
        fmt = args.format
    if args.out:
        out = args.out
    return RunConfig(preset, inline, k_text, p_max, a, grid, cutoff, tol,
                     fmt, out)


def _inline_algebra(cfg):
    """Parse the inline constants into a spec plus a casimir value.

    The table keeps k and zeta as symbols so an omitted casimir value
    stays symbolic and can be completed later.
    """
    table = SymbolTable(INLINE_SYMBOLS, atoms=("h", "a"))
    values = {}
    for name in CONSTANT_KEYS:
        text = cfg.inline[name]
        try:
            values[name] = parse(text, table)
        except ParseError as exc:
            raise ConfigError("constant %s: %s" % (name, exc))
    spec = algebra.jacobi_reduce(values, table)
    if cfg.k_text is None:
        k = PolyFraction.sym(table, "k")
    else:
        try:
            k = parse(cfg.k_text, table)
        except ParseError as exc:
            raise ConfigError("constant k: %s" % exc)
    return spec, k


def _resolve_algebra(cfg):
    if cfg.preset == "q5":
        derived = algebra.q5_algebra()
        return derived.spec, derived.k
    return _inline_algebra(cfg)


def _fnum(value):
    return float(value)


def _energy_entry(energy, cfg, samples=(0, 1, 2)):
    base = {"h": Fraction(1), "a": cfg.a, "E": Fraction(0),
            "u": Fraction(0), "x": Fraction(0)}
    numeric = {}
    for s in samples:
        vals = dict(base)
        vals["p"] = Fraction(s)
        for name in energy.table.symbols:
            vals.setdefault(name, Fraction(0))
        numeric["p=%d" % s] = _fnum(energy.evaluate(vals))
    return {"text": energy.format(), "numeric_at": numeric}


def run_verify(cfg):
    suite = weylop.suite()
    checks = []
    for label, op in (
        ("[H,A]", weylop.comm(suite.hamiltonian, suite.first_integral)),
        ("[H,B]", weylop.comm(suite.hamiltonian, suite.second_integral)),
        ("[H,[A,B]]", weylop.comm(suite.hamiltonian, suite.commutator)),
    ):
        checks.append({"check": "%s = 0" % label, "ok": op.is_zero()})
    derived = algebra.q5_algebra()
    constants = {
        name: value.format() for name, value in derived.spec.as_dict().items()
    }
    doc = {
        "checks": checks,
        "structure_constants": constants,
        "casimir_value": derived.k.format(),
        "passed": all(c["ok"] for c in checks),
    }
    return doc


def run_derive(cfg):
    spec, k = _resolve_algebra(cfg)
    real = ladder.derive_realization(spec)
    sf = ladder.derive_structure_function(spec, k)
    coeffs = [c.format() for c in sf.phi.coefficients()]
    phi = {"degree": sf.phi.degree(), "coefficients": coeffs}
    try:
        branches = spectrum.branch_roots(sf.phi)
        phi["roots"] = [
            {"root": b.root.format(), "multiplicity": b.multiplicity}
            for b in branches
        ]
        lead = sf.phi.coefficients()[-1]
        phi["lead"] = lead.format()
    except (UnresolvedFactor, ValueError) as exc:
        phi["roots_note"] = str(exc)
    doc = {
        "realization": {
            "case": real.case,
            "a_of_nu": real.a_of_nu.format(),
            "b_of_nu": real.b_of_nu.format(),
            "rho": real.rho.format(),
        },
        "phi": phi,
        "passed": True,
    }
    if cfg.preset == "q5":
        deltas = []
        if phi.get("lead") != REFERENCE_PHI_LEAD:
            deltas.append({
                "item": "phi lead coefficient",
                "derived": phi["lead"],
                "reference": REFERENCE_PHI_LEAD,
            })
        table = spec.table
        want = parse(REFERENCE_PHI_CONSTANT, table)
        got = sf.phi.coefficients()[0]
        if got != want:
            deltas.append({
                "item": "phi constant coefficient",
                "derived": got.format(),
                "reference": want.format(),
            })
        doc["reference_deltas"] = deltas
    return doc


def _catalog(cfg, sf):
    branches, families, pinned = spectrum.energy_families(sf.phi)
    rows = []
    for fam in families:
        verdicts = {}
        flips = []
        for p in range(1, cfg.p_max + 1):
            verdicts[str(p)] = spectrum.unitarity_verdict(fam, p).unitary
        votes = sum(1 for v in verdicts.values() if v)
        majority = votes * 2 > len(verdicts)
        for p_text, v in verdicts.items():
            if v != majority:
                flips.append(int(p_text))
        roots = [r.format() for r in fam.roots]
        row = {
            "u_branch": branches[fam.start].root.format(),
            "energy": _energy_entry(fam.energy, cfg),
            "phi": {"lead": fam.lead.format(), "roots": roots},
            "lowest_weight": fam.lowest.format(),
            "verdicts": verdicts,
            "unitary_for_all_p": majority and not flips,
            "exceptions": flips,
        }
        rows.append(row)
    pins = [
        {
            "start": branches[pair.start].root.format(),
            "end": branches[pair.end].root.format(),
            "p": pair.p,
        }
        for pair in pinned
    ]
    deltas = []
    if cfg.preset == "q5":
        for row in rows:
            for derived_root, reference_root in REFERENCE_FAMILY_ROOTS:
                if derived_root in row["phi"]["roots"]:
                    deltas.append({
                        "item": "family root (u_branch %s)" % row["u_branch"],
                        "derived": derived_root,
                        "reference": reference_root,
                    })
    return {
        "families": rows,
        "pinned_pairs": pins,
        "reference_deltas": deltas,
        "passed": True,
    }


def run_spectrum(cfg):
    spec, k = _resolve_algebra(cfg)
    sf = _structure_function(cfg, spec, k)
    return _catalog(cfg, sf)


def _structure_function(cfg, spec, k):
    if cfg.preset == "q5":
        return spectrum.q5_structure_function()
    return ladder.derive_structure_function(spec, k)


def run_repcheck(cfg):
    if cfg.preset != "q5":
        raise ConfigError("repcheck needs the q5 preset")
    sf = spectrum.q5_structure_function()
    derived = algebra.q5_algebra()
    branches, families, _ = spectrum.energy_families(sf.phi)
    rows = []
    ok = True
    for fam in families:
        label = branches[fam.start].root.format()
        for p in range(0, min(cfg.p_max, 8) + 1):
            module, values = repcheck.q5_module(fam, p, h=1, a=cfg.a)
            residuals = repcheck.relation_residuals(
                module, derived.spec, values
            )
            for relation in ("linear", "closure", "central"):
                worst = residuals[relation].max_abs()
                ok = ok and worst == 0
                rows.append({
                    "family": label,
                    "p": p,
                    "relation": relation,
                    "gauge": "exact",
                    "max_residual": str(worst),
                })
            if spectrum.unitarity_verdict(fam, p).unitary:
                worst = repcheck.symmetric_gauge_residual(
                    module, derived.spec, values
                )
                ok = ok and worst <= 1e-10
                rows.append({
                    "family": label,
                    "p": p,
                    "relation": "all",
                    "gauge": "float",
                    "max_residual": "%.3e" % worst,
                })
    return {"residuals": rows, "passed": ok}


def run_numeric(cfg):
    if cfg.preset != "q5":
        raise ConfigError("numeric needs the q5 preset")
    a = float(cfg.a)
    levels = schrodinger.q5_levels(a, cutoff=cfg.cutoff, n=cfg.grid)
    box = schrodinger.box_ground(cfg.grid)
    harmonic = schrodinger.harmonic_ground(2 * cfg.grid)
    pi_half = 4.934802200544679
    calibrations = {
        "box": {
            "value": box,
            "reference": pi_half,
            "tolerance": 1e-3,
            "ok": abs(box - pi_half) < 1e-3,
        },
        "harmonic": {
            "value": harmonic,
            "reference": 0.25,
            "tolerance": 1e-4,
            "ok": abs(harmonic - 0.25) < 1e-4,
        },
    }
    passed = all(c["ok"] for c in calibrations.values())
    return {
        "levels": levels,
        "calibrations": calibrations,
        "passed": passed,
    }


def _predictions(cfg):
    preds = []
    base = {"h": Fraction(1), "a": cfg.a, "E": Fraction(0),
            "u": Fraction(0), "x": Fraction(0)}
    sf = spectrum.q5_structure_function()
    branches, families, _ = spectrum.energy_families(sf.phi)
    for fam in families:
        label = branches[fam.start].root.format()
        for p in range(0, cfg.p_max + 1):
            if not spectrum.unitarity_verdict(fam, p).unitary:
                continue
            vals = dict(base)
            vals["p"] = Fraction(p)
            energy = _fnum(fam.energy.evaluate(vals))
            if energy > cfg.cutoff:
                continue
            preds.append(("u=%s p=%d" % (label, p), energy))
    return preds


def run_compare(cfg):
    if cfg.preset != "q5":
        raise ConfigError("compare needs the q5 preset")
    numeric = run_numeric(cfg)
    preds = _predictions(cfg)
    report = schrodinger.compare(preds, numeric["levels"], cfg.tol)
    rows = [
        {
            "label": r.label,
            "energy": r.energy,
            "nearest": r.nearest,
            "deviation": r.deviation,
            "matched": r.matched,
            "note": r.note,
        }
        for r in report.rows
    ]
    return {
        "comparison": rows,
        "unmatched_numeric": list(report.unmatched),
        "passed": report.passed and numeric["passed"],
    }


def run_all(cfg):
    doc = {
        "verify": run_verify(cfg),
        "derive": run_derive(cfg),
        "spectrum": run_spectrum(cfg),
        "repcheck": run_repcheck(cfg),
        "numeric": run_numeric(cfg),
        "compare": run_compare(cfg),
    }
    doc["passed"] = all(part["passed"] for part in doc.values())
    return doc


RUNNERS = {
    "verify-q5": run_verify,
    "derive": run_derive,
    "spectrum": run_spectrum,
    "repcheck": run_repcheck,
    "numeric": run_numeric,
    "compare": run_compare,
    "all": run_all,
}


def _csv_rows(subcommand, doc):
    """Flatten a document into CSV rows with a fixed column set."""
    if subcommand in ("numeric", "compare"):
        rows = [("source", "index", "energy", "deviation")]
        if subcommand == "compare":
            for i, row in enumerate(doc["comparison"]):
                dev = "" if row["deviation"] is None else repr(row["deviation"])
                rows.append(("predicted", str(i), repr(row["energy"]), dev))
            for i, lev in enumerate(doc["unmatched_numeric"]):
                rows.append(("numeric", str(i), repr(lev), ""))
        else:
            for i, lev in enumerate(doc["levels"]):
                rows.append(("numeric", str(i), repr(lev), ""))
        return rows
    if subcommand == "verify-q5":
        rows = [("item", "value")]
        for c in doc["checks"]:
            rows.append((c["check"], "ok" if c["ok"] else "FAIL"))
        for name, text in doc["structure_constants"].items():
            rows.append((name, text))
        rows.append(("casimir", doc["casimir_value"]))
        return rows
    if subcommand == "derive":
        rows = [("item", "value")]
        for name, text in doc["realization"].items():
            rows.append((name, text))
        for k, c in enumerate(doc["phi"]["coefficients"]):
            rows.append(("phi nu^%d" % k, c))
        for d in doc.get("reference_deltas", ()):
            rows.append(("delta " + d["item"],
                         "derived %s reference %s" % (d["derived"],
                                                      d["reference"])))
        return rows
    if subcommand == "spectrum":
        rows = [("u_branch", "energy", "p", "unitary")]
        for fam in doc["families"]:
            for p_text, v in fam["verdicts"].items():
                rows.append((fam["u_branch"], fam["energy"]["text"],
                             p_text, "yes" if v else "no"))
        return rows
    if subcommand == "repcheck":
        rows = [("family", "p", "relation", "gauge", "max_residual")]
        for r in doc["residuals"]:
            rows.append((r["family"], str(r["p"]), r["relation"],
                         r["gauge"], r["max_residual"]))
        return rows
    # all: concatenate the per-stage tables under comment markers
    rows = []
    keys = (("verify-q5", "verify"), ("derive", "derive"),
            ("spectrum", "spectrum"), ("repcheck", "repcheck"),
            ("numeric", "numeric"), ("compare", "compare"))
    for name, key in keys:
        rows.append(("# " + name,))
        rows.extend(_csv_rows(name, doc[key]))
    return rows


def render(subcommand, doc, fmt):
    if fmt == "json":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    out = io.StringIO()
    for row in _csv_rows(subcommand, doc):
        out.write(",".join(row) + "\n")
    return out.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cubicalg",
        description="cubic symmetry algebra toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--preset", choices=["q5"])
        p.add_argument("--p-max", dest="p_max", type=int)
        p.add_argument("--a")
        p.add_argument("--grid", type=int)
        p.add_argument("--cutoff", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--format", choices=["json", "csv"])
        p.add_argument("--out")
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        doc = RUNNERS[args.subcommand](cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except PIPELINE_ERRORS as exc:
        print("%s: %s: %s" % (args.subcommand, type(exc).__name__, exc),
              file=sys.stderr)
        return 1
    text = render(args.subcommand, doc, cfg.fmt)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if doc["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
