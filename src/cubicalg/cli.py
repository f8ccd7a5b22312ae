"""Batch front door: config ingestion, pipeline runs, reports.

Subcommands mirror the pipeline stages: verify-q5 checks the operator
identities, derive builds the oscillator realization and structure
function, spectrum enumerates module families with unitarity verdicts,
repcheck replays the relations on explicit matrices, numeric solves
the separated wells, compare lines the two spectra up, and all chains
everything into one document.  Outputs are deterministic: identical
configs produce byte-identical JSON or CSV.

Exit codes: 0 all checks passed; 1 some check failed, or the pipeline
raised a CubicalgError (reported on one stderr line); 2 bad usage or
config, including a ConfigError or a ParseError.
"""

import argparse
import configparser
import errno
import io
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

from . import algebra, casimir, ladder, repcheck, schrodinger, spectrum, weylop
from .errors import CubicalgError, UnresolvedFactor
from .exactnum import ParseError, PolyFraction, SymbolTable, parse

INLINE_SYMBOLS = ("E", "h", "a", "u", "p", "x", "k", "zeta")

# External reference values the derivation is diffed against; a
# mismatch is reported alongside the derived value, never adopted.
REFERENCE_PHI_LEAD = "-4*h^8/a^4"
REFERENCE_PHI_CONSTANT = (
    "4*a^4/h^2*E^4 - 12*a^2*E^3 + 11*h^4/a^2*E - 15/4*h^6/a^4"
)
REFERENCE_FAMILY_ROOTS = (("p + 2", "p - 2"),)

# spectrum, compare and all take time and memory linear in p_max: at
# 10**5 the slowest, all, takes about 9 s; at 10**8 spectrum runs out
# of memory.
MAX_P_MAX = 10 ** 5


class ConfigError(CubicalgError):
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
        if self.p_max > MAX_P_MAX:
            raise ConfigError(
                "p_max must be at most %d, got %d" % (MAX_P_MAX, self.p_max)
            )
        if self.preset is not None and self.preset != "q5":
            raise ConfigError("unknown preset %r" % self.preset)
        if self.a <= 0:
            raise ConfigError("a must be positive")
        for name in ("cutoff", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    "%s must be finite and positive, got %r" % (name, value)
                )
        if self.fmt not in ("json", "csv"):
            raise ConfigError("format must be json or csv")


def _read_config_file(path):
    # Values are read literally: a '%' in a path or an expression is
    # text, not the start of an interpolation.
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except configparser.Error as exc:
        raise ConfigError("config syntax: %s" % exc)
    return cp


def _config_number(cp, section, key, convert, default):
    """One numeric value of a config section, or default when absent."""
    if not cp.has_option(section, key):
        return default
    text = cp.get(section, key)
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError("[%s] %s is not a number: %r" % (section, key, text))


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
                extra = set(keys) - set(casimir.CONSTANT_NAMES)
                if extra:
                    raise ConfigError(
                        "unknown constants: %s" % ", ".join(sorted(extra))
                    )
                inline = {
                    name: keys.get(name, "0") for name in casimir.CONSTANT_NAMES
                }
        p_max = _config_number(cp, "spectrum", "p_max", int, p_max)
        a = _config_number(cp, "numeric", "a", Fraction, a)
        grid = _config_number(cp, "numeric", "grid", int, grid)
        cutoff = _config_number(cp, "numeric", "cutoff", float, cutoff)
        tol = _config_number(cp, "numeric", "tol", float, tol)
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
    cfg = RunConfig(preset, inline, k_text, p_max, a, grid, cutoff, tol,
                    fmt, out)
    if out:
        _check_writable(out)
    return cfg


def _check_writable(path):
    """Refuse an output path whose file cannot be opened for writing: a
    directory, or a file whose directory is missing or is not one.  The
    file itself is neither created nor truncated."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        return
    raise ConfigError("cannot write output: %s"
                      % OSError(code, os.strerror(code), path))


def _inline_algebra(cfg):
    """Parse the inline constants into a spec plus a casimir value.

    The table keeps k and zeta as symbols so an omitted casimir value
    stays symbolic and can be completed later.
    """
    table = SymbolTable(INLINE_SYMBOLS, atoms=("h", "a"))
    values = {}
    for name in casimir.CONSTANT_NAMES:
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


class Run:
    """One invocation: its config, and every stage its runners share,
    each built on first use and then read by every runner that needs
    it, so that `all` builds each stage once."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._docs = {}

    def doc(self, subcommand):
        """The document of one subcommand, built on the first request."""
        if subcommand not in self._docs:
            self._docs[subcommand] = RUNNERS[subcommand](self)
        return self._docs[subcommand]

    @cached_property
    def structure_function(self):
        """Phi and its realization: the cached q5 one, or the inline one."""
        if self.cfg.preset == "q5":
            return spectrum.q5_structure_function()
        return ladder.derive_structure_function(*_inline_algebra(self.cfg))

    @cached_property
    def families(self):
        """(branches, families, pinned) of Phi."""
        return spectrum.energy_families(self.structure_function.phi)


def _energy_values(energy, cfg, p):
    """h = 1, the configured a and p; other symbols are 0."""
    values = dict.fromkeys(energy.table.symbols, Fraction(0))
    values.update(h=Fraction(1), a=cfg.a, p=Fraction(p))
    return values


def _float_energy(energy, cfg, p):
    """The energy at h = 1, the configured a and p; other symbols are 0."""
    try:
        return float(energy.evaluate(_energy_values(energy, cfg, p)))
    except OverflowError:
        raise ConfigError("a too small: the energy at p = %d overflows" % p)


def _rises_to_a_float(energy, cfg):
    """True when the energy, as in _float_energy, is nondecreasing in p
    for p >= 0 and its float at p_max does not overflow.

    Decided exactly from the coefficients of p: none past the constant
    may be negative.  Such an energy, once over a positive cutoff,
    stays over it up to p_max without overflowing, and its floats, each
    correctly rounded, stay over it too.
    """
    try:
        parts = energy.univariate_in("p")
    except ValueError:
        return False
    values = _energy_values(energy, cfg, 0)
    coeffs = [c.evaluate(values) for c in parts]
    if any(c < 0 for c in coeffs[1:]):
        return False
    top = Fraction(0)
    for c in reversed(coeffs):
        top = top * cfg.p_max + c
    try:
        float(top)
    except OverflowError:
        return False
    return True


def _energy_entry(energy, cfg):
    numeric = {"p=%d" % p: _float_energy(energy, cfg, p) for p in (0, 1, 2)}
    return {"text": energy.format(), "numeric_at": numeric}


def run_verify(run):
    # weylop.suite proves each identity once and raises NotConserved when
    # one fails, so the suite holds every identity it names
    checks = [{"check": "%s = 0" % label, "ok": True}
              for label in weylop.suite().identities]
    derived = algebra.q5_algebra()
    constants = {
        name: value.format() for name, value in derived.spec.as_dict().items()
    }
    return {
        "checks": checks,
        "structure_constants": constants,
        "casimir_value": derived.k.format(),
        "passed": True,
    }


def run_derive(run):
    sf = run.structure_function
    real = sf.realization
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
    if run.cfg.preset == "q5":
        deltas = []
        if phi.get("lead") != REFERENCE_PHI_LEAD:
            deltas.append({
                "item": "phi lead coefficient",
                "derived": phi["lead"],
                "reference": REFERENCE_PHI_LEAD,
            })
        want = parse(REFERENCE_PHI_CONSTANT, sf.spec.table)
        got = sf.phi.coefficients()[0]
        if got != want:
            deltas.append({
                "item": "phi constant coefficient",
                "derived": got.format(),
                "reference": want.format(),
            })
        doc["reference_deltas"] = deltas
    return doc


def run_spectrum(run):
    cfg = run.cfg
    branches, families, pinned = run.families
    rows = []
    for fam in families:
        decision = spectrum.unitarity_decision(fam)
        verdicts = {str(p): spectrum.unitarity_verdict(fam, p).unitary
                    for p in range(1, cfg.p_max + 1)}
        roots = [r.format() for r in fam.roots]
        row = {
            "u_branch": branches[fam.start].root.format(),
            "energy": _energy_entry(fam.energy, cfg),
            "phi": {"lead": fam.lead.format(), "roots": roots},
            "lowest_weight": fam.lowest.format(),
            "verdicts": verdicts,
            # both None, with the reason below, for an undecided family
            "unitary_for_all_p": decision.eventual and not decision.exceptions,
            "exceptions": (None if decision.exceptions is None
                           else list(decision.exceptions)),
        }
        if decision.undecided is not None:
            row["undecided"] = decision.undecided
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


def run_repcheck(run):
    cfg = run.cfg
    sf = run.structure_function
    branches, families, _ = run.families
    rows = []
    ok = True
    for fam in families:
        label = branches[fam.start].root.format()
        for p in range(0, min(cfg.p_max, 8) + 1):
            module, values = repcheck.q5_module(fam, p, h=1, a=cfg.a)
            residuals = repcheck.relation_residuals(module, sf.spec, values)
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
                try:
                    worst = repcheck.symmetric_gauge_residual(
                        module, sf.spec, values
                    )
                except OverflowError:
                    worst = math.inf
                except ZeroDivisionError:
                    raise ConfigError("a too large: the float gauge underflows")
                if not math.isfinite(worst):
                    raise ConfigError("a too small: the float gauge overflows")
                ok = ok and worst <= 1e-10
                rows.append({
                    "family": label,
                    "p": p,
                    "relation": "all",
                    "gauge": "float",
                    "max_residual": "%.3e" % worst,
                })
    return {"residuals": rows, "passed": ok}


def run_numeric(run):
    cfg = run.cfg
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


def _predictions(run):
    """(label, float energy) of every unitary module up to p_max whose
    energy is at most the cutoff.  A family whose energy rises stops at
    its first unitary p over the cutoff; a falling one is swept to
    p_max."""
    cfg = run.cfg
    preds = []
    branches, families, _ = run.families
    for fam in families:
        label = branches[fam.start].root.format()
        rising = _rises_to_a_float(fam.energy, cfg)
        for p in range(0, cfg.p_max + 1):
            if not spectrum.unitarity_verdict(fam, p).unitary:
                continue
            energy = _float_energy(fam.energy, cfg, p)
            if energy > cfg.cutoff:
                if rising:
                    break
                continue
            preds.append(("u=%s p=%d" % (label, p), energy))
    return preds


def run_compare(run):
    """Line the predictions up with the FD levels."""
    numeric = run.doc("numeric")
    preds = _predictions(run)
    report = schrodinger.compare(preds, numeric["levels"], run.cfg.tol)
    return {
        "comparison": [asdict(r) for r in report.rows],
        "unmatched_numeric": list(report.unmatched),
        "passed": report.passed and numeric["passed"],
    }


def run_all(run):
    doc = {stage.key: run.doc(stage.name) for stage in STAGES}
    doc["passed"] = all(part["passed"] for part in doc.values())
    return doc


# `all`'s stages in order: each subcommand, its runner, its key in the
# document, whether it reads the q5 operators and whether it solves the
# FD wells.
Stage = namedtuple("Stage", "name runner key needs_q5 solves_wells")
STAGES = (
    Stage("verify-q5", run_verify, "verify", False, False),
    Stage("derive", run_derive, "derive", False, False),
    Stage("spectrum", run_spectrum, "spectrum", False, False),
    Stage("repcheck", run_repcheck, "repcheck", True, False),
    Stage("numeric", run_numeric, "numeric", True, True),
    Stage("compare", run_compare, "compare", True, True),
)
RUNNERS = {stage.name: stage.runner for stage in STAGES}
RUNNERS["all"] = run_all


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
    for stage in STAGES:
        rows.append(("# " + stage.name,))
        rows.extend(_csv_rows(stage.name, doc[stage.key]))
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
        stages = [s for s in STAGES if args.subcommand in ("all", s.name)]
        # the FD wells' budget, refused up front where levels are solved
        if any(s.solves_wells for s in stages):
            try:
                schrodinger.check_level_budget(cfg.a, Fraction(cfg.cutoff),
                                               cfg.grid)
                schrodinger.check_float_range(cfg.a, cfg.cutoff)
            except ValueError as exc:
                raise ConfigError(str(exc))
        # the first stage that reads the q5 operators, refused up front
        needs_q5 = [s.name for s in stages if s.needs_q5]
        if cfg.preset != "q5" and needs_q5:
            raise ConfigError("%s needs the q5 preset" % needs_q5[0])
        doc = Run(cfg).doc(args.subcommand)
    except (ConfigError, ParseError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except CubicalgError as exc:
        print("%s: %s: %s" % (args.subcommand, type(exc).__name__, exc),
              file=sys.stderr)
        return 1
    text = render(args.subcommand, doc, cfg.fmt)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print("config error: cannot write output: %s" % exc,
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if doc["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
