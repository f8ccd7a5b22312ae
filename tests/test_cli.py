"""Command-line interface: exit codes, schemas, determinism."""

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import check_golden
from cubicalg import (algebra, cli, ladder, repcheck, schrodinger, spectrum,
                      weylop)
from cubicalg._memo import once
from cubicalg.exactnum import NFunc, PolyFraction, parse

SRC = Path(__file__).resolve().parents[1] / "src"

# Small grid keeps the numeric subcommands fast; accuracy at this size
# is still a few orders below the comparison tolerance.
FAST = ["--grid", "400", "--cutoff", "3.0", "--p-max", "2"]


def run_main(args, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main(list(args) + ["--out", str(out)])
    return code, out


def run_json(args, tmp_path):
    code, out = run_main(args, tmp_path)
    return code, json.loads(out.read_text())


def families_by_sample(doc):
    """Index catalog rows by their energies at p = 0 and p = 1."""
    table = {}
    for fam in doc["families"]:
        at = fam["energy"]["numeric_at"]
        table[(at["p=0"], at["p=1"])] = fam
    assert len(table) == len(doc["families"])
    return table


def test_verify_q5(tmp_path):
    code, doc = run_json(["verify-q5"], tmp_path)
    assert code == 0
    assert doc["passed"] is True
    assert [c["ok"] for c in doc["checks"]] == [True, True, True]
    constants = doc["structure_constants"]
    assert constants["alpha"] == "0"
    assert constants["beta"] == "0"
    assert constants["delta"] == "h^4/a^4"
    assert constants["mu"] == "-32*h^2"
    assert "E" in doc["casimir_value"]


def test_derive_document(tmp_path):
    code, doc = run_json(["derive"], tmp_path)
    assert code == 0
    assert doc["realization"]["case"] == "linear"
    assert doc["realization"]["b_of_nu"] == "0"
    phi = doc["phi"]
    assert phi["degree"] == 4
    assert phi["lead"] == "-4*h^6/a^4"
    assert len(phi["roots"]) == 4
    assert all(r["multiplicity"] == 1 for r in phi["roots"])
    items = {d["item"] for d in doc["reference_deltas"]}
    assert items == {"phi lead coefficient", "phi constant coefficient"}


def test_spectrum_truth_table(tmp_path):
    code, doc = run_json(["spectrum", "--p-max", "6"], tmp_path)
    assert code == 0
    fams = families_by_sample(doc)
    rising = fams[(1.5, 2.0)]
    falling = fams[(-1.0, -1.5)]
    for fam in (rising, falling):
        assert fam["unitary_for_all_p"] is True
        assert fam["exceptions"] == []
        assert all(fam["verdicts"].values())
    lone = fams[(0.0, 0.5)]
    assert lone["unitary_for_all_p"] is False
    assert lone["exceptions"] == [1]
    assert lone["verdicts"]["1"] is True
    assert not any(lone["verdicts"][str(p)] for p in range(2, 7))
    for key in ((0.0, -0.5), (0.5, 0.0), (1.0, 1.5)):
        assert not any(fams[key]["verdicts"].values())
    assert sorted(pair["p"] for pair in doc["pinned_pairs"]) == [0, 1, 2]
    deltas = doc["reference_deltas"]
    assert len(deltas) == 1
    assert deltas[0]["derived"] == "p + 2"
    assert deltas[0]["reference"] == "p - 2"


def test_repcheck_residuals(tmp_path):
    code, doc = run_json(["repcheck", "--p-max", "2"], tmp_path)
    assert code == 0
    assert doc["passed"] is True
    exact = [r for r in doc["residuals"] if r["gauge"] == "exact"]
    floats = [r for r in doc["residuals"] if r["gauge"] == "float"]
    assert exact and floats
    assert all(r["max_residual"] == "0" for r in exact)
    assert all(float(r["max_residual"]) <= 1e-10 for r in floats)


def test_numeric_levels_and_calibrations(tmp_path):
    code, doc = run_json(["numeric"] + FAST, tmp_path)
    assert code == 0
    assert doc["passed"] is True
    for name in ("box", "harmonic"):
        assert doc["calibrations"][name]["ok"] is True
    levels = doc["levels"]
    assert levels == sorted(levels)
    assert all(e <= 3.0 for e in levels)
    assert abs(levels[0] - 2.2005658) < 1e-4
    # mirror symmetry doubles every outer-well level
    assert levels[0] == levels[1] and levels[2] == levels[3]


def test_compare_reports_mismatch(tmp_path):
    code, doc = run_json(["compare"] + FAST, tmp_path)
    assert code == 1
    assert doc["passed"] is False
    rows = doc["comparison"]
    assert rows
    for row in rows:
        if row["energy"] <= 0.0:
            assert row["note"] == "not representable numerically"
            assert row["nearest"] is None
        else:
            assert row["matched"] is False
            assert row["deviation"] > 0.1
    assert doc["unmatched_numeric"]


def test_all_document_and_determinism(tmp_path):
    code, out1 = run_main(["all"] + FAST, tmp_path, "one")
    assert code == 1
    code, out2 = run_main(["all"] + FAST, tmp_path, "two")
    assert code == 1
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    stages = ("verify", "derive", "spectrum", "repcheck", "numeric",
              "compare")
    assert set(doc) == set(stages) | {"passed"}
    assert doc["passed"] is False
    assert doc["verify"]["passed"] is True
    assert doc["compare"]["passed"] is False


def test_all_runs_the_fd_solve_once(monkeypatch, tmp_path):
    # compare reuses the numeric stage's levels instead of solving again
    calls = []
    levels = schrodinger.q5_levels

    def counted(*args, **kwargs):
        calls.append(args)
        return levels(*args, **kwargs)

    monkeypatch.setattr(schrodinger, "q5_levels", counted)
    code, _ = run_main(["all"] + FAST, tmp_path)
    assert code == 1
    assert len(calls) == 1


def test_spectrum_reports_an_undecided_sign_in_one_line(monkeypatch, capsys):
    # a family whose lead h^2 - a has no sign fixed by positivity: the
    # level-by-level verdict cannot decide, and spectrum says so on one
    # stderr line instead of a traceback
    table = algebra.master_table()
    lead = parse("h^2 - a", table)
    roots = (parse("0", table), parse("p + 1", table))
    phi = NFunc.const(table, lead)
    for root in roots:
        phi = phi * (NFunc.nu(table) - root)
    zero = PolyFraction.const(table, 0)
    family = spectrum.Family(0, 1, zero, zero, phi, lead, roots, None)
    monkeypatch.setattr(spectrum, "energy_families",
                        lambda phi: ((), [family], []))
    assert cli.main(["spectrum", "--p-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "spectrum: UndecidedSign: sign of -h^2 + a is not fixed by"
        " positivity\n"
    )


def test_csv_schemas(tmp_path):
    code, out = run_main(["numeric", "--format", "csv"] + FAST, tmp_path)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "source,index,energy,deviation"
    assert all(line.startswith("numeric,") for line in lines[1:])

    code, out = run_main(["compare", "--format", "csv"] + FAST, tmp_path)
    assert code == 1
    lines = out.read_text().splitlines()
    assert lines[0] == "source,index,energy,deviation"
    sources = {line.split(",")[0] for line in lines[1:]}
    assert sources == {"predicted", "numeric"}

    code, out = run_main(
        ["spectrum", "--format", "csv", "--p-max", "2"], tmp_path
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u_branch,energy,p,unitary"
    assert len(lines) == 1 + 6 * 2

    code, out = run_main(["all", "--format", "csv"] + FAST, tmp_path)
    assert code == 1
    markers = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert markers == ["# verify-q5", "# derive", "# spectrum",
                       "# repcheck", "# numeric", "# compare"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[algebra]\npreset = q5\n\n[spectrum]\np_max = 4\n"
    )
    code, doc = run_json(["spectrum", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert set(doc["families"][0]["verdicts"]) == {"1", "2", "3", "4"}
    code, doc = run_json(
        ["spectrum", "--config", str(cfg), "--p-max", "1"], tmp_path
    )
    assert code == 0
    assert set(doc["families"][0]["verdicts"]) == {"1"}


INLINE_Q5 = """\
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


def test_inline_constants_match_preset(tmp_path):
    cfg = tmp_path / "inline.ini"
    cfg.write_text(INLINE_Q5)
    code, inline = run_json(["derive", "--config", str(cfg)], tmp_path)
    assert code == 0
    code, preset = run_json(["derive", "--preset", "q5"], tmp_path)
    assert code == 0
    assert inline["phi"]["lead"] == preset["phi"]["lead"]
    inline_roots = {r["root"] for r in inline["phi"]["roots"]}
    preset_roots = {r["root"] for r in preset["phi"]["roots"]}
    assert inline_roots == preset_roots
    # reference diffs are only meaningful for the named preset
    assert "reference_deltas" not in inline


@pytest.mark.parametrize("subcommand, stage", [
    ("repcheck", "repcheck"),
    ("numeric", "numeric"),
    ("compare", "compare"),
    ("all", "repcheck"),
])
def test_q5_only_subcommand_refuses_inline_constants_up_front(
        tmp_path, capsys, monkeypatch, subcommand, stage):
    def no_stage(*args):
        raise AssertionError("a stage ran before the preset was checked")

    monkeypatch.setattr(cli, "_inline_algebra", no_stage)
    monkeypatch.setattr(cli, "run_verify", no_stage)
    cfg = tmp_path / "inline.ini"
    cfg.write_text(INLINE_Q5)
    assert cli.main([subcommand, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: %s needs the q5 preset\n" % stage


def test_malformed_constant_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(INLINE_Q5.replace("alpha = 0", "alpha = h^"))
    code = cli.main(["derive", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "at offset" in err


def test_preset_inline_conflict_exits_2(tmp_path, capsys):
    cfg = tmp_path / "conflict.ini"
    cfg.write_text("[algebra]\npreset = q5\nalpha = 0\n")
    code = cli.main(["spectrum", "--config", str(cfg)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("numeric", "cutoff"),
    ("numeric", "grid"),
    ("numeric", "tol"),
    ("numeric", "a"),
    ("spectrum", "p_max"),
])
def test_non_numeric_config_value_exits_2(tmp_path, capsys, section, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[%s]\n%s = abc\n" % (section, key))
    assert cli.main(["numeric", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_level_budget_exits_2(capsys):
    assert cli.main(["numeric", "--cutoff", "1e9"]) == 2
    assert cli.main(["numeric", "--grid", "1000000"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["spectrum", "derive", "verify-q5"])
def test_subcommands_without_fd_wells_take_any_a(capsys, subcommand):
    # at a = 12 the FD level budget is over its cap, but these solve no well
    assert cli.main([subcommand, "--a", "12"]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("subcommand", ["numeric", "compare", "all"])
def test_fd_level_budget_is_refused_before_any_stage(
        capsys, monkeypatch, subcommand):
    def no_stage(run):
        raise AssertionError("a stage ran before the level budget was checked")

    monkeypatch.setitem(cli.RUNNERS, subcommand, no_stage)
    assert cli.main([subcommand, "--a", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cutoff 6.0 at grid 2000")
    assert "over the cap of 10000000" in captured.err


def test_float_underflow_past_a_exits_2(capsys):
    # the float gauge's amplitudes shrink as 1/a^2 and underflow to 0
    assert cli.main(["repcheck", "--a", "1e21"]) == 0
    capsys.readouterr()
    assert cli.main(["repcheck", "--a", "1e22"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: a too large: the float gauge underflows\n")


def test_grid_below_the_minimum_exits_2(capsys):
    for grid in ("3", "49"):
        assert cli.main(["numeric", "--grid", grid]) == 2
        assert "grid must be at least 50" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["numeric", "compare"])
@pytest.mark.parametrize("a", ["1e-400", "1e-200"])
def test_a_out_of_float_range_exits_2(capsys, subcommand, a):
    # at 1e-200, 4.0*a*a is 0.0: the y rungs would divide by zero
    assert cli.main([subcommand, "--a", a] + FAST) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--a", "1e-154"],
    ["compare", "--a", "1e-154"] + FAST,
    ["repcheck", "--a", "1e-39"],
    # no OverflowError at these: the float gauge overflows to inf inside
    # the matrix products, and a residual that is not finite is refused
    ["repcheck", "--a", "1e-20"],
    ["repcheck", "--a", "1e-25"],
    ["repcheck", "--a", "1e-38"],
    # the first power of ten refused: 1e-14 still passes as a golden
    ["repcheck", "--a", "1e-15"],
])
def test_float_overflow_past_a_exits_2(capsys, argv):
    # a passes RunConfig, but the family energies grow as 1/a^2 and the
    # float gauge's constants as higher powers of 1/a: float() overflows
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("config error: a too small")


def test_nan_in_the_float_gauge_exits_2(capsys, monkeypatch):
    # at a = 3e-40 the p = 0 module of the family with root -3 has a
    # float gauge residual with NaN entries behind finite ones (the
    # other modules overflow first there, so only that one is moved to
    # this a); it must be refused, not read as a small residual
    module = repcheck.q5_module
    tiny = Fraction(3, 10 ** 41)

    def one_tiny_module(family, p, h=1, a=1):
        if p == 0 and any(r.format() == "-3" for r in family.roots):
            a = tiny
        return module(family, p, h=h, a=a)

    monkeypatch.setattr(repcheck, "q5_module", one_tiny_module)
    assert cli.main(["repcheck", "--p-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: a too small")


def test_tiny_a_runs_with_no_level_below_the_cutoff(tmp_path):
    code, doc = run_json(["numeric", "--a", "1e-100"] + FAST, tmp_path)
    assert code == 0
    assert doc["levels"] == []


def test_tiny_a_exits_2_once_the_cutoff_reaches_its_levels(capsys):
    # the x potentials would divide by 8*a^4, which is 0.0 at a = 1e-100
    argv = ["numeric", "--a", "1e-100", "--cutoff", "1e200", "--grid", "100"]
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [
    "(E + 1)^100000000",
    "(" * 3000 + "1" + ")" * 3000,
])
def test_oversized_constant_exits_2_at_once(tmp_path, alpha):
    cfg = tmp_path / "big.ini"
    cfg.write_text(INLINE_Q5.replace("alpha = 0", "alpha = " + alpha))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "cubicalg.cli", "derive", "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def config_args(path):
    return argparse.Namespace(
        config=str(path), preset=None, p_max=None, a=None, grid=None,
        cutoff=None, tol=None, format=None, out=None,
    )


CONFIG_KEYS = (
    ("algebra", "preset"), ("algebra", "alpha"), ("algebra", "k"),
    ("spectrum", "p_max"), ("numeric", "a"), ("numeric", "grid"),
    ("numeric", "cutoff"), ("numeric", "tol"), ("output", "format"),
    ("output", "path"),
)
CONFIG_VALUES = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.fractions().map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)
FUZZ = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def config_outcome(path):
    """A RunConfig or a ConfigError; any other exception propagates."""
    try:
        return cli.build_config(config_args(path))
    except cli.ConfigError as exc:
        return exc


@FUZZ
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES, max_size=6))
def test_build_config_fuzz_values(tmp_path, entries):
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append("%s = %s" % (key, value))
    text = "".join(
        "[%s]\n%s\n" % (section, "\n".join(lines))
        for section, lines in sections.items()
    )
    path = tmp_path / "fuzz.ini"
    path.write_text(text, encoding="utf-8")
    assert isinstance(config_outcome(path), (cli.RunConfig, cli.ConfigError))


@FUZZ
@given(st.binary(max_size=80))
def test_build_config_fuzz_file_bytes(tmp_path, data):
    path = tmp_path / "fuzz.ini"
    path.write_bytes(b"[numeric]\n" + data)
    assert isinstance(config_outcome(path), (cli.RunConfig, cli.ConfigError))


def test_bad_flag_values_exit_2(capsys):
    assert cli.main(["spectrum", "--a", "0"]) == 2
    assert cli.main(["spectrum", "--a", "1/0"]) == 2
    assert cli.main(["spectrum", "--a", "about-one"]) == 2
    assert cli.main(["numeric", "--grid", "2"]) == 2
    assert cli.main(["spectrum", "--p-max", "-1"]) == 2
    for flag, value in (
        ("--cutoff", "nan"),
        ("--cutoff", "inf"),
        ("--cutoff", "-5"),
        ("--tol", "nan"),
        ("--tol", "-1"),
    ):
        assert cli.main(["numeric", flag, value]) == 2, (flag, value)
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["spectrum", "--format", "yaml"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("subcommand", ["spectrum", "compare", "all"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_huge_p_max_exits_2_at_once(tmp_path, subcommand, source):
    # 10**8 once died of a MemoryError; the cap refuses it before any
    # derivation, on one stderr line
    if source == "flag":
        extra = ["--p-max", "100000000"]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text("[spectrum]\np_max = 100000000\n")
        extra = ["--config", str(cfg)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cubicalg.cli", subcommand] + extra,
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "config error: p_max must be at most 100000, got 100000000\n"
    )
    assert elapsed < 1.0


def test_p_max_at_the_cap_is_accepted():
    args = config_args("/nonexistent")
    args.config = None
    args.p_max = cli.MAX_P_MAX
    assert cli.build_config(args).p_max == cli.MAX_P_MAX
    args.p_max = cli.MAX_P_MAX + 1
    with pytest.raises(cli.ConfigError, match="at most"):
        cli.build_config(args)


def test_missing_config_file_exits_2(capsys):
    assert cli.main(["spectrum", "--config", "/nonexistent/run.ini"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_rational_a_scales_energies(tmp_path):
    code, doc = run_json(
        ["spectrum", "--a", "1/2", "--p-max", "1"], tmp_path
    )
    assert code == 0
    samples = {fam["energy"]["numeric_at"]["p=0"]
               for fam in doc["families"]}
    # a = 1/2 multiplies every family energy by four
    assert 6.0 in samples and -4.0 in samples


@pytest.mark.parametrize("target", ["missing/x.json", ".", "file/x.json"],
                         ids=["missing-directory", "directory",
                              "file-as-directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, target):
    # a missing directory, a directory itself, or a file taken for a
    # directory: refused on one config-error line before any stage runs,
    # and nothing is created
    def no_stage(run):
        raise AssertionError("a stage ran before --out was checked")

    (tmp_path / "file").write_text("kept")
    for name in cli.RUNNERS:
        monkeypatch.setitem(cli.RUNNERS, name, no_stage)
    for subcommand in ("derive", "all"):
        assert cli.main([subcommand, "--out", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write output: ")
        assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_out_file_keeps_stdout_quiet(tmp_path, capsys):
    out = tmp_path / "quiet.json"
    code = cli.main(["verify-q5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["passed"] is True


@pytest.mark.parametrize("argv, name, expected", check_golden.CASES,
                         ids=[name for _, name, _ in check_golden.CASES])
def test_stdout_matches_golden(capsys, argv, name, expected):
    # the stdout bytes and exit code of every case of check_golden.py,
    # whose docstring says what each one pins
    assert cli.main(argv) == expected
    golden = check_golden.GOLDEN / name
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("p_max", [0, 1, 2])
def test_for_all_p_decision_does_not_depend_on_p_max(tmp_path, p_max):
    # the family with roots {0, p + 1, 2, 3} is unitary at p = 1 only; a
    # vote over the sampled p called it unitary for all p at p_max = 1,
    # and every family non-unitary at p_max = 0
    code, doc = run_json(["spectrum", "--p-max", str(p_max)], tmp_path)
    assert code == 0
    decided = {
        tuple(fam["phi"]["roots"]):
            (fam["unitary_for_all_p"], fam["exceptions"])
        for fam in doc["families"]
    }
    assert decided == {
        ("0", "p + 1", "-2", "1"): (False, []),
        ("0", "p + 1", "-1", "-3"): (True, []),
        ("0", "p + 1", "2", "3"): (False, [1]),
        ("0", "p + 1", "p + 2", "p - 1"): (False, []),
        ("0", "p + 1", "p", "p - 2"): (False, []),
        ("0", "p + 1", "p + 3", "p + 4"): (True, []),
    }
    assert all("undecided" not in fam for fam in doc["families"])
    assert all(len(fam["verdicts"]) == p_max for fam in doc["families"])


def test_spectrum_sweeps_do_not_grow_with_p_max(tmp_path, monkeypatch):
    # a decided family's verdicts are read off its for-all-p decision,
    # so the integer sign sweeps are those of the decision alone
    calls = []
    sweep = spectrum._sign_verdict

    def counted(form, p):
        calls.append(p)
        return sweep(form, p)

    monkeypatch.setattr(spectrum, "_sign_verdict", counted)
    counts = []
    for p_max in (50, 2000):
        calls.clear()
        code, doc = run_json(["spectrum", "--p-max", str(p_max)], tmp_path)
        assert code == 0
        assert all(len(fam["verdicts"]) == p_max for fam in doc["families"])
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_compare_sweeps_do_not_grow_with_p_max(tmp_path, monkeypatch):
    # the predictions ask for a verdict at every p; a decided family
    # answers each from its verdict table, so the integer sign sweeps
    # are those of the table alone
    calls = []
    sweep = spectrum._sign_verdict

    def counted(form, p):
        calls.append(p)
        return sweep(form, p)

    monkeypatch.setattr(spectrum, "_sign_verdict", counted)
    counts = []
    for p_max in (50, 2000):
        calls.clear()
        code, doc = run_json(["compare", "--p-max", str(p_max), "--grid",
                              "400", "--cutoff", "3.0"], tmp_path)
        assert code == 1
        assert doc["comparison"]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_all_builds_each_stage_once(monkeypatch, capsys):
    # the run object hands every stage of `all` the one Phi, the one
    # set of families and the one solve of the FD wells
    calls = Counter()
    for module, name in ((ladder, "derive_structure_function"),
                         (spectrum, "energy_families"),
                         (schrodinger, "q5_levels")):
        def counted(*args, _stage=getattr(module, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    # a fresh memo, so that this run derives Phi itself
    monkeypatch.setattr(spectrum, "q5_structure_function",
                        once(spectrum.q5_structure_function.__wrapped__))
    assert cli.main(["all", "--grid", "400", "--cutoff", "3.0"]) == 1
    assert json.loads(capsys.readouterr().out)["compare"]["comparison"]
    assert calls == {"derive_structure_function": 1, "energy_families": 1,
                     "q5_levels": 1}


def test_verify_q5_reports_the_identities_of_the_suite(monkeypatch, capsys):
    # weylop.suite proves [H,A], [H,B] and [H,[A,B]] zero; verify-q5
    # reports them without computing any commutator again
    weylop.suite()
    algebra.q5_algebra()

    def refused(*args):
        raise AssertionError("a commutator was computed again")

    monkeypatch.setattr(weylop, "comm", refused)
    assert cli.main(["verify-q5"]) == 0
    golden = check_golden.GOLDEN / "verify-q5.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_verify_q5_reports_a_failing_identity_in_one_line(monkeypatch,
                                                         capsys):
    # a suite whose first integral does not commute with H: verify-q5
    # says so on one stderr line and exits 1, with no traceback
    def nonzero(left, right):
        return weylop.DiffOp.from_scalar(left.table, 1)

    monkeypatch.setattr(weylop, "suite", once(weylop.suite.__wrapped__))
    monkeypatch.setattr(weylop, "comm", nonzero)
    assert cli.main(["verify-q5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verify-q5: NotConserved: first integral fails to commute\n"
    )


def test_undecided_family_is_reported_with_its_reason(tmp_path, monkeypatch):
    # a root of slope 2 in p is outside the decided class: the family
    # keeps its per-p verdicts but gets no verdict for all p
    table = algebra.master_table()
    lead = parse("-4*h^2", table)
    roots = tuple(parse(t, table) for t in ("0", "p + 1", "2*p + 3"))
    phi = NFunc.const(table, lead)
    for root in roots:
        phi = phi * (NFunc.nu(table) - root)
    zero = PolyFraction.const(table, 0)
    family = spectrum.Family(0, 0, zero, zero, phi, lead, roots, None)
    branch = spectrum.Branch(zero, 1)
    monkeypatch.setattr(spectrum, "energy_families",
                        lambda phi: ((branch,), (family,), ()))
    code, doc = run_json(["spectrum", "--p-max", "3"], tmp_path)
    assert code == 0
    [row] = doc["families"]
    assert row["verdicts"] == {"1": False, "2": False, "3": False}
    assert row["unitary_for_all_p"] is None and row["exceptions"] is None
    assert "2*p + 3" in row["undecided"]


def test_console_module_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "cubicalg.cli", "verify-q5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True


def test_all_computes_the_energy_families_once(monkeypatch, tmp_path):
    # spectrum, repcheck and compare read the families of one run
    calls = []
    families = spectrum.energy_families

    def counted(*args, **kwargs):
        calls.append(args)
        return families(*args, **kwargs)

    monkeypatch.setattr(spectrum, "energy_families", counted)
    code, _ = run_main(["all"], tmp_path)
    assert code == 1
    assert len(calls) == 1


def full_sweep_predictions(cfg):
    """Every unitary p up to p_max whose float energy is at most the
    cutoff: the predictions with no family cut short."""
    sf = spectrum.q5_structure_function()
    branches, families, _ = spectrum.energy_families(sf.phi)
    preds = []
    for fam in families:
        label = branches[fam.start].root.format()
        for p in range(cfg.p_max + 1):
            if spectrum.unitarity_verdict(fam, p).unitary:
                energy = cli._float_energy(fam.energy, cfg, p)
                if energy <= cfg.cutoff:
                    preds.append(("u=%s p=%d" % (label, p), energy))
    return preds


def cli_config(**flags):
    """The RunConfig of the q5 preset with these flags."""
    args = config_args(None)
    args.config = None
    vars(args).update(flags)
    return cli.build_config(args)


@pytest.mark.parametrize("flags", [
    dict(p_max=3000),
    dict(p_max=300, a="7"),
    dict(p_max=300, a="3/7"),
    dict(p_max=200, cutoff=40.0),
    dict(p_max=0),
])
def test_predictions_stop_rising_families_at_the_cutoff(monkeypatch, flags):
    cfg = cli_config(**flags)
    want = full_sweep_predictions(cfg)
    calls = []
    energy = cli._float_energy

    def counted(*args):
        calls.append(args)
        return energy(*args)

    monkeypatch.setattr(cli, "_float_energy", counted)
    got = cli._predictions(cli.Run(cfg))
    assert got == want
    # each rising family evaluates one energy past the last it keeps;
    # the falling ones are swept to p_max and keep every unitary p
    families = spectrum.energy_families(
        spectrum.q5_structure_function().phi)[1]
    assert len(calls) <= len(got) + len(families)


def test_only_an_energy_that_provably_rises_is_cut():
    table = algebra.master_table()
    cfg = cli_config(p_max=50)
    rising = [parse(text, table) for text in (
        "(1/2*h^2*p + h^2)/a^2", "7", "p^3 - 1", "h^2*p^2/a^2 + p")]
    not_rising = [parse(text, table) for text in (
        "-1/2*h^2*p/a^2", "p^2 - 10*p", "-p^3 + 100*p^2")]
    assert all(cli._rises_to_a_float(e, cfg) for e in rising)
    assert not any(cli._rises_to_a_float(e, cfg) for e in not_rising)
    # an energy that dips under the cutoff after passing it is swept on
    cfg = cli_config(p_max=12, cutoff=0.5)
    dip = parse("p^2 - 10*p + 10", table)
    values = [cli._float_energy(dip, cfg, p) for p in range(13)]
    assert values[0] > cfg.cutoff and min(values) < cfg.cutoff
    assert not cli._rises_to_a_float(dip, cfg)
    # a rising energy whose float overflows by p_max keeps the full sweep,
    # so the overflow is reported at the same p as before
    cfg = cli_config(p_max=1000, a="1e-153")
    assert not cli._rises_to_a_float(rising[0], cfg)
    cfg = cli_config(p_max=300, a="1e-153")
    assert cli._rises_to_a_float(rising[0], cfg)
