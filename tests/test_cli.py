"""Command-line interface: exit codes, schemas, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubicalg import cli

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


def test_out_file_keeps_stdout_quiet(tmp_path, capsys):
    out = tmp_path / "quiet.json"
    code = cli.main(["verify-q5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["passed"] is True


def test_derive_csv_matches_golden(tmp_path):
    # derive emits only exact rational text, so the stored golden is
    # stable across platforms and Python versions
    code, out = run_main(["derive", "--format", "csv"], tmp_path)
    assert code == 0
    golden = Path(__file__).resolve().parent / "golden" / "derive.csv"
    assert out.read_bytes() == golden.read_bytes()


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
