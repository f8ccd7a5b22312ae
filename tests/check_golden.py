"""Byte-compare ten CLI outputs with their goldens, standard library only.

Runs `derive --format csv`, `spectrum --p-max 50`, `numeric --grid 500`,
`numeric` (its default grid, 2000), `repcheck`, `repcheck --a 7`,
`repcheck --a 2/3`, `repcheck --a 1e-14`, `verify-q5` and
`compare --grid 500` through cli.main and compares their stdout and exit
code with tests/golden/derive.csv, tests/golden/spectrum.json,
tests/golden/numeric.json, tests/golden/numeric-2000.json,
tests/golden/repcheck.json, tests/golden/repcheck-a7.json,
tests/golden/repcheck-a23.json, tests/golden/repcheck-a1e-14.json,
tests/golden/verify-q5.json and tests/golden/compare.json.  The two
numeric cases pin the finite-difference levels float for float, on
matrices of 500 to 8001 rows.  repcheck pins the exact modules and their
float gauges, which read the coefficients of the exact kernel; at a = 7
the module entries have denominators from 49 to 7^6, so the exact
residuals are pinned where the arithmetic is not integral; at a = 2/3,
below 1, the float gauge rescales A, B and C over dens from 2 to 8, where
at a = 1 only A has a den above 1; at a = 1e-14, the smallest power of
ten the float gauge takes, most gauge residuals lie between 1e+96 and
1e+101, so the case exits 1 with the float path near the top of its
range.  verify-q5 pins the text of
all nine structure constants and of k; compare pins the per-p unitarity
verdicts behind the predicted ladder and exits 1, because the
criterion-10 gap between that ladder and the confined levels is
reported.  It needs no test dependency, so it can run on any supported
Python:

    PYTHONPATH=src python tests/check_golden.py

Exits 1 when an output or an exit code differs from its golden.
"""

import contextlib
import io
import sys
from pathlib import Path

from cubicalg import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# (argv, golden file, expected exit code)
CASES = (
    (["derive", "--format", "csv"], "derive.csv", 0),
    (["spectrum", "--p-max", "50"], "spectrum.json", 0),
    (["numeric", "--grid", "500"], "numeric.json", 0),
    (["numeric"], "numeric-2000.json", 0),
    (["repcheck"], "repcheck.json", 0),
    (["repcheck", "--a", "7"], "repcheck-a7.json", 0),
    (["repcheck", "--a", "2/3"], "repcheck-a23.json", 0),
    (["repcheck", "--a", "1e-14"], "repcheck-a1e-14.json", 1),
    (["verify-q5"], "verify-q5.json", 0),
    (["compare", "--grid", "500"], "compare.json", 1),
)


def main():
    failed = 0
    for argv, name, expected in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        same = (code == expected
                and out.getvalue().encode() == (GOLDEN / name).read_bytes())
        print("%s %s: %s" % (" ".join(argv), name, "ok" if same else "DIFFERS"))
        failed += not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
