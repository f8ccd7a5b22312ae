"""Byte-compare five CLI outputs with their goldens, standard library only.

Runs `derive --format csv`, `spectrum --p-max 50`, `numeric --grid 500`,
`repcheck` and `verify-q5` through cli.main and compares their stdout
with tests/golden/derive.csv, tests/golden/spectrum.json,
tests/golden/numeric.json, tests/golden/repcheck.json and
tests/golden/verify-q5.json.  repcheck pins the exact modules and their
float gauges, which read the coefficients of the exact kernel; verify-q5
pins the text of all nine structure constants and of k.  It needs no test dependency, so it can run on any
supported Python:

    PYTHONPATH=src python tests/check_golden.py

Exits 1 when an output differs from its golden.
"""

import contextlib
import io
import sys
from pathlib import Path

from cubicalg import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = (
    (["derive", "--format", "csv"], "derive.csv"),
    (["spectrum", "--p-max", "50"], "spectrum.json"),
    (["numeric", "--grid", "500"], "numeric.json"),
    (["repcheck"], "repcheck.json"),
    (["verify-q5"], "verify-q5.json"),
)


def main():
    failed = 0
    for argv, name in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        same = code == 0 and out.getvalue().encode() == (GOLDEN / name).read_bytes()
        print("%s %s: %s" % (" ".join(argv), name, "ok" if same else "DIFFERS"))
        failed += not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
