"""Every script under demos/ runs to the end in process."""

import pathlib
import runpy

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_every_demo_runs(capsys):
    paths = sorted(DEMOS.glob("*.py"))
    assert len(paths) == 6
    for path in paths:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out.strip(), path.name
