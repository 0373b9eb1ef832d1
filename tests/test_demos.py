"""Smoke test of the demo scripts: each runs to the end and prints its report."""

import pathlib
import runpy
import shutil

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["inverse_reconstruction", "kgon_convergence",
                                  "optimal_center", "polygon_perimeters", "self_volume"])
def test_demo_runs(name, capsys, tmp_path):
    # run a copy, so that a demo writing next to itself writes into tmp_path
    script = tmp_path / f"{name}.py"
    shutil.copy(DEMOS / script.name, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
