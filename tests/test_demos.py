"""Smoke test of the demo scripts: each runs to the end and prints its report.

demos/inverse_reconstruction.py is left out: it takes about 22 s, as much
as the rest of this module several times over.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["kgon_convergence", "optimal_center",
                                  "polygon_perimeters", "self_volume"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
