"""tools/output_sweep.py: the per-number deviations it prints for a differing output."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def output_sweep(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))   # _deviation reads its oracle
    spec = importlib.util.spec_from_file_location(
        "output_sweep", os.path.join(ROOT, "tools", "output_sweep.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(tmp_path, header, base_rows, this_rows):
    paths = []
    for side, rows in (("base", base_rows), ("this", this_rows)):
        path = tmp_path / f"{side}.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        paths.append(str(path))
    return paths


def test_a_rounding_residue_reads_below_one(output_sweep, tmp_path):
    # an invariance-check CSV's rel_deviation is itself a residue: 0 against 3.3e-16
    # read 1.5e292 over the least normal float
    base, this = _pair(tmp_path, "trial,value,rel_deviation",
                       ["0,8.0,0.0", "1,8.0,0.0"],
                       ["0,8.0,0.0", "1,8.000000000000002,2.220446049250313e-16"])
    assert 0.0 < output_sweep._deviation(base, this) < 1.0


def test_a_center_value_reads_its_own_relative_move(output_sweep, tmp_path):
    # the seed, 7.9e8, must not hide the value's move of 5e-14 relative
    value = 6.6
    moved = value * (1.0 + 5e-14)
    base, this = _pair(tmp_path, "seed,optimum_x,optimum_y,value,iterations",
                       [f"790000000,0.25,-0.5,{value!r},41"],
                       [f"790000000,0.25,-0.5,{moved!r},41"])
    assert output_sweep._deviation(base, this) == pytest.approx(5e-14, rel=1e-3)


def test_a_move_in_a_solver_path_column_reads_in_the_every_number_figure(output_sweep, tmp_path):
    # the oracle skips optimum_x, optimum_y and iterations, so the result-column
    # figure reads 0.0 where only the optimum moved
    x = 0.25000034543303795
    moved = x * (1.0 + 9.3e-14)
    base, this = _pair(tmp_path, "seed,optimum_x,optimum_y,value,iterations",
                       [f"11,{x!r},-0.5,6.6,26"], [f"11,{moved!r},-0.5,6.6,26"])
    assert output_sweep._deviation(base, this) == 0.0
    assert output_sweep._deviation(base, this, output_sweep._every_number) == pytest.approx(
        9.3e-14, rel=1e-3)


def test_center_iterations_sum_the_iterations_column_of_center_csvs(output_sweep, tmp_path):
    # other CSVs, such as a `perimeter` one, and JSON outputs do not count
    (tmp_path / "r0-00.csv").write_text("seed,optimum_x,optimum_y,value,iterations\n"
                                        "11,0.25,-0.5,6.6,26\n12,0.25,-0.5,6.6,37\n")
    (tmp_path / "probe-00.csv").write_text("seed,optimum_x,optimum_y,value,iterations\n"
                                           "7,1.0,2.0,6.9,4\n")
    (tmp_path / "r0-01.csv").write_text("variant,center_x,center_y,value\ndirected,0,0,8\n")
    (tmp_path / "r0-02.json").write_text('{"iterations": 100}')
    assert output_sweep._center_iterations(str(tmp_path)) == 67
