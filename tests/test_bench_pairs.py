"""tools/bench_pairs.py: the run order of its sides and the A/A block of a cell."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_sides_alternate_and_three_rotate(bench_pairs):
    two, three = ["parent", "change"], ["parent", "change", "aa"]
    assert [bench_pairs._order(k, two) for k in range(3)] == [
        ["parent", "change"], ["change", "parent"], ["parent", "change"]]
    orders = [bench_pairs._order(k, three) for k in range(6)]
    assert orders[:3] == [["parent", "change", "aa"], ["change", "aa", "parent"],
                          ["aa", "parent", "change"]]
    assert orders[3:] == orders[:3]
    # over three seeds each side runs first, second and third once
    for side in three:
        assert sorted(order.index(side) for order in orders[:3]) == [0, 1, 2]


def test_aa_runs_rotate_seed_by_seed_and_score_the_second_base(bench_pairs, monkeypatch):
    calls = []
    speed = {"/base": 1.0, "/change": 0.5, "/base2": 1.1}

    def run(root, workload, seed, seconds):
        calls.append((root, seed))
        value = speed[root] * (1.0 + 0.01 * seed)
        return ({"correct": True, "attempted": 10, "failed": 0,
                 "metrics": {"job_p50_s": {"value": value}, "jobs_per_s": {"value": 1 / value}}},
                {"src_sha256": root}, 0.0)

    monkeypatch.setattr(bench_pairs, "_run", run)
    bench = {"run_seconds": 1,
             "end_to_end": [{"name": "job_p50_s", "better": "lower", "bound": 0.24}]}
    out, envs = bench_pairs.pairs("/base", "/change", ["planar_batch"], [0, 1, 2, 3], bench,
                                  aa="/base2")
    assert calls == [("/base", 0), ("/change", 0), ("/base2", 0),
                     ("/change", 1), ("/base2", 1), ("/base", 1),
                     ("/base2", 2), ("/base", 2), ("/change", 2),
                     ("/base", 3), ("/change", 3), ("/base2", 3)]
    assert out["planar_batch"]["first_side"] == ["parent", "change", "aa", "parent"]
    assert sorted(envs) == ["aa", "change", "parent"]
    cell = out["planar_batch"]["metrics"]["job_p50_s"]
    assert cell["ratio_change_over_parent"] == 0.5
    assert cell["change_better_in_pairs"] == "4/4"
    assert cell["aa"]["ratio_second_parent_over_parent"] == 1.1
    assert cell["aa"]["second_parent_better_in_pairs"] == "0/4"
    assert cell["aa"]["second_parent_interquartile_distance"] == pytest.approx(
        1.1 * 0.015, abs=1e-6)
    # without a second base the cell has no aa block and two sides alternate
    calls.clear()
    out, _ = bench_pairs.pairs("/base", "/change", ["planar_batch"], [0, 1], bench)
    assert calls == [("/base", 0), ("/change", 0), ("/change", 1), ("/base", 1)]
    assert "aa" not in out["planar_batch"]["metrics"]["job_p50_s"]
