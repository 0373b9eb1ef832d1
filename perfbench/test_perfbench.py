"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import (PROBE_JOBS, PROBE_KIND, ROUND_JOBS, WORKLOADS, Job,  # noqa: E402
                       make_probe, make_round, run_rounds)

from selfmetric import alexandrov, cli, geometry  # noqa: E402
from selfmetric.shapeio import save_shape  # noqa: E402


def _cheapest_per_command(workload, tmp_path):
    """Round 0 of a workload cut down to its cheapest job class per command."""
    indir = str(tmp_path / "in")
    os.makedirs(indir)
    jobs = make_round(workload, 3, 0, indir)
    skip = ("icosphere", "ccs4", "cube5", "alexandrov/2048", "alexandrov/4096", "product")
    picked = {}
    for job in jobs:
        if not any(s in job.kind for s in skip):
            picked.setdefault(job.kind, job)
    return indir, list(picked.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_are_byte_identical(workload, tmp_path):
    indir, jobs = _cheapest_per_command(workload, tmp_path)
    plain = worker.run_jobs(cli, jobs, indir, str(tmp_path / "plain"))
    with Tracer() as tracer:
        traced = worker.run_jobs(cli, jobs, indir, str(tmp_path / "traced"), tracer)
    assert [r["exit"] for r in plain] == [0] * len(plain)
    assert [r["id"] for r in traced] == [r["id"] for r in plain]
    assert run.same_outputs(str(tmp_path / "plain"), str(tmp_path / "traced"))
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["cli.run.self_s"] > 0.0


def test_uninstall_restores_every_binding():
    from selfmetric import centers, selfvolume
    before = (geometry.PolytopeN.__init__, selfvolume.central_section, centers.minimize,
              alexandrov.fourier_eval, cli.run, geometry.RadiusProfile.__dict__["from_samples"])
    with Tracer():
        assert selfvolume.central_section is not before[1]
    after = (geometry.PolytopeN.__init__, selfvolume.central_section, centers.minimize,
             alexandrov.fourier_eval, cli.run, geometry.RadiusProfile.__dict__["from_samples"])
    assert after == before


def _section_counts(body, tmp_path):
    path = str(tmp_path / "body.json")
    save_shape(body, path)
    with Tracer() as tracer:
        code = cli.run(cli.RunConfig(command="volume", shape=path,
                                     out=str(tmp_path / "out.json")))
    assert code == 0
    return {d: tracer.counts[f"geometry.central_section.calls.d{d}"] for d in (2, 3, 4, 5)}


@pytest.mark.parametrize("body, want", [
    (lambda: geometry.cube(3), {2: 6, 3: 3, 4: 0, 5: 0}),
    (lambda: geometry.cube(5), {2: 120, 3: 60, 4: 20, 5: 5}),
    (lambda: geometry.icosphere(2), {2: 3420, 3: 160, 4: 0, 5: 0}),
])
def test_central_section_counts_per_depth(body, want, tmp_path):
    assert _section_counts(body(), tmp_path) == want


def test_isinstance_holds_while_traced():
    with Tracer():
        assert isinstance(geometry.cube(2), geometry.PolytopeN)


def test_reconstruct_fourier_counts():
    phi = alexandrov.FourierDensity.from_pairs([(4, 0.5, 0.0), (1, 0.2, 0.1), (3, 0.0, 0.15)],
                                               0.01)
    with Tracer() as tracer:
        alexandrov.reconstruct(phi, nodes=4096)
    m = tracer.layer_metrics()
    assert m["geometry.fourier_eval.calls"] == 13
    assert m["geometry.fourier_eval.terms"] == 68_214_784
    assert m["alexandrov.reconstruct.calls"] == 1
    assert 58 <= m["alexandrov.phi0_bisection_steps"] <= 61


def _listing(indir):
    return {name: open(os.path.join(indir, name), "rb").read() for name in os.listdir(indir)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_job_lists(workload, tmp_path):
    made = []
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        indir = tmp_path / tag
        indir.mkdir()
        jobs = make_round(workload, seed, 1, str(indir)) + make_probe(workload, seed, str(indir))
        made.append((jobs, _listing(str(indir))))
    assert made[0] == made[1]
    assert made[0][1] != made[2][1]
    probe = PROBE_JOBS if workload == "planar_batch" else 0
    assert len(made[0][0]) == ROUND_JOBS[workload] + probe


def test_corrupted_output_counts_as_failure(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    save_shape(geometry.cube(3), str(indir / "cube3.json"))
    jobs = [Job(f"r0-{i:02d}", "volume/cube3", {"command": "volume", "shape": "cube3.json"},
                {"volume": 8.0}) for i in range(4)]
    outdir = str(tmp_path / "out")
    records = worker.run_jobs(cli, jobs, str(indir), outdir)
    path = os.path.join(outdir, jobs[1].out_name)
    doc = json.load(open(path))
    doc["value"] = 8.5
    json.dump(doc, open(path, "w"))
    worker.check_outputs(jobs, records, str(indir), outdir, golden=None)
    assert [bool(r["problems"]) for r in records] == [False, True, False, False]
    res = {"records": records, "probe_records": [], "peak_rss_mb": 1.0,
           "calibration_s": [[0.0, run.CAL_REF_S]] * 5}
    assert run.end_to_end(res, [0.5], run.normalised_latencies(res))["success_rate"] == 0.75


CONVERGENCE = '{"error": {"type": "convergence", "message": "no convergence in 10000 iterations"}}'


def test_convergence_error_of_probe_is_unconverged_not_failed(tmp_path):
    job = Job("probe-00", PROBE_KIND, {"command": "center", "shape": "p.json", "restarts": 5})
    assert oracle.check(job, 1, CONVERGENCE, "", str(tmp_path)) == ([], CONVERGENCE)
    assert oracle.check(job, 1, CONVERGENCE, "", str(tmp_path),
                        {"probe-00": oracle.UNCONVERGED}) == ([], CONVERGENCE)
    # converged on the golden commit, so a ConvergenceError now is a failure
    problems, _ = oracle.check(job, 1, CONVERGENCE, "", str(tmp_path), {"probe-00": [9.0]})
    assert problems
    # any other error is a failure, and so is a timed center job that stops
    problems, unconverged = oracle.check(job, 1, '{"error": {"type": "geometry"}}', "",
                                         str(tmp_path))
    assert problems and not unconverged
    timed = Job("r0-00", "center/affine-regular", job.config, {"kgon": 3})
    problems, unconverged = oracle.check(timed, 1, CONVERGENCE, "", str(tmp_path))
    assert problems and not unconverged
    records = [{"id": "r0-00", "problems": [], "unconverged": None, "latency_s": 1.0}]
    probe = [{"id": "probe-00", "problems": [], "unconverged": CONVERGENCE, "latency_s": 5.0}]
    res = {"records": records, "probe_records": probe, "peak_rss_mb": 1.0}
    assert run.end_to_end(res, [0.5], [1.0])["success_rate"] == 0.5


def test_golden_seed_job_without_entry_fails(tmp_path):
    job = Job("r9-00", "kgon-table", {"command": "kgon-table", "k_max": 5})
    problems, _ = oracle.check(job, 0, "", "", str(tmp_path), {"r0-00": [1.0]})
    assert problems == ["golden: no entry for r9-00"]


def _doc(value, last):
    return {"value": value, "facets": [{"x": 1.0 + i} for i in range(19)] + [{"x": last}]}


def test_golden_bound_is_relative_1e12():
    want = oracle.digest(_doc(8.0, 20.0))
    assert oracle.digest_mismatch(oracle.digest(_doc(8.0 * (1 + 1e-14), 20.0)), want) is None
    assert oracle.digest_mismatch(oracle.digest(_doc(8.0 * (1 + 1e-10), 20.0)), want)
    assert oracle.digest_mismatch(oracle.digest(_doc(8.0, 20.0 * (1 + 1e-9))), want)
    short = oracle.digest({"value": 8.0})
    assert oracle.digest_mismatch(oracle.digest({"value": 8.0 + 1e-10}), short)


def test_golden_covers_the_job_lists_of_default_seeds(tmp_path):
    golden = json.load(open(os.path.join(HERE, "golden.json")))
    seconds = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))["run_seconds"]
    for workload in WORKLOADS:
        assert sorted(golden[workload], key=int) == [str(s) for s in range(10)]
        rounds = run_rounds(workload, seconds)
        want = {f"r{r}-{i:02d}" for r in range(rounds) for i in range(ROUND_JOBS[workload])}
        want |= {job.id for job in make_probe(workload, 0, str(tmp_path))}
        for seed in range(10):
            assert set(golden[workload][str(seed)]) == want


def test_no_sources_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "planar_batch", "--seed", "1", "--seconds", "1"]) != 0


def test_center_closed_form_matches_library():
    from selfmetric.centers import optimal_center_2d
    from selfmetric.geometry import regular_polygon
    for k in (5, 7):
        poly = regular_polygon(k)
        got = optimal_center_2d(poly, "busemann").value
        assert got == pytest.approx(oracle._kgon_optimum(k, "busemann"), rel=1e-8)
    assert oracle._kgon_optimum(3, "directed") == pytest.approx(9.0, rel=1e-15)
    assert np.isclose(oracle._kgon_optimum(6, "busemann"), 6.0)
