"""One benchmark process: set-up, then a closed loop of CLI jobs.

    python3 perfbench/worker.py setup --workload W --seed S --dir D --rounds N
    python3 perfbench/worker.py run --workload W --seed S --dir D --rounds N
                                    [--trace] --result R

`setup` imports selfmetric.cli and writes the inputs of N rounds and of the
convergence probe (what a fresh batch script pays before its first job),
then exits. `run` does the same set-up and then issues the jobs of the N
rounds one after another through selfmetric.cli.run, a single client
waiting for each job, then the probe jobs, untimed. It checks every output
and writes a JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

# One BLAS thread per worker, set before numpy loads: on two shared vCPUs a
# second OpenBLAS thread made reconstruct at 4096 nodes 2x slower (7 s
# against 3.3 s) and its time swing with the load on the other vCPU.
WORKER_BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_cli():
    """Import selfmetric.cli from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "selfmetric", "cli.py")):
        raise SystemExit(f"no selfmetric sources under {SRC}")
    sys.path.insert(0, SRC)
    from selfmetric import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"selfmetric was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed, indir, rounds):
    """Import the CLI and write every input; returns (cli, timed jobs, probe jobs)."""
    cli = import_cli()
    from workloads import make_probe, make_round
    os.makedirs(indir, exist_ok=True)
    jobs = [job for r in range(rounds) for job in make_round(workload, seed, r, indir)]
    return cli, jobs, make_probe(workload, seed, indir)


def warm_up(cli, workload, seed, workdir):
    """Run one job of each class from a separate round, untimed.

    The first large numpy temporaries of a process are fresh mmaps that
    page-fault on every use, until glibc raises its mmap threshold; without
    this the first round of smooth_inverse ran 1.5-2x slower than the rest.
    """
    from workloads import WARMUP_ROUND, make_round
    indir, outdir = os.path.join(workdir, "in"), os.path.join(workdir, "out")
    os.makedirs(indir)
    os.makedirs(outdir)
    seen = set()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        for job in make_round(workload, seed, WARMUP_ROUND, indir):
            if job.kind not in seen:
                seen.add(job.kind)
                cli.run(_config(cli, job, indir, outdir))


def _config(cli, job, indir, outdir):
    kw = dict(job.config)
    for key in ("shape", "phi"):
        if key in kw:
            kw[key] = os.path.join(indir, kw[key])
    kw["out"] = os.path.join(outdir, job.out_name)
    return cli.RunConfig(**kw)


def calibrate():
    """Seconds taken by a fixed task that does not use selfmetric.

    It tracks the host's speed, which on shared machines swings by tens of
    percent within seconds. Run between jobs, it followed a repeated centre
    solve with correlation 0.95 (medians of nine neighbouring samples), and
    dividing by it cut the solve's interquartile spread from 0.48 to 0.09.
    """
    import numpy as np
    small = np.linspace(0.0, 1.0, 16)
    v = np.linspace(0.0, 1.0, 4096)
    big = np.linspace(0.0, 1.0, 1 << 14)
    t0 = time.perf_counter()
    s = 0
    for i in range(10000):
        s += i * i
    for _ in range(200):
        small = np.sqrt(small * small + 1.0) - 1.0
    for _ in range(4):
        np.exp(1j * v).sum()
    np.exp(1j * big).sum()
    return time.perf_counter() - t0


def run_jobs(cli, jobs, indir, outdir, tracer=None, calibration=None):
    """Closed loop: one job after another; returns one record per job."""
    os.makedirs(outdir, exist_ok=True)
    records = []
    begin = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for job in jobs:
            if calibration is not None:   # the host's speed between jobs
                calibration.append([time.perf_counter() - begin, calibrate()])
            cfg = _config(cli, job, indir, outdir)
            err = io.StringIO()
            if tracer is not None:
                tracer.begin_job(job.id)
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = cli.run(cfg)
                t1 = time.perf_counter()
            records.append({"id": job.id, "kind": job.kind, "start_s": t0 - begin,
                            "latency_s": t1 - t0, "exit": code,
                            "stderr": err.getvalue()[:500]})
        if calibration is not None:
            calibration.append([time.perf_counter() - begin, calibrate()])
    return records


def library_env():
    """Versions and BLAS build of the interpreter that ran the jobs."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def load_golden(workload, seed):
    path = os.path.join(HERE, "golden.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_outputs(jobs, records, indir, outdir, golden):
    """Mark each record with its problems (empty when correct) and, for a probe
    job whose optimiser missed the minimum, the reason (oracle.check)."""
    import oracle
    by_id = {job.id: job for job in jobs}
    for rec in records:
        rec["problems"], rec["unconverged"] = oracle.check(
            by_id[rec["id"]], rec["exit"], rec["stderr"], indir, outdir, golden)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--result")
    args = ap.parse_args(argv)
    os.environ.update(WORKER_BLAS_THREADS)
    sys.path.insert(0, HERE)
    indir = os.path.join(args.dir, "in")
    cli, jobs, probe = setup(args.workload, args.seed, indir, args.rounds)
    if args.mode == "setup":
        return 0

    warm_up(cli, args.workload, args.seed, os.path.join(args.dir, "warm"))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    outdir = os.path.join(args.dir, "out")
    calibration = []
    try:
        records = run_jobs(cli, jobs, indir, outdir, tracer, calibration)
        probed = run_jobs(cli, probe, indir, outdir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    golden = load_golden(args.workload, args.seed)
    check_outputs(jobs + probe, records + probed, indir, outdir, golden)
    result = {"records": records, "probe_records": probed, "rounds": args.rounds,
              "peak_rss_mb": peak_rss_mb, "busy_s": math.fsum(r["latency_s"] for r in records),
              "env": library_env(), "calibration_s": calibration}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        spans = os.path.join(args.dir, "spans.npz")
        tracer.save(spans)
        result["spans"] = spans
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
