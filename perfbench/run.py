"""selfmetric benchmark: closed-loop CLI job workloads, end to end or traced.

    python3 perfbench/run.py --workload polytope_recursion --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src. Each
workload is a single client issuing seeded `selfmetric` subcommands one
after another through selfmetric.cli.run (see workloads.py for the mix and
why each workload was chosen). A run is a fixed job list, sized by
workloads.run_rounds to take about --seconds at the parent commit.

--trace 0 reports the end-to-end metrics of an untraced run:
  setup_s       median over SETUP_STARTS fresh interpreters of start, import
                selfmetric.cli and input generation
  jobs_per_s    jobs completed per second of job time
  job_p50_s     median job latency
  job_p90_s     90th percentile job latency (at least 100 jobs per run)
  peak_rss_mb   peak resident memory of the workload process
  success_rate  share of jobs, the untimed convergence probe's included,
                that exited 0, passed the output checks and, in the probe,
                reached the minimum
--trace 1 runs the first half of that job list untraced and then traced,
checks that both write byte-identical outputs, and reports the per-layer
metrics of tracing.LAYER_METRICS plus trace.overhead_ratio. Its counts
repeat exactly for a seed.

Job times are reported at a reference host speed. Shared machines swing in
speed by tens of percent within seconds, for every process alike, so the
workload process runs a fixed calibration task that does not use
selfmetric (worker.calibrate) before each job and after the last, and each
job time t is reported as t * CAL_REF_S / c, with c the mean of the
calibration times just before and just after the job. CAL_REF_S is the
median calibration time recorded in STEADINESS.json, so reported times are
close to wall-clock times on that host. setup_s is plain wall-clock time. The
wall-clock job metrics are printed too and kept in the full record.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. The full record (environment stamp, every job's
latency, the calibration samples, failures) goes to .perfbench_results/ and
the spans of a traced run next to it. Exits nonzero without a result when
the sources are missing or a process fails.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import WORKER_BLAS_THREADS  # noqa: E402
from workloads import WORKLOADS, run_rounds  # noqa: E402

SETUP_STARTS = 3        # fresh interpreters timed per run for setup_s
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 75      # per workload process; a traced run starts two
CAL_REF_S = 0.003       # median worker.calibrate() time in STEADINESS.json, rounded

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s",
                    "peak_rss_mb": "MB", "success_rate": "ratio"}


class BenchError(RuntimeError):
    pass


def _worker(args, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    env = dict(os.environ)
    env.pop("SELFMETRIC_THREADS", None)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout} s: {' '.join(args[:3])}")
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed


def _run_workload(work, name, workload, seed, rounds, trace=False):
    d = os.path.join(work, name)
    args = ["run", "--workload", workload, "--seed", str(seed), "--dir", d,
            "--rounds", str(rounds), "--result", d + ".json"]
    if trace:
        args.append("--trace")
    _worker(args, RUN_TIMEOUT_S)
    with open(d + ".json") as fh:
        return json.load(fh)


def _percentile(sorted_xs, q):
    # linear interpolation between closest ranks
    pos = q * (len(sorted_xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def _all_records(res):
    return res["records"] + res["probe_records"]


def _failed(res):
    return {r["id"] for r in _all_records(res) if r["problems"]}


def _unconverged(res):
    return [r for r in _all_records(res) if r["unconverged"] and not r["problems"]]


def normalised_latencies(res):
    """Job latencies at the reference speed: each scaled by CAL_REF_S over the
    mean of the calibrations just before and just after the job."""
    cal = [d for _, d in res["calibration_s"]]
    return [r["latency_s"] * CAL_REF_S / (0.5 * (cal[i] + cal[i + 1]))
            for i, r in enumerate(res["records"])]


def end_to_end(res, setup_times, latencies):
    lat = sorted(latencies)
    n = len(_all_records(res))
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": len(lat) / math.fsum(lat),
        "job_p50_s": _percentile(lat, 0.5),
        "job_p90_s": _percentile(lat, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
        "success_rate": (n - len(_failed(res)) - len(_unconverged(res))) / n,
    }


def same_outputs(dir_a, dir_b):
    """True when two output directories hold the same files, byte for byte."""
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    return not mismatch and not errors


def environment(workload, seed, seconds, trace, worker_env):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = os.path.join(ROOT, "src", "selfmetric")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads_env": {v: os.environ.get(v, "unset") for v in WORKER_BLAS_THREADS},
        "blas_threads_workers": WORKER_BLAS_THREADS,
        "selfmetric_threads": ("unset" if "SELFMETRIC_THREADS" not in os.environ else
                               f"removed for workers (was {os.environ['SELFMETRIC_THREADS']!r})"),
        **worker_env,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "selfmetric", "cli.py")):
        print(f"no selfmetric sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    results = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(results, exist_ok=True)
    try:
        record = _measure(args, work, results, tag)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    width = max(len(k) for k in record["metrics"]) + len(" (wall clock)")
    print(json.dumps({"env": record["env"]}))
    for name, m in record["metrics"].items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    for name, value in record.get("wall_clock", {}).items():
        print(f"{name + ' (wall clock)':<{width}}  {value:.6g} {END_TO_END_UNITS[name]}")
    for rec in record["failures"][:10]:
        print(f"FAILED {rec['id']} {rec['kind']}: {'; '.join(rec['problems'])}")
    for rec in record["unconverged"]:
        print(f"UNCONVERGED {rec['id']} {rec['kind']}: {rec['unconverged']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _measure(args, work, results, tag):
    os.makedirs(work)
    rounds = run_rounds(args.workload, args.seconds)
    if args.trace == 0:
        setup = [_worker(["setup", "--workload", args.workload, "--seed", str(args.seed),
                          "--dir", os.path.join(work, f"setup{i}"), "--rounds", str(rounds)],
                         SETUP_TIMEOUT_S)
                 for i in range(SETUP_STARTS)]
        res = _run_workload(work, "plain", args.workload, args.seed, rounds)
        values = end_to_end(res, setup, normalised_latencies(res))
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        runs, identical = [res], True
        wall = end_to_end(res, setup, [r["latency_s"] for r in res["records"]])
        extra = {"wall_clock": {k: wall[k] for k in ("jobs_per_s", "job_p50_s", "job_p90_s")},
                 "setup_times_s": setup}
    else:
        from tracing import LAYER_METRICS
        # the first half of the job list untraced, then traced
        rounds = run_rounds(args.workload, args.seconds / 2)
        plain = _run_workload(work, "plain", args.workload, args.seed, rounds)
        traced = _run_workload(work, "traced", args.workload, args.seed, rounds, trace=True)
        identical = same_outputs(os.path.join(work, "plain", "out"),
                                 os.path.join(work, "traced", "out"))
        plain_s = math.fsum(normalised_latencies(plain))
        traced_s = math.fsum(normalised_latencies(traced))
        # layer times scale like the traced run's job times
        speed = traced_s / traced["busy_s"]
        layers = {k: v * speed if LAYER_METRICS[k] == "s" else v
                  for k, v in traced["layers"].items()}
        layers["trace.overhead_ratio"] = traced_s / plain_s - 1.0
        units = dict(LAYER_METRICS, **{"trace.overhead_ratio": "ratio"})
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        shutil.move(traced["spans"], os.path.join(results, f"{tag}-spans.npz"))
        runs, res = [plain, traced], traced
        extra = {"untraced_busy_s": plain["busy_s"], "traced_busy_s": traced["busy_s"],
                 "wall_clock_layers": traced["layers"], "outputs_identical": identical}
    failures = [r for run in runs for r in _all_records(run) if r["problems"]]
    failed = len(set().union(*(_failed(run) for run in runs)))
    record = {
        "correct": failed == 0 and identical,
        "attempted": len(_all_records(res)),
        "failed": failed,
        "metrics": metrics,
        "env": environment(args.workload, args.seed, args.seconds, args.trace, res["env"]),
        "rounds": res["rounds"],
        "calibration_s": res["calibration_s"],
        "jobs": [[r["id"], r["kind"], r["start_s"], r["latency_s"]] for r in res["records"]],
        "probe_jobs": [[r["id"], r["kind"], r["latency_s"], r["unconverged"]]
                       for r in res["probe_records"]],
        "failures": failures,
        "unconverged": _unconverged(res),
        **extra,
    }
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


if __name__ == "__main__":
    sys.exit(main())
