"""Regenerate golden.json: output digests of the default seeds.

    python3 perfbench/make_golden.py

For each workload and each of GOLDEN_SEEDS, runs the whole fixed job list of
a run of BENCHMARK.json's run_seconds, and the convergence probe, untimed;
checks the jobs against the closed forms; and stores oracle.digest of every
output (oracle.UNCONVERGED for a probe job that stopped on ConvergenceError).
A traced run's job list is a prefix of it. Regenerate only when a change is
meant to alter results, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402

os.environ.update(worker.WORKER_BLAS_THREADS)   # as in the timed runs, before numpy loads

import oracle  # noqa: E402
from workloads import WORKLOADS, run_rounds  # noqa: E402

GOLDEN_SEEDS = range(10)
PROCESSES = 2   # the host's vCPUs; the digests do not depend on timing


def digests(workload, seed, rounds):
    work = os.path.join(worker.ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=work)
    try:
        indir, outdir = os.path.join(scratch, "in"), os.path.join(scratch, "out")
        cli, jobs, probe = worker.setup(workload, seed, indir, rounds)
        jobs += probe
        records = worker.run_jobs(cli, jobs, indir, outdir)
        worker.check_outputs(jobs, records, indir, outdir, golden=None)
        bad = [(r["id"], r["problems"]) for r in records if r["problems"]]
        if bad:
            raise RuntimeError(f"{workload} seed {seed}: failing jobs {bad}")
        return {rec["id"]: oracle.UNCONVERGED if rec["exit"] else
                oracle.digest(oracle.read_output(os.path.join(outdir, job.out_name)))
                for job, rec in zip(jobs, records)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    tasks = [(w, seed, run_rounds(w, seconds)) for w in WORKLOADS for seed in GOLDEN_SEEDS]
    golden = {w: {} for w in WORKLOADS}
    with ProcessPoolExecutor(PROCESSES) as pool:
        for (w, seed, rounds), entries in zip(tasks, pool.map(digests, *zip(*tasks))):
            golden[w][str(seed)] = entries
            errors = sum(e == oracle.UNCONVERGED for e in entries.values())
            print(w, seed, rounds, "rounds", len(entries), "jobs", errors,
                  "ConvergenceErrors", flush=True)
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
