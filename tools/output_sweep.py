"""Byte-identity sweep: every benchmark job of two checkouts, output for output.

    python3 tools/output_sweep.py --base OTHER_CHECKOUT [--seeds 0-9]
        [--workloads polytope_recursion,smooth_inverse,planar_batch] [--work DIR]

For each workload and seed, each checkout writes the inputs of a
`perfbench/run.py --seconds <run_seconds>` job list plus the convergence
probe with its own perfbench code, then runs every job once through its own
`selfmetric.cli.run`, untimed, with paths relative to a fresh directory. The
sweep compares the input and output files byte for byte, and the exit code
and full stderr job by job, and it reports the jobs that fail this
checkout's output checks (golden digests included). For each differing
CSV or JSON output it also prints the largest relative difference of its
numbers, read as perfbench/oracle.py reads them, each number against its own
base value floored at 2^-52 times the base file's largest magnitude (null
where the other side lacks the file or the counts of numbers differ), and the
same figure over every number of the file: the oracle skips the solver-path
columns (optimum_x, optimum_y, iterations), so a `center` CSV whose only move
is in its optimum reads 0.0 by the first figure. It also prints each side's
summed `iterations` column over the `center` CSVs of the job list. It exits 1
on any difference or failed check.
"""

import argparse
import contextlib
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dump(root, workload, seed):
    """Run one job list in the current directory; print its records as JSON."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import worker
    from workloads import run_rounds
    os.environ.update(worker.WORKER_BLAS_THREADS)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    cli, jobs, probe = worker.setup(workload, seed, "in", run_rounds(workload, seconds))
    os.makedirs("out")
    records = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for job in jobs + probe:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.run(worker._config(cli, job, "in", "out"))
            records.append({"id": job.id, "exit": code, "stderr": err.getvalue()})
    worker.check_outputs(jobs + probe, records, "in", "out",
                         worker.load_golden(workload, seed))
    json.dump(records, sys.stdout)


def _differences(a, b, rel=""):
    """Paths under a and b, relative, whose bytes or presence differ."""
    cmp = filecmp.dircmp(a, b)
    found = [os.path.join(rel, n) for n in cmp.left_only + cmp.right_only + cmp.common_funny]
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    found += [os.path.join(rel, n) for n in mismatch + errors]
    for sub in cmp.common_dirs:
        found += _differences(os.path.join(a, sub), os.path.join(b, sub), os.path.join(rel, sub))
    return found


def _every_number(doc, out):
    """Every number of a parsed output, in oracle._numbers's order, solver-path
    columns included."""
    if isinstance(doc, (dict, list)):
        for v in doc.values() if isinstance(doc, dict) else doc:
            _every_number(v, out)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out.append(float(doc))
    return out


def _deviation(base_path, this_path, numbers=None):
    """Largest |x - y| / |y| over the numbers of two outputs, y the base's, with |y|
    floored at 2^-52 times the base's largest magnitude (and at the least normal
    float); None when either is missing or not CSV or JSON, or their counts of
    numbers differ. The floor reads a rounding residue, such as an
    `invariance-check` CSV's rel_deviation of 0 against 3.3e-16, as at most a few
    units; over the largest magnitude itself, a `center` CSV's seed, up to 7.9e8,
    would hide its other columns' moves. numbers(doc, out) reads a parsed output's
    numbers, oracle._numbers by default."""
    import oracle
    numbers = numbers or oracle._numbers
    if not (base_path.endswith((".csv", ".json")) and os.path.isfile(base_path)
            and os.path.isfile(this_path)):
        return None
    want, got = (numbers(oracle.read_output(p), []) for p in (base_path, this_path))
    if len(want) != len(got):
        return None
    floor = max(2.0 ** -52 * max(map(abs, want), default=0.0), sys.float_info.min)
    return max([abs(x - y) / max(abs(y), floor) for x, y in zip(got, want)], default=0.0)


CENTER_HEADER = "seed,optimum_x,optimum_y,value,iterations"


def _center_iterations(out_dir):
    """The summed `iterations` column of the `center` CSVs in out_dir."""
    total = 0
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name)) as fh:
                lines = fh.read().splitlines()
            if lines and lines[0] == CENTER_HEADER:
                total += sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
    return total


def sweep(base, workloads, seeds, work):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))   # this checkout's oracle, for _deviation
    ok = True
    for workload in workloads:
        for seed in seeds:
            runs = {}
            for side, root in (("base", base), ("this", ROOT)):
                cwd = os.path.join(work, f"{workload}-{seed}-{side}")
                os.makedirs(cwd)
                proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", root,
                                       "--workloads", workload, "--seeds", str(seed)],
                                      cwd=cwd, capture_output=True, text=True, check=True)
                runs[side] = (cwd, json.loads(proc.stdout))
            (base_dir, base_recs), (this_dir, this_recs) = runs["base"], runs["this"]
            files = _differences(base_dir, this_dir)
            jobs = [b["id"] for b, t in zip(base_recs, this_recs)
                    if (b["exit"], b["stderr"]) != (t["exit"], t["stderr"])]
            if len(base_recs) != len(this_recs):
                jobs.append(f"job counts {len(base_recs)} != {len(this_recs)}")
            failed = [r["id"] for r in this_recs if r["problems"]]
            ok = ok and not (files or jobs or failed)
            pairs = {f: (os.path.join(base_dir, f), os.path.join(this_dir, f)) for f in files}
            deviations = {f: _deviation(*pair) for f, pair in pairs.items()}
            every = {f: _deviation(*pair, _every_number) for f, pair in pairs.items()}
            print(json.dumps({"workload": workload, "seed": seed, "jobs": len(this_recs),
                              "files_differing": files, "largest_rel_difference": deviations,
                              "largest_rel_difference_every_number": every,
                              "exit_or_stderr_differing": jobs,
                              "failing_checks": failed,
                              "center_iterations": {
                                  side: _center_iterations(os.path.join(runs[side][0], "out"))
                                  for side in runs}}), flush=True)
    return ok


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="the other checkout's root")
    ap.add_argument("--seeds", default="0-9", help="a seed or an inclusive range, e.g. 0-9")
    ap.add_argument("--workloads", default="polytope_recursion,smooth_inverse,planar_batch")
    ap.add_argument("--work", help="directory for the runs (default: a new temporary one)")
    ap.add_argument("--dump", help=argparse.SUPPRESS)   # one side of one run, in the cwd
    args = ap.parse_args(argv)
    if args.dump:
        return dump(args.dump, args.workloads, _seeds(args.seeds)[0])
    if not args.base:
        ap.error("--base is required")
    work = args.work or tempfile.mkdtemp(prefix="output_sweep_")
    ok = sweep(os.path.abspath(args.base), args.workloads.split(","), _seeds(args.seeds), work)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
