"""Alternating benchmark pairs: two checkouts' perfbench runs, seed by seed.

    python3 tools/bench_pairs.py --base PARENT_CHECKOUT [--change CHECKOUT]
        [--workloads polytope_recursion,smooth_inverse,planar_batch] [--seeds 0-9]
        [--section-us SEED] [--out BENCH.json]
        [--change-text TEXT] [--claim TEXT] [--note TEXT ...]

For each workload and seed, each checkout runs its own
`perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0`
as a child process, from its own root; the first side alternates with the
seed (the base first on even positions of the seed list). Only these child
processes are measured: the metrics are the ones each run prints. The
change side defaults to the checkout this script lives in.

The JSON written (stdout without --out) holds, per workload and end-to-end
metric of BENCHMARK.json, each side's per-run values, median and quartiles
(numpy linear percentiles), the ratio of the medians, the pairs the change
won, whether the change is within the metric's bound, and the base's
interquartile distance; plus each side's src sha256 (as perfbench/run.py
computes it) and the machine stamp of the first run.

--section-us SEED adds the microseconds per `central_section` call by
section depth. One child process imports each checkout's src/selfmetric
under its own package name. It runs the polytope_recursion job list of that
seed, and the self-volumes of SPHERE_HULLS hulls of SPHERE_POINTS points
drawn on the unit sphere with that seed, through both, job by job, with a
timer around each package's `selfvolume.central_section`.
The side that goes first alternates from job to job and from pass to pass,
over SECTION_PASSES passes, and SECTION_CHILDREN such child processes run
one after another, each importing the other side first. For each job and
depth the least time over the passes of every child is kept, and a depth's
figure is the sum of these minima over the summed calls. Each pass's own
per-call means are kept too, to show the spread that the minima remove.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# passes of --section-us over the job list, each side once per job and pass
SECTION_PASSES = 5
# child processes of --section-us: within one, a side can run a few percent fast
# or slow throughout (two archives of one commit read 0.96-0.98 and 1.02-1.05 in
# single children), which the least time over several children evens out
SECTION_CHILDREN = 4
# 3-D self-volumes per pass, about 30 ms each: eight runs of the 0.3 s icosphere(2)
# left two archives of one commit 0.94 apart, as a long job keeps the host's drift
# that the least time over passes of many short jobs removes
SPHERE_HULLS = 64
SPHERE_POINTS = 30
SRC_SHA256_METHOD = ("sha256 over src/selfmetric/*.py in sorted order, each file's base name, "
                     "a NUL byte, then its bytes (perfbench/run.py's src_sha256)")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(root, workload, seed, seconds):
    """One perfbench run of a checkout: (its last JSON line, its env, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{root}: run.py {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    env = next(line["env"] for line in lines if "env" in line)
    return lines[-1], env, wall


def _quartiles(values):
    import numpy as np
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"runs": [round(v, 6) for v in values], "median": round(float(med), 6),
            "q1": round(float(q1), 6), "q3": round(float(q3), 6)}


def _metric_cell(spec, base, change):
    better = spec["better"]
    b, c = _quartiles(base), _quartiles(change)
    ratio = c["median"] / b["median"] if b["median"] else float("nan")
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    wins = sum((x < y) if better == "lower" else (x > y) for y, x in zip(base, change))
    return {"better": better, "bound": spec["bound"], "parent": b, "change": c,
            "change_better_in_pairs": f"{wins}/{len(base)}",
            "ratio_change_over_parent": round(ratio, 4),
            "change_worse_than_parent_by": round(worse, 4),
            "within_bound": bool(worse <= spec["bound"]),
            "parent_interquartile_distance": round(b["q3"] - b["q1"], 6)}


def pairs(base, change, workloads, seeds, bench):
    """end_to_end cells per workload, plus the env of every run."""
    seconds = bench["run_seconds"]
    specs = bench["end_to_end"]
    out, envs = {}, {"parent": [], "change": []}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        first = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                result, env, wall = _run(base if side == "parent" else change,
                                         workload, seed, seconds)
                runs[side].append(result)
                envs[side].append(env)
                print(json.dumps({"workload": workload, "seed": seed, "side": side,
                                  "wall_s": round(wall, 2),
                                  "jobs_per_s": result["metrics"]["jobs_per_s"]["value"]}),
                      file=sys.stderr, flush=True)
        every = runs["parent"] + runs["change"]
        out[workload] = {
            "seeds": seeds, "first_side": first,
            "all_outputs_correct": all(r["correct"] for r in every),
            "attempted_per_run": sorted({r["attempted"] for r in every}),
            "failed_per_run": sorted({r["failed"] for r in every}),
            "metrics": {spec["name"]: _metric_cell(
                spec, [r["metrics"][spec["name"]]["value"] for r in runs["parent"]],
                [r["metrics"][spec["name"]]["value"] for r in runs["change"]])
                for spec in specs},
        }
    return out, envs


def _package(root, name):
    """root/src/selfmetric imported as the package `name`, so that two checkouts
    live side by side in one process; returns its (cli, geometry, selfvolume)."""
    path = os.path.join(root, "src", "selfmetric")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{m}") for m in ("cli", "geometry", "selfvolume"))


def section_child(base, change, seed, child, work):
    """Per-depth central_section times of both checkouts, interleaved job by job,
    printed as JSON; an odd child imports and runs the change first."""
    sys.path.insert(0, os.path.join(change, "perfbench"))
    import worker
    os.environ.update(worker.WORKER_BLAS_THREADS)   # before numpy loads
    from workloads import make_round, run_rounds
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    os.chdir(work)
    os.makedirs("in")
    jobs = [job for r in range(run_rounds("polytope_recursion", seconds))
            for job in make_round("polytope_recursion", seed, r, "in")]
    import numpy as np
    hulls = np.random.default_rng(seed).normal(size=(SPHERE_HULLS, SPHERE_POINTS, 3))
    hulls /= np.linalg.norm(hulls, axis=2, keepdims=True)
    sides = {}
    order = (("parent", base), ("change", change))
    for side, root in order if child % 2 == 0 else order[::-1]:
        cli, geometry, selfvolume = _package(root, f"selfmetric_{side}")
        os.makedirs(f"out_{side}")
        tally = {}
        cut = selfvolume.central_section

        def timed(poly, normal, cut=cut, tally=tally):
            t0 = time.perf_counter()
            section = cut(poly, normal)
            cell = tally.setdefault(poly.dim, [0, 0.0])
            cell[0] += 1
            cell[1] += time.perf_counter() - t0
            return section

        selfvolume.central_section = timed
        tasks = [lambda cli=cli, job=job, side=side: cli.run(
            worker._config(cli, job, "in", f"out_{side}")) for job in jobs]
        tasks += [lambda g=geometry, v=selfvolume, p=p: v.self_volume_recursive(g.PolytopeN(p))
                  for p in hulls]
        sides[side] = tasks, tally
    # timed[side][task][pass] = {depth: [calls, seconds]}
    timed = {side: [[] for _ in sides[side][0]] for side in sides}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(io.StringIO()):
        for k in range(SECTION_PASSES):
            for i in range(len(jobs) + SPHERE_HULLS):
                for side in (("parent", "change") if (i + k + child) % 2 == 0
                             else ("change", "parent")):
                    tasks, tally = sides[side]
                    tally.clear()
                    tasks[i]()
                    timed[side][i].append({d: list(c) for d, c in tally.items()})
    json.dump(timed, sys.stdout)


def _per_depth(tasks):
    """{depth: (calls, seconds)} summed over tasks of the least seconds over passes,
    and the per-pass sums."""
    least, passes = {}, [{} for _ in tasks[0]]
    for task in tasks:
        for d in task[0]:
            calls = task[0][d][0]
            if any(p[d][0] != calls for p in task):
                raise SystemExit(f"the calls at depth {d} differ between passes")
            cell = least.setdefault(d, [0, 0.0])
            cell[0] += calls
            cell[1] += min(p[d][1] for p in task)
            for total, p in zip(passes, task):
                acc = total.setdefault(d, [0, 0.0])
                acc[0] += calls
                acc[1] += p[d][1]
    return least, passes


def section_us(base, change, seed, work):
    """Per-depth microseconds per central_section call of both sides, from
    SECTION_CHILDREN interleaved child runs."""
    timed = {}
    for child in range(SECTION_CHILDREN):
        cwd = tempfile.mkdtemp(dir=work)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--section-child",
                               str(child), "--base", base, "--change", change,
                               "--section-us", str(seed)],
                              cwd=cwd, capture_output=True, text=True)
        shutil.rmtree(cwd, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"--section-us child exited {proc.returncode}:\n{proc.stderr}")
        for side, tasks in json.loads(proc.stdout).items():
            for task, passes in zip(timed.setdefault(side, [[] for _ in tasks]), tasks):
                task.extend(passes)
    out = {"seed": seed, "passes": SECTION_PASSES * SECTION_CHILDREN}
    njobs = len(timed["change"]) - SPHERE_HULLS
    for key, part in (("polytope_recursion_jobs", slice(0, njobs)),
                      ("sphere_hull_self_volumes", slice(njobs, None))):
        (p_least, p_passes), (c_least, c_passes) = (_per_depth(timed[side][part])
                                                    for side in ("parent", "change"))
        cell = {}
        for d in sorted(c_least, key=int):
            p_calls, c_calls = p_least[d][0], c_least[d][0]
            p_us, c_us = 1e6 * p_least[d][1] / p_calls, 1e6 * c_least[d][1] / c_calls
            cell[f"d{d}"] = {"parent_calls": p_calls, "change_calls": c_calls,
                             "parent_us": round(p_us, 2), "change_us": round(c_us, 2),
                             "ratio": round(c_us / p_us, 3),
                             "parent_pass_us": [round(1e6 * p[d][1] / p_calls, 2)
                                                for p in p_passes],
                             "change_pass_us": [round(1e6 * p[d][1] / c_calls, 2)
                                                for p in c_passes]}
        out[key] = cell
    return out


def _cpu():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_head(root):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="the parent checkout's root")
    ap.add_argument("--change", default=ROOT,
                    help="the changed checkout's root (default: this one)")
    ap.add_argument("--workloads", default="polytope_recursion,smooth_inverse,planar_batch")
    ap.add_argument("--seeds", default="0-9", help="a seed or an inclusive range, e.g. 0-9")
    ap.add_argument("--section-us", type=int, metavar="SEED",
                    help="also time central_section per depth on this polytope_recursion seed")
    ap.add_argument("--out", help="write the JSON here (default: stdout)")
    ap.add_argument("--change-text", default="", help="what the change does")
    ap.add_argument("--claim", default="", help="the gain claimed, if any")
    ap.add_argument("--note", action="append", default=[], help="a note to keep in the file")
    ap.add_argument("--section-child", type=int,
                    help=argparse.SUPPRESS)   # the index of one interleaved section timing
    args = ap.parse_args(argv)
    if args.section_child is not None:
        section_child(args.base, args.change, args.section_us, args.section_child, os.getcwd())
        return 0
    if not args.base:
        ap.error("--base is required")
    base, change = os.path.abspath(args.base), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seeds = _seeds(args.seeds)
    end_to_end, envs = pairs(base, change, args.workloads.split(","), seeds, bench)
    env = envs["change"][0]
    record = {
        "change": args.change_text,
        "claim": args.claim,
        "machine": {"cpu": _cpu(), "nproc": env["nproc"], "cpus_allowed": env["cpus_allowed"],
                    "python": env["python"], "numpy": env["numpy"], "scipy": env["scipy"],
                    "blas": env["blas"], "worker_blas_threads": env["blas_threads_workers"]},
        "commits": {"parent": _git_head(base), "src_sha256_method": SRC_SHA256_METHOD,
                    "parent_src_sha256": sorted({e["src_sha256"] for e in envs["parent"]}),
                    "change_src_sha256": sorted({e["src_sha256"] for e in envs["change"]})},
        "method": (f"tools/bench_pairs.py: python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {bench['run_seconds']} --trace 0 in each checkout (the parent "
                   f"--base, the change --change); seeds {args.seeds} per workload, the parent "
                   "first on even positions of the seed list and the change first on odd ones, "
                   "one workload after another. Each cell: median and quartiles (numpy linear "
                   "percentiles) over the runs of that side; within_bound compares the change's "
                   "median with the parent's against BENCHMARK.json's bound. Job metrics are "
                   "the benchmark's calibrated ones; setup_s is its median of three fresh "
                   "interpreters."),
        "end_to_end": end_to_end,
    }
    if args.section_us is not None:
        work = tempfile.mkdtemp(prefix="bench_pairs_")
        record["central_section_us_per_call"] = section_us(base, change, args.section_us, work)
        shutil.rmtree(work, ignore_errors=True)
    if args.note:
        record["notes"] = args.note
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
