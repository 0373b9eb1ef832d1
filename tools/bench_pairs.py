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

--section-us SEED adds the median microseconds per `central_section` call
by section depth: each side runs the polytope_recursion job list of that
seed, and `self_volume_recursive(icosphere(2))`, in a child process with a
timer around `selfvolume.central_section`, alternately, SECTION_REPEATS
times per side. Each depth has the parent's interquartile distance next to
its medians: a change whose median differs from the parent's by no more
than that is unresolved.
"""

import argparse
import contextlib
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
# child runs per side of --section-us (BENCH_25.json: 3 did not resolve d3-d5)
SECTION_REPEATS = 5
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


def section_child(root, seed, work):
    """Per-depth central_section times of one checkout, printed as JSON."""
    sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "src")]
    import worker
    from workloads import run_rounds
    os.environ.update(worker.WORKER_BLAS_THREADS)
    from selfmetric import geometry, selfvolume
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    os.chdir(work)
    cli, jobs, _ = worker.setup("polytope_recursion", seed, "in",
                                run_rounds("polytope_recursion", seconds))
    os.makedirs("out")
    cut = selfvolume.central_section
    times = {}

    def timed(poly, normal):
        t0 = time.perf_counter()
        section = cut(poly, normal)
        times.setdefault(poly.dim, []).append(time.perf_counter() - t0)
        return section

    selfvolume.central_section = timed
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(io.StringIO()):
        for job in jobs:
            cli.run(worker._config(cli, job, "in", "out"))
    workload, times = times, {}
    selfvolume.self_volume_recursive(geometry.icosphere(2))
    selfvolume.central_section = cut

    def summary(t):
        return {f"d{d}": {"calls": len(v), "median_us": round(statistics.median(v) * 1e6, 2)}
                for d, v in sorted(t.items())}

    json.dump({"workload": summary(workload), "icosphere2": summary(times)}, sys.stdout)


def section_us(base, change, seed, work):
    """Medians over alternating child runs of each side's per-depth times."""
    runs = {"parent": [], "change": []}
    for k in range(SECTION_REPEATS):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            cwd = tempfile.mkdtemp(dir=work)
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--section-child",
                                   base if side == "parent" else change, "--section-us",
                                   str(seed)], cwd=cwd, capture_output=True, text=True,
                                  check=True)
            runs[side].append(json.loads(proc.stdout))
            shutil.rmtree(cwd, ignore_errors=True)
    out = {"seed": seed, "repeats_per_side": SECTION_REPEATS}
    for body in ("workload", "icosphere2"):
        cell = {}
        for depth in runs["change"][0][body]:
            p = [r[body][depth]["median_us"] for r in runs["parent"]]
            c = [r[body][depth]["median_us"] for r in runs["change"]]
            parent = _quartiles(p)
            cell[depth] = {"calls": runs["change"][0][body][depth]["calls"],
                           "parent_median_us": round(statistics.median(p), 2),
                           "change_median_us": round(statistics.median(c), 2),
                           "parent_interquartile_distance_us":
                               round(parent["q3"] - parent["q1"], 2),
                           "parent_runs_us": p, "change_runs_us": c,
                           "ratio": round(statistics.median(c) / statistics.median(p), 3)}
        out["polytope_recursion_jobs" if body == "workload" else "icosphere2_self_volume"] = cell
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
    ap.add_argument("--section-child", help=argparse.SUPPRESS)   # one side's section timing
    args = ap.parse_args(argv)
    if args.section_child:
        section_child(args.section_child, args.section_us, os.getcwd())
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
