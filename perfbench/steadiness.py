"""Run-to-run spread of the end-to-end metrics, the record the bounds rest on.

    python3 perfbench/steadiness.py

Makes two sets of untraced runs, each of every workload on seeds 0-9 (the
golden seeds) at BENCHMARK.json's run_seconds, one run after another, and
writes perfbench/STEADINESS.json. Per set, workload and metric it records the
median and the interquartile distance as a share of the median, with
statistics.quantiles(values, n=4) as the quartiles, for the reported
(calibrated) job times and for the wall-clock ones side by side; how far the
second set's median is worse than the first's, as a share; and the median
calibration time, which run.CAL_REF_S is set from.

Bounds are chosen by hand from this record: above the largest spread of a
metric over both sets and above the worst change between the two medians,
with room for a slower or busier host, and at most the 0.25 the benchmark
contract allows. Each spread over a third of its bound is flagged WIDE.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(10)
SETS = 2
WALL_CLOCK = ("jobs_per_s", "job_p50_s", "job_p90_s")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "iqr_share": (q3 - q1) / med, "values": values}


def one_run(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {out.stderr.strip()[-2000:]}")
    last = json.loads(out.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs are not correct")
    with open(os.path.join(ROOT, ".perfbench_results",
                           f"{workload}-seed{seed}-trace0.json")) as fh:
        record = json.load(fh)
    return last["metrics"], record["wall_clock"], [c for _, c in record["calibration_s"]]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    report = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "processor": platform.processor() or platform.machine()},
              "seconds": seconds, "seeds": list(SEEDS), "sets": [], "calibration_median_s": None}
    calibration = []
    for k in range(SETS):
        sets = {}
        for w in WORKLOADS:
            runs = [one_run(w, seed, seconds) for seed in SEEDS]
            calibration += [c for _, _, cal in runs for c in cal]
            sets[w] = {
                "metrics": {name: spread([m[name]["value"] for m, _, _ in runs])
                            for name in END_TO_END_UNITS},
                "wall_clock": {name: spread([wall[name] for _, wall, _ in runs])
                               for name in WALL_CLOCK},
            }
            for name, s in sets[w]["metrics"].items():
                wide = name != "setup_s" and s["iqr_share"] > bounds[name][0] / 3
                wall = sets[w]["wall_clock"].get(name)
                print(f"set {k + 1} {w:20s} {name:14s} median {s['median']:.6g}"
                      f"  spread {s['iqr_share']:.4f}"
                      + (f" (wall clock {wall['iqr_share']:.4f})" if wall else "")
                      + f"  bound {bounds[name][0]}" + ("  WIDE" if wide else ""), flush=True)
        report["sets"].append(sets)
    report["second_median_worse_by"] = {
        w: {name: _worse_by(report["sets"][0][w]["metrics"][name]["median"],
                            report["sets"][-1][w]["metrics"][name]["median"], better)
            for name, (_, better) in bounds.items()}
        for w in WORKLOADS}
    report["calibration_median_s"] = statistics.median(calibration)
    for w, worse in report["second_median_worse_by"].items():
        for name, share in worse.items():
            flag = "  OUT OF BOUND" if share > bounds[name][0] else ""
            print(f"second set {w:20s} {name:14s} worse by {share:+.4f}{flag}")
    print(f"calibration median {report['calibration_median_s']:.6g} s")
    with open(os.path.join(HERE, "STEADINESS.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


def _worse_by(first, second, better):
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


if __name__ == "__main__":
    sys.exit(main())
