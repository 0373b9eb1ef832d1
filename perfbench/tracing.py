"""Per-layer tracing of selfmetric from outside the library.

`Tracer.install()` replaces the layers' public functions with timing
wrappers at every module binding that the library calls them through
(names imported by name into several modules are patched in each of them;
class constructors are wrapped in place so isinstance checks still hold).
Spans (name, start, end, parent, job) are kept in memory in flat arrays and
written once, after the run. `uninstall()` restores every binding.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

# traced span names, in report order; "<name>.calls", ".s" and ".self_s" are
# derived from the spans
SPAN_NAMES = (
    "cli.run",
    "shapeio.load",
    "svgplot.polar_svg",
    "geometry.PolytopeN",
    "geometry.qhull",
    "geometry.central_section",
    "geometry.fourier_eval",
    "geometry.RadiusProfile.from_samples",
    "selfvolume.self_volume_recursive",
    "perimeter2.polygon",
    "perimeter2.smooth_density",
    "centers.optimal_center_2d",
    "centers.nelder_mead",
    "alexandrov.reconstruct",
    "alexandrov.solve_phi0",
    "alexandrov.leading_order",
    "alexandrov.second_order",
    "alexandrov.forward_measure",
    "alexandrov.SurfaceMeasure",
)

# the per-layer metrics the benchmark reports, with their units
LAYER_METRICS = {
    "geometry.PolytopeN.calls": "count",
    "geometry.PolytopeN.self_s": "s",
    "geometry.qhull.calls": "count",
    "geometry.qhull.s": "s",
    "geometry.central_section.calls.d2": "count",
    "geometry.central_section.calls.d3": "count",
    "geometry.central_section.calls.d4": "count",
    "geometry.central_section.calls.d5": "count",
    "geometry.central_section.self_s": "s",
    "geometry.fourier_eval.calls": "count",
    "geometry.fourier_eval.self_s": "s",
    "geometry.fourier_eval.terms": "count",
    "geometry.RadiusProfile.from_samples.s": "s",
    "selfvolume.self_volume_recursive.calls": "count",
    "selfvolume.self_volume_recursive.self_s": "s",
    "selfvolume.facet_visits": "count",
    "selfvolume.section_reuse_ratio": "ratio",
    "perimeter2.polygon.calls": "count",
    "perimeter2.polygon.self_s": "s",
    "perimeter2.smooth_density.calls": "count",
    "perimeter2.smooth_density.self_s": "s",
    "centers.optimal_center_2d.calls": "count",
    "centers.optimal_center_2d.self_s": "s",
    "centers.iterations": "count",
    "centers.objective_evals": "count",
    "centers.nelder_mead.calls": "count",
    "centers.nelder_mead.s": "s",
    "centers.fallback_ratio": "ratio",
    "centers.convergence_errors": "count",
    "alexandrov.reconstruct.calls": "count",
    "alexandrov.reconstruct.self_s": "s",
    "alexandrov.solve_phi0.s": "s",
    "alexandrov.phi0_bisection_steps": "count",
    "alexandrov.leading_order.s": "s",
    "alexandrov.second_order.s": "s",
    "alexandrov.forward_measure.s": "s",
    "alexandrov.SurfaceMeasure.calls": "count",
    "alexandrov.SurfaceMeasure.s": "s",
    "shapeio.load.s": "s",
    "svgplot.polar_svg.s": "s",
    "cli.run.self_s": "s",
}


class Tracer:
    """Spans and counters for one traced run; install() patches the library."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.jobs = []          # job ids, indexed by job_of
        self.counts = Counter()
        self._stack = []
        self._job = -1
        self._solves = []       # one fallback flag per open optimal_center_2d span
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin_job(self, job_id):
        self.jobs.append(job_id)
        self._job = len(self.jobs) - 1

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper; before(args, kwargs) and after(result) update counters."""
        nid = self._name_id[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job_of.append(self._job)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(result)
            return result

        return traced

    def counter(self, key, fn):
        """Counting-only wrapper, for functions too small to time usefully."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, attr, wrapper):
        for mod in modules:
            self._set(mod, attr, wrapper)

    def install(self):
        from selfmetric import (alexandrov, centers, cli, geometry, perimeter2,
                                selfvolume, shapeio, svgplot)
        c = self.counts

        # geometry: PolytopeN in place, qhull at geometry's ConvexHull binding
        self._set(geometry.PolytopeN, "__init__",
                  self.wrap("geometry.PolytopeN", geometry.PolytopeN.__init__))
        self._set(geometry, "ConvexHull", self.wrap("geometry.qhull", geometry.ConvexHull))

        def section_dim(args, kwargs):
            c[f"geometry.central_section.calls.d{args[0].dim}"] += 1

        def section_built(sec):
            # every section the recursion builds is visited facet by facet
            c["selfvolume.sections_built"] += 1
            if sec.dim > 1:
                c["selfvolume.facet_visits"] += len(sec.facets)

        section = geometry.central_section
        self._rebind([geometry, alexandrov], "central_section",
                     self.wrap("geometry.central_section", section, before=section_dim))
        self._set(selfvolume, "central_section",
                  self.wrap("geometry.central_section", section, before=section_dim,
                            after=section_built))

        def terms(args, kwargs):
            c["geometry.fourier_eval.terms"] += int(np.size(args[0])) * len(args[1])

        self._rebind([geometry, alexandrov], "fourier_eval",
                     self.wrap("geometry.fourier_eval", geometry.fourier_eval, before=terms))
        from_samples = geometry.RadiusProfile.__dict__["from_samples"].__func__
        self._set(geometry.RadiusProfile, "from_samples", classmethod(
            self.wrap("geometry.RadiusProfile.from_samples", from_samples)))

        # selfvolume: top-level facets are visited once per call
        def top_facets(args, kwargs):
            if args[0].dim > 1:
                c["selfvolume.facet_visits"] += len(args[0].facets)

        self._rebind([selfvolume, alexandrov, cli], "self_volume_recursive",
                     self.wrap("selfvolume.self_volume_recursive",
                               selfvolume.self_volume_recursive, before=top_facets))

        # perimeter2: directed and Busemann polygon perimeters share one span name
        def objective(args, kwargs):
            if self._solves:
                c["centers.objective_evals"] += 1

        for attr in ("self_perimeter_polygon", "busemann_perimeter_polygon"):
            self._rebind([perimeter2, centers, cli], attr,
                         self.wrap("perimeter2.polygon", getattr(perimeter2, attr),
                                   before=objective))
        self._rebind([perimeter2, alexandrov], "smooth_density",
                     self.wrap("perimeter2.smooth_density", perimeter2.smooth_density))

        # centers: iterations from the result, fallback when minimize runs
        def solve_begin(args, kwargs):
            self._solves.append(False)

        def solve_end(res):
            c["centers.iterations"] += int(res.iterations)
            c["centers.fallback_solves"] += int(self._solves.pop())

        optimal = self.wrap("centers.optimal_center_2d", centers.optimal_center_2d,
                            before=solve_begin, after=solve_end)
        # a solve that raises leaves its flag behind; drop it with the span
        self._rebind([centers, cli], "optimal_center_2d",
                     _pop_on_error(optimal, self._solves, centers.ConvergenceError, c))

        def fallback(args, kwargs):
            if self._solves:
                self._solves[-1] = True

        self._set(centers, "minimize",
                  self.wrap("centers.nelder_mead", centers.minimize, before=fallback))

        # alexandrov: reconstruct and its stages, bisection steps as a count
        self._rebind([alexandrov, cli], "reconstruct",
                     self.wrap("alexandrov.reconstruct", alexandrov.reconstruct))
        for attr in ("solve_phi0", "leading_order", "second_order", "forward_measure"):
            self._set(alexandrov, attr, self.wrap(f"alexandrov.{attr}", getattr(alexandrov, attr)))
        self._set(alexandrov, "sqrt_imbalance",
                  self.counter("alexandrov.phi0_bisection_steps", alexandrov.sqrt_imbalance))
        self._set(alexandrov.SurfaceMeasure, "__init__",
                  self.wrap("alexandrov.SurfaceMeasure", alexandrov.SurfaceMeasure.__init__))

        # input and output layers
        for attr in ("load_shape", "load_density"):
            self._rebind([shapeio, cli], attr, self.wrap("shapeio.load", getattr(shapeio, attr)))
        self._set(svgplot, "polar_svg", self.wrap("svgplot.polar_svg", svgplot.polar_svg))
        self._set(cli, "run", self.wrap("cli.run", cli.run))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting -----------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job_of, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write all spans once, as compressed columns plus the name and job tables."""
        np.savez_compressed(path, names=np.array(self.names), jobs=np.array(self.jobs),
                            **self.arrays())

    def layer_metrics(self):
        """Per-layer metrics: {name: value} for every key of LAYER_METRICS."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        total = np.bincount(a["name_id"], weights=dur, minlength=n)
        self_total = np.bincount(a["name_id"], weights=own, minlength=n)
        span = {}
        for i, name in enumerate(self.names):
            span[f"{name}.calls"] = int(calls[i])
            span[f"{name}.s"] = float(total[i])
            span[f"{name}.self_s"] = float(self_total[i])
        c = self.counts
        visits = c["selfvolume.facet_visits"]
        solves = span["centers.optimal_center_2d.calls"]
        derived = {
            "selfvolume.section_reuse_ratio":
                1.0 - c["selfvolume.sections_built"] / visits if visits else 0.0,
            "centers.fallback_ratio": c["centers.fallback_solves"] / solves if solves else 0.0,
        }
        out = {}
        for key in LAYER_METRICS:
            if key in derived:
                out[key] = derived[key]
            elif key in span:
                out[key] = span[key]
            else:
                out[key] = int(c[key])
        return out


def _pop_on_error(traced, solves, convergence_error, counts):
    @functools.wraps(traced)
    def guarded(*args, **kwargs):
        mark = len(solves)
        try:
            return traced(*args, **kwargs)
        except BaseException as exc:
            del solves[mark:]
            if isinstance(exc, convergence_error):
                counts["centers.convergence_errors"] += 1
            raise

    return guarded
