"""Optimal centers: minimize the self-perimeter over the interior base point.

The map p -> P(K - p) is strictly convex and blows up at the boundary, so a
unique interior minimizer exists and plain descent cannot leave the body.
The optimizer is first-order only: central-difference gradients with a
backtracking line search, plus a derivative-free simplex fallback for the
rare case where differencing turns unstable next to the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .geometry import BarycentricPoint, GeometryError, NotInteriorError, Polygon2
from .perimeter2 import busemann_perimeter_polygon, self_perimeter_polygon

STEP_TOL = 1e-10
MAX_ITER = 10_000
VARIANTS = ("directed", "busemann")


@dataclass
class CenterResult:
    optimum: object        # ndarray point, or BarycentricPoint for the simplex form
    value: float
    iterations: int
    variant: str
    convergence_norm: float


@dataclass
class ConvexityReport:
    variant: str
    trials: int
    violations: list = field(default_factory=list)

    @property
    def violation_count(self):
        return len(self.violations)


class ConvergenceError(RuntimeError):
    """Optimizer ran out of iterations; carries the best iterate found."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


def _objective(poly, variant):
    if variant not in VARIANTS:
        raise GeometryError(f"variant must be one of {VARIANTS}, got {variant!r}")
    fn = self_perimeter_polygon if variant == "directed" else busemann_perimeter_polygon

    def f(p):
        try:
            return fn(poly, p).value
        except NotInteriorError:
            return np.inf

    return f


def _backtrack(f, p, fp, d, step):
    # first decreasing point along d, halving from step; None if none above STEP_TOL
    while step >= STEP_TOL:
        q = p + step * d
        fq = f(q)
        if fq < fp:
            return q, fq, step
        step *= 0.5
    return None, fp, step


def optimal_center_2d(poly, variant="directed", start=None):
    """Minimize the self-perimeter of a polygon over its interior base point.

    Adaptive-step descent: normalized central-difference gradient, backtracking
    line search with step regrowth, no barrier terms (coercivity keeps every
    accepted iterate interior). The objective is convex but only piecewise
    smooth (the exit edge of a tangent ray switches as the center moves), so
    when differencing straddles a crease the computed direction stops
    decreasing; the loop then retries with a fresh step and, if the point is
    still not certifiably stationary, hands over to a Nelder-Mead simplex,
    which handles the creases. Hitting MAX_ITER raises ConvergenceError
    carrying the best iterate.

    Returns a CenterResult; convergence_norm is the final descent step size.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("optimal_center_2d expects a Polygon2")
    f = _objective(poly, variant)
    p = np.asarray(start, dtype=float) if start is not None else poly.centroid
    if not poly.interior_distance(p) > 0.0:   # NaN for a NaN/inf start
        raise NotInteriorError("start point is not strictly inside the polygon")
    fp = f(p)
    step = 0.1 * poly.interior_distance(p)   # 0.1 x inradius estimate
    h0 = 1e-6 * poly.scale
    iterations = 0
    gnorm = np.inf
    while iterations < MAX_ITER:
        iterations += 1
        h = min(h0, 0.25 * poly.interior_distance(p))
        g = np.array([(f(p + [h, 0.0]) - f(p - [h, 0.0])) / (2.0 * h),
                      (f(p + [0.0, h]) - f(p - [0.0, h])) / (2.0 * h)])
        if not np.all(np.isfinite(g)):
            return _simplex_finish(poly, f, p, fp, variant, iterations)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            step = 0.0
            break
        d = -g / gnorm
        q, fq, step = _backtrack(f, p, fp, d, step)
        if q is None:
            # retry once from a fresh step before concluding anything
            q, fq, step = _backtrack(f, p, fp, d, 0.1 * poly.interior_distance(p))
        if q is None:
            break
        p, fp = q, fq
        step = min(2.0 * step, 0.25 * poly.scale)
    else:
        best = CenterResult(p, fp, iterations, variant, step)
        raise ConvergenceError(f"no convergence in {MAX_ITER} iterations (step {step:.3e})", best)
    if gnorm * poly.scale > 1e-7 * max(1.0, fp):
        # stalled on a crease rather than at a smooth stationary point
        return _simplex_finish(poly, f, p, fp, variant, iterations)
    return CenterResult(p, fp, iterations, variant, step)


def _simplex_finish(poly, f, p, fp, variant, iterations):
    # two Nelder-Mead rounds: a fresh small simplex, then a restart from the
    # answer to undo any simplex collapse along a crease
    total = iterations
    for delta in (1e-3, 1e-6):
        span = delta * max(poly.interior_distance(p), 1e-6 * poly.scale)
        init = np.array([p, p + [span, 0.0], p + [0.0, span]])
        res = minimize(f, p, method="Nelder-Mead",
                       options={"initial_simplex": init, "xatol": 1e-12, "fatol": 1e-14,
                                "maxfev": 4000})
        total += int(res.nit)
        if res.fun < fp:
            p, fp = np.asarray(res.x, dtype=float), float(res.fun)
    return CenterResult(p, fp, total, variant, 0.0)


def grunbaum_bound_check(poly):
    """Minimum directed self-perimeter and whether it satisfies min <= 9.

    Every planar convex body admits a center with self-perimeter at most 9;
    the bound is tight exactly on triangles.
    """
    res = optimal_center_2d(poly, "directed")
    return res.value, bool(res.value <= 9.0 + 1e-6)


def optimal_simplex_center(n):
    """Closed-form optimal center of the n-simplex: the centroid.

    The minimal self-volume is (n+1)^n / n! (equality point of the simplex
    lower bound); returned as a CenterResult with barycentric optimum.
    """
    n = int(n)
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    weights = np.full(n + 1, 1.0 / (n + 1))
    value = float((n + 1) ** n) / math.factorial(n)
    return CenterResult(BarycentricPoint(weights), value, 0, "simplex-closed-form", 0.0)


def convexity_probe(poly, variant="directed", trials=100, seed=0):
    """Midpoint-convexity probe of p -> perimeter(poly, p) at random point pairs.

    Samples interior pairs with a seeded generator and records every violation
    of f(midpoint) <= (f(p1) + f(p2)) / 2 beyond a 1e-12 relative slack.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("convexity_probe expects a Polygon2")
    f = _objective(poly, variant)
    rng = np.random.default_rng(seed)
    lo = np.min(poly.vertices, axis=0)
    hi = np.max(poly.vertices, axis=0)
    margin = 1e-9 * poly.scale

    def draw():
        while True:
            p = rng.uniform(lo, hi)
            if poly.interior_distance(p) > margin:
                return p

    report = ConvexityReport(variant, int(trials))
    for _ in range(int(trials)):
        p1, p2 = draw(), draw()
        mid = 0.5 * (p1 + p2)
        lhs = f(mid)
        rhs = 0.5 * (f(p1) + f(p2))
        slack = 1e-12 * (1.0 + abs(rhs))
        if lhs > rhs + slack:
            report.violations.append({"p1": p1, "p2": p2, "gap": lhs - rhs})
    return report
