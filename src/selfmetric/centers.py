"""Optimal centers: minimize the self-perimeter over the interior base point.

The map p -> P(K - p) is strictly convex and blows up at the boundary, so a
unique interior minimizer exists. It is only piecewise smooth: the exit edge
of a tangent ray switches as the center moves, and the minimizer generically
sits on such a crease. So the solver is the deep-cut ellipsoid method on
exact subgradients (Bland, Goldfarb & Todd, "The ellipsoid method: a survey",
Oper. Res. 29, 1981), which needs no smoothness and certifies its answer:
every cut also gives a lower bound on the minimum, and the solve stops when
the best value lies within GAP_TOL of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BarycentricPoint, GeometryError, NotInteriorError, Polygon2
from .perimeter2 import (busemann_perimeter_polygon, polygon_perimeter_subgradient,
                         self_perimeter_polygon)

GAP_TOL = 1e-13      # relative bound on the certified gap between value and minimum
MAX_ITER = 10_000
VARIANTS = ("directed", "busemann")


def __getattr__(name):
    # centers.minimize exists only for perfbench/tracing.py, which patches it;
    # no solve calls it. scipy.optimize loads on that first access, and the
    # binding goes when the library carries its own tracer (ROADMAP item 2)
    if name == "minimize":
        from scipy.optimize import minimize
        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class CenterResult:
    optimum: object        # ndarray point, or BarycentricPoint for the simplex form
    value: float
    iterations: int
    variant: str
    gap: float             # certified bound on value - minimum


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


def _perimeter(variant):
    if variant not in VARIANTS:
        raise GeometryError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return self_perimeter_polygon if variant == "directed" else busemann_perimeter_polygon


def optimal_center_2d(poly, variant="directed", start=None):
    """Minimize the self-perimeter of a polygon over its interior base point.

    Deep-cut ellipsoid method on the ellipse E = {c + A u : |u| <= 1}, which
    starts as the disk about start (default: the centroid) through the
    farthest vertex and always holds the minimizer x. At an interior center
    with value f and subgradient g, x satisfies g.(x - c) <= fbest - f, and
    f - |A'g| bounds the minimum from below; at a center outside the polygon
    the most violated edge gives a central cut. The loop stops when the best
    value is within GAP_TOL (relative) of the best lower bound and returns
    the best center with its value; hitting MAX_ITER raises ConvergenceError
    carrying the best iterate.

    Returns a CenterResult; gap is the certified bound on value - minimum.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("optimal_center_2d expects a Polygon2")
    _perimeter(variant)   # rejects an unknown variant
    c = np.asarray(start, dtype=float) if start is not None else poly.centroid
    if not poly.interior_distance(c) > 0.0:   # NaN for a NaN/inf start
        raise NotInteriorError("start point is not strictly inside the polygon")
    # A is kept as a factor, not as A A', so rounding cannot make E indefinite
    axes = math.sqrt(np.max(np.sum((poly.vertices - c) ** 2, axis=1))) * np.eye(2)
    best, fbest, lower = c, np.inf, -np.inf
    for iterations in range(1, MAX_ITER + 1):
        try:
            f, g = polygon_perimeter_subgradient(poly, c, variant)
        except NotInteriorError:
            # outside the polygon: a central cut along the most violated edge
            g = poly.normals[np.argmax(poly.normals @ c - poly.offsets)]
            width, depth = math.hypot(*(axes.T @ g)), 0.0
        else:
            if f < fbest:
                best, fbest = c, f
            # f - width is the least value the linear bound at c allows on E
            width = math.hypot(*(axes.T @ g))
            lower = max(lower, f - width)
            if fbest - lower <= GAP_TOL * fbest:
                return CenterResult(best, fbest, iterations, variant, fbest - lower)
            depth = (f - fbest) / width
        u = axes.T @ g / width
        step = axes @ u
        c = c - (1.0 + 2.0 * depth) / 3.0 * step
        shrink = 1.0 - math.sqrt((1.0 - depth) / (3.0 * (1.0 + depth)))
        axes = math.sqrt(4.0 / 3.0 * (1.0 - depth ** 2)) * (axes - shrink * np.outer(step, u))
    raise ConvergenceError(f"no certificate in {MAX_ITER} iterations (gap {fbest - lower:.3e})",
                           CenterResult(best, fbest, MAX_ITER, variant, fbest - lower))


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
    perimeter = _perimeter(variant)
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
        lhs = perimeter(poly, mid).value
        rhs = 0.5 * (perimeter(poly, p1).value + perimeter(poly, p2).value)
        slack = 1e-12 * (1.0 + abs(rhs))
        if lhs > rhs + slack:
            report.violations.append({"p1": p1, "p2": p2, "gap": lhs - rhs})
    return report
