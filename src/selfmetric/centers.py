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

from .geometry import (REL_TOL, BarycentricPoint, GeometryError, NotInteriorError, Polygon2, _count,
                       _point)
# self_perimeter_polygon and busemann_perimeter_polygon are not called here:
# they stay as module bindings because perfbench/tracing.py patches them in this module
from .perimeter2 import (_check_variant, _ray_casts, busemann_perimeter_polygon,  # noqa: F401
                         self_perimeter_polygon)

GAP_TOL = 1e-13      # relative bound on the certified gap between value and minimum
MAX_ITER = 10_000


# no solve calls a general-purpose minimizer: the binding exists only for
# perfbench/tracing.py, which patches it, and goes with ROADMAP item 5b
minimize = None


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


def _interior_point(poly, rng):
    """A point drawn uniformly from the polygon's bounding box until one lies
    farther than REL_TOL * scale inside; GeometryError after 10,000 draws."""
    lo = np.min(poly.vertices, axis=0)
    hi = np.max(poly.vertices, axis=0)
    for _ in range(10_000):
        p = lo + rng.random(2) * (hi - lo)
        if poly.interior_distance(p) > REL_TOL * poly.scale:
            return p
    raise GeometryError("could not sample an interior start point")


def optimal_center_2d(poly, variant="directed", start=None):
    """Minimize the self-perimeter of a polygon over its interior base point.

    The one-start case of optimal_centers_2d; start defaults to the centroid.
    Returns a CenterResult; gap is the certified bound on value - minimum.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("optimal_center_2d expects a Polygon2")
    return optimal_centers_2d(poly, variant, [poly.centroid if start is None else start])[0]


def optimal_centers_2d(poly, variant, starts):
    """One certified minimization of the self-perimeter per start point, in lock step.

    Deep-cut ellipsoid method on the ellipse E = {c + A u : |u| <= 1}, which
    starts as the disk about the start through the farthest vertex and always
    holds the minimizer x. At an interior center with value f and subgradient
    g, x satisfies g.(x - c) <= fbest - f, and f - |A'g| bounds the minimum
    from below; at a center outside the polygon the edge of least slack gives a
    central cut. A solve stops when its best value is within GAP_TOL
    (relative) of its best lower bound, with the best center and its value.

    Every iteration casts the rays of all open solves in one `_ray_casts`
    call; each solve keeps its own ellipse, certificate and iteration count,
    so its result is bit for bit that of solving it alone. If MAX_ITER passes
    with solves still open, ConvergenceError carries the best iterate of the
    first of them.

    Returns a list of CenterResult, one per start, in order.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("optimal_centers_2d expects a Polygon2")
    _check_variant(variant)
    starts = [_point(start, 2) for start in starts]
    if not starts:
        raise GeometryError("need at least one start point")
    # one row per solve: the center (x, y) and the factor A = [[a00, a01],
    # [a10, a11]] of E as Python floats; A is kept as a factor, not as A A',
    # so rounding cannot make E indefinite
    ellipses = []
    for start in starts:
        if not poly.interior_distance(start) > 0.0:   # NaN for a NaN/inf start
            raise NotInteriorError("start point is not strictly inside the polygon")
        radius = math.sqrt(np.max(np.sum((poly.vertices - start) ** 2, axis=1)))
        ellipses.append([*start.tolist(), radius, 0.0, 0.0, radius])
    best = list(starts)
    fbest = [math.inf] * len(starts)
    lower = [-math.inf] * len(starts)
    results = [None] * len(starts)
    live = list(range(len(starts)))
    for iterations in range(1, MAX_ITER + 1):
        values, subgradients, inside, slack = _ray_casts(
            poly, np.array([ellipses[i][:2] for i in live]), variant)
        still = []
        for i, f, g, interior, slacks in zip(live, values.tolist(), subgradients.tolist(),
                                             inside.tolist(), slack):
            x, y, a00, a01, a10, a11 = ellipses[i]
            if not interior:
                # outside the polygon: a central cut along the most violated edge
                g = poly.normals[slacks.argmin()].tolist()
            g0, g1 = g
            v0, v1 = a00 * g0 + a10 * g1, a01 * g0 + a11 * g1      # A'g
            width, depth = math.hypot(v0, v1), 0.0
            if interior:
                if f < fbest[i]:
                    best[i], fbest[i] = np.array((x, y)), f
                # f - width is the least value the linear bound at (x, y) allows on E
                lower[i] = max(lower[i], f - width)
                if fbest[i] - lower[i] <= GAP_TOL * fbest[i]:
                    results[i] = CenterResult(best[i], fbest[i], iterations, variant,
                                              fbest[i] - lower[i])
                    continue
                depth = (f - fbest[i]) / width
            u0, u1 = v0 / width, v1 / width
            s0, s1 = a00 * u0 + a01 * u1, a10 * u0 + a11 * u1      # step = A u
            move = (1.0 + 2.0 * depth) / 3.0
            shrink = 1.0 - math.sqrt((1.0 - depth) / (3.0 * (1.0 + depth)))
            scale = math.sqrt(4.0 / 3.0 * (1.0 - depth ** 2))
            ellipses[i] = [x - move * s0, y - move * s1,
                           scale * (a00 - shrink * (s0 * u0)), scale * (a01 - shrink * (s0 * u1)),
                           scale * (a10 - shrink * (s1 * u0)), scale * (a11 - shrink * (s1 * u1))]
            still.append(i)
        live = still
        if not live:
            return results
    i = live[0]
    gap = fbest[i] - lower[i]
    raise ConvergenceError(f"no certificate in {MAX_ITER} iterations (gap {gap:.3e})",
                           CenterResult(best[i], fbest[i], MAX_ITER, variant, gap))


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
    n = _count(n, "n", 1)
    weights = np.full(n + 1, 1.0 / (n + 1))
    value = float((n + 1) ** n) / math.factorial(n)
    return CenterResult(BarycentricPoint(weights), value, 0, "simplex-closed-form", 0.0)


def convexity_probe(poly, variant="directed", trials=100, seed=0):
    """Midpoint-convexity probe of p -> perimeter(poly, p) at random point pairs.

    Samples interior pairs with a seeded generator and records every violation
    of f(midpoint) <= (f(p1) + f(p2)) / 2 beyond a 1e-12 relative slack. The
    pairs are drawn first, then one `_ray_casts` call evaluates every point.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("convexity_probe expects a Polygon2")
    rng = np.random.default_rng(seed)
    trials = int(trials)
    drawn = np.array([_interior_point(poly, rng) for _ in range(2 * trials)]).reshape(-1, 2)
    p1, p2 = drawn[0::2], drawn[1::2]
    values = _ray_casts(poly, np.vstack([p1, p2, 0.5 * (p1 + p2)]), variant)[0]
    f1, f2, fmid = values.reshape(3, -1).tolist()
    report = ConvexityReport(variant, trials)
    for a, b, lhs, fa, fb in zip(p1, p2, fmid, f1, f2):
        rhs = 0.5 * (fa + fb)
        slack = 1e-12 * (1.0 + abs(rhs))
        if lhs > rhs + slack:
            report.violations.append({"p1": a, "p2": b, "gap": lhs - rhs})
    return report
