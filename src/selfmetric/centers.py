"""Optimal centers: minimize the self-perimeter over the interior base point.

The map p -> P(K - p) is strictly convex and blows up at the boundary, so a
unique interior minimizer exists. It is only piecewise smooth: the exit edge
of a tangent ray switches as the center moves, and the minimizer generically
sits on such a crease. So the solver is the center-of-gravity method on exact
subgradients (A. Yu. Levin, Soviet Math. Dokl. 6, 1965), which needs no
smoothness and certifies its answer. In the plane the set that can still
hold the minimizer is kept exactly, as a polygon that every cut clips; a cut
through its centroid removes at least 4/9 of its area (B. Grunbaum, Pacific
J. Math. 10, 1960). Every cut also gives a lower bound on the minimum, and
the solve stops when the best value lies within GAP_TOL of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (REL_TOL, BarycentricPoint, GeometryError, NotInteriorError, Polygon2,
                       _centroid, _count, _point)
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
    """A point drawn uniformly from the polygon until one lies farther than
    REL_TOL * scale inside; GeometryError after 10,000 draws.

    Each draw picks a triangle of the fan at vertex 0 with probability its share
    of the area, then a uniform point of it (u + w > 1 folded back)."""
    v = poly.vertices
    d1, d2 = v[1:-1] - v[0], v[2:] - v[0]
    areas = np.cumsum(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    for _ in range(10_000):
        pick, u, w = rng.random(3)
        i = np.searchsorted(areas, pick * areas[-1])
        if u + w > 1.0:
            u, w = 1.0 - u, 1.0 - w
        p = v[0] + u * d1[i] + w * d2[i]
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

    Center-of-gravity method on a localization cell C, a CCW polygon that
    starts as the polygon itself and always holds the minimizer x. The first
    query is the start point and every later one the centroid of C. At an
    interior query q with value f and subgradient g, x satisfies
    g.(x - q) <= fbest - f, so C is clipped to that half-plane, and
    f + min over the vertices v of C of g.(v - q) bounds the minimum from
    below; at a query outside the polygon the edge of least slack gives a
    central cut. A cut through the centroid removes at least 4/9 of C's area
    (Grunbaum). A solve stops when its best value is within GAP_TOL
    (relative) of its best lower bound, with the best query and its value.

    Every iteration casts the rays of all open solves in one `_ray_casts`
    call; each solve keeps its own cell, certificate and iteration count, so
    its result is bit for bit that of solving it alone. A solve fails when
    its cell collapses to no area or MAX_ITER passes; ConvergenceError then
    carries the best iterate of the first failing solve, the one a solve of
    each start in turn would raise.

    Returns a list of CenterResult, one per start, in order.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("optimal_centers_2d expects a Polygon2")
    _check_variant(variant)
    starts = [_point(start, 2) for start in starts]
    if not starts:
        raise GeometryError("need at least one start point")
    for start in starts:
        if not poly.interior_distance(start) > 0.0:   # NaN for a NaN/inf start
            raise NotInteriorError("start point is not strictly inside the polygon")
    xs, ys = poly.vertices.T.tolist()
    e = math.frexp(poly.scale)[1]
    # one entry per solve: its query, the vertex coordinates of its cell as
    # Python floats, and its certificate
    queries = [start.tolist() for start in starts]
    cells = [(xs, ys)] * len(starts)
    best = list(starts)
    fbest = [math.inf] * len(starts)
    lower = [-math.inf] * len(starts)
    results = [None] * len(starts)
    failed = None    # the ConvergenceError of the first solve whose cell collapsed
    live = list(range(len(starts)))
    for iterations in range(1, MAX_ITER + 1):
        values, subgradients, inside, slack = _ray_casts(
            poly, np.array([queries[i] for i in live]), variant)
        still = []
        for k, (i, f, g, interior) in enumerate(zip(live, values.tolist(), subgradients.tolist(),
                                                    inside.tolist())):
            if not interior:
                # outside the polygon: a central cut along the most violated edge
                g = poly.normals[slack[k].argmin()].tolist()
            (qx, qy), (xs, ys), (g0, g1) = queries[i], cells[i], g
            dots = [g0 * (x - qx) + g1 * (y - qy) for x, y in zip(xs, ys)]
            bound = 0.0
            if interior:
                if f < fbest[i]:
                    best[i], fbest[i] = np.array(queries[i]), f
                # f + min(dots) is the least value the linear bound at q allows on the cell
                lower[i] = max(lower[i], f + min(dots))
                if fbest[i] - lower[i] <= GAP_TOL * fbest[i]:
                    results[i] = CenterResult(best[i], fbest[i], iterations, variant,
                                              fbest[i] - lower[i])
                    continue
                bound = fbest[i] - f
            cells[i] = xs, ys = _clip(xs, ys, dots, bound)
            queries[i] = _centroid(xs, ys, e)
            if queries[i] is None:
                gap = fbest[i] - lower[i]
                failed = ConvergenceError(
                    f"localization cell collapsed in {iterations} iterations (gap {gap:.3e})",
                    CenterResult(best[i], fbest[i], iterations, variant, gap))
                # raised once every earlier solve has finished, as a solve of each
                # start in turn would; the later solves cannot change the outcome
                break
            still.append(i)
        live = still
        if not live:
            if failed is not None:
                raise failed
            return results
    i = live[0]
    gap = fbest[i] - lower[i]
    raise ConvergenceError(f"no certificate in {MAX_ITER} iterations (gap {gap:.3e})",
                           CenterResult(best[i], fbest[i], MAX_ITER, variant, gap))


def _clip(xs, ys, dots, bound):
    """The convex cell (xs, ys) cut to where the affine function taking the values
    dots at its vertices is at most bound, in the same order, each crossing put
    before the vertex that ends its edge."""
    cx, cy = [], []
    px, py, ps = xs[-1], ys[-1], dots[-1] - bound
    for x, y, d in zip(xs, ys, dots):
        s = d - bound
        if (ps < 0.0 < s) or (s < 0.0 < ps):
            t = ps / (ps - s)
            cx.append(px + t * (x - px))
            cy.append(py + t * (y - py))
        if s <= 0.0:
            cx.append(x)
            cy.append(y)
        px, py, ps = x, y, s
    return cx, cy


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
    trials = _count(trials, "trials", 1)
    rng = np.random.default_rng(seed)
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
