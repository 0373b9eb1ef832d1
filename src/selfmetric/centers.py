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

Where the minimizer is smooth, the cuts alone close in linearly, so a solve
also fits a secant model of the Hessian to its last queries and casts its
Newton point beside the centroid (J. Nocedal and S. J. Wright, Numerical
Optimization, 2006, ch. 6). Once the Newton step is within the radius over
which the model rises by at most GAP_TOL / 2 of the value, a ring of three
points at that radius around the Newton point replaces the centroid: their
cuts close the cell around it and its bound certifies the gap. Each such row
is an exact subgradient, so it is a valid cut and bound like any other. On a
crease the model misfits, so failed fits back off exponentially and a ring
that does not certify leaves the solve to its centroids.
"""

from __future__ import annotations

import math
from collections import deque
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
    below. A cut through the centroid removes at least 4/9 of C's area
    (Grunbaum). A solve stops when its best value is within GAP_TOL
    (relative) of its best lower bound, with the best query and its value.

    Once a solve has three interior queries, it fits a symmetric H to the
    secants of its last ones about its best query b (`_secant_newton`) and,
    while H fits and is positive definite, casts the Newton point
    q_b - H^-1 g_b beside the centroid. Once that step is within the closing
    radius r = sqrt(GAP_TOL fbest / lambda_max(H)), it casts the Newton point
    and a ring of three points at radius r around it in place of the
    centroid: their deep cuts leave a cell about r across, and the bounds of
    that iteration are taken over the cell all of its cuts leave, where the
    Newton point's certifies. Every interior row is an exact subgradient, so
    each row cuts C and bounds the minimum, in one loop over the rows of
    every iteration; a row outside the polygon cuts nothing. A Newton or
    ring cut that would leave no area is rounding, and is skipped. A
    minimizer on a crease, where the exit edge of a ray switches, defeats
    the model: a fit whose residual exceeds a tenth of |y|, or whose Newton
    point does not improve on the best value, waits 1, 4, 16, ... iterations
    before the next fit, and a solve whose ring did not certify casts only
    centroids from then on.

    Every iteration casts the rows of all open solves in one `_ray_casts`
    call; each solve keeps its own rows, cell, certificate and iteration
    count, so its result is bit for bit that of solving it alone. A solve
    fails when a centroid cut leaves its cell no area or MAX_ITER passes;
    ConvergenceError then carries the best iterate of the first failing
    solve, the one a solve of each start in turn would raise.

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
    e = math.frexp(poly.scale)[1]
    scales = math.ldexp(1.0, -e), math.ldexp(1.0, e)
    cell = tuple(poly.vertices.T.tolist())
    solves = [_Solve(cell, start.tolist()) for start in starts]
    results = [None] * len(starts)
    failed = None    # the ConvergenceError of the first solve whose cell collapsed
    live, points = list(range(len(starts))), [s.rows[0] for s in solves]
    for iterations in range(1, MAX_ITER + 1):
        values, subgradients, inside = _ray_casts(poly, np.array(points), variant)
        # each interior row (x, y, f, g0, g1); a row outside the polygon is None and cuts nothing
        cast = [(x, y, f, g0, g1) if interior else None for (x, y), f, (g0, g1), interior
                in zip(points, values.tolist(), subgradients.tolist(), inside.tolist())]
        still, k, points = [], 0, []
        for i in live:
            s = solves[i]
            (xs, ys), closing, kept = s.cell, s.closing, None
            j, k = k, k + len(s.rows)    # its rows of the cast
            rows = cast[j:k]
            if None in rows:
                rows = [row for row in rows if row is not None]
            # the best value is taken first, so that every cut is as deep as it can be
            fbest = before = s.fbest
            for row in rows:
                if row[2] < fbest:
                    s.top, fbest = row, row[2]
            s.fbest = fbest
            s.seen.extend(rows)
            if k - j == 2:
                # a centroid and a Newton point: one that improves on the best value
                # resets the backoff, and one that does not fails its fit
                newton = cast[k - 1]
                if newton is not None and newton[2] < before:
                    s.backoff = 1
                else:
                    s._wait(iterations - 1)    # the fit that gave this Newton point
            lower, central = s.lower, not closing and cast[j] is not None
            for qx, qy, f, g0, g1 in rows:
                if len(xs) < 3:
                    break    # the centroid cut left no cell: raised below
                least, cx, cy = _cut(xs, ys, qx, qy, g0, g1, fbest - f)
                # f + least is the least value the linear bound at q allows on the cell
                lower = max(lower, f + least)
                if central:    # the start or a centroid: its cut is always made
                    xs, ys, central = cx, cy, False
                elif len(cx) > 2:    # a cut that would leave no area is rounding: skipped
                    kept = kept or (xs, ys)
                    xs, ys = cx, cy
            if closing and len(xs) > 2:
                # every cut keeps the minimizer, so each bound holds over the cell they leave
                lower = max(lower, *(f + min([g0 * (x - qx) + g1 * (y - qy)
                                              for x, y in zip(xs, ys)])
                                     for qx, qy, f, g0, g1 in rows))
            if fbest - lower <= GAP_TOL * fbest:
                results[i] = CenterResult(np.array(s.top[:2]), fbest, iterations, variant,
                                          fbest - lower)
                continue
            if closing:    # the ring did not certify: the minimizer is on a crease
                s.closing, s.fit_at = False, math.inf
            s.lower = lower
            newton = s.model(scales, iterations) if iterations >= s.fit_at else None
            centroid = _centroid(xs, ys, e)
            if centroid is None and kept is not None:
                xs, ys = kept    # a Newton or ring cut left a cell of no area
                centroid = _centroid(xs, ys, e)
            if centroid is None:
                gap = fbest - lower
                failed = ConvergenceError(
                    f"localization cell collapsed in {iterations} iterations (gap {gap:.3e})",
                    CenterResult(np.array(s.top[:2]), fbest, iterations, variant, gap))
                # raised once every earlier solve has finished, as a solve of each
                # start in turn would; the later solves cannot change the outcome
                break
            s.cell = xs, ys
            if newton is None:
                s.rows = [centroid]
            elif s.closing:
                nx, ny, r = newton
                s.rows = [[nx, ny], *([nx + r * ux, ny + r * uy] for ux, uy in _RING)]
            else:
                s.rows = [centroid, newton[:2]]
            points += s.rows
            still.append(i)
        live = still
        if not live:
            if failed is not None:
                raise failed
            return results
    s = solves[live[0]]
    gap = s.fbest - s.lower
    raise ConvergenceError(f"no certificate in {MAX_ITER} iterations (gap {gap:.3e})",
                           CenterResult(np.array(s.top[:2]), s.fbest, MAX_ITER, variant, gap))


# the unit directions of the closing ring, 120 degrees apart
_RING = ((1.0, 0.0), (-0.5, 0.8660254037844386), (-0.5, -0.8660254037844386))


class _Solve:
    """One start's solve: its cell (xs, ys) of Python floats, the rows it casts
    next and whether they are a closing ring, its best interior row top
    (x, y, f, g0, g1) and certificate, and its secant model: the last four
    interior rows, the iteration of its next fit (inf once a ring did not
    certify) and the wait after a failed one."""

    __slots__ = ("cell", "rows", "closing", "top", "fbest", "lower", "seen", "fit_at",
                 "backoff")

    def __init__(self, cell, start):
        self.cell, self.rows, self.closing = cell, [start], False
        self.top, self.fbest, self.lower = None, math.inf, -math.inf
        self.seen, self.fit_at, self.backoff = deque(maxlen=4), 0, 1

    def _wait(self, fitted):
        # the fit made at the end of iteration fitted failed: the next waits backoff iterations
        self.fit_at, self.backoff = fitted + 1 + self.backoff, 4 * self.backoff

    def model(self, scales, iterations):
        """The Newton point (x, y, r) to cast next, r the radius of its closing
        ring or 0.0, or None; sets closing. Failed fits wait 1, 4, 16, ...
        iterations before the next, until a Newton point improves on the best
        value."""
        if len(self.seen) < 3:
            return None
        newton = _secant_newton(self.seen, self.top, scales)
        if newton is None:
            self._wait(iterations)
            return None
        self.closing = newton[2] > 0.0
        return newton


def _secant_newton(seen, top, scales):
    """(x, y, r): the Newton point q_b - H^-1 g_b of the best interior row b = top
    and the radius r = sqrt(GAP_TOL f_b / lambda_max(H)) of its closing ring when
    the step is at most r, else r = 0.0; None unless H fits.

    H = [[a, c], [c, d]] is the symmetric matrix fitted by least squares to
    y_j = H s_j, with s_j = q_j - q_b and y_j = g_j - g_b over the last three
    rows of seen other than b, by the closed-form normal equations. It fits
    when the secants span the plane, the residual is at most a tenth of |y|
    and H is positive definite. For a polygon of scale about 2**e, scales =
    (2**-e, 2**e) scale s and y, exactly, so that no product overflows or
    underflows at any polygon scale."""
    (bx, by, fb, b0, b1), (down, up) = top, scales
    p = q = t = r0 = r1 = r2 = norm = 0.0
    for x, y, _, g0, g1 in [row for row in seen if row is not top][-3:]:
        sx, sy, y0, y1 = (x - bx) * down, (y - by) * down, (g0 - b0) * up, (g1 - b1) * up
        p += sx * sx
        q += sx * sy
        t += sy * sy
        r0 += sx * y0
        r1 += sy * y0 + sx * y1
        r2 += sy * y1
        norm += y0 * y0 + y1 * y1
    # the normal equations [[p, q, 0], [q, p + t, q], [0, q, t]] (a, c, d) = (r0, r1, r2):
    # the first and last give a and d from c, and the middle one then gives c
    pt, trace = p * t, p + t
    gram = pt - q * q
    if not gram > 1e-6 * trace * trace:    # the secants must span the plane
        return None
    c = (r1 - q * (r0 / p + r2 / t)) * pt / (trace * gram)
    a, d = (r0 - q * c) / p, (r2 - q * c) / t
    # at the least-squares solution the squared residual is |y|^2 - (a r0 + c r1 + d r2)
    det = a * d - c * c
    if not (norm - (a * r0 + c * r1 + d * r2) <= 0.01 * norm and a > 0.0 and det > 0.0):
        return None
    # in the scaled frame H^-1 g_b = [[d, -c], [-c, a]] g_b / det
    g0, g1 = b0 * up, b1 * up
    t0, t1 = (c * g1 - d * g0) / det, (c * g0 - a * g1) / det
    reach = GAP_TOL * fb / (0.5 * (a + d) + math.hypot(0.5 * (a - d), c))
    return (bx + t0 * up, by + t1 * up,
            math.sqrt(reach) * up if t0 * t0 + t1 * t1 <= reach else 0.0)


def _cut(xs, ys, qx, qy, g0, g1, bound):
    """(least, cx, cy): the least of g.(v - q) over the vertices v of the cell
    (xs, ys), and the cell cut to g.(x - q) <= bound, in the same order, each
    crossing put before the vertex that ends its edge, in one pass over the
    vertices."""
    cx, cy = [], []
    px, py = xs[-1], ys[-1]
    least = g0 * (px - qx) + g1 * (py - qy)
    ps = least - bound
    for x, y in zip(xs, ys):
        d = g0 * (x - qx) + g1 * (y - qy)
        if d < least:
            least = d
        s = d - bound
        if (ps < 0.0 < s) or (s < 0.0 < ps):
            t = ps / (ps - s)
            cx.append(px + t * (x - px))
            cy.append(py + t * (y - py))
        if s <= 0.0:
            cx.append(x)
            cy.append(y)
        px, py, ps = x, y, s
    return least, cx, cy


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
