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

The cuts alone close in linearly, so a solve also casts rows placed by the
objective's own pieces. Each term is a ratio of parallel lengths, smooth and
convex while every ray keeps its exit edge, with a closed-form Hessian
(perimeter2._ray_casts); the exit edge of a ray switches exactly on a line
through a vertex parallel to an edge, so every crease is a known straight
line. A Newton step along the smooth manifold through a nonsmooth minimum
restores fast convergence (R. Mifflin and C. Sagastizabal, "A VU-algorithm
for convex minimization", Math. Programming 104, 2005); here that manifold
is the piece itself, a crease line or a crossing of two. So a solve casts
the Newton point of its best row's piece, and, where the model fails across
creases, the least of the model on each nearby crease line and the
crossings of those lines. Once the step is short, a ring of points about its
end, one in each sector between the lines through it, closes the cell about
the minimizer and certifies the gap. Every row is an exact subgradient, so
it is a valid cut and bound like any other.

The solve runs about the polygon's own centroid: the slacks h - nu.p then
carry no rounding of the polygon's offset from the origin, so the certified
gap bounds the true one wherever the polygon lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (REL_TOL, BarycentricPoint, GeometryError, NotInteriorError, Polygon2,
                       _centroid, _count, _point, _slack)
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
    query is the start point. At an interior query q with value f and
    subgradient g, x satisfies g.(x - q) <= fbest - f, so C is clipped to that
    half-plane, and f + min over the vertices v of C of g.(v - q) bounds the
    minimum from below. A cut through the centroid removes at least 4/9 of C's
    area (Grunbaum). A solve stops when its best value is within GAP_TOL
    (relative) of its best lower bound, with the best query and its value.
    _Solve.step takes each iteration of a solve, on the rows _Solve.plan set.

    The solve runs on the polygon moved by its centroid (Polygon2._moved), and
    the optimum is moved back. Every iteration casts the rows of all open
    solves in one `_ray_casts` call; each solve keeps its own rows, cell,
    certificate and iteration count, so its result is bit for bit that of
    solving it alone. A solve fails when a centroid cut leaves its cell no
    area or MAX_ITER passes; ConvergenceError then carries the best iterate of
    the first failing solve, the one a solve of each start in turn would raise.

    Returns a list of CenterResult, one per start, in order.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("optimal_centers_2d expects a Polygon2")
    _check_variant(variant)
    starts = [_point(start, 2) for start in starts]
    if not starts:
        raise GeometryError("need at least one start point")
    with np.errstate(invalid="ignore"):
        slack = _slack(poly.normals, poly.offsets, np.array(starts))
    if not (slack.min(axis=1) > 0.0).all():   # NaN for a NaN/inf start
        raise NotInteriorError("start point is not strictly inside the polygon")
    shift = poly.centroid
    frame = poly._moved(shift)
    piece, e = _creases(frame, variant), math.frexp(frame.scale)[1]
    cell = tuple(frame.vertices.T.tolist())
    solves = [_Solve(cell, (start - shift).tolist(), piece, e) for start in starts]
    results = [None] * len(starts)
    failed = None    # the ConvergenceError of the first solve whose cell collapsed

    def result(s, iterations):
        return CenterResult(np.array(s.top[:2]) + shift, s.fbest, iterations, variant,
                            s.fbest - s.lower)

    live = list(range(len(starts)))
    for iterations in range(1, MAX_ITER + 1):
        points = [row for i in live for row in solves[i].rows]
        values, subgradients, hessians, exits, inside = _ray_casts(frame, np.array(points),
                                                                   variant)
        # each interior row (x, y, f, g0, g1); a row outside the polygon is None and cuts nothing
        cast = [(x, y, f, g0, g1) if interior else None for (x, y), f, (g0, g1), interior
                in zip(points, values.tolist(), subgradients.tolist(), inside.tolist())]
        still, k = [], 0
        for i in live:
            s = solves[i]
            j, k = k, k + len(s.rows)    # its rows of the cast
            outcome = s.step(cast[j:k], hessians[j:k], exits[j:k])
            if outcome is None:
                still.append(i)
            elif outcome == "certified":
                results[i] = result(s, iterations)
            else:
                failed = ConvergenceError(f"localization cell collapsed in {iterations} "
                                          f"iterations (gap {s.fbest - s.lower:.3e})",
                                          result(s, iterations))
                # raised once every earlier solve has finished, as a solve of each
                # start in turn would; the later solves cannot change the outcome
                break
        live = still
        if not live:
            if failed is not None:
                raise failed
            return results
    s = solves[live[0]]
    raise ConvergenceError(f"no certificate in {MAX_ITER} iterations "
                           f"(gap {s.fbest - s.lower:.3e})", result(s, MAX_ITER))


# a solve whose model fails casts the least of the model on this many crease lines
# nearest its best row that cross its cell, and this many crossings of two of them
# inside the cell, nearest its best row
MAX_LINES = 4
MAX_CROSSINGS = 4
# a ring is cast once the squared Newton step is within CLOSE_STEP f / lambda_max:
# the model's next step, about the square of this one over the width
# sqrt(f / lambda_max), then falls within the ring's radius
# sqrt(GAP_TOL f / lambda_max); a step within that radius itself, as the ring
# would need without this look-ahead, costs one more iteration per smooth solve
CLOSE_STEP = math.sqrt(GAP_TOL)


def _creases(frame, variant):
    """The crease lines of a polygon's self-perimeter for one variant, as a lookup
    piece(exits) -> (normals (2 c, 2), offsets (2 c,)) of the lines that bound the
    piece of exit edges exits: those through both ends of each exit edge.

    The ray of edge i (and its reverse, for the Busemann variant) leaves through
    edge j while n_i.p lies between n_i.v_j and n_i.v_j+1, so the objective is
    smooth between the lines n_i.x = n_i.v_m through the vertices, parallel to the
    edges. Column c of _ray_casts' exits is the ray of edge c mod k; the end table
    (2, k k) holds the offsets n_i.v_j and n_i.v_j+1 at i k + j."""
    k, normals = len(frame), frame.normals
    lines = normals @ frame.vertices.T
    ends = np.array([lines, np.concatenate([lines[:, 1:], lines[:, :1]], axis=1)]).reshape(2, k * k)
    rays = np.arange(2 * k if variant == "busemann" else k) % k
    normals, first = np.concatenate([normals[rays], normals[rays]]), rays * k

    def piece(exits):
        return normals, ends[:, first + exits].ravel()

    return piece


class _Solve:
    """One start's solve, in the centroid frame of a polygon with crease lookup piece
    (_creases) and scale exponent e: its cell (xs, ys) of Python floats; the rows
    it casts next, with the crease lines each was placed on (marks: None for the
    start and a centroid, () for a Newton or ring point), whether the first is its
    central cut, whether they are a ring (closing) and the index of its Newton row
    (stepped; -1 for one outside the cell); its best interior row top (x, y, f, g0,
    g1) with the Hessian and exit edges of its piece and its mark (on); its
    certificate; the narrowing of its next ring, the best row of its last ring
    (rung) and whether its last Newton point failed to improve (missed)."""

    __slots__ = ("cell", "rows", "marks", "central", "closing", "stepped", "top", "fbest",
                 "lower", "hessian", "exits", "on", "narrow", "rung", "missed", "piece", "e")

    def __init__(self, cell, start, piece, e):
        self.cell, self.rows, self.marks, self.central = cell, [start], [None], True
        self.closing, self.stepped = False, None
        self.top, self.fbest, self.lower = None, math.inf, -math.inf
        self.hessian = self.exits = self.on = self.rung = None
        self.narrow, self.missed, self.piece, self.e = 1.0, False, piece, e

    def step(self, cast, hessians, exits):
        """One iteration on the cast of its rows: per row (x, y, f, g0, g1), or None
        outside the polygon, and its piece's Hessian and exit edges. Every interior
        row is an exact subgradient, so each cuts the cell and bounds the minimum; a
        cut other than the centroid's that would leave no area is rounding, and is
        skipped. Returns "certified" (fbest - lower within GAP_TOL fbest), "collapsed"
        (no cell left) or None, with the next rows planned, while the solve is open."""
        (xs, ys), closing, kept = self.cell, self.closing, None
        # the best value is taken first, so that every cut is as deep as it can be
        fbest, top = self.fbest, None
        for r, row in enumerate(cast):
            if row is not None and row[2] < fbest:
                top, fbest = r, row[2]
        if top is not None:
            self.top, self.fbest, self.on = cast[top], fbest, self.marks[top]
            self.hessian, self.exits = hessians[top], exits[top]
            if not closing:    # a new best row away from a ring: full-width rings again
                self.narrow = 1.0
        rows = [row for row in cast if row is not None]
        lower, central = self.lower, self.central and cast[0] is not None
        for qx, qy, f, g0, g1 in rows:
            if len(xs) < 3:
                break    # the centroid cut left no cell: collapsed below
            least, cx, cy = _cut(xs, ys, qx, qy, g0, g1, fbest - f)
            # f + least is the least value the linear bound at q allows on the cell
            lower = max(lower, f + least)
            if central:    # the start or a centroid: its cut is always made
                xs, ys, central = cx, cy, False
            elif len(cx) > 2:    # a cut that would leave no area is rounding: skipped
                kept = kept or (xs, ys)
                xs, ys = cx, cy
        if closing and len(xs) > 2:
            # every cut keeps the minimizer, so each bound holds over the cell they
            # leave: the best row's first, then the others while the gap stays open
            for qx, qy, f, g0, g1 in [self.top, *rows]:
                lower = max(lower, f + min([g0 * (x - qx) + g1 * (y - qy)
                                            for x, y in zip(xs, ys)]))
                if fbest - lower <= GAP_TOL * fbest:
                    break
        self.lower = lower
        if fbest - lower <= GAP_TOL * fbest:
            return "certified"
        if closing:    # the ring did not certify: the next one is 4 times narrower
            self.narrow *= 0.25
        centroid = _centroid(xs, ys, self.e)
        if centroid is None and kept is not None:
            xs, ys = kept    # a cut after the centroid's left a cell of no area
            centroid = _centroid(xs, ys, self.e)
        if centroid is None:
            return "collapsed"
        self.cell = xs, ys
        self.plan(centroid, self.stepped is not None and top == self.stepped)
        return None

    def plan(self, centroid, improved):
        """Set the rows of the next iteration from the best row b, its piece's Hessian
        H and the crease lines of that piece, improved telling whether the last
        Newton point became the best row:
        - the centroid of the cell, whose cut is always made; it is left out while
          the last Newton point improved on the best value;
        - the Newton point q_b - H^-1 g_b of b's piece;
        - where the model fails (the last Newton point no better than the best
          value, with a model row best or twice in a row), the least of b's
          quadratic model on each of the MAX_LINES crease lines of b's piece
          nearest b that cross the cell, and the MAX_CROSSINGS crossings of two of
          them inside the cell nearest b (_crease_rows; the lines b lies on count
          too, and are cast where the model holds);
        - once b's Newton step (along its line, for a row placed on one; none, for
          a crossing) is within sqrt(CLOSE_STEP f / lambda_max(H)), a ring about
          the step's end at the radius sqrt(GAP_TOL f / lambda_max(H)) (half that
          square for a crease point), one point in each sector between the
          piece's lines through it (_ring), in place of the other rows; not twice
          in a row about one best row. Its bounds are taken over the cell all of
          the iteration's cuts leave, and a ring that does not certify makes the
          next one about the same region 4 times narrower."""
        missed, self.missed = self.missed, self.stepped is not None and not improved
        fails = self.missed and (missed or self.on is not None)
        self.rows, self.marks, self.stepped, self.closing = [centroid], [None], None, False
        self.central = True
        if self.top is None:    # the start lies outside the frame by rounding
            return
        x, y, f, g0, g1 = self.top
        # in units of up = 2**e, exactly, so that no product leaves the float range
        up = math.ldexp(1.0, self.e)
        (a, c), (_, d) = self.hessian.tolist()
        a, c, d, g0, g1 = a * up * up, c * up * up, d * up * up, g0 * up, g1 * up
        lam = 0.5 * (a + d) + math.hypot(0.5 * (a - d), c)
        # the squared radius over which the model rises by GAP_TOL f, and the squared
        # step within which a ring is cast
        reach = max(GAP_TOL * f / lam, 0.0) if lam > 0.0 else 0.0
        close = CLOSE_STEP * f / lam if lam > 0.0 else 0.0
        on, ring, self.rung = self.on or (), self.top is not self.rung, None
        if ring and len(on) == 2:
            self._ring([], [], x, y, math.sqrt(0.5 * reach) * up)
            return
        if ring and len(on) == 1:
            (n0, n1, _), = on
            curve = n1 * (a * n1 - c * n0) - n0 * (c * n1 - d * n0)
            step = (g0 * n1 - g1 * n0) / curve if curve > 0.0 else math.inf
            if step * step <= close:    # the step along t = (-n1, n0)
                cx, cy = x - step * n1 * up, y + step * n0 * up
                self._ring([[cx, cy]], [on], cx, cy, math.sqrt(0.5 * reach) * up)
                return
        det = a * d - c * c
        if det > 0.0:
            s0, s1 = (c * g1 - d * g0) / det, (c * g0 - a * g1) / det
            newton = [x + s0 * up, y + s1 * up]
            if ring and not on and not fails and s0 * s0 + s1 * s1 <= close:
                self.stepped = 0
                self._ring([newton], [()], *newton, math.sqrt(reach) * up)
                return
            if not _within(*self.cell, *newton):
                # every point outside the cell lies above the best value: a failed step
                self.stepped = -1
            elif improved:    # the model holds: its step, not the centroid, leads
                self.rows, self.marks, self.central, self.stepped = [newton], [()], False, 0
            else:
                self.rows.append(newton)
                self.marks.append(())
                self.stepped = 1
        if fails or on:
            self._crease_rows(fails, up, a, c, d, g0, g1)

    def _crease_rows(self, fails, up, a, c, d, g0, g1):
        """Cast the least of the best row's quadratic model on each of the MAX_LINES
        crease lines nearest it that meet the cell, of those it lies on and, if the
        model fails, its piece's, and the MAX_CROSSINGS nearest crossings of two of
        them inside the cell; a, c, d, g0, g1: its Hessian and gradient in units of up."""
        x, y = self.top[:2]
        xs, ys = self.cell
        normals, offsets = self.piece(self.exits) if fails else (np.empty((0, 2)), np.empty(0))
        if self.on:
            normals = np.vstack([normals, [line[:2] for line in self.on]])
            offsets = np.concatenate([offsets, [line[2] for line in self.on]])
        heights = normals @ [xs, ys]
        gaps = np.abs(offsets - normals @ [x, y])
        meet = ((heights.min(axis=1) <= offsets) & (offsets <= heights.max(axis=1))).nonzero()[0]
        # a line comes at most twice, as the lines of antiparallel edges
        near = meet[np.argsort(gaps[meet], kind="stable")[:2 * MAX_LINES]]
        kept = []
        for gap, n0, n1, offset in zip(gaps[near].tolist(), *normals[near].T.tolist(),
                                       offsets[near].tolist()):
            # a line met twice, or as the line of an antiparallel edge, counts once
            if all(abs(n0 * m1 - n1 * m0) > 1e-9 or abs(gap - h) > 1e-9 * up
                   for h, m0, m1, _ in kept):
                kept.append((gap, n0, n1, offset))
                if len(kept) == MAX_LINES:
                    break
        lines = [line[1:] for line in kept]
        for line in lines:
            # the foot of the best row on the line, then the least of the model along
            # t = (-n1, n0), in units of up
            n0, n1, offset = line
            gap = (offset - (n0 * x + n1 * y)) / up
            curve = n1 * (a * n1 - c * n0) - n0 * (c * n1 - d * n0)
            slope = (g1 * n0 - g0 * n1) + gap * (n0 * (c * n0 + d * n1) - n1 * (a * n0 + c * n1))
            step = -slope / curve if curve > 0.0 else 0.0
            px, py = x + (gap * n0 - step * n1) * up, y + (gap * n1 + step * n0) * up
            if _within(xs, ys, px, py):
                self.rows.append([px, py])
                self.marks.append((line,))
        crossings = []
        for p, (n0, n1, h) in enumerate(lines):
            for m0, m1, g in lines[p + 1:]:
                det = n0 * m1 - n1 * m0
                if abs(det) > 1e-6:
                    px, py = (h * m1 - g * n1) / det, (n0 * g - m0 * h) / det
                    if _within(xs, ys, px, py):
                        crossings.append((math.hypot(px - x, py - y), px, py,
                                          (lines[p], (m0, m1, g))))
        crossings.sort(key=lambda item: item[0])
        for _, px, py, pair in crossings[:MAX_CROSSINGS]:
            self.rows.append([px, py])
            self.marks.append(pair)

    def _ring(self, rows, marks, cx, cy, radius):
        """Set rows, then ring points about (cx, cy) at radius times the narrowing: one
        in each sector between the crease lines of the best row's piece that pass
        within half that radius, and for a single line also one each way along it;
        about a Newton point (marks [()]), three 120 degrees apart."""
        radius *= self.narrow
        angles = []
        if marks != [()]:
            normals, offsets = self.piece(self.exits)
            close = np.abs(offsets - normals @ [cx, cy]) <= 0.5 * radius
            for t in sorted((np.arctan2(normals[close, 0], -normals[close, 1]) % math.pi)
                            .tolist()):
                if not angles or t - angles[-1] > 1e-9:
                    angles.append(t)
            # antiparallel edges give one line at angles a rounding, or pi, apart
            if len(angles) > 1 and angles[0] + math.pi - angles[-1] <= 1e-9:
                angles.pop()
        if len(angles) == 1:
            mids = [angles[0] + 0.5 * math.pi * i for i in range(4)]
        elif angles:
            angles += [t + math.pi for t in angles]
            mids = [0.5 * (t + u) for t, u in zip(angles, angles[1:] + [angles[0] + 2.0 * math.pi])]
        else:
            mids = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
        self.rows = rows + [[cx + radius * math.cos(t), cy + radius * math.sin(t)] for t in mids]
        self.marks = marks + [()] * len(mids)
        self.closing, self.rung, self.central = True, self.top, False


def _within(xs, ys, px, py):
    """Whether (px, py) lies strictly inside the CCW cell (xs, ys)."""
    x0, y0 = xs[-1], ys[-1]
    for x1, y1 in zip(xs, ys):
        if (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0) <= 0.0:
            return False
        x0, y0 = x1, y1
    return True


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
    lower bound), correctly rounded, for n up to 712; returned as a CenterResult
    with barycentric optimum.
    """
    n = _count(n, "n", 1)
    if n > 712:
        raise GeometryError(f"n must be at most 712 ((n+1)^n / n! overflows a float), got {n}")
    weights = np.full(n + 1, 1.0 / (n + 1))
    value = (n + 1) ** n / math.factorial(n)
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
