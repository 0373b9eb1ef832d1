"""Exact self-volumes in rational arithmetic: a test oracle that never reads the
library's output.

Float qhull proposes the facets of a point set, and each is certified in
`fractions.Fraction`: a . p = 1 is solved through d linearly independent points
of the proposal (the origin is strictly inside), and a . p <= 1 must hold on
every point; the facet is the set where a . p = 1. A facet F and its central
section S_F lie in the parallel hyperplanes a . x = 1 and a . x = 0, so dropping
a coordinate i with a_i != 0 scales both measures by the same factor, and the
self-volume is invariant under that linear map:

    omega(P) = (1/d) sum_F vol(drop_i F) / vol(drop_i S_F) * omega(drop_i S_F),

with omega = 2 on a segment and i = argmax |a_i|. A volume is taken about the
centroid c of the points: vol(P) = (1/d) sum_F vol(drop_i F) / |a_i|, with
a . (x - c) = 1 on F. A section's points are the points on its hyperplane and
the crossings of the float hull's edges (every pair of points of a qhull
simplex, a superset of the 1-skeleton). Every value stays rational.
"""

import functools
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull


def self_volume(points):
    """Exact self-volume of the hull of points (rows of ints or Fractions) about
    the origin, which must lie strictly inside."""
    return _omega(_key(points))


def volume(points):
    """Exact volume of the hull of full-dimensional points."""
    return _volume(_key(points))


def _key(points):
    return tuple(sorted({tuple(map(Fraction, p)) for p in points}))


def _dot(a, p):
    return sum(x * y for x, y in zip(a, p))


def _drop(points, i):
    return _key(p[:i] + p[i + 1:] for p in points)


def _pivot(a):
    return max(range(len(a)), key=lambda i: abs(a[i]))


def _independent(points, k):
    """The first k linearly independent points, by exact elimination."""
    rows, chosen = [], []
    for p in points:
        v = list(p)
        for col, row in rows:
            if v[col]:
                f = v[col] / row[col]
                v = [x - f * y for x, y in zip(v, row)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is not None:
            rows.append((col, v))
            chosen.append(p)
            if len(chosen) == k:
                return chosen
    raise AssertionError("a proposed facet spans no hyperplane")


def _solve(matrix, rhs):
    """x with matrix @ x = rhs, by exact Gauss-Jordan elimination."""
    n = len(matrix)
    m = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n] for row in m]


@functools.lru_cache(maxsize=None)
def _hull(points):
    """(facets, edges) of the hull of points about an interior origin: each facet
    as (a, the points with a . p = 1), each edge as an index pair into points."""
    k = len(points[0])
    flt = np.array(points, dtype=float)
    hull = ConvexHull(flt)
    tol = 1e-9 * float(np.abs(flt).max())
    proposals = {frozenset(np.nonzero(np.abs(flt @ eq[:-1] + eq[-1]) < tol)[0].tolist())
                 for eq in hull.equations}
    facets = {}
    for near in proposals:
        a = tuple(_solve(_independent([points[j] for j in sorted(near)], k), [Fraction(1)] * k))
        if a not in facets:
            heights = [_dot(a, p) for p in points]
            assert max(heights) == 1, "qhull proposed a plane that does not support the points"
            facets[a] = tuple(p for p, h in zip(points, heights) if h == 1)
    edges = frozenset((int(i), int(j)) for s in hull.simplices for i in s for j in s if i < j)
    return tuple(facets.items()), edges


@functools.lru_cache(maxsize=None)
def _volume(points):
    k = len(points[0])
    if k == 1:
        return points[-1][0] - points[0][0]
    c = [sum(col) / len(points) for col in zip(*points)]
    facets, _ = _hull(_key([x - y for x, y in zip(p, c)] for p in points))
    return sum(_volume(_drop(on, _pivot(a))) / abs(a[_pivot(a)]) for a, on in facets) / k


def _section(points, edges, a):
    """The points on a . x = 0 and the crossings of the edges whose ends lie on
    opposite sides."""
    h = [_dot(a, p) for p in points]
    out = [p for p, hp in zip(points, h) if hp == 0]
    for i, j in edges:
        if h[i] * h[j] < 0:
            t = h[i] / (h[i] - h[j])
            out.append(tuple(x + t * (y - x) for x, y in zip(points[i], points[j])))
    return out


@functools.lru_cache(maxsize=None)
def _omega(points):
    k = len(points[0])
    if k == 1:
        return Fraction(2)
    facets, edges = _hull(points)
    total = Fraction(0)
    for a, on in facets:
        i = _pivot(a)
        section = _drop(_section(points, edges, a), i)
        total += _volume(_drop(on, i)) / _volume(section) * _omega(section)
    return total / k
