"""Shared generators for the test suite; all randomness is seeded by callers."""

import numpy as np

from selfmetric.geometry import Polygon2, PolytopeN


def random_ccs_polygon(rng, pairs=5, scale=1.0):
    """Centrally symmetric convex polygon: hull of random points and their negatives."""
    pts = rng.normal(size=(pairs, 2)) * scale
    return Polygon2.from_hull(np.vstack([pts, -pts]))


def random_polygon(rng, points=8, scale=1.0):
    """Generic convex polygon as the hull of a random cloud."""
    return Polygon2.from_hull(rng.normal(size=(points, 2)) * scale)


def random_polygon_with_origin(rng, points=8, margin=1e-3):
    """Convex polygon whose interior strictly contains the origin."""
    while True:
        poly = random_polygon(rng, points)
        if poly.interior_distance(np.zeros(2)) > margin * poly.scale:
            return poly


def interior_point(poly, rng, margin=1e-6):
    lo = np.min(poly.vertices, axis=0)
    hi = np.max(poly.vertices, axis=0)
    while True:
        p = lo + rng.random(2) * (hi - lo)
        if poly.interior_distance(p) > margin * poly.scale:
            return p


def qhull_polygon(vertices):
    """A 2-D PolytopeN built by qhull, as PolytopeN built every d = 2 body before
    it took the hull scan: the reference the scan's facet rows are held to."""
    from scipy.spatial import ConvexHull
    v = np.asarray(vertices, dtype=float)
    hull = ConvexHull(v)
    keep = np.sort(hull.vertices)
    remap = -np.ones(len(v), dtype=int)
    remap[keep] = np.arange(len(keep))
    poly = PolytopeN.__new__(PolytopeN)
    poly.dim = 2
    poly.vertices = v[keep]
    simplices = remap[hull.simplices]
    poly.volume = float(hull.volume)
    poly.facet_normals, poly.facet_offsets, poly.facet_measures = \
        poly._merge_facets(hull, simplices)
    n = len(keep)
    ends = np.sort(simplices, axis=1)
    codes = np.unique(ends[:, 0] * n + ends[:, 1])
    poly.edges = np.column_stack([codes // n, codes % n])
    poly.scale = float(np.max(np.linalg.norm(poly.vertices, axis=1)))
    return poly
