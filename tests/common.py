"""Shared generators for the test suite; all randomness is seeded by callers."""

import numpy as np

from selfmetric import geometry
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


def translated_perimeter_bound(poly, t):
    """4 eps (1 + |t| / w), w the least width of poly: the relative bound within which a
    default-centre perimeter of poly moved by t matches poly's own. The slacks h - nu.p
    at the moved centroid carry about eps |t| each, against slacks of at least w / 3.
    Measured on the hulls of 30,000 random clouds, thin up to aspect 1e4 and moved by
    up to 1e6 times their extent: at most 1.61 eps (1 + |t| / w), both variants."""
    width = float(np.min(poly.offsets - np.min(poly.normals @ poly.vertices.T, axis=1)))
    return 4.0 * np.finfo(float).eps * (1.0 + float(np.linalg.norm(t)) / width)


def qhull_polygon(vertices):
    """A 2-D PolytopeN built by qhull, as PolytopeN built every d = 2 body before
    it took the hull scan: the reference the scan's facet rows are held to."""
    verts, simplices, normals, offsets, measures, area = \
        geometry._qhull_facets(np.asarray(vertices, dtype=float))
    n = len(verts)
    ends = np.sort(simplices, axis=1)
    codes = np.unique(ends[:, 0] * n + ends[:, 1])
    edges = np.column_stack([codes // n, codes % n])
    for a in (verts, normals, offsets, measures, edges):
        a.setflags(write=False)
    return PolytopeN.__new__(PolytopeN)._bind(2, verts, normals, offsets, measures, edges, area,
                                              float(np.max(np.linalg.norm(verts, axis=1))))


def with_vertices(poly, vertices):
    """poly with its vertices replaced and its facet rows, edges, volume, scale and
    polar rows kept: an inconsistent body, in which the origin still counts as
    inside, for the error paths that no consistent body reaches."""
    v = np.array(vertices, dtype=float)
    v.setflags(write=False)
    return PolytopeN.__new__(PolytopeN)._bind(poly.dim, v, poly.facet_normals, poly.facet_offsets,
                                              poly.facet_measures, poly.edges, poly.volume,
                                              poly.scale, poly._polar)
