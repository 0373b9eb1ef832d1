"""The section kernel's bit contract.

`central_section` cuts a qhull-built polygon by a crossing kernel on Python
floats, and `PolytopeN` takes its facet normal lengths in one stacked product.
Each must give the bits of the textbook numpy form it replaced; those forms are
kept here as references. `_pivoted_basis` is the textbook pivoted Gram-Schmidt
itself; its reference also keeps the 2-D closed form of the crossing kernel's
frame.

A polygon built by the scan (every section of a 3-D body, and
`polygon_as_polytope`) whose aspect scale / min h_F is at most
`_GAUGE_ASPECT` has its chords cut by its gauge instead: they must give the
bits of the support-function reference kept here, and the length of the
crossing chord within 1e-14 relative. A thinner scan-built polygon keeps the
crossing kernel's bit contract.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from selfmetric import geometry, selfvolume
from selfmetric.geometry import (COPLANAR_TOL, REL_TOL, DegenerateSectionError, GeometryError,
                                 PolytopeN, central_section, cube, icosphere,
                                 polygon_as_polytope, regular_polygon)

# ---------------------------------------------------------------------------
# references: the numpy forms the kernel replaced


def reference_basis(nu):
    """_pivoted_basis as numpy array operations, with its 2-D closed form."""
    norm = math.sqrt(nu.dot(nu))
    d = len(nu)
    if d == 2:
        x, y = nu.tolist()
        x, y = x / norm, y / norm
        axis, c = (0, x) if abs(x) <= abs(y) else (1, y)
        w = [0.0 - c * x, 0.0 - c * y]
        w[axis] = 1.0 - c * c
        wa = np.array(w)
        norm = math.sqrt(wa.dot(wa))
        return np.array([[w[0] / norm], [w[1] / norm]])
    nu = nu / norm
    basis = [nu]
    for axis in np.abs(nu).argsort(kind="stable").tolist():
        s = nu[axis] * nu
        for b in basis[1:]:
            s = s + b[axis] * b
        w = 0.0 - s
        w[axis] = 1.0 - s[axis]
        norm = math.sqrt(w.dot(w))
        if norm > 1e-8:
            basis.append(w / norm)
            if len(basis) == d:
                break
    return np.array(basis[1:]).T.copy()


def reference_section(poly, normal):
    """central_section by the generic numpy crossing code in every dimension."""
    d = poly.dim
    nu = geometry._unit(normal, d)
    verts = poly.vertices
    heights = verts @ nu
    tol = REL_TOL * poly.scale
    side = np.subtract(heights > tol, heights < -tol, dtype=np.int8)
    ends_side = side.take(poly.edges)
    ends = poly.edges.take((ends_side[:, 0] * ends_side[:, 1] < 0).nonzero()[0], axis=0)
    h = heights.take(ends)
    hi = h[:, 0]
    t = hi / (hi - h[:, 1])
    v = verts.take(ends, axis=0)
    vi = v[:, 0]
    pts = vi + t[:, None] * (v[:, 1] - vi)
    if np.count_nonzero(side) < len(side):
        pts = np.vstack([verts[side == 0], pts])
    if len(pts) < d:
        raise DegenerateSectionError("hyperplane misses the polytope interior")
    proj = pts @ reference_basis(nu)
    try:
        if d == 2:
            coords = proj.ravel().tolist()
            return PolytopeN._segment(min(coords), max(coords))
        if d == 3:
            return PolytopeN._polygon(proj)
        return PolytopeN(proj)
    except GeometryError as exc:
        raise DegenerateSectionError(f"section is not full-dimensional: {exc}") from exc


def reference_gauge_chord(poly, normal):
    """The chord of a scan-built polygon by the support function of its polar body.

    The support function h of the polar rows u_F / h_F is the polygon's gauge, so
    the chord along t, the unit normal turned by 90 degrees so that its
    coordinate on the frame's axis (the one of the smaller |nu_i|, the first on
    a tie) is positive, is [-1 / h(-t), 1 / h(t)].
    """
    nu = geometry._unit(normal, 2)
    t = np.array([-nu[1], nu[0]])
    if t[0 if abs(nu[0]) <= abs(nu[1]) else 1] < 0.0:
        t = -t
    polar = poly.facet_normals / poly.facet_offsets[:, None]

    def support(u):
        return max((polar @ u).tolist())

    try:
        return PolytopeN._segment(-1.0 / support(-t), 1.0 / support(t))
    except GeometryError as exc:
        raise DegenerateSectionError(f"section is not full-dimensional: {exc}") from exc


def reference_facet_normals(points):
    """PolytopeN(points).facet_normals with each length a 1-d np.linalg.norm."""
    hull = ConvexHull(points)
    eqs = hull.equations
    nf = len(hull.simplices)
    i = np.repeat(np.arange(nf), hull.neighbors.shape[1])
    j = hull.neighbors.ravel()
    i, j = i[j > i], j[j > i]
    diff = np.abs(eqs[i] - eqs[j])
    same = ((np.max(diff[:, :-1], axis=1) < COPLANAR_TOL)
            & (diff[:, -1] < COPLANAR_TOL * np.maximum(1.0, np.abs(eqs[i, -1]))))
    i, j = i[same], j[same]
    label = np.arange(nf)
    while not np.array_equal(label[i], label[j]):
        np.minimum.at(label, i, label[j])
        np.minimum.at(label, j, label[i])
    normals = eqs[label == np.arange(nf), :-1]
    normals = normals / np.array([np.linalg.norm(u) for u in normals])[:, None]
    return normals[np.lexsort(np.round(normals, 12).T[::-1])]


# ---------------------------------------------------------------------------
# helpers


def _outcome(cut, poly, normal):
    """("ok", the section's bytes) or (error type, message)."""
    try:
        s = cut(poly, normal)
    except GeometryError as exc:
        return type(exc), str(exc)
    return "ok", (s.dim, float(s.volume).hex(), float(s.scale).hex(),
                  *(a.dtype.str + a.tobytes().hex() + str(a.shape)
                    for a in (s.vertices, s.facet_normals, s.facet_offsets,
                              s.facet_measures, s.edges)))


def _cuts(poly, rng):
    """Unit facet normals, normals of hyperplanes through a vertex (so that
    vertices lie on the cut) and random directions."""
    d = poly.dim
    through = []
    for v in poly.vertices:
        if d == 2:
            through.append([-v[1], v[0]])
        else:
            # orthogonal to v and to a random vector: v lies in the hyperplane
            r = rng.normal(size=d)
            n = r - (r @ v) / (v @ v) * v
            through.append(n)
    return [*poly.facet_normals, *np.array(through), *rng.normal(size=(4, d))]


def _assert_cuts_match(poly, rng):
    cuts = 0
    for normal in _cuts(poly, rng):
        if not np.any(normal):
            continue
        assert _outcome(central_section, poly, normal) == _outcome(reference_section, poly, normal)
        cuts += 1
    return cuts


def _assert_scan_chords_match(poly, rng):
    """Every cut of a scan-built polygon. Up to aspect scale / min h_F =
    _GAUGE_ASPECT: the support-function chord, bit for bit, whose length is the
    crossing chord's within 1e-14 relative. Above it: the crossing chord, bit
    for bit.

    The crossing chord reads the vertices and the gauge the facet rows, which a
    polygon carries to about eps * aspect relative (measured: at most 1.8 eps *
    aspect over 300 seeds of clouds thinned by up to 1e4, and at most 1.4e-15
    relative up to aspect 16).
    """
    if poly.scale > geometry._GAUGE_ASPECT * float(np.min(poly.facet_offsets)):
        assert poly._polar is None
        return _assert_cuts_match(poly, rng)
    cuts = 0
    for normal in _cuts(poly, rng):
        if not np.any(normal):
            continue
        assert _outcome(central_section, poly, normal) == \
            _outcome(reference_gauge_chord, poly, normal)
        got, want = central_section(poly, normal).volume, reference_section(poly, normal).volume
        assert abs(got - want) <= 1e-14 * want
        cuts += 1
    return cuts


@st.composite
def clouds(draw, dim):
    """Centred random points in dim dimensions, thin up to aspect 1e4, rotated."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.normal(size=(draw(st.integers(dim + 1, 24)), dim))
    pts[:, -1] /= draw(st.sampled_from([1.0, 1e2, 1e4]))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    pts = pts @ q
    return pts - pts.mean(axis=0), rng


# ---------------------------------------------------------------------------
# chords


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(clouds(2))
def test_chords_of_qhull_polygons_are_bit_identical(cloud):
    pts, rng = cloud
    poly = PolytopeN(pts)
    assume(poly.origin_interior())
    assert _assert_cuts_match(poly, rng) > 0


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(clouds(3))
def test_sections_of_3d_bodies_and_their_chords_are_bit_identical(cloud):
    pts, rng = cloud
    body = PolytopeN(pts)
    assume(body.origin_interior())
    _assert_cuts_match(body, rng)
    for normal in _cuts(body, rng)[:6]:
        try:
            section = central_section(body, normal)
        except DegenerateSectionError:
            continue
        if section.origin_interior():
            _assert_scan_chords_match(section, rng)


@pytest.mark.parametrize("body", [lambda: cube(3), lambda: icosphere(1)], ids=["cube3", "ico1"])
def test_chords_of_stock_sections_are_bit_identical(body):
    rng = np.random.default_rng(3)
    poly = body()
    for normal in poly.facet_normals:
        section = central_section(poly, normal)
        assert section._polar is not None
        assert _assert_scan_chords_match(section, rng) > 0


def test_thin_sections_keep_the_crossing_chord():
    slab = PolytopeN(cube(3).vertices * [1.0, 1.0, 0.01])
    section = central_section(slab, [1.0, 0.0, 0.0])
    assert section.scale > geometry._GAUGE_ASPECT * float(np.min(section.facet_offsets))
    assert _assert_scan_chords_match(section, np.random.default_rng(4)) > 0


def test_chords_lie_along_the_frame_axis_whatever_the_builder():
    # the scan's polygon and qhull's polygon of the same vertices give the same
    # segment, not its mirror
    poly = regular_polygon(7, phase=0.3)
    scan, qhull = polygon_as_polytope(poly), PolytopeN(poly.vertices)
    assert scan._polar is not None and qhull._polar is None
    for normal in [[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.6, -0.8],
                   [-0.8, 0.6], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]:
        np.testing.assert_allclose(central_section(scan, normal).vertices,
                                   central_section(qhull, normal).vertices, rtol=1e-14)


def test_chords_of_sections_build_no_vertex_lists(monkeypatch):
    # the recursion's chords read the polar rows alone; a qhull-built polygon
    # still builds its lists on its first chord, which the spy sees
    built = []
    lists = PolytopeN._lists
    monkeypatch.setattr(PolytopeN, "_lists",
                        property(lambda poly: built.append(poly) or lists.func(poly)))
    assert selfvolume.self_volume_recursive(cube(3)).value == pytest.approx(8.0, rel=1e-15)
    assert built == []
    qhull_polygon = PolytopeN(regular_polygon(5).vertices)
    central_section(qhull_polygon, [1.0, 0.0])
    assert built == [qhull_polygon]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(3, 12), st.floats(0.0, 1.0), st.floats(-6.0, 6.0),
       st.floats(1e-14, 1e-6), st.sampled_from([[1.0, 0.0], [0.0, 1.0], [0.6, -0.8]]))
def test_chord_errors_are_the_generic_ones(k, phase, shift, squash, normal):
    # polygons whose vertices are moved after their facet rows are built, so
    # that the origin still counts as inside: shifted off the cut line (the
    # hyperplane misses them) or squashed onto a point of it (the chord is
    # degenerate)
    # (qhull's polygons, whose vertex lists are read on the first chord)
    nu = np.array(normal)
    along = np.array([-nu[1], nu[0]])
    for move in (lambda v: v + (3.0 + abs(shift)) * nu,
                 lambda v: v @ np.outer(nu, nu) + squash * (v @ np.outer(along, along))
                 + shift * along):
        moved = PolytopeN(regular_polygon(k, phase=phase).vertices)
        moved.vertices = move(moved.vertices)
        assert _outcome(central_section, moved, nu) == _outcome(reference_section, moved, nu)


def test_chord_errors_carry_both_messages():
    poly = PolytopeN(regular_polygon(4).vertices)
    poly.vertices = poly.vertices + [0.0, 5.0]
    with pytest.raises(DegenerateSectionError, match="^hyperplane misses the polytope interior$"):
        central_section(poly, [0.0, 1.0])
    poly = PolytopeN(regular_polygon(4).vertices)
    poly.vertices = poly.vertices * [1e-12, 1.0] + [5.0, 0.0]
    with pytest.raises(DegenerateSectionError,
                       match="^section is not full-dimensional: 1d polytope is degenerate$"):
        central_section(poly, [0.0, 1.0])


# ---------------------------------------------------------------------------
# frames and facet normals


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(2, 5).flatmap(lambda d: st.lists(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25]) | st.floats(-1.0, 1.0),
    min_size=d, max_size=d)))
def test_frames_are_bit_identical(v):
    # sampled components give axis ties and signed zeros
    assume(any(v))
    nu = geometry._unit(np.array(v), len(v))
    got = geometry._pivoted_basis(nu)
    assert got.flags.c_contiguous   # the layout decides the BLAS kernel of pts @ basis
    assert got.shape == (len(v), len(v) - 1)
    assert got.tobytes() == reference_basis(nu).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(3, 5).flatmap(clouds))
def test_facet_normals_are_bit_identical(cloud):
    pts, _ = cloud
    assert PolytopeN(pts).facet_normals.tobytes() == reference_facet_normals(pts).tobytes()


# ---------------------------------------------------------------------------
# one section per representative


def _mapped_cube4():
    rng = np.random.default_rng(41)
    return PolytopeN(cube(4).vertices @ (np.eye(4) + 0.3 * rng.normal(size=(4, 4))))


@pytest.mark.parametrize("body", [lambda: cube(3), icosphere, _mapped_cube4,
                                  lambda: polygon_as_polytope(regular_polygon(7))],
                         ids=["cube3", "ico2", "mapped-cube4", "heptagon"])
def test_facet_terms_build_one_section_per_representative(body, monkeypatch):
    poly = body()
    m = len(poly.facet_offsets)
    section = selfvolume.central_section
    for rep in (selfvolume._antipodes(poly.facet_normals), list(range(m)), [m - 1] * m):
        calls = []

        def spy(p, normal):
            calls.append((p, normal.tobytes()))
            return section(p, normal)

        monkeypatch.setattr(selfvolume, "central_section", spy)
        selfvolume._facet_terms(poly, (), rep)
        top = [normal for p, normal in calls if p is poly]
        assert top == [poly.facet_normals[k].tobytes() for k in sorted(set(rep))]
        # every polytope below is cut once per +- class of its own facets
        for q in {id(p): p for p, _ in calls if p is not poly}.values():
            got = [normal for p, normal in calls if p is q]
            want = sorted(set(selfvolume._antipodes(q.facet_normals)))
            assert got == [q.facet_normals[k].tobytes() for k in want]
