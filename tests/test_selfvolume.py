import hashlib

import numpy as np
import pytest

from common import random_ccs_polygon, random_polygon_with_origin
from selfmetric import selfvolume
from selfmetric.geometry import (REL_TOL, GeometryError, NotInteriorError, PolytopeN,
                                 cube, icosphere, interval, polygon_as_polytope,
                                 regular_polygon)
from selfmetric.perimeter2 import busemann_perimeter_polygon
from selfmetric.selfvolume import (SurfaceMeasure, affine_image, cartesian_product,
                                   hypercube_self_volume,
                                   self_volume_recursive, simplex_self_volume)


def unit_simplex(n):
    """Simplex on 0, e_1, ..., e_n shifted so the given origin is its centroid."""
    verts = np.vstack([np.zeros(n), np.eye(n)])
    return verts


def simplex_at(n, bary):
    verts = unit_simplex(n)
    base = np.asarray(bary) @ verts
    return PolytopeN(verts - base)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hypercube_powers_of_two(n):
    value = self_volume_recursive(cube(n)).value
    assert value == pytest.approx(2.0 ** n, abs=1e-9)
    assert hypercube_self_volume(n) == 2.0 ** n


def _ccs3(seed=31, pairs=6):
    p = np.random.default_rng(seed).normal(size=(pairs, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    return PolytopeN(np.vstack([p, -p]))


def test_result_facet_breakdown_sums_to_value():
    for body in (cube(3), _ccs3(), icosphere(1), affine_image(cube(4), np.eye(4) + 0.2)):
        res = self_volume_recursive(body)
        assert res.dim == body.dim
        assert len(res.facet_contributions) == len(body.facet_offsets)
        # exactly the facet-order sum: no pairwise or compensated summation
        total = 0.0
        for c in res.facet_contributions:
            total += c.contribution
        assert res.value == total / res.dim
        measure, mass = SurfaceMeasure(body), 0.0
        for row in measure.rows:
            mass += row.cell_mass
        assert measure.total_mass == mass


def test_antipodal_facets_share_one_section(monkeypatch):
    # the top and bottom edges of this quadrilateral have normals antipodal
    # within 2.2e-14 that round to different multiples of 1e-12, so keys
    # quantised to 1e-12 would give them two sections
    poly = PolytopeN([[1.0, 1.0], [-1.0, 1.449], [-1.5, -0.66324999999993],
                      [1.5, -1.3367499999999999]])
    top, bottom = poly.facet_normals[2], poly.facet_normals[1]
    assert np.max(np.abs(top + bottom)) < 1e-12
    assert np.any(np.round(top / 1e-12) != np.round(-bottom / 1e-12))
    built = []
    section = selfvolume.central_section
    monkeypatch.setattr(selfvolume, "central_section",
                        lambda p, normal: built.append(normal) or section(p, normal))
    self_volume_recursive(poly)
    assert len(built) == 3


def _antipodes_by_pairs(u):
    # the pair loop _antipodes replaced, kept as its reference
    i, j = np.nonzero(u @ u.T < selfvolume.ANTIPODE_TOL - 1.0)
    near = (np.abs(u[i] + u[j]) < selfvolume.ANTIPODE_TOL).all(axis=1)
    rep = list(range(len(u)))
    for a, b in zip(i[near].tolist(), j[near].tolist()):
        rep[a] = min(rep[a], b)
    return rep


def test_antipodes_match_the_pair_loop():
    quad = PolytopeN([[1.0, 1.0], [-1.0, 1.449], [-1.5, -0.66324999999993],
                      [1.5, -1.3367499999999999]])
    for body in (quad, cube(3), _ccs3(), icosphere(1), _mapped(cube(4), 41), _mapped(cube(5), 42),
                 _ccs4(), PolytopeN(np.random.default_rng(5).normal(size=(30, 3)))):
        u = body.facet_normals
        got = selfvolume._antipodes(u)
        assert got == _antipodes_by_pairs(u)
        assert all(type(k) is int and k <= i for i, k in enumerate(got))


@pytest.mark.parametrize("n", [2, 3])
def test_simplex_recursion_matches_closed_form(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        lam = rng.dirichlet(np.full(n + 1, 3.0))
        want = simplex_self_volume(n, lam)
        got = self_volume_recursive(simplex_at(n, lam)).value
        assert got == pytest.approx(want, abs=1e-8)


def _mapped_cube3():
    return affine_image(cube(3), np.random.default_rng(17).normal(size=(3, 3)))


SCALE_BODIES = {"interval": interval, "cube2": lambda: cube(2), "cube3": lambda: cube(3),
                "mapped-cube3": _mapped_cube3, "icosphere1": lambda: icosphere(1),
                "ccs3": _ccs3, "cube4": lambda: cube(4)}


@pytest.mark.parametrize("name", [
    # flat hull simplices in the 4-cube's facets move its value by about 5e-8 at some scales
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="flat hull simplices get a measure of sqrt(roundoff)"))
    if name == "cube4" else name for name in SCALE_BODIES])
def test_self_volume_is_scale_invariant(name):
    body = SCALE_BODIES[name]()
    base = self_volume_recursive(body).value
    for k in (-14, -12, -10, -6, 6, 12):
        scaled = self_volume_recursive(PolytopeN(body.vertices * 10.0 ** k)).value
        assert scaled == pytest.approx(base, rel=0.0, abs=1e-12), k
    assert self_volume_recursive(interval(-1e-12, 1e-12)).value == 2.0


def test_simplex_centroid_values():
    assert simplex_self_volume(2, np.full(3, 1 / 3)) == pytest.approx(4.5, abs=1e-12)
    assert simplex_self_volume(3, np.full(4, 0.25)) == pytest.approx(32.0 / 3.0, abs=1e-12)


def test_simplex_centroid_is_the_minimum():
    rng = np.random.default_rng(42)
    centroid_value = simplex_self_volume(3, np.full(4, 0.25))
    for _ in range(40):
        lam = rng.dirichlet(np.full(4, 2.0))
        assert simplex_self_volume(3, lam) >= centroid_value - 1e-12


def test_product_rule_prisms():
    hexagon = polygon_as_polytope(regular_polygon(6))
    square = polygon_as_polytope(regular_polygon(4))
    assert self_volume_recursive(cartesian_product(hexagon, interval())).value == \
        pytest.approx(6.0, abs=1e-8)
    assert self_volume_recursive(cartesian_product(square, interval())).value == \
        pytest.approx(8.0, abs=1e-8)


def test_product_rule_matches_factors():
    rng = np.random.default_rng(5)
    poly = random_ccs_polygon(rng, pairs=4)
    factor2 = self_volume_recursive(polygon_as_polytope(poly))
    factor1 = self_volume_recursive(interval(-0.7, 0.7))
    prism = self_volume_recursive(cartesian_product(polygon_as_polytope(poly), interval(-0.7, 0.7)))
    assert prism.value == pytest.approx(factor2.value * factor1.value, rel=1e-9)
    assert factor1.value == pytest.approx(2.0, abs=1e-14)


def test_interval_self_volume_is_two_anywhere():
    # 1d self-volume is 2 regardless of where the origin sits inside
    for lo, hi in [(-1.0, 1.0), (-0.2, 1.7), (-3.0, 0.5)]:
        assert self_volume_recursive(interval(lo, hi)).value == pytest.approx(2.0, abs=1e-14)


def test_affine_invariance_2d_and_3d():
    rng = np.random.default_rng(17)
    for body in (polygon_as_polytope(random_ccs_polygon(rng, 5)), cube(3), _mapped_cube3(),
                 icosphere(1), _ccs3(), _ccs3(seed=8, pairs=4)):
        base = self_volume_recursive(body).value
        for _ in range(10):
            m = rng.normal(size=(body.dim, body.dim))
            if abs(np.linalg.det(m)) < 1e-2:
                continue
            mapped = self_volume_recursive(affine_image(body, m)).value
            assert mapped == pytest.approx(base, rel=1e-12)


def test_volume_matches_half_busemann_perimeter():
    # in 2d, recursive self-volume about p equals half the Busemann perimeter at p,
    # for centrally symmetric polygons and for any polygon around the origin
    rng = np.random.default_rng(23)
    for _ in range(10):
        for poly in (random_ccs_polygon(rng, pairs=rng.integers(3, 7)),
                     random_polygon_with_origin(rng, points=rng.integers(3, 12))):
            volume = self_volume_recursive(polygon_as_polytope(poly)).value
            per = busemann_perimeter_polygon(poly, np.zeros(2)).value
            assert 2.0 * volume == pytest.approx(per, rel=1e-12)


def _pinned_polygon(i):
    pts = np.random.default_rng(700 + i).normal(size=(3 + i, 2))
    if i >= 7:   # thin: aspect about 1e2, 1e3, 1e4
        pts[:, 1] *= 10.0 ** (5 - i)
    return PolytopeN(pts - pts.mean(axis=0))


# self_volume_recursive of _pinned_polygon(0..9), as computed when every
# section still went through qhull; a 2-D body passed in keeps its qhull
# facets and must keep every bit (cli._climb follows last-bit differences)
PINNED_POLYGON_VALUES = [4.500000000000002, 4.5035484685090115, 3.924555001639054,
                         3.6137874671995496, 4.007464093537697, 3.5526274601308554,
                         4.098624276839033, 3.826334598912829, 3.5294791977736306,
                         3.9356828356510816]


@pytest.mark.parametrize("i", range(10))
def test_planar_self_volume_is_bit_identical(i):
    assert self_volume_recursive(_pinned_polygon(i)).value == PINNED_POLYGON_VALUES[i]


def _mapped(body, seed):
    return affine_image(body, np.random.default_rng(seed).normal(size=(body.dim, body.dim)))


def _ccs4():
    p = np.random.default_rng(44).normal(size=(7, 4))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    return PolytopeN(np.vstack([p, -p]))


# self_volume_recursive values taken with the textbook section kernel (one-hot
# dot products, numpy throughout); every bit must stay
PINNED_BODIES = {"mapped-cube4": lambda: _mapped(cube(4), 41),
                 "mapped-cube5": lambda: _mapped(cube(5), 42),
                 "mapped-icosphere2": lambda: _mapped(icosphere(2), 43), "ccs4": _ccs4}
PINNED_BODY_VALUES = {"mapped-cube4": 16.000000138899154, "mapped-cube5": 32.00000015978784,
                      "mapped-icosphere2": 4.216549703589157, "ccs4": 7.470242021175243}


@pytest.mark.parametrize("name", PINNED_BODIES)
def test_self_volume_is_bit_identical(name):
    assert self_volume_recursive(PINNED_BODIES[name]()).value == PINNED_BODY_VALUES[name]


def test_surface_measure_is_bit_identical():
    assert SurfaceMeasure(_mapped(cube(4), 41)).total_mass == 64.0000005555966


# (call count, sha256 of the normals' bytes in call order) that central_section
# receives, as recorded when SurfaceMeasure still built its sections through a
# loop of its own; the self-volume shares one section per +-pair, the surface
# measure builds one per facet
SECTION_NORMALS = {
    ("cube3", "volume"): (9, "6dd29e8631b0cdd71780aadb393a5a3378442ec5b70b8fbba3203b7d7803455e"),
    ("cube3", "surface"): (18, "60155f758ea7720c3dbf9794d4795383f6121012681d67a024e2b4b78d22fae9"),
    ("mapped-cube4", "volume"):
        (40, "54c5aba31763ef8c7964f554eb09d406d00ac4754237aba66f5cdd3436ceae26"),
    ("mapped-cube4", "surface"):
        (80, "41a38f51f1c1fa09b1b06966b4720af4fc0bf7ac9504771b99525c86d87fd44e"),
    ("ccs3", "volume"): (62, "c818742acb159e91720b75febeb6285dc415584e2eb4a735872bf1753203a84e"),
    ("ccs3", "surface"): (124, "d341156ce5a9ee5d6776753713e54177a141e65dd70577e6d00bd595b5bf5c82"),
}
SECTION_BODIES = {"cube3": lambda: cube(3), "mapped-cube4": lambda: _mapped(cube(4), 41),
                  "ccs3": _ccs3}


@pytest.mark.parametrize("name, kind", SECTION_NORMALS)
def test_sections_are_built_for_the_pinned_normals(name, kind, monkeypatch):
    body = SECTION_BODIES[name]()
    normals = []
    section = selfvolume.central_section
    monkeypatch.setattr(selfvolume, "central_section",
                        lambda p, normal: normals.append(normal.tobytes()) or section(p, normal))
    (self_volume_recursive if kind == "volume" else SurfaceMeasure)(body)
    assert (len(normals), hashlib.sha256(b"".join(normals)).hexdigest()) == \
        SECTION_NORMALS[name, kind]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: 1e-80 lies below the 3-D coordinate "
                   "window [1e-75, 1e75], so PolytopeN raises GeometryError (there the 2x2 Gram "
                   "determinant of each square facet, about 1e-320, is subnormal before its "
                   "sqrt); |det([edges; normal])| / (d-1)! keeps it exact and widens the window")
def test_self_volume_is_scale_invariant_at_1e_minus_80():
    res = self_volume_recursive(PolytopeN(cube(3).vertices * 1e-80))
    assert [c.facet_measure for c in res.facet_contributions] == \
        [pytest.approx(4e-160, rel=1e-14)] * 6
    assert res.value == pytest.approx(8.0, rel=0.0, abs=1e-12)


def test_origin_must_be_interior():
    shifted = PolytopeN(cube(2).vertices + 5.0)
    with pytest.raises(NotInteriorError):
        self_volume_recursive(shifted)


def _box_near_origin(margin, s):
    # the box [a, 2] x [-1, 1]^2 times s, with a < 0 chosen so that the nearest
    # facet lies margin * REL_TOL * scale from the origin (scale = sqrt(6) * s)
    a = -margin * REL_TOL * np.sqrt(6.0)
    return PolytopeN(s * np.array([[x, y, z] for x in (a, 2.0) for y in (-1.0, 1.0)
                                   for z in (-1.0, 1.0)]))


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_origin_interior_tolerance_is_rel_tol_times_scale(s):
    # intended: the origin counts as interior only beyond REL_TOL * scale
    near = _box_near_origin(2.0, s)
    assert np.min(near.facet_offsets) == pytest.approx(2.0 * REL_TOL * near.scale, rel=1e-9)
    assert self_volume_recursive(near).value == pytest.approx(8.0, rel=1e-12)
    assert SurfaceMeasure(near).total_mass == pytest.approx(24.0, rel=1e-12)
    too_near = _box_near_origin(0.5, s)
    assert np.min(too_near.facet_offsets) == pytest.approx(0.5 * REL_TOL * too_near.scale,
                                                           rel=1e-9)
    with pytest.raises(NotInteriorError):
        self_volume_recursive(too_near)
    with pytest.raises(NotInteriorError):
        SurfaceMeasure(too_near)


def test_dimension_guard():
    # one limit, on the body's dimension, checked before the origin, with one message
    assert selfvolume.MAX_DIM == 5
    assert self_volume_recursive(cube(5)).value == pytest.approx(32.0, rel=1e-12)
    assert SurfaceMeasure(cube(5)).total_mass == pytest.approx(5.0 * 32.0, rel=1e-12)
    for body in (cube(6), PolytopeN(cube(6).vertices + 5.0)):
        for measure in (self_volume_recursive, SurfaceMeasure):
            with pytest.raises(GeometryError) as exc:
                measure(body)
            assert str(exc.value) == "dimension 6 exceeds the section recursion's limit of 5"


@pytest.mark.parametrize("measure, noun", [(self_volume_recursive, "self-volume"),
                                            (SurfaceMeasure, "surface measure")])
def test_both_measures_share_one_entry_check(measure, noun):
    with pytest.raises(TypeError, match=f"^{noun} expects a PolytopeN$"):
        measure(cube(3).vertices)
    with pytest.raises(NotInteriorError,
                       match=f"^{noun} needs the origin strictly inside the polytope$"):
        measure(PolytopeN(cube(3).vertices + 3.0))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3: qhull's "
                   "simplices of a facet that holds non-extreme points can overlap, and "
                   "PolytopeN._merge_facets sums them, so two facets of the turned prism "
                   "measure 16.6667 for 16")
def test_self_volume_ignores_non_extreme_points():
    # the prism [-0.7, 1.3] x [-1, 1]^4 with its 496 vertex-pair midpoints reads
    # 32.2667, against 32.0000001 from its 32 vertices alone; 1e-6 allows for the
    # flat-simplex noise
    prism = cube(5).vertices.copy()
    prism[:, 0] = np.where(prism[:, 0] > 0.0, 1.3, -0.7)
    i, j = np.triu_indices(len(prism), 1)
    turn = np.linalg.qr(np.random.default_rng(1).normal(size=(5, 5)))[0]
    bare = self_volume_recursive(PolytopeN(prism @ turn.T)).value
    points = np.vstack([prism, (prism[i] + prism[j]) / 2.0]) @ turn.T
    assert self_volume_recursive(PolytopeN(points)).value == pytest.approx(bare, abs=1e-6)


@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_affine_image_singularity_test_is_scale_free(scale):
    # det(1e-5 I) = 1e-15 is far from singular: the test is relative to the column norms
    image = affine_image(cube(3), scale * np.eye(3))
    assert self_volume_recursive(image).value == pytest.approx(8.0, abs=1e-12)


def test_affine_image_singularity_test_does_not_overflow():
    # the column norms of 1e98 I multiply to 1e392: compared unscaled, they overflow
    image = affine_image(PolytopeN(cube(4).vertices * 1e-49), 1e98 * np.eye(4))
    assert self_volume_recursive(image).value == pytest.approx(16.0, rel=1e-6)


def test_affine_image_rejects_singular_matrix():
    with pytest.raises(GeometryError):
        affine_image(cube(2), np.zeros((2, 2)))
    with pytest.raises(GeometryError):
        affine_image(cube(2), np.eye(3))
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0])):
        with pytest.raises(GeometryError, match="^matrix must be finite$"):
            affine_image(cube(2), bad)
