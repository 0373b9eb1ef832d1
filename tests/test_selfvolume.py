import numpy as np
import pytest

from common import random_ccs_polygon, random_polygon_with_origin
from selfmetric.alexandrov import SurfaceMeasure
from selfmetric.geometry import (REL_TOL, GeometryError, NotInteriorError, PolytopeN,
                                 cube, icosphere, interval, polygon_as_polytope,
                                 regular_polygon)
from selfmetric.perimeter2 import busemann_perimeter_polygon
from selfmetric.selfvolume import (affine_image, cartesian_product,
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
                      "mapped-icosphere2": 4.216549703589156, "ccs4": 7.470242021175242}


@pytest.mark.parametrize("name", PINNED_BODIES)
def test_self_volume_is_bit_identical(name):
    assert self_volume_recursive(PINNED_BODIES[name]()).value == PINNED_BODY_VALUES[name]


def test_surface_measure_is_bit_identical():
    assert SurfaceMeasure(_mapped(cube(4), 41)).total_mass == 64.0000005555966


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
    with pytest.raises(GeometryError):
        self_volume_recursive(cube(3), max_dim=2)


def test_affine_image_rejects_singular_matrix():
    with pytest.raises(GeometryError):
        affine_image(cube(2), np.zeros((2, 2)))
    with pytest.raises(GeometryError):
        affine_image(cube(2), np.eye(3))
