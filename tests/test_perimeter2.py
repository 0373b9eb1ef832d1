import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import interior_point, random_ccs_polygon, random_polygon
from selfmetric.geometry import (BarycentricPoint, GeometryError, NotInteriorError,
                                 Polygon2, RadiusProfile, cube, regular_polygon, uniform_grid)
from selfmetric import perimeter2
from selfmetric.perimeter2 import (VARIANTS, _ray_casts, busemann_perimeter_polygon,
                                   kgon_self_perimeter, polygon_perimeter_subgradient,
                                   self_perimeter_polygon, self_perimeter_smooth, smooth_density,
                                   triangle_perimeters)

TRI = Polygon2([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_triangle_centroid_is_nine():
    res = self_perimeter_polygon(TRI, TRI.centroid)
    bus = busemann_perimeter_polygon(TRI, TRI.centroid)
    assert res.value == pytest.approx(9.0, abs=1e-12)
    assert bus.value == pytest.approx(9.0, abs=1e-12)
    assert res.method == "polygon-exact"


def test_triangle_closed_forms_match_geometric_sums():
    # the barycentric formulas are an independent oracle for the ray sums
    rng = np.random.default_rng(3)
    for _ in range(25):
        tri = Polygon2.from_hull(rng.normal(size=(3, 2)) * rng.uniform(0.5, 3.0))
        lam = rng.dirichlet([2.0, 2.0, 2.0])
        point = BarycentricPoint(lam).cartesian(tri.vertices)
        want_dir, want_bus = triangle_perimeters(_bary_of(tri, point))
        assert self_perimeter_polygon(tri, point).value == pytest.approx(want_dir, rel=1e-10)
        assert busemann_perimeter_polygon(tri, point).value == pytest.approx(want_bus, rel=1e-10)


def _bary_of(tri, point):
    m = np.vstack([tri.vertices.T, np.ones(3)])
    return np.linalg.solve(m, np.append(point, 1.0))


def test_subgradient_matches_triangle_closed_forms():
    # directed sum 1/lambda_i and Busemann 2 sum 1/(1 - lambda_i) are smooth in p
    rng = np.random.default_rng(12)
    for _ in range(25):
        tri = Polygon2.from_hull(rng.normal(size=(3, 2)) * rng.uniform(0.5, 3.0))
        point = BarycentricPoint(rng.dirichlet([2.0, 2.0, 2.0])).cartesian(tri.vertices)
        lam = _bary_of(tri, point)
        dlam = np.linalg.inv(np.vstack([tri.vertices.T, np.ones(3)]))[:, :2]
        value, grad = polygon_perimeter_subgradient(tri, point, "directed")
        assert value == self_perimeter_polygon(tri, point).value
        assert grad == pytest.approx(-(1.0 / lam ** 2) @ dlam, rel=1e-9, abs=1e-9)
        value, grad = polygon_perimeter_subgradient(tri, point, "busemann")
        assert value == busemann_perimeter_polygon(tri, point).value
        assert grad == pytest.approx(2.0 * (1.0 / (1.0 - lam) ** 2) @ dlam, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_subgradient_inequality_on_random_polygons(variant):
    # f(q) >= f(p) + g.(q - p) for every interior q: what the ellipsoid cuts rely on
    rng = np.random.default_rng(13)
    perimeter = self_perimeter_polygon if variant == "directed" else busemann_perimeter_polygon
    for _ in range(10):
        poly = random_polygon(rng, points=int(rng.integers(3, 12)))
        p = interior_point(poly, rng)
        value, grad = polygon_perimeter_subgradient(poly, p, variant)
        assert value == perimeter(poly, p).value
        for _ in range(20):
            q = interior_point(poly, rng)
            assert perimeter(poly, q).value >= value + grad @ (q - p) - 1e-12 * value


def test_subgradient_rejects_outside_center():
    with pytest.raises(NotInteriorError):
        polygon_perimeter_subgradient(TRI, [2.0, 2.0], "directed")


def test_perimeter_ordering_on_random_interior_points():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = interior_point(TRI, rng)
        d = self_perimeter_polygon(TRI, p).value
        b = busemann_perimeter_polygon(TRI, p).value
        assert 9.0 - 1e-9 <= b <= d + 1e-9 * d


def test_center_outside_raises():
    with pytest.raises(NotInteriorError):
        self_perimeter_polygon(TRI, [2.0, 2.0])
    with pytest.raises(NotInteriorError):
        busemann_perimeter_polygon(TRI, [0.5, 0.5])   # on the hypotenuse


@pytest.mark.parametrize("center", [[np.nan, 0.2], [np.inf, 0.2], [0.2, -np.inf]])
@pytest.mark.parametrize("fn", [self_perimeter_polygon, busemann_perimeter_polygon])
def test_non_finite_center_raises(fn, center):
    with pytest.raises(NotInteriorError):
        fn(TRI, center)


MISSHAPEN_POINTS = [[0.1, 0.2, 0.3], 0.3, [[0.1, 0.2]], [0.1]]


@pytest.mark.parametrize("point", MISSHAPEN_POINTS)
@pytest.mark.parametrize("fn", [
    self_perimeter_polygon, busemann_perimeter_polygon,
    lambda poly, p: polygon_perimeter_subgradient(poly, p, "directed"),
    lambda poly, p: polygon_perimeter_subgradient(poly, p, "busemann"),
    Polygon2.interior_distance, Polygon2.contains],
    ids=["directed", "busemann", "subgradient-directed", "subgradient-busemann",
         "interior_distance", "contains"])
def test_misshapen_point_is_geometry_error(fn, point):
    with pytest.raises(GeometryError, match=r"point must have shape \(2,\), got "
                       + re.escape(str(np.shape(point)))):
        fn(regular_polygon(5), point)


def _textbook_subgradient(poly, center, variant):
    # the ray casts done the textbook way: per direction, divide only where the
    # ray can exit (cosine > 0), then take the nearest exit
    slack = poly.offsets - poly.normals @ np.asarray(center, dtype=float)
    radii, exits = [], []
    for directions in (poly.tangents, -poly.tangents):
        cos = directions @ poly.normals.T
        t = np.divide(slack, cos, out=np.full(cos.shape, np.inf), where=cos > 0.0)
        j = np.argmin(t, axis=1)
        radii.append(t[np.arange(len(t)), j])
        exits.append(j)
    (fwd, bwd), (j_fwd, j_bwd) = radii, exits
    lengths, normals = poly.edge_lengths, poly.normals
    if variant == "directed":
        return float(np.sum(lengths / fwd)), (lengths / (fwd * slack[j_fwd])) @ normals[j_fwd]
    chords = fwd + bwd
    w = 2.0 * lengths / chords ** 2
    return (float(np.sum(2.0 * lengths / chords)),
            (w * fwd / slack[j_fwd]) @ normals[j_fwd] + (w * bwd / slack[j_bwd]) @ normals[j_bwd])


def _assert_textbook_bits(poly, center, variant):
    value, grad = polygon_perimeter_subgradient(poly, center, variant)
    want_value, want_grad = _textbook_subgradient(poly, center, variant)
    assert value.hex() == want_value.hex()
    assert grad.dtype == want_grad.dtype and grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_subgradient_is_the_textbook_ray_cast_on_regular_polygons(variant):
    # the kgon-table case: from the origin, rays tie at vertices
    for k in range(3, 65):
        _assert_textbook_bits(regular_polygon(k), np.zeros(2), variant)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40), st.floats(-4.0, 0.0),
       st.sampled_from(["directed", "busemann"]))
def test_subgradient_is_the_textbook_ray_cast_on_random_polygons(seed, points, log_aspect,
                                                                 variant):
    # hulls of squeezed, rotated clouds, down to 1e-4 thin, at random interior points
    rng = np.random.default_rng(seed)
    cloud = rng.normal(size=(points, 2)) * [1.0, 10.0 ** log_aspect]
    turn = rng.uniform(0.0, np.pi)
    cloud = cloud @ np.array([[np.cos(turn), np.sin(turn)], [-np.sin(turn), np.cos(turn)]])
    try:
        poly = Polygon2.from_hull(cloud)
    except GeometryError:   # a few points in a thin cloud can be nearly collinear
        return
    weights = rng.dirichlet(np.ones(len(poly)))
    _assert_textbook_bits(poly, weights @ poly.vertices, variant)


def test_triangle_perimeter_inequalities():
    # 9 <= busemann <= directed over the whole open triangle, near the vertices too
    rng = np.random.default_rng(17)
    weights = list(rng.dirichlet([1.0, 1.0, 1.0], size=200))
    for tiny in (1e-3, 1e-6, 1e-9):
        weights += [[1.0 - 2.0 * tiny, tiny, tiny], [tiny, 1.0 - 1.5 * tiny, 0.5 * tiny]]
    for lam in weights:
        directed, busemann = triangle_perimeters(lam)
        assert busemann >= 9.0 - 1e-9
        assert directed >= busemann - 1e-9 * busemann



@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.floats(-9.0, 0.0), min_size=3, max_size=3))
def test_triangle_perimeters_satisfy_nine_le_busemann_le_directed(log_weights):
    # interior barycentric points from the centroid out to 1e-9 of the edges
    w = 10.0 ** np.array(log_weights)
    directed, busemann = triangle_perimeters(w / np.sum(w))
    assert busemann >= 9.0 * (1.0 - 1e-12)
    assert directed >= busemann * (1.0 - 1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.floats(-3.0, 3.0))
def test_golab_range_on_centrally_symmetric_polygons(seed, pairs, log_scale):
    # Golab: a centrally symmetric body measured from its centre lies in [6, 8]
    poly = random_ccs_polygon(np.random.default_rng(seed), pairs=pairs, scale=10.0 ** log_scale)
    value = self_perimeter_polygon(poly, np.zeros(2)).value
    assert 6.0 * (1.0 - 1e-12) <= value <= 8.0 * (1.0 + 1e-12)


def test_kgon_closed_forms():
    assert kgon_self_perimeter(4) == pytest.approx(8.0, abs=1e-12)
    assert kgon_self_perimeter(6) == pytest.approx(6.0, abs=1e-12)
    # three residue classes mod 4
    assert kgon_self_perimeter(3) == pytest.approx(9.0, abs=1e-12)
    assert kgon_self_perimeter(8) == pytest.approx(16.0 * np.tan(np.pi / 8), abs=1e-12)
    assert kgon_self_perimeter(10) == pytest.approx(20.0 * np.sin(np.pi / 10), rel=1e-12)


@pytest.mark.parametrize("k", range(3, 33))
def test_kgon_closed_form_matches_polygon_sum(k):
    exact = self_perimeter_polygon(regular_polygon(k), np.zeros(2)).value
    assert kgon_self_perimeter(k) == pytest.approx(exact, abs=1e-10)


def test_kgon_rejects_small_k():
    with pytest.raises(GeometryError):
        kgon_self_perimeter(2)


def test_smooth_disk_value():
    disk = RadiusProfile([0], [1.0])
    res = self_perimeter_smooth(disk, nodes=512)
    assert res.value == pytest.approx(2.0 * np.pi, abs=1e-12)
    assert res.node_count == 512


def test_smooth_quadrature_is_spectrally_converged():
    prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (2, 0.05, 0.02), (3, 0.0, 0.015)])
    coarse = self_perimeter_smooth(prof, nodes=128).value
    fine = self_perimeter_smooth(prof, nodes=4096).value
    assert coarse == pytest.approx(fine, abs=1e-12)


def test_smooth_matches_dense_inscribed_polygon():
    prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (2, 0.06, 0.0), (4, 0.0, 0.01)])
    smooth = self_perimeter_smooth(prof, nodes=2048).value
    theta = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    r = prof(theta)
    poly = Polygon2(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    approx = self_perimeter_polygon(poly, np.zeros(2)).value
    assert approx == pytest.approx(smooth, abs=1e-5)


def test_inscribed_kgons_converge_to_the_smooth_perimeter():
    # r = 1 + 0.02 cos 3t + 0.015 sin 2t is convex and not centrally symmetric:
    # the exact ray casts of its inscribed k-gons must approach the quadrature
    # of the FFT path at second order (errors 5.5e-4 to 9.0e-6, ratios 3.2-4.5)
    prof = RadiusProfile([-3, -2, 0, 2, 3], [0.01, 0.0075j, 1.0, -0.0075j, 0.01])
    smooth = self_perimeter_smooth(prof, nodes=4096).value
    assert smooth == pytest.approx(6.290084726179761, rel=1e-14)
    errors = []
    for k in (128, 256, 512, 1024):
        theta = uniform_grid(k)
        r = prof(theta)
        poly = Polygon2(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
        errors.append(self_perimeter_polygon(poly, np.zeros(2)).value - smooth)
    assert 0.0 < errors[-1] < 1e-5
    ratios = np.array(errors[:-1]) / errors[1:]
    assert np.all((3.0 <= ratios) & (ratios <= 5.0)), ratios


def test_smooth_node_floor():
    disk = RadiusProfile([0], [1.0])
    with pytest.raises(GeometryError):
        self_perimeter_smooth(disk, nodes=32)


def test_smooth_density_positive_and_periodic():
    prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (3, 0.02, 0.01)])
    theta = np.linspace(0.0, 2.0 * np.pi, 97)
    d = smooth_density(prof, theta)
    assert np.all(d > 0.0)
    assert smooth_density(prof, 0.0) == pytest.approx(smooth_density(prof, 2.0 * np.pi), abs=1e-12)


def test_busemann_equals_directed_on_ccs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        poly = random_ccs_polygon(rng, pairs=rng.integers(3, 8))
        c = np.zeros(2)
        assert busemann_perimeter_polygon(poly, c).value == pytest.approx(
            self_perimeter_polygon(poly, c).value, rel=1e-12)


def test_busemann_invariant_under_point_reflection():
    # chords through p are unchanged by reflecting the body about p, so the
    # Busemann value must match exactly; the directed value generally moves
    rng = np.random.default_rng(13)
    for _ in range(20):
        poly = random_polygon(rng, points=rng.integers(5, 10))
        p = interior_point(poly, rng)
        reflected = Polygon2.from_hull(2.0 * p - poly.vertices)
        b = busemann_perimeter_polygon(poly, p).value
        b_ref = busemann_perimeter_polygon(reflected, p).value
        assert b == pytest.approx(b_ref, rel=1e-12)


@st.composite
def polygons_with_points(draw, max_points=64):
    # hulls of squeezed, rotated clouds, down to 1e-4 thin, with 1-6 interior points
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cloud = rng.normal(size=(draw(st.integers(3, max_points)), 2))
    cloud *= [1.0, 10.0 ** draw(st.floats(-4.0, 0.0))]
    turn = rng.uniform(0.0, np.pi)
    cloud = cloud @ np.array([[np.cos(turn), np.sin(turn)], [-np.sin(turn), np.cos(turn)]])
    try:
        poly = Polygon2.from_hull(cloud)
    except GeometryError:   # a few points in a thin cloud can be nearly collinear
        poly = regular_polygon(draw(st.integers(3, max_points)))
    points = rng.dirichlet(np.ones(len(poly)), size=draw(st.integers(1, 6))) @ poly.vertices
    return poly, points


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(polygons_with_points(), st.sampled_from(["directed", "busemann"]))
def test_ray_cast_rows_are_the_one_point_casts_bit_for_bit(drawn, variant):
    poly, points = drawn
    values, grads, hessians, exits, inside = _ray_casts(poly, points, variant)
    assert values.shape == inside.shape == (len(points),) and grads.shape == points.shape
    assert hessians.shape == (len(points), 2, 2)
    assert exits.shape == (len(points), len(poly) * (2 if variant == "busemann" else 1))
    assert inside.all()
    for value, grad, hessian, exit_edges, point in zip(values, grads, hessians, exits, points):
        want_value, want_grad = polygon_perimeter_subgradient(poly, point, variant)
        assert float(value).hex() == want_value.hex()
        assert grad.tobytes() == want_grad.tobytes()
        _, _, want_hessian, want_exits, _ = _ray_casts(poly, point[None], variant)
        assert hessian.tobytes() == want_hessian[0].tobytes()
        assert exit_edges.tobytes() == want_exits[0].tobytes()


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_ray_casts_flag_rows_outside_without_warnings(variant):
    poly = regular_polygon(7)
    points = np.array([[0.1, -0.2], [2.0, 2.0], [np.nan, 0.2], [0.3, 0.1], [np.inf, -np.inf],
                       poly.vertices[2], [-1e300, 1e300], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, grads, _, _, inside = _ray_casts(poly, points, variant)
    assert inside.tolist() == [True, False, False, True, False, False, False, True]
    for r in np.flatnonzero(inside):
        want_value, want_grad = polygon_perimeter_subgradient(poly, points[r], variant)
        assert values[r] == want_value and grads[r].tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("budget", [1, 3 * 64 * 128, 1 << 40], ids=["row", "three-rows", "one"])
@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_chunked_casts_are_the_unchunked_cast_bit_for_bit(monkeypatch, variant, budget):
    # a 64-gon's Busemann row divides 2k x k = 8,192 quotients: 100 rows in one pass
    # would hold 6.5 MB, so casts go in row chunks of at most _CAST_ELEMENTS
    poly = regular_polygon(64, phase=0.2)
    points = np.random.default_rng(4).dirichlet(np.ones(64), size=100) @ poly.vertices
    points[7] = [3.0, 0.0]   # a row outside the polygon
    monkeypatch.setattr(perimeter2, "_CAST_ELEMENTS", budget)
    chunked = _ray_casts(poly, points, variant)
    monkeypatch.setattr(perimeter2, "_CAST_ELEMENTS", 1 << 40)
    whole = _ray_casts(poly, points, variant)
    assert [a.tobytes() for a in chunked] == [a.tobytes() for a in whole]
    assert [a.shape for a in chunked] == [a.shape for a in whole]
    assert perimeter2._CAST_ELEMENTS >= 2 * 64 * 64


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_piece_hessian_is_the_derivative_of_the_subgradient(variant):
    # central differences of the subgradient, at a step of 1e-5 of the least edge
    # slack, on points whose rays keep their exit edges across the stencil
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(60):
        poly = random_polygon(rng, int(rng.integers(3, 12)))
        p = interior_point(poly, rng, margin=1e-3)
        h = 1e-5 * poly.interior_distance(p)
        stencil = p + h * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        _, grads, hessians, exits, _ = _ray_casts(poly, np.vstack([p, stencil]), variant)
        if not (exits == exits[0]).all():
            continue
        checked += 1
        differences = np.column_stack([grads[1] - grads[2], grads[3] - grads[4]]) / (2.0 * h)
        assert np.abs(hessians[0] - hessians[0].T).max() <= 4e-16 * np.abs(hessians[0]).max()
        assert np.abs(differences - hessians[0]).max() <= 1e-7 * np.abs(hessians[0]).max()
        assert np.linalg.eigvalsh(hessians[0]).min() > 0.0
    assert checked >= 50


@pytest.mark.parametrize("call", [
    lambda v: _ray_casts(regular_polygon(5), np.zeros((1, 2)), v),
    lambda v: polygon_perimeter_subgradient(regular_polygon(5), np.zeros(2), v),
], ids=["ray-casts", "subgradient"])
def test_unknown_variant_is_geometry_error(call):
    assert VARIANTS == ("directed", "busemann")
    with pytest.raises(GeometryError, match=r"^variant must be one of \('directed', 'busemann'\), "
                                            r"got 'both'$"):
        call("both")


@pytest.mark.parametrize("call, error, message", [
    (lambda: self_perimeter_polygon(cube(2), np.zeros(2)), TypeError,
     "self_perimeter_polygon expects a Polygon2"),
    (lambda: busemann_perimeter_polygon(cube(2), np.zeros(2)), TypeError,
     "busemann_perimeter_polygon expects a Polygon2"),
    (lambda: self_perimeter_smooth(regular_polygon(4)), TypeError,
     "self_perimeter_smooth expects a RadiusProfile"),
    (lambda: triangle_perimeters([0.25, 0.25, 0.25, 0.25]), GeometryError,
     "triangle_perimeters needs exactly 3 barycentric weights"),
    # r = 0.5 + 2 cos(theta) is negative near theta = pi; check=False skips its own test
    (lambda: smooth_density(RadiusProfile([-1, 0, 1], [1.0, 0.5, 1.0], check=False),
                            uniform_grid(64)), GeometryError,
     "profile radius must stay positive"),
], ids=["directed-of-polytope", "busemann-of-polytope", "smooth-of-polygon",
        "triangle-weights", "nonpositive-profile"])
def test_perimeter_errors_name_their_cause(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
