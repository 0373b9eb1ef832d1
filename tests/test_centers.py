import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import random_polygon, translated_perimeter_bound
from selfmetric import centers
from selfmetric.centers import (GAP_TOL, CenterResult, ConvergenceError, convexity_probe,
                                grunbaum_bound_check, optimal_center_2d, optimal_centers_2d,
                                optimal_simplex_center)
from selfmetric.geometry import GeometryError, NotInteriorError, Polygon2, cube, regular_polygon
from selfmetric.perimeter2 import (_ray_casts, busemann_perimeter_polygon,
                                   polygon_perimeter_subgradient, self_perimeter_polygon)

POSITION_TOL = 1e-6


def test_triangle_optimum_is_centroid():
    rng = np.random.default_rng(1)
    for _ in range(10):
        tri = Polygon2.from_hull(rng.normal(size=(3, 2)) * rng.uniform(0.5, 4.0))
        res = optimal_center_2d(tri, "directed")
        assert np.linalg.norm(res.optimum - tri.centroid) < POSITION_TOL * tri.scale
        assert res.value == pytest.approx(9.0, abs=1e-9)


def test_busemann_triangle_optimum_is_centroid():
    tri = Polygon2([[0, 0], [3, 0], [1, 2]])
    res = optimal_center_2d(tri, "busemann")
    assert np.linalg.norm(res.optimum - tri.centroid) < POSITION_TOL
    assert res.value == pytest.approx(9.0, abs=1e-9)


def test_multistart_agreement():
    # the objective is convex, so every start must land on the same optimum
    rng = np.random.default_rng(2)
    for _ in range(8):
        poly = random_polygon(rng, points=rng.integers(4, 9))
        lo = np.min(poly.vertices, axis=0)
        hi = np.max(poly.vertices, axis=0)
        optima, values = [], []
        starts = [poly.centroid]
        while len(starts) < 4:
            p = lo + rng.random(2) * (hi - lo)
            if poly.interior_distance(p) > 1e-3 * poly.scale:
                starts.append(p)
        for start in starts:
            res = optimal_center_2d(poly, "directed", start=start)
            optima.append(res.optimum)
            values.append(res.value)
        spread = max(np.linalg.norm(a - b) for a in optima for b in optima)
        assert spread < POSITION_TOL * poly.scale
        assert max(values) - min(values) < 1e-10 * max(values)


def test_optimum_equivariance_under_linear_maps():
    rng = np.random.default_rng(3)
    poly = random_polygon(rng, points=7)
    base = optimal_center_2d(poly, "directed")
    for _ in range(5):
        m = rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 0.1:
            continue
        mapped = Polygon2.from_hull(poly.vertices @ m.T)
        res = optimal_center_2d(mapped, "directed")
        assert np.linalg.norm(res.optimum - m @ base.optimum) < 5e-6 * mapped.scale
        assert res.value == pytest.approx(base.value, rel=1e-9)


def test_optimum_beats_random_interior_points():
    rng = np.random.default_rng(4)
    poly = random_polygon(rng, points=6)
    res = optimal_center_2d(poly, "directed")
    lo = np.min(poly.vertices, axis=0)
    hi = np.max(poly.vertices, axis=0)
    count = 0
    while count < 60:
        p = lo + rng.random(2) * (hi - lo)
        if poly.interior_distance(p) <= 1e-6 * poly.scale:
            continue
        count += 1
        assert self_perimeter_polygon(poly, p).value >= res.value - 1e-9 * res.value


def test_grunbaum_bound_on_random_polygons():
    # every convex body admits a point with directed self-perimeter <= 9
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        value, ok = grunbaum_bound_check(random_polygon(rng, points=rng.integers(3, 10)))
        assert ok
        worst = max(worst, value)
    assert worst <= 9.0 + 1e-6


def test_convexity_probe_counts_no_violations():
    rng = np.random.default_rng(6)
    for variant in ("directed", "busemann"):
        for _ in range(5):
            poly = random_polygon(rng, points=rng.integers(4, 9))
            report = convexity_probe(poly, variant, trials=60, seed=int(rng.integers(1 << 30)))
            assert report.violation_count == 0
            assert report.trials == 60


PROBE_POLYGONS = {
    "heptagon": regular_polygon(7, phase=0.3),
    "pentagon": Polygon2([[2.0, -0.5], [1.5, 1.2], [-0.3, 1.9], [-1.8, 0.2], [-0.4, -1.6]]),
    "thin": Polygon2([[-3.0, -0.01], [3.0, -0.02], [2.5, 0.03], [-2.0, 0.02]]),
}
# the largest f(mid) - (f(p1) + f(p2)) / 2 over 40 trials and the first pair
# drawn, recorded when the sampler first drew from the polygon's fan triangles
PROBE_PINS = [
    ("heptagon", "directed", 3, "-0x1.7ce9bcaebac00p-7",
     ("0x1.b89ac1ad3bdb2p-3", "0x1.c9b18c8f961d7p-1"),
     ("0x1.521babcb77620p-5", "-0x1.212ae8eea298cp-3")),
    ("heptagon", "busemann", 11, "-0x1.bcee329a55f00p-6",
     ("-0x1.18d912da6bf61p-1", "0x1.0b6a8180d4f17p-1"),
     ("0x1.63cb27c1ce6a7p-2", "0x1.c191af53110dcp-1")),
    ("pentagon", "directed", 11, "-0x1.1a044f789b2a0p-2",
     ("0x1.aa8a23244facep-1", "0x1.4ec0f1643a983p+0"),
     ("0x1.68aa49d5f757dp+0", "0x1.1eee01d582d51p+0")),
    ("pentagon", "busemann", 3, "-0x1.03a6fc4b49c00p-8",
     ("0x1.294d59b31b5b1p+0", "0x1.463cae65f5ad5p+0"),
     ("0x1.19d96e99f9e48p-3", "0x1.dcbc2d9b55920p-6")),
    ("thin", "directed", 3, "-0x1.59ec3dcbefc00p-5",
     ("0x1.5608454cb6824p+1", "-0x1.3d49d49904d6ep-7"),
     ("-0x1.b26beb2df7cc0p-5", "0x1.a25e3e5f75fc8p-8")),
    ("thin", "busemann", 11, "-0x1.dbadd0190a000p-7",
     ("0x1.191989bb7c75ap+1", "0x1.e9143ec144cc0p-11"),
     ("0x1.40eea51c307bcp+1", "-0x1.00656b27c1d12p-6")),
]


@pytest.mark.parametrize("name, variant, seed, gap, p1, p2", PROBE_PINS,
                         ids=[f"{p[0]}-{p[1]}" for p in PROBE_PINS])
def test_convexity_probe_is_pinned(monkeypatch, name, variant, seed, gap, p1, p2):
    poly = PROBE_POLYGONS[name]
    casts = []
    ray_casts = centers._ray_casts

    def spy(poly, points, variant):
        out = ray_casts(poly, points, variant)
        casts.append((points, out[0]))
        return out

    monkeypatch.setattr(centers, "_ray_casts", spy)
    report = convexity_probe(poly, variant, trials=40, seed=seed)
    assert (report.variant, report.trials, report.violations) == (variant, 40, [])
    [(points, values)] = casts   # one batched cast: every p1, every p2, every midpoint
    assert [x.hex() for x in points[0]] == list(p1)
    assert [x.hex() for x in points[40]] == list(p2)
    f1, f2, fmid = values.reshape(3, 40).tolist()
    assert max(m - 0.5 * (a + b) for a, b, m in zip(f1, f2, fmid)).hex() == gap
    # each row is the one-point perimeter bit for bit
    perimeter = PERIMETERS[variant]
    assert values.tolist() == [perimeter(poly, p).value for p in points]


def test_interior_point_keeps_the_start_draws():
    # the draw `center` makes for restart 1 of seed 4
    p = centers._interior_point(PROBE_POLYGONS["thin"], np.random.default_rng(5))
    assert [x.hex() for x in p.tolist()] == ["-0x1.7581048b17ebep+0", "0x1.90829d070b2b2p-7"]


def test_interior_point_is_uniform_on_the_polygon():
    # a point drawn from the fan triangles at vertex 0 by area is uniform on the
    # polygon: the share above y = 1/2 of the regular hexagon is 0.1707
    hexagon = regular_polygon(6)
    rng = np.random.default_rng(12)
    points = np.array([centers._interior_point(hexagon, rng) for _ in range(4000)])
    assert all(hexagon.interior_distance(p) > 0.0 for p in points)
    assert np.mean(points[:, 1] > 0.5) == pytest.approx(0.1707, abs=0.02)
    assert np.linalg.norm(points.mean(axis=0)) < 0.03


def test_interior_point_gives_up_after_max_draws():
    class Outside:
        def random(self, size):
            return np.full(size, 1.0)   # folds to vertex 0, not inside the polygon

    with pytest.raises(GeometryError, match="could not sample an interior start point"):
        centers._interior_point(PROBE_POLYGONS["thin"], Outside())


@pytest.mark.parametrize("trials", [-1, 0, 2.5, "3", None])
def test_convexity_probe_needs_an_integer_trial_count(trials):
    with pytest.raises(GeometryError, match="trials must be an integer >= 1"):
        convexity_probe(PROBE_POLYGONS["heptagon"], trials=trials)
    assert convexity_probe(PROBE_POLYGONS["heptagon"], trials=np.int64(3)).trials == 3


def test_simplex_closed_form_centers():
    for n, want in [(2, 4.5), (3, 32.0 / 3.0)]:
        res = optimal_simplex_center(n)
        assert np.allclose(res.optimum.weights, 1.0 / (n + 1))
        assert res.value == pytest.approx(want, abs=1e-12)
        assert res.variant == "simplex-closed-form"
    with pytest.raises(GeometryError):
        optimal_simplex_center(0)


def test_simplex_center_value_is_correctly_rounded_up_to_the_float_range():
    # one integer division: a float of (n + 1)^n was one ulp off from n = 17 and
    # overflowed from n = 143, though the value stays finite up to n = 712
    assert optimal_simplex_center(17).value == float(Fraction(18 ** 17, math.factorial(17)))
    assert math.isfinite(optimal_simplex_center(712).value)
    with pytest.raises(GeometryError, match="n must be at most 712"):
        optimal_simplex_center(713)


def test_reported_value_matches_reported_point():
    rng = np.random.default_rng(7)
    poly = random_polygon(rng, points=8)
    res = optimal_center_2d(poly, "directed")
    assert self_perimeter_polygon(poly, res.optimum).value == pytest.approx(res.value, rel=1e-12)
    assert res.iterations >= 1


def _ellipse_polygon(rng, k, thin):
    # k vertices jittered around the unit circle, squeezed in y, then rotated
    ang = 2.0 * np.pi * (np.arange(k) + rng.uniform(0.1, 0.9, k)) / k
    v = np.column_stack([np.cos(ang), np.sin(ang)])
    aspect = rng.uniform(8.0, 20.0) if thin else rng.uniform(1.0, 2.0)
    v[:, 1] /= aspect
    t = rng.uniform(0.0, np.pi)
    return Polygon2(v @ np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]))


@pytest.mark.parametrize("seed, k, thin", [(6, 23, True), (19, 16, False), (36, 18, True)])
def test_busemann_solve_is_certified_where_descent_stalled(seed, k, thin):
    # minimizers on creases, where a smooth descent stalls: the cuts certify them fast
    poly = _ellipse_polygon(np.random.default_rng(seed), k, thin)
    t0 = time.perf_counter()
    res = optimal_center_2d(poly, "busemann")
    assert time.perf_counter() - t0 < 0.1
    assert res.gap <= GAP_TOL * res.value
    assert res.value == busemann_perimeter_polygon(poly, res.optimum).value


@st.composite
def polygons_with_a_point(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    poly = _ellipse_polygon(rng, draw(st.integers(3, 40)), draw(st.booleans()))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    shift = np.array(draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
    poly = Polygon2(scale * (poly.vertices + shift))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(poly),
                                     max_size=len(poly))))
    return poly, weights @ poly.vertices / np.sum(weights)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(polygons_with_a_point(), st.sampled_from(["directed", "busemann"]))
def test_solver_certifies_and_agrees_across_starts(drawn, variant):
    poly, point = drawn
    perimeter = self_perimeter_polygon if variant == "directed" else busemann_perimeter_polygon
    ceiling = min(perimeter(poly, poly.centroid).value, perimeter(poly, point).value)
    results = [optimal_center_2d(poly, variant), optimal_center_2d(poly, variant, start=point)]
    for res in results:
        assert res.gap <= GAP_TOL * res.value
        assert res.value <= ceiling * (1.0 + 1e-12)
        if variant == "directed":
            assert res.value <= 9.0 * (1.0 + 1e-12)
    assert results[1].value == pytest.approx(results[0].value, rel=1e-12, abs=0.0)


PERIMETERS = {"directed": self_perimeter_polygon, "busemann": busemann_perimeter_polygon}


def _frame_points(optimum, shift, reach=8):
    # the points q within reach ulps of optimum - shift that move back to optimum
    def near(x):
        steps = [x]
        for towards in (-np.inf, np.inf):
            y = x
            for _ in range(reach):
                y = np.nextafter(y, towards)
                steps.append(y)
        return steps

    q0 = optimum - shift
    return [np.array([x, y]) for x in near(q0[0]) for y in near(q0[1])
            if ((np.array([x, y]) + shift) == optimum).all()]


def _assert_value_at_optimum(poly, res, variant):
    # the solve runs on the polygon moved by its centroid, so its value is the
    # perimeter at the optimum to the rounding that the move brings
    want = PERIMETERS[variant](poly, res.optimum).value
    assert abs(res.value - want) <= translated_perimeter_bound(poly, poly.centroid) * want


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_value_is_the_perimeter_at_the_optimum_to_rounding(variant):
    rng = np.random.default_rng(8)
    for _ in range(20):
        poly = _ellipse_polygon(rng, int(rng.integers(3, 30)), bool(rng.integers(2)))
        res = optimal_center_2d(poly, variant)
        _assert_value_at_optimum(poly, res, variant)
        # the value is the perimeter at the optimum of the centroid frame, bit for bit
        frame = poly._moved(poly.centroid)
        values = [PERIMETERS[variant](frame, q).value
                  for q in _frame_points(res.optimum, poly.centroid)]
        assert res.value in values


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_solve_leaves_the_floating_point_error_state_alone(variant):
    before = np.geterr()
    optimal_center_2d(_ellipse_polygon(np.random.default_rng(9), 12, True), variant)
    assert np.geterr() == before


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_convergence_error_carries_the_best_iterate(monkeypatch, variant):
    poly = _ellipse_polygon(np.random.default_rng(10), 15, False)
    assert optimal_center_2d(poly, variant).iterations > 2
    monkeypatch.setattr(centers, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as caught:
        optimal_center_2d(poly, variant)
    best = caught.value.best
    assert best.iterations == 2 and best.gap > GAP_TOL * best.value
    _assert_value_at_optimum(poly, best, variant)


@pytest.mark.parametrize("start", [[0.1, 0.2, 0.3], 0.3, [[0.1, 0.2]], [0.1]])
def test_misshapen_start_is_geometry_error(start):
    with pytest.raises(GeometryError, match="point must have shape"):
        optimal_center_2d(regular_polygon(5), start=start)


def _ellipsoid_solve(poly, variant, start):
    # the deep-cut ellipsoid loop the localization cell replaced, one start at a
    # time: the reference the cell's values must meet within twice GAP_TOL
    x, y = start.tolist()
    a00 = a11 = math.sqrt(np.max(np.sum((poly.vertices - start) ** 2, axis=1)))
    a01 = a10 = 0.0
    best, fbest, lower = start, math.inf, -math.inf
    for iterations in range(1, centers.MAX_ITER + 1):
        p = np.array((x, y))
        try:
            f, g = polygon_perimeter_subgradient(poly, p, variant)
        except NotInteriorError:
            f, g = None, poly.normals[np.argmax(poly.normals @ p - poly.offsets)]
        g0, g1 = g.tolist()
        v0, v1 = a00 * g0 + a10 * g1, a01 * g0 + a11 * g1
        width, depth = math.hypot(v0, v1), 0.0
        if f is not None:
            if f < fbest:
                best, fbest = p, f
            lower = max(lower, f - width)
            if fbest - lower <= GAP_TOL * fbest:
                return CenterResult(best, fbest, iterations, variant, fbest - lower)
            depth = (f - fbest) / width
        u0, u1 = v0 / width, v1 / width
        s0, s1 = a00 * u0 + a01 * u1, a10 * u0 + a11 * u1
        move = (1.0 + 2.0 * depth) / 3.0
        x, y = x - move * s0, y - move * s1
        shrink = 1.0 - math.sqrt((1.0 - depth) / (3.0 * (1.0 + depth)))
        scale = math.sqrt(4.0 / 3.0 * (1.0 - depth ** 2))
        a00, a01 = scale * (a00 - shrink * (s0 * u0)), scale * (a01 - shrink * (s0 * u1))
        a10, a11 = scale * (a10 - shrink * (s1 * u0)), scale * (a11 - shrink * (s1 * u1))
    raise ConvergenceError(f"no certificate in {centers.MAX_ITER} iterations "
                           f"(gap {fbest - lower:.3e})",
                           CenterResult(best, fbest, centers.MAX_ITER, variant, fbest - lower))


def _clip(xs, ys, dots, bound):
    # the reference cut: the convex cell (xs, ys) cut to where the affine function
    # taking the values dots at its vertices is at most bound, in the same order,
    # each crossing put before the vertex that ends its edge
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


def _centroid_solve(poly, variant, start):
    # the localization-cell loop with a centroid query alone, one start at a
    # time: the reference the Newton and ring rows' values must meet within
    # twice GAP_TOL
    xs, ys = poly.vertices.T.tolist()
    e = math.frexp(poly.scale)[1]
    q = start
    best, fbest, lower = start, math.inf, -math.inf
    for iterations in range(1, centers.MAX_ITER + 1):
        try:
            f, g = polygon_perimeter_subgradient(poly, q, variant)
        except NotInteriorError:
            f, g = None, poly.normals[np.argmax(poly.normals @ q - poly.offsets)]
        (qx, qy), (g0, g1) = q.tolist(), g.tolist()
        dots = [g0 * (x - qx) + g1 * (y - qy) for x, y in zip(xs, ys)]
        bound = 0.0
        if f is not None:
            if f < fbest:
                best, fbest = q, f
            lower = max(lower, f + min(dots))
            if fbest - lower <= centers.GAP_TOL * fbest:
                return CenterResult(best, fbest, iterations, variant, fbest - lower)
            bound = fbest - f
        xs, ys = _clip(xs, ys, dots, bound)
        centroid = centers._centroid(xs, ys, e)
        if centroid is None:
            raise ConvergenceError(f"localization cell collapsed in {iterations} iterations "
                                   f"(gap {fbest - lower:.3e})",
                                   CenterResult(best, fbest, iterations, variant, fbest - lower))
        q = np.array(centroid)
    raise ConvergenceError(f"no certificate in {centers.MAX_ITER} iterations "
                           f"(gap {fbest - lower:.3e})",
                           CenterResult(best, fbest, centers.MAX_ITER, variant, fbest - lower))


def _sequential_solve(poly, variant, start):
    # one start alone, one `_ray_casts` call per row, about the centroid: the
    # reference the lock-step solver must match bit for bit
    shift = poly.centroid
    frame = poly._moved(shift)
    s = centers._Solve(tuple(frame.vertices.T.tolist()), (start - shift).tolist(),
                       centers._creases(frame, variant), math.frexp(frame.scale)[1])

    def result(iterations):
        return CenterResult(np.array(s.top[:2]) + shift, s.fbest, iterations, variant,
                            s.fbest - s.lower)

    for iterations in range(1, centers.MAX_ITER + 1):
        casts = [[a[0] for a in _ray_casts(frame, np.array([q]), variant)] for q in s.rows]
        cast = [(*q, float(f), *g.tolist()) if inside else None
                for q, (f, g, _, _, inside) in zip(s.rows, casts)]
        outcome = s.step(cast, [c[2] for c in casts], [c[3] for c in casts])
        if outcome == "certified":
            return result(iterations)
        if outcome == "collapsed":
            raise ConvergenceError(f"localization cell collapsed in {iterations} iterations "
                                   f"(gap {s.fbest - s.lower:.3e})", result(iterations))
    raise ConvergenceError(f"no certificate in {centers.MAX_ITER} iterations "
                           f"(gap {s.fbest - s.lower:.3e})", result(centers.MAX_ITER))


def _assert_same_result(got, want):
    assert got.optimum.tobytes() == want.optimum.tobytes()
    assert (got.value, got.iterations, got.gap, got.variant) == \
        (want.value, want.iterations, want.gap, want.variant)
    assert type(got.value) is float


@st.composite
def polygons_with_starts(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    poly = _ellipse_polygon(rng, draw(st.integers(3, 64)), draw(st.booleans()))
    poly = Polygon2(10.0 ** draw(st.floats(-3.0, 3.0)) * poly.vertices)
    starts = rng.dirichlet(np.ones(len(poly)), size=draw(st.integers(1, 5))) @ poly.vertices
    return poly, [poly.centroid, *starts]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(polygons_with_starts(), st.sampled_from(["directed", "busemann"]))
def test_lock_step_solves_are_the_sequential_solves_bit_for_bit(drawn, variant):
    poly, starts = drawn
    results = optimal_centers_2d(poly, variant, starts)
    assert len(results) == len(starts)
    for got, start in zip(results, starts):
        _assert_same_result(got, _sequential_solve(poly, variant, start))
    _assert_same_result(optimal_center_2d(poly, variant, starts[-1]), results[-1])


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_lock_step_convergence_error_is_the_first_failing_restart(monkeypatch, variant):
    rng = np.random.default_rng(12)
    poly = _ellipse_polygon(rng, 17, True)
    starts = [poly.centroid, *(rng.dirichlet(np.ones(17), size=5) @ poly.vertices)]
    counts = [_sequential_solve(poly, variant, s).iterations for s in starts]
    # restart 0 certifies on the last iteration allowed; a later one does not
    limit = counts[0]
    first = next(i for i, n in enumerate(counts) if n > limit)
    assert first > 0
    monkeypatch.setattr(centers, "MAX_ITER", limit)
    for i in range(first):
        _assert_same_result(_sequential_solve(poly, variant, starts[i]),
                            optimal_center_2d(poly, variant, starts[i]))
    with pytest.raises(ConvergenceError) as want:
        _sequential_solve(poly, variant, starts[first])
    with pytest.raises(ConvergenceError) as got:
        optimal_centers_2d(poly, variant, starts)
    assert str(got.value) == str(want.value)
    _assert_same_result(got.value.best, want.value.best)


@st.composite
def polygons_with_one_to_five_starts(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    poly = _ellipse_polygon(rng, draw(st.integers(3, 64)), draw(st.booleans()))
    poly = Polygon2(10.0 ** draw(st.floats(-3.0, 3.0)) * poly.vertices)
    starts = rng.dirichlet(np.ones(len(poly)), size=draw(st.integers(0, 4))) @ poly.vertices
    return poly, [poly.centroid, *starts]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(polygons_with_one_to_five_starts(), st.sampled_from(["directed", "busemann"]))
def test_values_meet_the_centroid_loop_within_twice_the_gap(drawn, variant):
    # Newton and ring rows change the path, not the certificate: both loops certify
    # a gap of GAP_TOL, so their values differ by less than twice it
    poly, starts = drawn
    for got, start in zip(optimal_centers_2d(poly, variant, starts), starts):
        want = _centroid_solve(poly, variant, start)
        assert abs(got.value - want.value) <= 2.0 * GAP_TOL * want.value
        assert got.gap <= GAP_TOL * got.value
        _assert_value_at_optimum(poly, got, variant)


def _cli_starts(poly, seed):
    # the starts of `center --restarts 5 --seed seed`
    return [poly.centroid] + [centers._interior_point(poly, np.random.default_rng(seed + i))
                              for i in range(1, 5)]


def _cast_counts(monkeypatch, cases):
    # the `_ray_casts` calls of one lock-step solve per (polygon, variant, seed),
    # and the rows they cast, summed over the cases
    calls, ray_casts = [], centers._ray_casts

    def spy(poly, points, variant):
        calls.append(len(points))
        return ray_casts(poly, points, variant)

    monkeypatch.setattr(centers, "_ray_casts", spy)
    counts, rows = [], 0
    for poly, variant, seed in cases:
        calls.clear()
        optimal_centers_2d(poly, variant, _cli_starts(poly, seed))
        counts.append(len(calls))
        rows += sum(calls)
    return counts, rows


def _affine_regular(k):
    m = np.array([[1.3, 0.4], [-0.2, 0.9]])
    return Polygon2(regular_polygon(k, phase=0.1 * k).vertices @ m.T + [0.3, -0.2])


def test_newton_rows_cut_the_casts_of_smooth_minima(monkeypatch):
    # affine-regular polygons other than the hexagon have smooth minima; the
    # centroid loop alone made 412 calls on this set, and a secant model 176
    cases = [(_affine_regular(k), variant, 100 + k) for k in (3, 4, 5, 7, 8, 12, 16, 32)
             for variant in ("directed", "busemann")]
    counts, rows = _cast_counts(monkeypatch, cases)
    assert sum(counts) <= 62 and rows <= 476


def test_crease_minima_cost_no_more_casts_than_the_centroid_loop(monkeypatch):
    # minima on creases: the regular hexagon's centre, where three crease lines
    # cross, and those of random polygons, a third of them thin; the centroid loop
    # alone made 29 and 31 calls on the hexagon and 1,242 on the whole set, and a
    # secant model 29, 31 and 1,081; rows, not calls, are the cost on polygons
    # whose crease lines are dense
    cases = [(regular_polygon(6), variant, 106) for variant in ("directed", "busemann")]
    for i in range(12):
        rng = np.random.default_rng(200 + i)
        poly = _ellipse_polygon(rng, int(rng.integers(3, 40)), i % 3 == 2)
        cases += [(poly, variant, 300 + i) for variant in ("directed", "busemann")]
    counts, rows = _cast_counts(monkeypatch, cases)
    assert counts[0] <= 6 and counts[1] <= 8
    assert sum(counts) <= 286 and rows <= 2994


@st.composite
def thin_polygons_with_a_start(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    poly = _ellipse_polygon(rng, draw(st.integers(3, 64)), True)
    poly = Polygon2(10.0 ** draw(st.floats(-3.0, 3.0)) * poly.vertices)
    return poly, rng.dirichlet(np.ones(len(poly))) @ poly.vertices


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(thin_polygons_with_a_start(), st.sampled_from(["directed", "busemann"]))
def test_cell_value_is_the_ellipsoid_value_within_twice_the_gap(drawn, variant):
    # both methods certify a gap of GAP_TOL, so their values differ by less than twice it
    poly, start = drawn
    for s in (poly.centroid, start):
        got, want = optimal_center_2d(poly, variant, s), _ellipsoid_solve(poly, variant, s)
        assert abs(got.value - want.value) <= 2.0 * GAP_TOL * want.value


def test_clip_and_centroid_of_the_unit_square():
    xs, ys = [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]
    # x <= 1/2: each crossing goes before the vertex that ends its edge
    cut = _clip(xs, ys, xs, 0.5)
    assert cut == ([0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 1.0, 1.0])
    assert centers._centroid(*cut, 1) == [0.25, 0.5]
    # the line x + y = 1 through two vertices leaves a triangle with no new vertex
    diagonal = [x + y for x, y in zip(xs, ys)]
    assert _clip(xs, ys, diagonal, 1.0) == ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    assert centers._centroid([0.0, 1.0], [0.0, 0.0], 1) is None
    assert centers._centroid([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 1) is None   # no area


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40), st.floats(-1.0, 1.0))
def test_cut_is_the_clip_of_the_query_dots_in_one_pass(seed, size, offset):
    # the solver's fused cut: the least dot and the clipped cell, bit for bit
    rng = np.random.default_rng(seed)
    xs, ys = random_polygon(rng, size).vertices.T.tolist()
    (qx, qy), (g0, g1) = rng.normal(scale=0.5, size=2).tolist(), rng.normal(size=2).tolist()
    dots = [g0 * (x - qx) + g1 * (y - qy) for x, y in zip(xs, ys)]
    bound = offset * (max(dots) - min(dots))
    assert centers._cut(xs, ys, qx, qy, g0, g1, bound) == (min(dots), *_clip(xs, ys, dots, bound))


@pytest.mark.parametrize("variant", ["directed", "busemann"])
@pytest.mark.parametrize("scale", [1e120, 1e-120])
def test_solve_at_extreme_scales_is_the_unit_solve_scaled(variant, scale):
    # the cell centroid sums cubes of coordinate differences, which would
    # overflow or underflow at these scales unless scaled by a power of two
    unit = Polygon2(regular_polygon(6).vertices + [0.2, -0.1])
    want = optimal_center_2d(unit, variant)
    got = optimal_center_2d(Polygon2(scale * unit.vertices), variant)
    assert got.gap <= GAP_TOL * got.value
    # the self-perimeter does not change with scale; the optimum scales
    assert got.value == pytest.approx(want.value, rel=1e-15, abs=0.0)
    assert np.abs(got.optimum / scale - want.optimum).max() < 1e-15


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_collapsed_cell_is_a_convergence_error_with_the_best_iterate(monkeypatch, variant):
    # with no gap certifying, every cell shrinks until it has no area; a later
    # restart collapses first, and the lock step still raises restart 0's error
    rng = np.random.default_rng(11)
    poly = _ellipse_polygon(rng, 15, True)
    starts = [poly.centroid, *(rng.dirichlet(np.ones(15), size=5) @ poly.vertices)]
    monkeypatch.setattr(centers, "GAP_TOL", -math.inf)
    errors = []
    for start in starts:
        with pytest.raises(ConvergenceError, match="^localization cell collapsed in ") as want:
            _sequential_solve(poly, variant, start)
        errors.append(want.value)
    # restart 0 is the start whose cell collapses last, so that a later one collapses first
    last = max(range(len(starts)), key=lambda i: errors[i].best.iterations)
    starts.insert(0, starts.pop(last))
    errors.insert(0, errors.pop(last))
    first = errors[0].best
    assert min(e.best.iterations for e in errors[1:]) < first.iterations < centers.MAX_ITER
    _assert_value_at_optimum(poly, first, variant)
    with pytest.raises(ConvergenceError) as got:
        optimal_centers_2d(poly, variant, starts)
    assert str(got.value) == str(errors[0])
    _assert_same_result(got.value.best, first)
    # one iteration short of that collapse, restart 0 runs out of iterations first
    monkeypatch.setattr(centers, "MAX_ITER", first.iterations - 1)
    with pytest.raises(ConvergenceError, match="^no certificate in ") as want:
        _sequential_solve(poly, variant, starts[0])
    with pytest.raises(ConvergenceError) as got:
        optimal_centers_2d(poly, variant, starts)
    assert str(got.value) == str(want.value)
    _assert_same_result(got.value.best, want.value.best)


def test_lock_step_checks_every_start_first(monkeypatch):
    poly = regular_polygon(6)
    monkeypatch.setattr(centers, "_ray_casts", None)   # no iteration may start
    with pytest.raises(GeometryError, match="need at least one start point"):
        optimal_centers_2d(poly, "directed", [])
    with pytest.raises(GeometryError, match=r"point must have shape \(2,\), got \(3,\)"):
        optimal_centers_2d(poly, "directed", [poly.centroid, [0.1, 0.2, 0.3]])
    for bad in ([2.0, 0.0], [np.nan, 0.0], poly.vertices[1]):
        with pytest.raises(NotInteriorError, match="^start point is not strictly inside the "
                           "polygon$"):
            optimal_centers_2d(poly, "busemann", [poly.centroid, [0.1, 0.1], bad])
    with pytest.raises(GeometryError, match="variant must be one of"):
        optimal_centers_2d(poly, "both", [poly.centroid])


_TRACED_SOLVE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from selfmetric import centers
from selfmetric.geometry import regular_polygon
with Tracer() as tracer:
    centers.optimal_center_2d(regular_polygon(5))
print(json.dumps({"solves": tracer.counts["centers.iterations"] > 0,
                  "optimize": [m for m in sys.modules if m.startswith("scipy.optimize")]}))
"""


def test_traced_centre_solve_loads_no_scipy_optimize():
    # the benchmark tracer patches centers.minimize, a plain binding no solve calls
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    proc = subprocess.run([sys.executable, "-c", _TRACED_SOLVE, perfbench],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"solves": True, "optimize": []}


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_query_outside_the_polygon_cuts_nothing(monkeypatch, variant):
    # no solve in the suite or the benchmark sends a query outside the polygon, so
    # the first centroid is moved just beyond the middle of edge 0: that row is
    # flagged outside, never reaches a cut, and the solve still certifies
    poly = Polygon2([[0.0, 0.0], [4.0, 0.0], [5.0, 2.0], [2.0, 4.0], [-1.0, 2.5]])
    want = optimal_center_2d(poly, variant)
    beyond = (poly.vertices[0] + poly.vertices[1]) / 2 + 1e-9 * poly.normals[0]
    assert not poly.contains(beyond)
    beyond = (beyond - poly.centroid).tolist()   # in the centroid frame
    centroid, casts, cut, inside, cuts = centers._centroid, centers._ray_casts, centers._cut, [], []

    def once(xs, ys, e):
        monkeypatch.setattr(centers, "_centroid", centroid)
        return beyond

    def spy(poly, points, variant):
        out = casts(poly, points, variant)
        inside.extend(zip(points.tolist(), out[4].tolist()))
        return out

    def cut_spy(xs, ys, qx, qy, g0, g1, bound):
        cuts.append([qx, qy])
        return cut(xs, ys, qx, qy, g0, g1, bound)

    monkeypatch.setattr(centers, "_centroid", once)
    monkeypatch.setattr(centers, "_ray_casts", spy)
    monkeypatch.setattr(centers, "_cut", cut_spy)
    got = optimal_center_2d(poly, variant)
    assert (beyond, False) in inside
    assert all(flag for point, flag in inside if point != beyond)
    assert beyond not in cuts and len(cuts) == len(inside) - 1
    assert got.gap <= GAP_TOL * got.value
    assert abs(got.value - want.value) <= 2.0 * GAP_TOL * want.value


@pytest.mark.parametrize("call, name", [
    (lambda body: optimal_center_2d(body), "optimal_center_2d"),
    (lambda body: optimal_centers_2d(body, "directed", [np.zeros(2)]), "optimal_centers_2d"),
    (lambda body: convexity_probe(body), "convexity_probe"),
], ids=["center", "centers", "probe"])
def test_center_solvers_take_only_a_polygon2(call, name):
    with pytest.raises(TypeError, match=f"^{name} expects a Polygon2$"):
        call(cube(2))


@pytest.mark.parametrize("variant", ["directed", "busemann"])
@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
def test_restarts_agree_on_a_polygon_far_from_the_origin(variant, offset):
    # the solve runs about the polygon's centroid: moved by (1e6, 1e6), the five
    # restarts of `center` spread by 6.2e-11 relative about the origin, and
    # their Busemann cells collapsed before they certified
    poly = Polygon2(np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [0.2, 1.3]]) + offset)
    results = optimal_centers_2d(poly, variant, _cli_starts(poly, 11))
    values = [res.value for res in results]
    assert max(values) - min(values) <= 2.0 * GAP_TOL * min(values)
    for res in results:
        assert res.gap <= GAP_TOL * res.value
        _assert_value_at_optimum(poly, res, variant)


def _optimum_class(poly, variant, optimum):
    # the rays whose exit edge ties at the optimum, within 1e-7 relative: none
    # for a smooth minimum, one on a crease line, two or more where lines cross
    k = len(poly)
    cosines = poly.exit_cosines if variant == "busemann" else poly.exit_cosines[:k]
    with np.errstate(divide="ignore"):
        t = np.sort((poly.offsets - poly.normals @ optimum) / cosines, axis=1)
    ties = int(np.count_nonzero(t[:, 1] - t[:, 0] <= 1e-7 * t[:, 0]))
    return ("smooth", "line", "crossing")[min(ties, 2)]


# the most iterations of a restart per class of minimum, on the 60 polygons of
# test_iterations_are_bounded_by_the_class_of_the_minimum; a secant model beside
# the centroid took 29, 55 and 62 directed and 28, 52 and 70 Busemann
CLASS_ITERATIONS = {"directed": {"smooth": 7, "line": 12, "crossing": 6},
                    "busemann": {"smooth": 8, "line": 14, "crossing": 13}}


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_iterations_are_bounded_by_the_class_of_the_minimum(variant):
    rng = np.random.default_rng(2026)
    most = {}
    for t in range(60):
        poly = random_polygon(rng, int(rng.integers(5, 11)))
        results = optimal_centers_2d(poly, variant, _cli_starts(poly, 7 * t))
        best = min(results, key=lambda res: res.value)
        cls = _optimum_class(poly, variant, best.optimum)
        most[cls] = max(most.get(cls, 0), *(res.iterations for res in results))
    assert set(most) == {"smooth", "line", "crossing"}
    for cls, iterations in most.items():
        assert iterations <= CLASS_ITERATIONS[variant][cls], cls


# FOUND 93 in CHANGES.md: on these two line minima of the draw above, continued
# past t = 59, rings about a point on one crease line narrow several times (from
# start _interior_point(poly, default_rng(3)), polygon 101 casts six rings, four
# of them narrowing from 1 down to 1/64), and the solves take 16 and 15 iterations
@pytest.mark.xfail(strict=True, reason="FOUND 93: rings on one crease line narrow "
                   "several times before they certify")
def test_busemann_line_minima_past_the_draw_keep_the_class_bound():
    rng = np.random.default_rng(2026)
    for t in range(102):
        poly = random_polygon(rng, int(rng.integers(5, 11)))
        if t in (97, 101):
            results = optimal_centers_2d(poly, "busemann", _cli_starts(poly, 7 * t))
            best = min(results, key=lambda res: res.value)
            assert _optimum_class(poly, "busemann", best.optimum) == "line"
            assert max(res.iterations for res in results) <= CLASS_ITERATIONS["busemann"]["line"]


def _exact_exits(vertices, p, d):
    # (rho, [(j, grad rho)]) of the ray from p along d in a polygon of rational
    # vertices: with unnormalised edge normals n_j the ray leaves through edge j at
    # p + rho d, rho = (h_j - n_j.p) / n_j.d, the least over edges it moves towards
    k = len(vertices)
    best, active = None, []
    for j in range(k):
        (ax, ay), (bx, by) = vertices[j], vertices[(j + 1) % k]
        nx, ny = by - ay, ax - bx
        c = nx * d[0] + ny * d[1]
        if c > 0:
            rho = (nx * (ax - p[0]) + ny * (ay - p[1])) / c
            if best is None or rho < best:
                best, active = rho, []
            if rho == best:
                active.append((j, (-nx / c, -ny / c)))
    return best, active


def _exact_terms(vertices, p, variant):
    # per edge, the term of the self-perimeter and the gradients of its active
    # pieces: 1 / rho for the directed ray, 2 / (rho + rho') for the chord; with
    # unnormalised directions each is a ratio of parallel lengths, rational at p
    k, terms = len(vertices), []
    for i in range(k):
        (ax, ay), (bx, by) = vertices[i], vertices[(i + 1) % k]
        e = (bx - ax, by - ay)
        rho, active = _exact_exits(vertices, p, e)
        if variant == "directed":
            terms.append((1 / rho, [(-gx / rho ** 2, -gy / rho ** 2) for _, (gx, gy) in active]))
        else:
            back, reverse = _exact_exits(vertices, p, (-e[0], -e[1]))
            s = rho + back
            terms.append((2 / s, [(-2 * (gx + hx) / s ** 2, -2 * (gy + hy) / s ** 2)
                                  for _, (gx, gy) in active for _, (hx, hy) in reverse]))
    return terms


# rational quadrilaterals whose minimum lies where two crease lines cross
EXACT_CROSSINGS = {"directed": [("9/4", "4"), ("-7/2", "-2"), ("3", "-5/2"), ("15/4", "1/4")],
                   "busemann": [("1/4", "7/2"), ("7/4", "-7/4"), ("15/4", "-13/4"), ("4", "2")]}


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_crossing_minimum_is_the_exact_crossing_of_its_creases(variant):
    vertices = [(Fraction(x), Fraction(y)) for x, y in EXACT_CROSSINGS[variant]]
    poly = Polygon2([[float(x), float(y)] for x, y in vertices])
    res = optimal_center_2d(poly, variant)
    assert res.gap <= GAP_TOL * res.value
    # the rays whose two least exits tie at the optimum found: each tie lies on the
    # line through the vertex its exit edges share, parallel to the ray
    x = [Fraction(c) for c in res.optimum.tolist()]
    k, lines = len(vertices), []
    for i in range(k):
        e = [b - a for a, b in zip(vertices[i], vertices[(i + 1) % k])]
        for d in [e] if variant == "directed" else [e, [-e[0], -e[1]]]:
            rhos = sorted(((nx * (ax - x[0]) + ny * (ay - x[1])) / c, j)
                          for j, ((ax, ay), (bx, by)) in enumerate(zip(vertices,
                                                                       vertices[1:] + vertices[:1]))
                          for nx, ny in [(by - ay, ax - bx)]
                          for c in [nx * d[0] + ny * d[1]] if c > 0)
            if len(rhos) > 1 and rhos[1][0] - rhos[0][0] <= Fraction(1, 10 ** 9) * rhos[0][0]:
                j, m = rhos[0][1], rhos[1][1]
                lines.append((vertices[m if (j + 1) % k == m else j], e))
    assert len(lines) == 2
    ((px, py), e), ((qx, qy), f) = lines
    s = ((qx - px) * f[1] - (qy - py) * f[0]) / (e[0] * f[1] - e[1] * f[0])
    crossing = (px + s * e[0], py + s * e[1])
    assert np.abs(res.optimum - [float(c) for c in crossing]).max() <= 4e-16 * poly.scale
    # 0 lies in the exact subdifferential there: the sum of the single-piece
    # gradients plus a in [0, 1] of one tied term's difference and b of the other's
    terms = _exact_terms(vertices, crossing, variant)
    tied = [pieces for _, pieces in terms if len(pieces) > 1]
    assert [len(pieces) for pieces in tied] == [2, 2]
    g = [sum(pieces[0][c] for _, pieces in terms) for c in range(2)]
    (u0, u1), (w0, w1) = [[b[c] - a[c] for c in range(2)] for a, b in tied]
    det = u0 * w1 - u1 * w0
    a, b = (g[1] * w0 - g[0] * w1) / det, (g[0] * u1 - g[1] * u0) / det
    assert 0 <= a <= 1 and 0 <= b <= 1
    minimum = sum(value for value, _ in terms)
    assert abs(res.value - float(minimum)) <= GAP_TOL * float(minimum)
