import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import random_polygon
from selfmetric import centers
from selfmetric.centers import (GAP_TOL, CenterResult, ConvergenceError, convexity_probe,
                                grunbaum_bound_check, optimal_center_2d, optimal_centers_2d,
                                optimal_simplex_center)
from selfmetric.geometry import GeometryError, NotInteriorError, Polygon2, regular_polygon
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
# drawn, recorded while the probe still evaluated each point by its own cast
PROBE_PINS = [
    ("heptagon", "directed", 3, "-0x1.b4a7cc2d3fa00p-6",
     ("0x1.234e59e76f4ecp-1", "0x1.00e950ab6bfb4p-3"),
     ("-0x1.9ca3c00888474p-1", "-0x1.4ba79dab9a8c8p-3")),
    ("heptagon", "busemann", 11, "-0x1.7a74a8ee0de00p-6",
     ("-0x1.7a5a9c796c565p-1", "-0x1.19a6e33f6b250p-5"),
     ("0x1.b5b1cf5598d46p-1", "0x1.9dc76547d41f4p-3")),
    ("pentagon", "directed", 11, "-0x1.a76e08402c780p-3",
     ("-0x1.4fba168f7dd6ap+0", "0x1.2e06126184ac0p-3"),
     ("-0x1.975fbba466bd8p-2", "0x1.84d7fb2b47dd0p-3")),
    ("pentagon", "busemann", 3, "-0x1.9ba43d09ca600p-7",
     ("0x1.3eae075b4a07fp+0", "0x1.c01198c3c4ed8p-2"),
     ("-0x1.713b4ddca6792p+0", "-0x1.584acc9eff290p-4")),
    ("thin", "directed", 3, "-0x1.2937a9dc47c40p-1",
     ("-0x1.3e38b04490c3cp+1", "-0x1.0b5ea26e362a2p-7"),
     ("0x1.cec1f0ab16938p+0", "0x1.2a744bafcd972p-7")),
    ("thin", "busemann", 11, "-0x1.a31a9ac23b000p-9",
     ("-0x1.1d4211cf993dap+1", "0x1.45504e9eaec10p-8"),
     ("-0x1.9273ffed947a8p-1", "0x1.6d00b9098ba44p-8")),
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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 12), st.integers(1, 5),
       st.sampled_from(["directed", "busemann"]))
def test_outside_cut_edge_is_the_most_violated_edge(seed, size, rows, variant):
    # the solve cuts a center outside along the least slack of its cast row; that
    # row must be the violation N p - h negated, and its argmin the violation's argmax
    rng = np.random.default_rng(seed)
    poly = random_polygon(rng, size)
    points = rng.normal(scale=2.0, size=(rows, 2))   # most fall outside
    slack = _ray_casts(poly, points, variant)[3]
    assert slack.shape == (rows, len(poly))
    for center, row in zip(points, slack):
        violation = poly.normals @ center - poly.offsets
        assert np.array_equal(-row, violation)
        assert row.argmin() == np.argmax(violation)


def test_interior_point_keeps_the_start_draws():
    # the draw `center` makes for restart 1 of seed 4, recorded before the
    # probe and the CLI shared one sampler
    p = centers._interior_point(PROBE_POLYGONS["thin"], np.random.default_rng(5))
    assert [x.hex() for x in p.tolist()] == ["0x1.d47c079806554p+0", "0x1.4e2f6261fe13dp-6"]


def test_interior_point_gives_up_after_max_draws():
    class Outside:
        def random(self, size):
            return np.full(size, 1.0)   # the box corner (3, 0.03), outside the polygon

    with pytest.raises(GeometryError, match="could not sample an interior start point"):
        centers._interior_point(PROBE_POLYGONS["thin"], Outside())


def test_simplex_closed_form_centers():
    for n, want in [(2, 4.5), (3, 32.0 / 3.0)]:
        res = optimal_simplex_center(n)
        assert np.allclose(res.optimum.weights, 1.0 / (n + 1))
        assert res.value == pytest.approx(want, abs=1e-12)
        assert res.variant == "simplex-closed-form"
    with pytest.raises(GeometryError):
        optimal_simplex_center(0)


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


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_value_is_the_perimeter_at_the_optimum_exactly(variant):
    rng = np.random.default_rng(8)
    for _ in range(20):
        poly = _ellipse_polygon(rng, int(rng.integers(3, 30)), bool(rng.integers(2)))
        res = optimal_center_2d(poly, variant)
        assert res.value == PERIMETERS[variant](poly, res.optimum).value


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_solve_leaves_the_floating_point_error_state_alone(variant):
    before = np.geterr()
    optimal_center_2d(_ellipse_polygon(np.random.default_rng(9), 12, True), variant)
    assert np.geterr() == before


@pytest.mark.parametrize("variant", ["directed", "busemann"])
def test_convergence_error_carries_the_best_iterate(monkeypatch, variant):
    poly = _ellipse_polygon(np.random.default_rng(10), 15, False)
    monkeypatch.setattr(centers, "MAX_ITER", 5)
    with pytest.raises(ConvergenceError) as caught:
        optimal_center_2d(poly, variant)
    best = caught.value.best
    assert best.iterations == 5 and best.gap > GAP_TOL * best.value
    assert best.value == PERIMETERS[variant](poly, best.optimum).value


@pytest.mark.parametrize("start", [[0.1, 0.2, 0.3], 0.3, [[0.1, 0.2]], [0.1]])
def test_misshapen_start_is_geometry_error(start):
    with pytest.raises(GeometryError, match="point must have shape"):
        optimal_center_2d(regular_polygon(5), start=start)


def _sequential_solve(poly, variant, start):
    # the one-start ellipsoid loop as it was before restarts ran in lock step:
    # the reference the lock-step solver must match bit for bit
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
    rng = np.random.default_rng(11)
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
