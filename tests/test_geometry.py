import math
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from common import qhull_polygon, random_polygon, translated_perimeter_bound, with_vertices
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from selfmetric import geometry
from selfmetric.alexandrov import FourierDensity, FourierDensityError, circle_grid
from selfmetric.centers import optimal_center_2d, optimal_simplex_center
from selfmetric.geometry import (PROFILE_GRID, BarycentricPoint, GeometryError, NotInteriorError,
                                 Polygon2, PolytopeN, RadiusProfile, central_section,
                                 cube, fourier_eval, icosphere, interval,
                                 polygon_as_polytope, regular_polygon, uniform_grid)
from selfmetric.perimeter2 import (busemann_perimeter_polygon, kgon_self_perimeter,
                                   self_perimeter_polygon, self_perimeter_smooth, smooth_density,
                                   triangle_perimeters)
from selfmetric.selfvolume import (affine_image, cartesian_product, hypercube_self_volume,
                                   self_volume_recursive, simplex_self_volume)

RNG = np.random.default_rng(20240817)


def test_fourier_eval_of_no_angles_is_empty_without_a_warning():
    # n = 0 angles must stay off the grid path, whose ks % n divides by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empties = (fourier_eval(np.array([]), [1, -1], [1, 1]),
                   RadiusProfile([-4, 0, 4], [0.01, 1.0, 0.01])(np.array([])),
                   FourierDensity.from_pairs([(4, 0.5, 0.0)], 0.01).evaluate(np.array([])))
    for out in empties:
        assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_fourier_eval_matches_trig():
    theta = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    # 1 + cos(2t) + 0.5 sin(3t) via complex pairs
    ks = np.array([-3, -2, 0, 2, 3])
    coeffs = np.array([0.25j, 0.5, 1.0, 0.5, -0.25j])
    expected = 1.0 + np.cos(2 * theta) + 0.5 * np.sin(3 * theta)
    assert np.allclose(fourier_eval(theta, ks, coeffs), expected, atol=1e-14)



def _dense_reference(theta, ks, coeffs):
    return (np.exp(1j * np.outer(theta, ks)) @ coeffs).real


def _symmetric_spectrum(rng, positive_ks):
    """ks = (-k..., 0, k...) with random c_{-k} = conj(c_k) and a real c_0."""
    c = rng.normal(size=len(positive_ks)) + 1j * rng.normal(size=len(positive_ks))
    ks = np.concatenate([-positive_ks[::-1], [0], positive_ks])
    return ks, np.concatenate([np.conj(c[::-1]), [rng.normal()], c])


def _angle_counts(monkeypatch, kernel):
    """Angle counts of the calls that took geometry.<kernel>."""
    calls = []
    inner = getattr(geometry, kernel)

    def spy(theta, *args):
        calls.append(len(theta))
        return inner(theta, *args)

    monkeypatch.setattr(geometry, kernel, spy)
    return calls


@pytest.fixture
def nufft_calls(monkeypatch):
    """Angle counts of the calls that took the NUFFT path."""
    return _angle_counts(monkeypatch, "_nufft_type2")


@pytest.fixture
def horner_calls(monkeypatch):
    """Angle counts of the calls that took Horner's rule."""
    return _angle_counts(monkeypatch, "_horner")


def test_fourier_eval_paths_on_both_sides_of_the_crossover(nufft_calls, horner_calls):
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, 2.0 * np.pi, 200)
    # few harmonics: the dense loop, bit for bit
    ks, coeffs = _symmetric_spectrum(rng, np.arange(1, 4))
    assert np.array_equal(fourier_eval(theta, ks, coeffs), _dense_reference(theta, ks, coeffs))
    # 30 far sparse harmonics on 64 angles: dense, no fine grid of 2^19 nodes
    ks, coeffs = _symmetric_spectrum(rng, np.sort(rng.choice(np.arange(1, 100_000), 14,
                                                             replace=False)))
    ks = np.concatenate([[-100_000], ks, [100_000]])
    coeffs = np.concatenate([[0.5 - 0.25j], coeffs, [0.5 + 0.25j]])
    assert len(ks) == 31 and np.max(np.abs(ks)) == 100_000
    assert np.array_equal(fourier_eval(theta[:64], ks, coeffs),
                          _dense_reference(theta[:64], ks, coeffs))
    assert nufft_calls == [] and horner_calls == []
    # max |k| = 4w = 64, above the crossover: Horner's rule
    ks, coeffs = _symmetric_spectrum(rng, np.arange(1, 65))
    got = fourier_eval(theta, ks, coeffs)
    assert horner_calls == [200] and nufft_calls == []
    err = np.max(np.abs(got - _dense_reference(theta, ks, coeffs)))
    assert err <= 1e-12 * np.sum(np.abs(coeffs))
    # one harmonic more: the NUFFT
    ks, coeffs = _symmetric_spectrum(rng, np.arange(1, 66))
    got = fourier_eval(theta, ks, coeffs)
    assert nufft_calls == [200] and horner_calls == [200]
    err = np.max(np.abs(got - _dense_reference(theta, ks, coeffs)))
    assert err <= 1e-12 * np.sum(np.abs(coeffs))


def test_fourier_eval_non_finite_angles_give_nan_in_place(nufft_calls):
    rng = np.random.default_rng(6)
    ks, coeffs = _symmetric_spectrum(rng, np.arange(1, 129))
    theta = rng.uniform(-10.0, 10.0, 300)
    bad = [0, 17, 150, 299]
    theta[bad] = [np.nan, np.inf, -np.inf, np.nan]
    got = fourier_eval(theta, ks, coeffs)
    assert nufft_calls == [300]
    assert np.flatnonzero(np.isnan(got)).tolist() == bad
    good = np.isfinite(theta)
    err = np.max(np.abs(got[good] - _dense_reference(theta[good], ks, coeffs)))
    assert err <= 1e-12 * np.sum(np.abs(coeffs))
    # the dense path does the same, quietly
    dense = fourier_eval(np.array([0.5, np.nan, 1.0, np.inf, -np.inf]), ks[127:130],
                         coeffs[127:130])
    assert nufft_calls == [300]
    assert np.isnan(dense).tolist() == [False, True, False, True, True]


@pytest.mark.parametrize("seed", range(6))
def test_nufft_gather_is_bit_identical_for_every_chunk(monkeypatch, seed):
    # each angle's sum is its own row of the gather, so the chunk size moves no bit
    rng = np.random.default_rng(seed)
    kmax = int(rng.integers(33, 2048))
    ks, coeffs = _symmetric_spectrum(rng, np.arange(1, kmax + 1))
    theta = rng.uniform(-20.0, 20.0, int(rng.integers(1, 3000)))
    theta[rng.integers(0, len(theta), 3)] = [np.nan, np.inf, 1e6]
    modes = 2 * kmax + 1
    fine = 1 << (2 * modes - 1).bit_length()
    outs = []
    for chunk in (1024, 256, 97):
        monkeypatch.setattr(geometry, "_GATHER_CHUNK", chunk)
        outs.append(geometry._nufft_type2(theta, ks, coeffs, modes, fine))
    assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()


def test_nufft_gather_peak_memory_stays_under_one_mib(nufft_calls):
    # one forward map at 4096 nodes: K = 2047 off the grid. 1024-row gather chunks
    # made four 256 KiB temporaries and a traced peak of about 1.7 MB
    rng = np.random.default_rng(29)
    ks, coeffs = _symmetric_spectrum(rng, np.arange(1, 2048))
    theta = rng.uniform(0.0, 2.0 * np.pi, 4096)
    fourier_eval(theta, ks, coeffs)   # the FFT plans are cached outside the trace
    tracemalloc.start()
    try:
        fourier_eval(theta, ks, coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nufft_calls == [4096, 4096]
    assert peak <= 1 << 20


@st.composite
def fourier_cases(draw):
    """Spectrum, angles and coefficient set on either side of the NUFFT crossover."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kmax = draw(st.sampled_from([1, 3, 6, 16, 40, 128, 700, 2047]))
    positive = np.arange(1, kmax + 1)
    if draw(st.booleans()):
        positive = np.sort(rng.choice(positive, size=max(1, kmax // 6), replace=False))
    ks, coeffs = _symmetric_spectrum(rng, positive)
    coeffs = draw(st.sampled_from([coeffs, 1j * ks * coeffs, -(ks ** 2) * coeffs]))
    if draw(st.booleans()):
        theta = draw(st.floats(-50.0, 50.0))
    else:
        theta = rng.uniform(-50.0, 50.0, draw(st.sampled_from([1, 16, 130, 600])))
    return theta, ks, coeffs


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(fourier_cases())
def test_fourier_eval_agrees_with_the_dense_sum(case):
    theta, ks, coeffs = case
    got = fourier_eval(theta, ks, coeffs)
    want = _dense_reference(np.atleast_1d(theta), ks, coeffs)
    if np.isscalar(theta):
        assert isinstance(got, float)
    assert np.shape(got) == np.shape(theta)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(coeffs))


@st.composite
def horner_cases(draw):
    """Any complex coefficients on repeated ks, max |k| <= 32, above the crossover.

    At least 20 terms on at least 130 angles put every case above the
    crossover; some angles may be NaN or infinite.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kmax = draw(st.integers(1, 2 * geometry.NUFFT_HALF_WIDTH))
    ks = rng.integers(-kmax, kmax + 1, size=draw(st.integers(20, 80)))
    ks[0] = draw(st.sampled_from([-kmax, kmax]))
    coeffs = rng.normal(size=len(ks)) + 1j * rng.normal(size=len(ks))
    theta = rng.uniform(-50.0, 50.0, draw(st.sampled_from([130, 600, 2048])))
    bad = rng.choice(len(theta), size=draw(st.integers(0, 3)), replace=False)
    theta[bad] = rng.choice([np.nan, np.inf, -np.inf], size=len(bad))
    return theta, ks, coeffs


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(horner_cases())
def test_horner_folds_any_spectrum(case):
    theta, ks, coeffs = case
    with pytest.MonkeyPatch.context() as mp:
        horner_calls = _angle_counts(mp, "_horner")
        got = fourier_eval(theta, ks, coeffs)
    assert horner_calls == [len(theta)]
    good = np.isfinite(theta)
    assert np.array_equal(np.isnan(got), ~good)
    want = _dense_reference(theta[good], ks, coeffs)
    assert np.max(np.abs(got[good] - want)) <= 1e-12 * np.sum(np.abs(coeffs))


@pytest.mark.parametrize("seed", range(4))
def test_horner_agrees_with_the_dense_sum_up_to_4w(seed):
    # every max |k| that fourier_eval sends to Horner's rule, on up to 8192 angles
    rng = np.random.default_rng(seed)
    for kmax in (1, 2 * geometry.NUFFT_HALF_WIDTH + 1, int(rng.integers(2, 64)),
                 4 * geometry.NUFFT_HALF_WIDTH):
        ks, coeffs = _symmetric_spectrum(rng, np.arange(1, kmax + 1))
        for n in (130, 1024, 8192):
            for lo, hi in ((0.0, 2.0 * np.pi), (-10.0, 10.0)):
                theta = rng.uniform(lo, hi, n)
                err = np.max(np.abs(geometry._horner(theta, ks, coeffs)
                                    - _chunked_dense_reference(theta, ks, coeffs)))
                assert err <= 1e-12 * np.sum(np.abs(coeffs)), (kmax, n, lo)


def test_uniform_grid_is_one_cached_read_only_linspace():
    for n in (8, 720, 2048, 4096):
        grid = uniform_grid(n)
        assert uniform_grid(n) is grid
        assert grid.tobytes() == np.linspace(0.0, 2.0 * np.pi, n, endpoint=False).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            grid[1] = 0.0
        assert grid[1] == 2.0 * np.pi / n


@pytest.mark.parametrize("kmax", [24, 200])
def test_fourier_eval_takes_the_grid_path_for_the_cached_grid_and_its_copy(
        nufft_calls, horner_calls, kmax):
    # off the grid these spectra take Horner's rule (24) and the NUFFT (200)
    rng = np.random.default_rng(kmax)
    ks, coeffs = _symmetric_spectrum(rng, np.arange(1, kmax + 1))
    grid = uniform_grid(2048)
    copy = grid.copy()
    assert copy.flags.writeable
    got = fourier_eval(grid, ks, coeffs)
    assert fourier_eval(copy, ks, coeffs).tobytes() == got.tobytes()
    assert horner_calls == [] and nufft_calls == []
    err = np.max(np.abs(got - _chunked_dense_reference(grid, ks, coeffs)))
    assert err <= 1e-12 * np.sum(np.abs(coeffs))


def _chunked_dense_reference(theta, ks, coeffs):
    """_dense_reference in blocks of 512 angles, so 8192 x 4095 terms stay small."""
    return np.concatenate([_dense_reference(theta[lo:lo + 512], ks, coeffs)
                           for lo in range(0, len(theta), 512)])


@pytest.mark.parametrize("n, kmax", [(512, 2047), (720, 300), (2048, 700), (8192, 128)])
def test_fourier_eval_takes_the_grid_path_only_on_the_exact_grid(nufft_calls, n, kmax):
    rng = np.random.default_rng(n)
    ks, coeffs = _symmetric_spectrum(rng, np.arange(1, kmax + 1))
    bound = 1e-12 * np.sum(np.abs(coeffs))
    grid = uniform_grid(n)
    got = fourier_eval(grid, ks, coeffs)
    assert nufft_calls == []
    assert np.max(np.abs(got - _chunked_dense_reference(grid, ks, coeffs))) <= bound
    nudged = grid.copy()
    nudged[n // 3] = np.nextafter(nudged[n // 3], 4.0)
    closed = np.linspace(0.0, 2.0 * np.pi, n, endpoint=True)
    for theta in (nudged, closed, grid + 0.25):
        got = fourier_eval(theta, ks, coeffs)
        assert np.max(np.abs(got - _chunked_dense_reference(theta, ks, coeffs))) <= bound
    # the same sizes and spectrum, so only the angles kept the grid call off the NUFFT
    assert nufft_calls == [n, n, n]


@st.composite
def grid_cases(draw):
    """Grid size and spectrum, max |k| up to 2047 so small grids alias."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([512, 720, 2048, 8192]))
    kmax = draw(st.sampled_from([40, 128, 700, 2047]))
    positive = np.arange(1, kmax + 1)
    if draw(st.booleans()):
        positive = np.sort(rng.choice(positive, size=max(1, kmax // 6), replace=False))
    ks, coeffs = _symmetric_spectrum(rng, positive)
    coeffs = draw(st.sampled_from([coeffs, 1j * ks * coeffs, -(ks ** 2) * coeffs]))
    return n, ks, coeffs


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(grid_cases())
def test_fourier_eval_on_the_grid_agrees_with_the_dense_sum(case):
    n, ks, coeffs = case
    grid = uniform_grid(n)
    got = fourier_eval(grid, ks, coeffs)
    total = np.sum(np.abs(coeffs))
    rows = np.arange(0, n, n // 512)   # 512 angles of each grid keep the references small
    want = _dense_reference(grid[rows], ks, coeffs)
    assert np.max(np.abs(got[rows] - want)) <= 1e-12 * total
    # the sum at the exact angles 2 pi j / n, phases reduced mod n in integers
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    exact = (roots[np.outer(rows, ks) % n] @ coeffs).real
    assert np.max(np.abs(got[rows] - exact)) <= 1e-13 * total


@pytest.mark.parametrize("kernel, kmax", [("_horner", 24), ("_nufft_type2", 80)])
def test_smooth_density_on_the_grid_makes_one_off_grid_call(monkeypatch, kernel, kmax):
    rng = np.random.default_rng(kmax)
    pos = np.arange(1, kmax + 1)
    c = 0.02 * (rng.normal(size=kmax) + 1j * rng.normal(size=kmax)) / pos ** 2
    profile = RadiusProfile(np.concatenate([-pos[::-1], [0], pos]),
                            np.concatenate([np.conj(c[::-1]), [1.0], c]))
    evals = []
    fourier = geometry.fourier_eval

    def spy_eval(theta, *args):
        evals.append(np.array(theta))
        return fourier(theta, *args)

    monkeypatch.setattr(geometry, "fourier_eval", spy_eval)
    calls = {name: _angle_counts(monkeypatch, name) for name in ("_horner", "_nufft_type2")}
    grid = uniform_grid(2048)
    density = smooth_density(profile, grid)
    # r and r' on the grid, then r at theta + alpha: only the last leaves it,
    # for Horner's rule up to max |k| = 4w = 64 and for the NUFFT above
    assert len(evals) == 3
    assert np.array_equal(evals[0], grid) and np.array_equal(evals[1], grid)
    assert not np.array_equal(evals[2], grid)
    assert calls == {name: [2048] if name == kernel else [] for name in calls}
    assert np.all(np.isfinite(density)) and np.all(density > 0.0)


def test_square_area_and_centroid():
    sq = Polygon2([[0, 0], [2, 0], [2, 2], [0, 2]])
    assert sq.area == pytest.approx(4.0, abs=1e-14)
    assert np.allclose(sq.centroid, [1.0, 1.0])
    assert sq.interior_distance([1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)
    assert sq.contains([0.5, 0.5]) and not sq.contains([3.0, 0.5])


# integer points, interior, repeated and collinear ones among them: scaled by
# 1e+-100 or 1e-120 they keep every turn's sign, so the hull keeps its vertices
_CLOUD = np.array([[-2, -2], [0, -2], [2, -2], [2, 0], [2, 2], [1, 2], [0, 2], [-2, 2],
                   [-2, 1], [-2, -1], [0, 0], [1, 1], [-1, 0], [2, 2]], dtype=float)
_PENTAGON = np.array([[-2, -2], [2, -2], [2, 1], [0, 2], [-2, 1]], dtype=float)
_UNIT_SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e100, 1e-100, 1e-120])
def test_planar_builders_keep_their_vertices_at_extreme_scales(s):
    hull = Polygon2.from_hull(_CLOUD * s)
    assert np.array_equal(hull.vertices, Polygon2.from_hull(_CLOUD).vertices * s)
    body = polygon_as_polytope(Polygon2(_PENTAGON * s))
    assert np.array_equal(body.vertices, polygon_as_polytope(Polygon2(_PENTAGON)).vertices * s)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e200, 1e308])
@pytest.mark.parametrize("build", [Polygon2, Polygon2.from_hull,
                                   lambda v: polygon_as_polytope(Polygon2(v))],
                         ids=["polygon", "from-hull", "polygon-as-polytope"])
def test_planar_builders_name_a_magnitude_whose_squares_overflow(build, s):
    message = f"coordinates of magnitude {s:.3g} exceed 1e+150"
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        build(_UNIT_SQUARE * s)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e150, 1e-150])
def test_centroid_at_extreme_scales(s):
    assert Polygon2(_UNIT_SQUARE * s).centroid == pytest.approx([0.5 * s, 0.5 * s], rel=1e-15)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40), st.floats(-3.0, 3.0),
       st.floats(-2.0, 6.0), st.floats(0.0, 2.0 * math.pi))
def test_a_translation_moves_the_centroid_and_keeps_area_and_default_perimeters(
        seed, points, log_scale, log_offset, angle):
    # the centroid and the area sum the fan about vertex 0 relative to it, so they do
    # not cancel as the polygon moves away from the origin. Measured on 50,000 hulls of
    # these clouds: the centroid within 0.85 eps (|t| + scale) and the area within
    # 0.26 eps (|t| + scale) times the boundary length. The origin shoelace put the
    # centroid of a quadrilateral moved by 1e6 14.8 units outside it
    poly = random_polygon(np.random.default_rng(seed), points, 10.0 ** log_scale)
    extent = float(np.ptp(poly.vertices, axis=0).max())
    t = extent * 10.0 ** log_offset * np.array([math.cos(angle), math.sin(angle)])
    moved = Polygon2(poly.vertices + t)
    slack = np.finfo(float).eps * (float(np.linalg.norm(t)) + poly.scale)
    assert np.abs(moved.centroid - t - poly.centroid).max() <= 4.0 * slack
    assert abs(moved.area - poly.area) <= 4.0 * slack * float(np.sum(poly.edge_lengths))
    bound = translated_perimeter_bound(poly, t)
    for perimeter in (self_perimeter_polygon, busemann_perimeter_polygon):
        want = perimeter(poly, poly.centroid).value
        assert abs(perimeter(moved, moved.centroid).value - want) <= bound * want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e-160, 1e-200])
@pytest.mark.parametrize("build", [Polygon2, Polygon2.from_hull,
                                   lambda v: polygon_as_polytope(Polygon2(v))],
                         ids=["polygon", "from-hull", "polygon-as-polytope"])
def test_planar_builders_name_a_magnitude_whose_squares_are_subnormal(build, s):
    # at 1e-160 the edge lengths lost five digits to subnormal squares, and at
    # 1e-170 the square read as having a repeated vertex
    message = f"coordinates of magnitude {s:.3g} fall below 1e-150"
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        build(_UNIT_SQUARE * s)


def _window(d):
    e = 150.0 / (d - 1)
    return 10.0 ** -e, 10.0 ** e


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("edge", [0, 1], ids=["low", "high"])
def test_polytope_builds_just_inside_its_coordinate_window(d, edge):
    s = _window(d)[edge]
    value = self_volume_recursive(PolytopeN(cube(d).vertices * s)).value
    # the low 5-D edge carries qhull's flat-simplex noise (ROADMAP item 2),
    # which cube(5) shows at most scales
    rel = 1e-9 if (d, edge) == (5, 0) else 1.6e-14
    assert value == pytest.approx(2.0 ** d, rel=rel)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("edge", [0, 1], ids=["low", "high"])
def test_polytope_rejects_just_outside_its_coordinate_window(d, edge):
    lo, hi = _window(d)
    s = math.nextafter((lo, hi)[edge], (0.0, math.inf)[edge])
    message = (f"coordinates of magnitude {s:.3g} lie outside [{lo:.3g}, {hi:.3g}], "
               f"the range of a {d}-D polytope")
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        PolytopeN(cube(d).vertices * s)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d, s", [(3, 1e80), (3, 1e155), (4, 1e55), (4, 1e155), (4, 1e300),
                                  (3, 1e-150), (4, 1e-60), (5, 1e-60)])
def test_polytope_names_magnitudes_that_broke_qhull_or_the_facet_measures(d, s):
    # before the window: qhull precision errors (3-D from 1e80, 4-D from 1e55),
    # numpy warnings in the facet measures, a crash of qhull from 1e155 in 4-D,
    # and self-volumes of 0.0 for small cubes
    message = f"coordinates of magnitude {s:.3g} lie outside "
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}"):
        PolytopeN(cube(d).vertices * s)


def test_polygon_rejects_degenerate_input():
    with pytest.raises(GeometryError):
        Polygon2([[0, 0], [1, 0]])
    with pytest.raises(GeometryError):
        Polygon2([[0, 0], [1, 1], [2, 2]])


def test_from_hull_orders_and_dedups():
    pts = RNG.normal(size=(30, 2))
    poly = Polygon2.from_hull(np.vstack([pts, pts[:5]]))
    # CCW orientation: positive cross products all around
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    assert np.all(cross > 0)


def _count_hulls(monkeypatch):
    calls = []
    hull = geometry.ConvexHull

    def counting(points):
        calls.append(len(points))
        return hull(points)

    monkeypatch.setattr(geometry, "ConvexHull", counting)
    return calls


def test_every_hull_goes_through_the_module_binding(monkeypatch):
    calls = _count_hulls(monkeypatch)
    cube(3)
    assert calls == [8]
    # planar bodies go through the scan: no qhull for a hull of points, a
    # polygon as a polytope, a 2-D polytope from vertices, their self-volumes
    # or a section of a 3-D body
    poly = Polygon2.from_hull(RNG.normal(size=(30, 2)))
    self_volume_recursive(polygon_as_polytope(poly, poly.centroid))
    self_volume_recursive(PolytopeN(poly.vertices - poly.centroid))
    central_section(cube(3), [0.3, -0.2, 1.0])
    assert calls == [8, 8]


@pytest.mark.parametrize("build, prefix", [
    (Polygon2.from_hull, ""),
    (lambda points: PolytopeN._polygon(np.array(points, dtype=float) - 1.5), ""),
    (PolytopeN, "degenerate polytope (no full-dimensional hull): "),
], ids=["from-hull", "polygon", "polytope"])
@pytest.mark.parametrize("points", [[[0, 0], [1, 1], [2, 2], [3, 3]],
                                    [[0, 0], [1, 1], [0, 0], [1, 1]],
                                    [[0, 0], [3, 3], [1, 1 + 1e-9], [2, 2]],
                                    [[2, 1], [2, 1], [2, 1]]],
                         ids=["collinear", "repeated", "turn-below-tolerance", "one-point"])
def test_scan_rejects_collinear_points_without_qhull(build, prefix, points, monkeypatch):
    calls = _count_hulls(monkeypatch)
    with pytest.raises(GeometryError, match="^" + re.escape(
            f"{prefix}degenerate polygon: the points are collinear") + "$"):
        build(points)
    assert calls == []


@pytest.mark.parametrize("build, points, prefix", [
    (PolytopeN, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
     "degenerate polytope (no full-dimensional hull): "),
], ids=["coplanar"])
def test_qhull_failure_is_prefix_and_first_qhull_line(build, points, prefix, monkeypatch):
    from scipy.spatial import QhullError
    with pytest.raises(QhullError) as qhull:
        ConvexHull(np.array(points, dtype=float))
    calls = _count_hulls(monkeypatch)
    with pytest.raises(GeometryError) as info:
        build(points)
    assert str(info.value) == prefix + str(qhull.value).splitlines()[0]
    assert calls == [len(points)]


def test_regular_polygon_geometry():
    hexa = regular_polygon(6)
    assert len(hexa) == 6
    assert np.allclose(np.linalg.norm(hexa.vertices, axis=1), 1.0)
    assert np.allclose(hexa.centroid, 0.0, atol=1e-15)


def test_profile_round_trip_and_derivatives():
    prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (3, 0.01, 0.005), (5, 0.0, -0.006)])
    theta = np.linspace(0, 2 * np.pi, 17)
    h = 1e-6
    num = (prof(theta + h) - prof(theta - h)) / (2 * h)
    assert np.allclose(prof.derivative(theta), num, atol=1e-8)
    h2 = 1e-5   # wider step: the second difference hits eps/h^2 noise sooner
    num2 = (prof(theta + h2) - 2 * prof(theta) + prof(theta - h2)) / h2**2
    assert np.allclose(prof.second_derivative(theta), num2, atol=1e-5)

    samples = prof(np.linspace(0, 2 * np.pi, 256, endpoint=False))
    back = RadiusProfile.from_samples(samples, k_max=8)
    for k, c in zip(prof.ks, prof.coeffs):
        j = list(back.ks).index(k)
        assert abs(back.coeffs[j] - c) < 1e-12


def test_profile_positivity_is_enforced():
    with pytest.raises(GeometryError):
        RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (2, 0.8, 0.0)])


def test_profile_convexity_is_advisory():
    with pytest.warns(UserWarning):
        prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (6, 0.05, 0.0)])
    assert prof.convexity_margin() < 0.0


def test_second_derivative_does_not_wrap():
    # int64 k**2 wraps to 0 at k = 2**32; the 2048-node check grid aliases
    # this harmonic onto its crests, where r'' < 0, so the margin is positive,
    # and the check says it cannot resolve the harmonic
    with pytest.warns(UserWarning, match=r"cannot resolve harmonic \|k\| = 4294967296"):
        prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (2 ** 32, 0.001, 0.0)])
    assert prof.second_derivative(0.0) == -0.002 * 2.0 ** 64
    assert prof.convexity_margin() > 1e16


@pytest.mark.parametrize("k", [1023, 1024, 5000])
def test_check_grid_warns_from_the_nyquist_harmonic(k):
    # PROFILE_GRID nodes resolve |k| < PROFILE_GRID / 2; a profile that passes
    # the check with a harmonic at or past that is flagged, a failure is not
    pairs = [(0, 1.0, 0.0), (k, 1e-9, 0.0)]
    if k < PROFILE_GRID // 2:
        RadiusProfile.from_coeff_pairs(pairs)
    else:
        with pytest.warns(UserWarning, match=f"cannot resolve harmonic \\|k\\| = {k} "):
            RadiusProfile.from_coeff_pairs(pairs)
    with pytest.warns(UserWarning, match="fails the convexity check"):
        RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (k, 1e-3, 0.0)])


def test_huge_harmonic_on_the_grid_keeps_its_phase(nufft_calls):
    # k theta in floating point loses the phase of k = 2**63 - 1; k mod n does not
    k, n = 2 ** 63 - 1, 2048
    got = fourier_eval(uniform_grid(n), [-k, 0, k], [0.0005, 1.0, 0.0005])
    phase = (k % n) * np.arange(n) % n
    assert np.max(np.abs(got - (1.0 + 0.001 * np.cos(2.0 * np.pi * phase / n)))) <= 1e-15
    assert nufft_calls == []


def test_wrapped_harmonic_fails_the_convexity_check():
    # (2**63 - 1)**2 = 1 mod 2**64: in int64, r'' read as -2c cos(k theta)
    with pytest.warns(UserWarning, match="fails the convexity check"):
        prof = RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (2 ** 63 - 1, 0.001, 0.0)])
    assert prof.convexity_margin() < -1e34


def test_cube_facets():
    c = cube(3)
    assert c.dim == 3
    assert len(c.facets) == 6
    assert np.allclose(c.facet_offsets, 1.0)
    assert c.origin_interior()
    assert c.interior_distance(np.zeros(3)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("point", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [[0.0, 0.0, 0.0]], 0.3])
def test_polytope_misshapen_point_is_geometry_error(point):
    with pytest.raises(GeometryError, match=r"^point must have shape \(3,\), got "
                       + re.escape(str(np.shape(point))) + "$"):
        cube(3).interior_distance(point)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(2, 5), st.integers(3, 64), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_slack_is_the_matvec_bit_for_bit(d, m, rows, seed):
    # every point query reads geometry._slack; a point's row must be the 1-D
    # matvec h - N p bit for bit, alone or stacked with other points
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(m, d))
    normals /= np.sqrt(np.sum(normals * normals, axis=1))[:, None]
    offsets = rng.uniform(0.1, 2.0, m)
    points = rng.normal(size=(rows, d))
    stacked = geometry._slack(normals, offsets, points)
    assert stacked.shape == (rows, m)
    for point, row in zip(points, stacked):
        want = (offsets - normals @ point).tobytes()
        assert row.tobytes() == want
        assert geometry._slack(normals, offsets, point).tobytes() == want


def test_icosphere_facet_count():
    assert len(icosphere(0).facets) == 20
    assert len(icosphere(2).facets) == 320


def test_interval_is_dim_one():
    seg = interval(-2.0, 2.0)
    assert seg.dim == 1
    assert np.allclose(sorted(seg.facet_offsets), [2.0, 2.0])


def test_polygon_as_polytope_requires_interior_center():
    tri = Polygon2([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(NotInteriorError):
        polygon_as_polytope(tri, (2.0, 2.0))
    poly = polygon_as_polytope(tri, tri.centroid)
    assert poly.dim == 2 and poly.origin_interior()
    # the square with its bottom edge bent out by 4e-9 at (0, -1 - 4e-9): the
    # centre (0, -1) is inside the Polygon2, but the scan drops the bend, whose
    # turn is below COPLANAR_TOL, and leaves the centre on the bottom edge
    bent = Polygon2([[-1.0, -1.0], [0.0, -1.0 - 4e-9], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    assert bent.contains([0.0, -1.0])
    with pytest.raises(NotInteriorError, match="^center must be strictly inside the polygon$"):
        polygon_as_polytope(bent, (0.0, -1.0))
    assert polygon_as_polytope(bent, (0.0, -0.5)).origin_interior()


def test_barycentric_point():
    b = BarycentricPoint([0.2, 0.3, 0.5])
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(b.cartesian(tri), [0.3, 0.5])
    with pytest.raises(GeometryError):
        BarycentricPoint([0.5, 0.6])
    with pytest.raises(GeometryError):
        BarycentricPoint([1.2, -0.2])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, error", [
    (lambda: RadiusProfile([0], [NAN]), GeometryError),
    (lambda: RadiusProfile([-2, 0, 2], [INF, 1.0, INF]), GeometryError),
    (lambda: RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0), (3, NAN, 0.0)]), GeometryError),
    (lambda: RadiusProfile.from_samples(np.full(16, NAN), 3), GeometryError),
    (lambda: FourierDensity([-4, 4], [NAN, NAN], 0.01), FourierDensityError),
    (lambda: FourierDensity.from_pairs([(4, INF, 0.0)], 0.01), FourierDensityError),
    (lambda: BarycentricPoint([0.5, 0.5, NAN]), GeometryError),
    (lambda: BarycentricPoint([INF, NAN]), GeometryError),
    (lambda: triangle_perimeters([NAN, NAN, NAN]), GeometryError),
    (lambda: simplex_self_volume(2, [NAN, 0.5, 0.5]), GeometryError),
    (lambda: optimal_center_2d(regular_polygon(5), start=[NAN, NAN]), NotInteriorError),
    (lambda: optimal_center_2d(regular_polygon(5), start=[INF, INF]), NotInteriorError),
    (lambda: polygon_as_polytope(regular_polygon(4), (NAN, 0.0)), NotInteriorError),
    (lambda: polygon_as_polytope(regular_polygon(4), (INF, INF)), NotInteriorError),
    (lambda: Polygon2.from_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [NAN, 0.5]]), GeometryError),
    (lambda: Polygon2.from_hull([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [INF, -INF]]), GeometryError),
], ids=["profile", "profile-inf", "profile-pairs", "profile-samples", "density",
        "density-pairs", "bary", "bary-inf", "triangle", "simplex", "center", "center-inf",
        "polygon-polytope", "polygon-polytope-inf", "from-hull", "from-hull-inf"])
def test_non_finite_input_raises(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("points", [np.zeros((4, 3)), np.zeros(6), np.zeros((2, 2)),
                                    np.zeros((0, 2)), [[0.0, 0.0], [1.0, 0.0], [0.0, NAN]]],
                         ids=["three-columns", "flat", "two-points", "empty", "nan"])
def test_from_hull_rejects_misshapen_or_non_finite_points_before_the_scan(points, monkeypatch):
    monkeypatch.setattr(geometry, "_hull_scan", None)   # the scan may not start
    with pytest.raises(GeometryError, match=r"^expected finite \(k, 2\) points, k >= 3, "
                                            r"got shape \(.*\)$"):
        Polygon2.from_hull(points)


@pytest.mark.parametrize("rows", [[(4, 0.05, 0.0), (4, 0.05, 0.0)],
                                  [(4, 0.05, 0.0), (4, 0.06, 0.0)]], ids=["equal", "conflicting"])
@pytest.mark.parametrize("build, error", [
    (lambda rows: RadiusProfile.from_coeff_pairs([(0, 1.0, 0.0)] + rows), GeometryError),
    (lambda rows: FourierDensity.from_pairs(rows, 0.01), FourierDensityError),
], ids=["profile", "density"])
def test_repeated_harmonic_rows_raise(build, error, rows):
    with pytest.raises(error, match="duplicate harmonic index"):
        build(rows)


@pytest.mark.parametrize("ks, coeffs, k", [
    ([-5, -3, 0, 3, 4, 5], np.ones(6), 4),
    ([5, 4, 3, 0, -3, -5], np.ones(6), 4),
    ([2, 0, -2], [2.0, 1.0, 1.0], -2),
    ([-1, 0, 1], [0.5j, 1.0, 0.5j], -1),
])
def test_symmetry_error_names_first_offending_harmonic(ks, coeffs, k):
    with pytest.raises(GeometryError, match=f"not conjugate-symmetric at k={k}$"):
        RadiusProfile(ks, coeffs)


def test_central_section_of_a_polygon_is_a_segment():
    # the square with vertices (+-1, 0), (0, +-1) meets the x-axis in [-1, 1]
    seg = central_section(polygon_as_polytope(regular_polygon(4)), [0.0, 1.0])
    assert seg.dim == 1
    assert seg.volume == pytest.approx(2.0, rel=1e-15)
    assert np.allclose(seg.vertices.ravel(), [-1.0, 1.0], rtol=0.0, atol=1e-15)


def test_central_section_of_a_cube_is_a_square():
    sq = central_section(cube(3), [0.0, 0.0, 2.0])
    assert sq.dim == 2 and len(sq.vertices) == 4
    assert sq.volume == pytest.approx(4.0, rel=1e-15)
    assert np.allclose(np.sort(sq.facet_offsets), 1.0, rtol=1e-15)


@pytest.mark.parametrize("poly, normal, error", [
    (lambda: PolytopeN(cube(3).vertices + 2.0), [0.0, 0.0, 1.0], NotInteriorError),
    (lambda: interval(), [1.0], GeometryError),
    (lambda: cube(3), [0.0, 0.0, 0.0], GeometryError),
    (lambda: cube(3), [NAN, 0.0, 1.0], GeometryError),
    (lambda: cube(3), [INF, 0.0, 1.0], GeometryError),
    (lambda: cube(3), [0.0, 1.0], GeometryError),
    (lambda: cube(3), [0.0, 0.0, 1.0, 0.0], GeometryError),
    (lambda: cube(3), [[0.0, 0.0, 1.0]], GeometryError),
    (lambda: polygon_as_polytope(regular_polygon(4)), 1.0, GeometryError),
], ids=["origin-outside", "dim-one", "zero-normal", "nan-normal", "inf-normal", "short-normal",
        "long-normal", "matrix-normal", "scalar-normal"])
def test_central_section_rejects_bad_input(poly, normal, error):
    with pytest.raises(error):
        central_section(poly(), normal)


def test_scan_built_arrays_are_read_only():
    # a section's chords read its polar rows, so no in-place write may leave them stale
    square = central_section(cube(3), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        square.facet_normals[0, 0] = 2.0
    for a in (square.vertices, square.facet_normals, square.facet_offsets,
              square.facet_measures, square._polar, square.edges):
        assert not a.flags.writeable
    # the Polygon2 handed to polygon_as_polytope is read-only too; its caller's array
    # stays writeable
    vertices = regular_polygon(5).vertices.copy()
    poly = Polygon2(vertices)
    polygon_as_polytope(poly)
    assert vertices.flags.writeable
    for a in (poly.vertices, poly.edges, poly.edge_lengths, poly.tangents, poly.normals,
              poly.offsets, poly.exit_cosines):
        assert not a.flags.writeable


def test_rebinding_a_polygon_body_raises():
    # an assignment used to leave the cached origin test stale with no error
    p = polygon_as_polytope(regular_polygon(4))
    with pytest.raises(AttributeError):
        p.vertices = p.vertices + [3.0, 0.0]


BODY_ATTRIBUTES = ("dim", "vertices", "facet_normals", "facet_offsets", "facet_measures",
                   "edges", "volume", "scale", "_polar")
BUILDERS = {
    "qhull-3d": lambda: cube(3),
    "scan-2d": lambda: PolytopeN(regular_polygon(5).vertices),
    "polygon-section": lambda: central_section(cube(3), [0.0, 0.3, 1.0]),
    "chord": lambda: central_section(central_section(cube(3), [0.0, 0.0, 1.0]), [1.0, 0.2]),
    "interval": lambda: interval(),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_every_body_is_read_only(build):
    body = build()
    assert body.origin_interior()
    for name in BODY_ATTRIBUTES:
        value = getattr(body, name)
        with pytest.raises(AttributeError):
            setattr(body, name, value)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError):
                value.flat[0] = value.flat[0]
    arrays = [a for a in vars(body).values() if isinstance(a, np.ndarray)]
    assert len(arrays) >= 5 and not any(a.flags.writeable for a in arrays)


# each checked value: a writeable array of its caller's, the value built from it,
# and the arrays the value holds
CHECKED_VALUES = {
    "polygon": (lambda: regular_polygon(5).vertices.copy(), Polygon2,
                "vertices edges edge_lengths tangents normals offsets exit_cosines"),
    "profile": (lambda: np.array([0.02, 1.0, 0.02]), lambda a: RadiusProfile([-4, 0, 4], a),
                "ks coeffs"),
    "density": (lambda: np.array([0.5, 0.5]), lambda a: FourierDensity([-4, 4], a, 0.01),
                "ks coeffs"),
    "barycentric": (lambda: np.array([0.25, 0.25, 0.5]), BarycentricPoint, "weights"),
}


@pytest.mark.parametrize("name", CHECKED_VALUES)
def test_every_checked_value_is_read_only(name):
    make_array, build, names = CHECKED_VALUES[name]
    given_array = make_array()
    value = build(given_array)
    for attr in names.split():
        array = getattr(value, attr)
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is read-only: "
                                                 f"'{attr}' cannot be set$"):
            setattr(value, attr, array)
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]
    assert given_array.flags.writeable
    assert not any(np.shares_memory(given_array, a) for a in vars(value).values()
                   if isinstance(a, np.ndarray))


@pytest.mark.parametrize("write", [
    # a doubled polygon used to keep its old perimeter 6.9098300562505255 and scale 1.0
    lambda: regular_polygon(5).vertices.__setitem__(slice(None), 2.0),
    # a written coefficient used to turn phi(0) = 1.0 into 5.5, no longer symmetric
    lambda: FourierDensity.from_pairs([(4, 0.5, 0.0)], 0.01).coeffs.__setitem__(0, 5.0),
    # a written weight used to end simplex_self_volume in a ZeroDivisionError
    lambda: BarycentricPoint([0.25, 0.25, 0.5]).weights.__setitem__(2, 1.0),
], ids=["polygon", "density", "barycentric"])
def test_a_write_into_a_checked_value_raises(write):
    with pytest.raises(ValueError, match="read-only"):
        write()


@pytest.mark.parametrize("vertices", [regular_polygon(5).vertices, cube(3).vertices,
                                      np.array([[-1.0], [2.0]])], ids=["2d", "3d", "1d"])
def test_polytope_leaves_the_callers_vertices_writeable(vertices):
    v = np.array(vertices)
    PolytopeN(v)
    assert v.flags.writeable


@pytest.mark.parametrize("call, message", [
    (lambda: regular_polygon(3.7), "k must be an integer >= 3, got 3.7"),
    (lambda: regular_polygon(2), "k must be an integer >= 3, got 2"),
    (lambda: kgon_self_perimeter(3.5), "k must be an integer >= 3, got 3.5"),
    (lambda: hypercube_self_volume(2.7), "n must be an integer >= 1, got 2.7"),
    (lambda: simplex_self_volume(2.5, [0.3, 0.3, 0.4]), "n must be an integer >= 1, got 2.5"),
    (lambda: optimal_simplex_center(2.9), "n must be an integer >= 1, got 2.9"),
    (lambda: icosphere(-1), "subdivisions must be an integer >= 0, got -1"),
    (lambda: icosphere(1.5), "subdivisions must be an integer >= 0, got 1.5"),
    (lambda: cube(2.5), "n must be an integer >= 1, got 2.5"),
    (lambda: hypercube_self_volume(NAN), "n must be an integer >= 1, got nan"),
    (lambda: hypercube_self_volume(INF), "n must be an integer >= 1, got inf"),
    (lambda: hypercube_self_volume(2000),
     "n must be at most 1023 (2^n overflows a float), got 2000"),
    # used to end in a bare IndexError
    (lambda: RadiusProfile.from_samples(np.ones(16), 2.5),
     "k_max must be an integer >= 0, got 2.5"),
    (lambda: RadiusProfile.from_samples(np.ones(16), -1),
     "k_max must be an integer >= 0, got -1"),
], ids=["polygon", "polygon-small", "kgon", "hypercube", "simplex", "simplex-center",
        "icosphere-negative", "icosphere", "cube", "hypercube-nan", "hypercube-inf",
        "hypercube-overflow", "samples-k-max-float", "samples-k-max-negative"])
def test_counts_are_integers_of_a_least_value(call, message):
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: Polygon2([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), GeometryError,
     "polygon has a repeated vertex"),
    (lambda: Polygon2([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), GeometryError,
     "vertices are clockwise; counterclockwise order is required"),
    (lambda: RadiusProfile([-2, 0, 2], [0.0, 0.0, 0.0]), GeometryError,
     "radius profile has no nonzero coefficient"),
    (lambda: RadiusProfile.from_samples(np.ones(8), k_max=4), GeometryError,
     "k_max=4 needs more than 8 samples"),
    (lambda: RadiusProfile([0, 1], [1.0]), GeometryError,
     "ks and coeffs must be 1d arrays of equal length"),
    (lambda: FourierDensity([[4, -4]], [[0.5, 0.5]], 0.01), FourierDensityError,
     "ks and coeffs must be 1d arrays of equal length"),
    (lambda: PolytopeN(np.zeros(3)), GeometryError,
     "expected an (m, d) vertex array, got shape (3,)"),
    (lambda: PolytopeN([[0.0, 0.0]]), GeometryError,
     "expected an (m, d) vertex array, got shape (1, 2)"),
    (lambda: PolytopeN([[0.0, 0.0], [1.0, NAN], [0.0, 1.0]]), GeometryError,
     "polytope vertices must be finite"),
    (lambda: PolytopeN(np.eye(3)), GeometryError, "need at least 4 vertices in dimension 3"),
    (lambda: BarycentricPoint([1.0]), GeometryError,
     "barycentric weights must be a 1d array of length >= 2"),
    (lambda: BarycentricPoint([[0.5, 0.5]]), GeometryError,
     "barycentric weights must be a 1d array of length >= 2"),
    (lambda: central_section(regular_polygon(4), [1.0, 0.0]), TypeError,
     "central_section expects a PolytopeN"),
    # used to end in an AttributeError
    (lambda: affine_image(regular_polygon(4), np.eye(2)), TypeError,
     "affine_image expects a PolytopeN"),
    # a non-integer node count used to be truncated: 100.7 nodes ran as 100, 12.5 as 12
    (lambda: self_perimeter_smooth(RadiusProfile([0], [1.0]), nodes=100.7), GeometryError,
     "nodes must be an integer, got 100.7"),
    (lambda: self_perimeter_smooth(RadiusProfile([0], [1.0]), nodes=63), GeometryError,
     "need at least 64 quadrature nodes, got 63"),
    (lambda: circle_grid(12.5), ValueError, "nodes must be a multiple of 4, at least 8"),
    (lambda: circle_grid(4), ValueError, "nodes must be a multiple of 4, at least 8"),
], ids=["polygon-repeated", "polygon-clockwise", "profile-zero", "samples-k-max",
        "profile-shape", "density-shape", "polytope-flat", "polytope-one-vertex",
        "polytope-nan", "polytope-few", "barycentric-short", "barycentric-2d",
        "section-of-polygon2", "affine-image-of-polygon2", "smooth-nodes-float",
        "smooth-nodes-few", "circle-grid-float", "circle-grid-few"])
def test_malformed_values_raise_their_typed_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_counts_take_numpy_integers():
    assert len(regular_polygon(np.int64(5))) == 5
    assert kgon_self_perimeter(np.int32(4)) == kgon_self_perimeter(4)
    assert hypercube_self_volume(np.int64(1023)) == 2.0 ** 1023
    centroid = np.full(3, 1 / 3)
    assert simplex_self_volume(np.int64(2), centroid) == simplex_self_volume(2, centroid)
    assert optimal_simplex_center(np.uint8(2)).value == 4.5
    assert len(cube(np.int64(2)).vertices) == 4
    assert len(icosphere(np.int64(0)).vertices) == 12


@pytest.mark.parametrize("normal", [[1e308, 1e308, 0.0], [1e-320, 0.0, 0.0],
                                    [0.0, -1e-310, 3e-310], [1e200, -1e-200, 0.0]],
                         ids=["overflow", "underflow", "subnormal", "wide-range"])
def test_central_section_rescales_extreme_normals(normal):
    # v . v overflows to inf or underflows to 0: the direction is divided by
    # max |v| first (no RuntimeWarning, which fails the test) and then cut
    # exactly like the rescaled vector
    v = np.array(normal)
    got = central_section(cube(3), v)
    want = central_section(cube(3), v / np.max(np.abs(v)))
    assert got.volume == want.volume
    assert np.array_equal(got.vertices, want.vertices)


# _pivoted_basis(nu) as computed by the textbook Gram-Schmidt form (one-hot
# dot products, numpy throughout); float.hex keeps the sign of a zero. Rows:
# normals with -0.0 components, ties |nu_0| = |nu_1| in 2-D and 3-D (and a
# three-way tie), then normals with norm 1 - 1 ulp and 1 + 1 ulp in 2-D and
# 3-D, which only the second normalisation of nu sees
PINNED_BASES = [
    ([-0.0, 1.0], [["0x1.0000000000000p+0"], ["0x0.0p+0"]]),
    ([0.0, -1.0], [["0x1.0000000000000p+0"], ["0x0.0p+0"]]),
    ([-0.0, -1.0], [["0x1.0000000000000p+0"], ["0x0.0p+0"]]),
    ([1.0, -0.0], [["0x0.0p+0"], ["0x1.0000000000000p+0"]]),
    ([-1.0, -0.0], [["0x0.0p+0"], ["0x1.0000000000000p+0"]]),
    ([0.6, 0.6], [["0x1.6a09e667f3bcep-1"], ["-0x1.6a09e667f3bcbp-1"]]),
    ([-0.6, 0.6], [["0x1.6a09e667f3bcep-1"], ["0x1.6a09e667f3bcbp-1"]]),
    ([0.6, -0.6], [["0x1.6a09e667f3bcep-1"], ["0x1.6a09e667f3bcbp-1"]]),
    ([-0.0, 0.0, 1.0], [["0x1.0000000000000p+0", "0x0.0p+0"],
                        ["0x0.0p+0", "0x1.0000000000000p+0"], ["0x0.0p+0", "0x0.0p+0"]]),
    ([0.0, -0.0, -1.0], [["0x1.0000000000000p+0", "0x0.0p+0"],
                         ["0x0.0p+0", "0x1.0000000000000p+0"], ["0x0.0p+0", "0x0.0p+0"]]),
    ([-0.0, -1.0, -0.0], [["0x1.0000000000000p+0", "0x0.0p+0"], ["0x0.0p+0", "0x0.0p+0"],
                          ["0x0.0p+0", "0x1.0000000000000p+0"]]),
    ([1.0, 1.0, 0.0], [["0x0.0p+0", "0x1.6a09e667f3bcep-1"],
                       ["0x0.0p+0", "-0x1.6a09e667f3bcbp-1"], ["0x1.0000000000000p+0", "0x0.0p+0"]]),
    ([-1.0, 1.0, -0.0], [["0x0.0p+0", "0x1.6a09e667f3bcep-1"],
                         ["0x0.0p+0", "0x1.6a09e667f3bcbp-1"], ["0x1.0000000000000p+0", "0x0.0p+0"]]),
    ([1.0, -1.0, 1.0], [["0x1.a20bd700c2c3cp-1", "0x1.6a09e667f3bccp-53"],
                        ["0x1.a20bd700c2c40p-2", "0x1.6a09e667f3bc9p-1"],
                        ["-0x1.a20bd700c2c40p-2", "0x1.6a09e667f3bcfp-1"]]),
    ([0.5, -0.5, 0.25], [["-0x1.e2b7dddfefa66p-3", "0x1.6a09e667f3bccp-1"],
                         ["0x1.e2b7dddfefa66p-3", "0x1.6a09e667f3bccp-1"],
                         ["0x1.e2b7dddfefa66p-1", "0x0.0p+0"]]),
    ([0.192179652399663, -0.9813597613533707],
     [["0x1.f674c9613f05fp-1"], ["0x1.89957c501b090p-3"]]),
    ([-0.9978090697238526, 0.06615935592809417],
     [["0x1.0efd1ce091c4ep-4"], ["0x1.fee0d4943b755p-1"]]),
    ([0.1281075299652227, -0.9652240879182925, -0.22788356866722462],
     [["0x1.fbc80101d69f5p-1", "-0x1.0709bba943e51p-58"],
      ["0x1.feb03ef1eb178p-4", "-0x1.d69540bd59ddbp-3"],
      ["0x1.e24825bbb1161p-6", "0x1.f24cf35c3d5b4p-1"]]),
    ([0.6392819468472682, 0.38742194931320134, -0.6642460580428958],
     [["-0x1.1319c473cc6c9p-2", "0x1.70e78d2e8c245p-1"],
      ["0x1.d8039afef3f30p-1", "0x1.634cf5fd3f12dp-55"],
      ["0x1.1dd7e906f1b03p-2", "0x1.630a43e086bd3p-1"]]),
]


@pytest.mark.parametrize("normal, want", PINNED_BASES)
def test_pivoted_basis_is_bit_identical(normal, want):
    basis = geometry._pivoted_basis(np.array(normal))
    assert basis.flags.c_contiguous   # the layout decides the BLAS kernel of pts @ basis
    assert [[x.hex() for x in row] for row in basis.tolist()] == want


def test_pinned_norms_are_one_ulp_off():
    norms = [math.sqrt(np.dot(n, n)) for n, _ in PINNED_BASES[-4:]]
    assert norms == [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)] * 2


def test_pivoted_basis_takes_tied_axes_in_axis_order():
    # |nu| ties on axes 0, 1 and on axes 2, 3. A stable sort takes them as
    # 2, 3, 0, 1 on every CPU; numpy's default kind, dispatched to an
    # AVX-512 sort, gave 3, 2, 1, 0 and so another frame
    basis = geometry._pivoted_basis(np.array([1.0, 1.0, 0.0, 0.0]))
    assert [[x.hex() for x in row] for row in basis.tolist()] == [
        ["0x0.0p+0", "0x0.0p+0", "0x1.6a09e667f3bcep-1"],
        ["0x0.0p+0", "0x0.0p+0", "-0x1.6a09e667f3bcbp-1"],
        ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"],
        ["0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]]


def test_collinear_section_raises():
    # a cube squashed into the plane y = 0 (its facet rows kept, so the origin
    # still counts as interior): the plane z = 0 meets it in a line
    flat = with_vertices(cube(3), cube(3).vertices * [1.0, 0.0, 1.0])
    with pytest.raises(geometry.DegenerateSectionError):
        central_section(flat, [0.0, 0.0, 1.0])
    with pytest.raises(GeometryError):
        PolytopeN._polygon(np.array([[-1.0, 0.0], [1.0, 0.0], [0.5, 0.0], [-1.0, 0.0]]))
    # a consistent body: the octahedron with its y vertices at +-2e-9 holds the
    # origin, and the plane z = 0 cuts it in a rhombus too thin for the scan
    thin = PolytopeN([[1, 0, 0], [-1, 0, 0], [0, 2e-9, 0], [0, -2e-9, 0], [0, 0, 1], [0, 0, -1]])
    assert thin.origin_interior()
    with pytest.raises(geometry.DegenerateSectionError, match="^section is not full-dimensional: "
                       "degenerate polygon: the points are collinear$"):
        central_section(thin, [0.0, 0.0, 1.0])


@st.composite
def polygon_clouds(draw):
    """Points around the origin: a random cloud, thin up to aspect 1e4 and
    rotated, plus points the hull must drop as central sections produce them:
    hull-edge midpoints (diagonals of triangulated facets crossing the plane),
    exact duplicates, and points 1e-12 * scale inside an edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.normal(size=(draw(st.integers(3, 24)), 2))
    pts[:, 1] /= draw(st.sampled_from([1.0, 1e2, 1e4]))
    if draw(st.booleans()):
        a = rng.uniform(0.0, np.pi)
        pts = pts @ np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
    pts -= pts.mean(axis=0)
    v = pts[ConvexHull(pts).vertices]
    edge = np.roll(v, -1, axis=0) - v
    inward = np.column_stack([-edge[:, 1], edge[:, 0]]) / np.linalg.norm(edge, axis=1)[:, None]
    mid = v + 0.5 * edge
    scale = np.max(np.linalg.norm(pts, axis=1))
    extra = [mid, pts[rng.integers(0, len(pts), 3)], mid + 1e-12 * scale * inward]
    cloud = np.vstack([pts] + [e for e in extra if draw(st.booleans())])
    return cloud[rng.permutation(len(cloud))]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(polygon_clouds())
def test_angular_polygon_matches_qhull(cloud):
    want, got = qhull_polygon(cloud), PolytopeN._polygon(cloud)
    assert len(got.facet_offsets) == len(want.facet_offsets) == len(got.vertices)
    # the area of float points at aspect a is only determined to about
    # eps * kappa, kappa = scale * perimeter / area (about 4a): rotated at
    # aspect 1e4, qhull and the scan both miss the exact area by up to 1.4e-12
    kappa = want.scale * np.sum(want.facet_measures) / want.volume
    rel = 1e-13 * max(1.0, kappa / 100.0)
    assert got.volume == pytest.approx(want.volume, rel=rel)
    omega = self_volume_recursive(got).value
    assert omega == pytest.approx(self_volume_recursive(want).value, rel=rel)
    assert got.scale == want.scale
    # the facet rows are qhull's, in the same order
    assert np.allclose(got.facet_normals, want.facet_normals, rtol=0.0, atol=1e-14 * kappa)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(polygon_clouds(), st.sampled_from([0.0, 1.0, -1e3]))
def test_from_hull_keeps_qhull_vertices(cloud, shift):
    # qhull stays the reference here; the scan sorts about the cloud's mean
    cloud = cloud + shift
    got = Polygon2.from_hull(cloud)
    want = cloud[ConvexHull(cloud).vertices]
    assert sorted(map(tuple, got.vertices.tolist())) == sorted(map(tuple, want.tolist()))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(polygon_clouds(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_polygon_as_polytope_matches_qhull(cloud, s, t):
    poly = Polygon2.from_hull(cloud)
    # a centre between the centroid and a point on the segment of two vertices
    a, b = poly.vertices[0], poly.vertices[len(poly) // 2]
    c = poly.centroid + s * (a + t * (b - a) - poly.centroid)
    got, want = polygon_as_polytope(poly, c), qhull_polygon(poly.vertices - c)
    assert len(got.facet_offsets) == len(want.facet_offsets) == len(got.vertices)
    kappa = want.scale * np.sum(want.facet_measures) / want.volume
    rel = 1e-13 * max(1.0, kappa / 100.0)
    assert got.volume == pytest.approx(want.volume, rel=rel)
    assert got.scale == want.scale
    # the facet rows are qhull's, in the same order
    assert np.allclose(got.facet_normals, want.facet_normals, rtol=0.0, atol=1e-14 * kappa)
    assert np.allclose(got.facet_offsets, want.facet_offsets, rtol=0.0, atol=1e-14 * want.scale)
    assert np.allclose(got.facet_measures, want.facet_measures, rtol=1e-13 * kappa, atol=0.0)


@st.composite
def planar_vertex_sets(draw):
    """polygon_clouds about an origin near their mean, at scales 1e-3 to 1e3,
    half of them made centrally symmetric (the conjecture search's bodies)."""
    cloud = draw(polygon_clouds())
    if draw(st.booleans()):
        cloud = np.vstack([cloud, -cloud])
    shift = draw(st.sampled_from([0.0, 0.1]))
    return (cloud + shift * cloud.std(axis=0)) * 10.0 ** draw(st.integers(-3, 3))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(planar_vertex_sets())
def test_planar_polytope_has_qhull_rows_bit_for_bit(cloud):
    # of exact twins qhull keeps the one it meets first (not always the first
    # in input order), so qhull sees the cloud without them; the twins move
    # no facet row
    _, first = np.unique(cloud, axis=0, return_index=True)
    twins, cloud = PolytopeN(cloud), cloud[np.sort(first)]
    got, want = PolytopeN(cloud), qhull_polygon(cloud)
    for name in ("facet_normals", "facet_offsets", "facet_measures"):
        assert np.array_equal(getattr(twins, name), getattr(got, name)), name
    # qhull also keeps a vertex where the boundary turns by at most COPLANAR_TOL,
    # and _merge_facets merges the two edges there; the scan drops it
    kept = set(map(tuple, got.vertices.tolist()))
    assert kept <= set(map(tuple, want.vertices.tolist()))
    assert len(got.facet_normals) == len(want.facet_normals)
    assume(len(kept) == len(want.vertices))
    for name in ("vertices", "facet_normals", "facet_measures", "edges"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.scale == want.scale
    if want.origin_interior():
        assert self_volume_recursive(got).value == self_volume_recursive(want).value
    # qhull takes the offsets from its own planes, and the area about its own
    # interior point; an offset a . u is determined to about eps |a|, which
    # for a thin body is far more than eps times its largest offset
    assert np.max(np.abs(got.facet_offsets - want.facet_offsets)) <= 1e-14 * want.scale
    # the area of float points is determined to about eps * kappa relative,
    # kappa = scale * perimeter / area
    kappa = want.scale * np.sum(want.facet_measures) / want.volume
    assert got.volume == pytest.approx(want.volume, rel=1e-14 * max(1.0, kappa / 10.0), abs=0.0)


def test_planar_polytope_drops_a_vertex_that_qhull_keeps():
    # a linear image of the square with a point lifted 1e-9 off its top edge:
    # qhull keeps the point and merges the two edges it splits, whose measures
    # and plane then miss the square's by about 1e-9; the scan drops the point
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 1.0 + 1e-9]])
    v = square @ np.array([[1.0, 0.25], [0.0, 0.5]]).T
    assert len(qhull_polygon(v).vertices) == 5
    assert 4.0 - 2e-9 < self_volume_recursive(qhull_polygon(v)).value < 4.0 - 5e-10
    body = PolytopeN(v)
    assert np.array_equal(body.vertices, v[:4])
    assert self_volume_recursive(body).value == 4.0


def test_planar_bodies_load_no_scipy():
    script = """
import sys
import numpy as np
from selfmetric.geometry import Polygon2, polygon_as_polytope
from selfmetric.selfvolume import self_volume_recursive
poly = Polygon2.from_hull(np.random.default_rng(3).normal(size=(40, 2)))
value = self_volume_recursive(polygon_as_polytope(poly, poly.centroid)).value
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"), value > 0)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"]


def test_segment_degeneracy_is_relative():
    assert interval(-1e-300, 1e-300).volume == 2e-300
    with pytest.raises(GeometryError):
        interval(1e12, 1e12 + 1e-3)


def _simplex(n):
    v = np.random.default_rng(n).normal(size=(n + 1, n))
    return PolytopeN(v - v.mean(axis=0))


def _polygon_product(k, m):
    prod = cartesian_product(polygon_as_polytope(regular_polygon(k)),
                             polygon_as_polytope(regular_polygon(m, phase=0.3)))
    return affine_image(prod, np.random.default_rng(k * m).normal(size=(4, 4)))


def _ccs(n, pairs, seed):
    p = np.random.default_rng(seed).normal(size=(pairs, n))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    return PolytopeN(np.vstack([p, -p]))


# (body, facet count, or None where the seed decides it)
FACET_BODIES = {
    **{f"cube{n}": (lambda n=n: cube(n), 2 * n) for n in (2, 3, 4, 5)},
    **{f"icosphere{s}": (lambda s=s: icosphere(s), 20 * 4 ** s) for s in (0, 1, 2)},
    **{f"simplex{n}": (lambda n=n: _simplex(n), n + 1) for n in (2, 3, 4)},
    **{f"product{k}x{m}": (lambda k=k, m=m: _polygon_product(k, m), k + m)
       for k, m in ((3, 4), (4, 6), (6, 6))},
    **{f"ccs{n}-{seed}": (lambda n=n, seed=seed: _ccs(n, n + 2, seed), None)
       for n in (3, 4) for seed in (1, 2)},
}

# qhull triangulates each prism facet of a mapped polygon product into
# tetrahedra, some of them flat. The Gram determinant of a flat simplex is
# rounding noise of order 1e-16, and its square root adds about 1e-8 to the
# facet measure, so both identities miss by about 1e-9 relative.
FLAT_SIMPLEX_NOISE = pytest.mark.xfail(
    strict=True, reason="flat hull simplices get a measure of sqrt(roundoff)")


@pytest.mark.parametrize("name", FACET_BODIES)
def test_facet_rows_and_counts(name):
    make, count = FACET_BODIES[name]
    p = make()
    normals, offsets, measures = p.facet_normals, p.facet_offsets, p.facet_measures
    if count is not None:
        assert len(offsets) == count
    assert len(p.facets) == len(offsets) == len(measures)
    for f, u, h, m in zip(p.facets, normals, offsets, measures):
        assert np.array_equal(f.normal, u) and f.offset == h and f.measure == m
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0.0, atol=1e-15)
    # every facet plane supports the body and carries at least d vertices
    slack = offsets[:, None] - normals @ p.vertices.T
    assert np.min(slack) >= -1e-12 * p.scale
    assert np.all(np.sum(np.abs(slack) <= 1e-12 * p.scale, axis=1) >= p.dim)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=FLAT_SIMPLEX_NOISE) if name.startswith("product") else name
    for name in FACET_BODIES])
def test_facet_arrays_satisfy_minkowski_and_volume(name):
    p = FACET_BODIES[name][0]()
    normals, offsets, measures = p.facet_normals, p.facet_offsets, p.facet_measures
    # Minkowski: the measure-weighted facet normals sum to zero
    assert np.max(np.abs(measures @ normals)) <= 1e-12 * np.sum(measures)
    # cone decomposition from the origin: volume = (1/d) sum h_F m_F
    assert offsets @ measures / p.dim == pytest.approx(p.volume, rel=1e-12)


def test_mapped_cube_merges_triangles_into_square_facets():
    v = cube(3).vertices @ np.random.default_rng(3).normal(size=(3, 3)).T
    assert len(ConvexHull(v).simplices) == 12
    p = PolytopeN(v)
    assert len(p.facets) == 6
    # opposite faces of a parallelepiped are equal and antiparallel
    partner = np.argmin(p.facet_normals @ p.facet_normals.T, axis=1)
    assert np.allclose(p.facet_normals[partner], -p.facet_normals, rtol=0.0, atol=1e-12)
    assert np.allclose(p.facet_measures[partner], p.facet_measures, rtol=1e-12)
