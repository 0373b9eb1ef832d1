import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import random_ccs_polygon
from selfmetric import alexandrov, geometry
from selfmetric.alexandrov import (ClosureError, FourierDensity, FourierDensityError,
                                   circle_grid, cusp_exclusion_mask,
                                   forward_measure, leading_order,
                                   quarter_shift_difference, reconstruct, second_order,
                                   shift_eigenvalue, solve_phi0, split_harmonics,
                                   sqrt_imbalance)
from selfmetric.geometry import (GeometryError, NotInteriorError, PolytopeN,
                                 RadiusProfile, cube, interval,
                                 polygon_as_polytope, regular_polygon)
from selfmetric.perimeter2 import self_perimeter_smooth
from selfmetric.selfvolume import (MAX_DIM, SurfaceMeasure, cartesian_product,
                                   self_volume_recursive)

COS4 = FourierDensity.from_pairs([(4, 0.5, 0.0)], 0.01)   # cos(4 theta)

# Independent shift oracle for cos(4t) + 0.5 cos(8t): the balance root was
# bracketed by midpoint quadrature on 200001- and 400001-node grids
# (0.142679340772197 and 0.142679425965292), Richardson-consistent at
# O(h^{3/2}); the continuum value is 0.1426794 to the digits shown.
PHI0_ORACLE = 0.1426794


def density(pairs, eps=0.01):
    return FourierDensity.from_pairs(pairs, eps)


def test_circle_grid_contract():
    g = circle_grid(8)
    assert len(g) == 8 and g[0] == 0.0
    assert g[2] == pytest.approx(np.pi / 2, abs=1e-15)
    for bad in (7, 6, -4):
        with pytest.raises(ValueError):
            circle_grid(bad)


def test_density_validation():
    with pytest.raises(FourierDensityError):
        FourierDensity([0], [1.0], 0.01)          # constant term excluded
    with pytest.raises(FourierDensityError):
        FourierDensity([2], [1.0 + 0.5j], 0.01)   # missing conjugate mate
    with pytest.raises(FourierDensityError):
        FourierDensity.from_pairs([(4, 1.0, 0.0)], -0.5)
    empty = FourierDensity([], [], 0.01)
    assert empty.is_zero()
    assert np.all(empty.evaluate(circle_grid(8)) == 0.0)
    assert isinstance(empty.evaluate(0.5), float) and isinstance(COS4.evaluate(0.5), float)


def test_density_evaluates_real_cosine():
    theta = circle_grid(64)
    vals = COS4.evaluate(theta)
    assert np.allclose(vals, np.cos(4 * theta), atol=1e-14)


def test_split_harmonics_partition():
    phi = density([(2, 0.3, 0.1), (4, 0.5, 0.0), (7, 0.0, 0.2), (8, -0.1, 0.05)])
    aligned, rest = split_harmonics(phi)
    assert set(np.abs(aligned.ks)) == {4, 8}
    assert set(np.abs(rest.ks)) == {2, 7}
    theta = circle_grid(32)
    assert np.allclose(aligned.evaluate(theta) + rest.evaluate(theta),
                       phi.evaluate(theta), atol=1e-14)
    assert aligned.epsilon == phi.epsilon


def test_sqrt_imbalance_basics():
    ones = np.ones(16)
    assert sqrt_imbalance(ones, 0.0) == pytest.approx(2.0 * np.pi, abs=1e-12)
    assert sqrt_imbalance(ones, 2.0) == pytest.approx(-2.0 * np.pi, abs=1e-12)
    vals = np.cos(4 * circle_grid(256))
    gammas = np.linspace(-0.9, 0.9, 7)
    curve = [sqrt_imbalance(vals, g) for g in gammas]
    assert all(a > b for a, b in zip(curve, curve[1:]))   # strictly decreasing


def test_phi0_vanishes_for_pure_cos4():
    res = solve_phi0(split_harmonics(COS4)[0])
    assert not res.trivial
    assert abs(res.value) < 1e-10
    assert abs(res.imbalance) < 1e-10


def test_phi0_matches_fine_grid_oracle():
    phi_p = density([(4, 0.5, 0.0), (8, 0.25, 0.0)])   # cos4t + 0.5 cos8t
    res = solve_phi0(phi_p)
    assert res.value == pytest.approx(PHI0_ORACLE, abs=5e-4)
    vals = phi_p.evaluate(circle_grid(4096))
    assert abs(sqrt_imbalance(vals, -res.value)) < 1e-10


def test_phi0_trivial_cases():
    assert solve_phi0(FourierDensity([], [], 0.01)).trivial
    assert solve_phi0(FourierDensity([-4, 4], [1e-16, 1e-16], 0.01)).trivial
    with pytest.raises(TypeError):
        solve_phi0(np.zeros(64))   # samples are not a density


def test_leading_order_quarter_turn_periodic():
    nodes = 4096
    z1 = leading_order(COS4, nodes=nodes)
    assert abs(float(np.mean(z1))) < 1e-14
    assert np.max(np.abs(z1 - np.roll(z1, nodes // 4))) < 1e-10


def test_leading_order_sign_branch_negates():
    plus = leading_order(COS4, sign=1, nodes=1024)
    minus = leading_order(COS4, sign=-1, nodes=1024)
    assert np.array_equal(minus, -plus)
    with pytest.raises(ValueError):
        leading_order(COS4, sign=2)


def test_leading_order_ignores_non_aligned_harmonics():
    # the slope field is built from the aligned part alone
    base = leading_order(COS4, nodes=1024)
    mixed = density([(4, 0.5, 0.0), (2, 0.35, 0.0), (6, 0.0, 0.1)])
    assert np.array_equal(leading_order(mixed, nodes=1024), base)


def test_leading_order_needs_aligned_part():
    with pytest.raises(FourierDensityError):
        leading_order(density([(2, 0.5, 0.0)]))


def test_wrong_shift_breaks_closure():
    with pytest.raises(ClosureError):
        leading_order(COS4, nodes=1024, phi0=0.3)


def test_shift_eigenvalue_table():
    assert shift_eigenvalue(4) == 0.0
    assert shift_eigenvalue(1) == 1.0 - 1.0j
    assert shift_eigenvalue(2) == 2.0
    assert shift_eigenvalue(3) == 1.0 + 1.0j
    assert shift_eigenvalue(-1) == 1.0 + 1.0j
    assert shift_eigenvalue(-2) == 2.0


def test_quarter_shift_difference_matches_manual():
    theta = circle_grid(32)
    f = np.sin(3 * theta) + 0.2 * np.cos(theta)
    want = f - (np.sin(3 * (theta + np.pi / 2)) + 0.2 * np.cos(theta + np.pi / 2))
    assert np.allclose(quarter_shift_difference(f), want, atol=1e-13)
    with pytest.raises(ValueError):
        quarter_shift_difference(np.ones(10))


def test_second_order_inverts_the_shift_operator():
    phi = density([(1, 0.2, -0.1), (2, 0.3, 0.1), (4, 0.5, 0.0), (7, 0.0, 0.2)])
    ks, coeffs = second_order(phi)
    assert not np.any(ks % 4 == 0)
    # applying the operator in coefficient space must return the non-aligned part
    _, phi_u = split_harmonics(phi)
    for k, c in zip(ks, coeffs):
        j = list(phi_u.ks).index(k)
        assert abs(c * shift_eigenvalue(k) - phi_u.coeffs[j]) < 1e-12
    # and in sample space
    theta = circle_grid(64)
    from selfmetric.geometry import fourier_eval
    z2 = fourier_eval(theta, ks, coeffs)
    assert np.allclose(quarter_shift_difference(z2), phi_u.evaluate(theta), atol=1e-12)


def test_second_order_empty_when_all_aligned():
    ks, coeffs = second_order(COS4)
    assert len(ks) == 0 and len(coeffs) == 0
    zeta2 = reconstruct(COS4, nodes=256).zeta2
    assert zeta2.dtype == float and np.array_equal(zeta2, np.zeros(256))


def test_cusp_mask_single_crossing_pair():
    s = np.concatenate([np.ones(8), -np.ones(8)])
    assert alexandrov.CUSP_GUARD == 2
    mask = cusp_exclusion_mask(s)
    dropped = set(np.nonzero(~mask)[0])
    assert dropped == {6, 7, 8, 9, 14, 15, 0, 1}


def _loop_cusp_mask(s):
    # the per-flip loop the rolled form replaced
    n = len(s)
    sgn = np.sign(s)
    mask = np.ones(n, dtype=bool)
    for j in np.nonzero(sgn != np.roll(sgn, -1))[0]:
        for d in range(1 - alexandrov.CUSP_GUARD, alexandrov.CUSP_GUARD + 1):
            mask[(j + d) % n] = False
    return mask


def test_cusp_mask_matches_the_per_flip_loop():
    rng = np.random.default_rng(23)
    cases = [np.where(rng.random(n) < p, -1.0, 1.0) * rng.random(n)
             for n in (1, 2, 3, 5, 8, 16, 64) for p in (0.05, 0.5, 0.95)]
    # flips at index 0 and at n - 1 (wrapping to 0), adjacent flips and zeros
    cases += [np.array([-1.0] + [1.0] * 9), np.array([1.0] * 9 + [-1.0]),
              np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0]),
              np.array([0.0, 1.0, 0.0, -1.0, -1.0, -1.0, 1.0, 1.0]), np.ones(12)]
    for s in cases:
        assert np.array_equal(cusp_exclusion_mask(s), _loop_cusp_mask(s)), s


def test_forward_density_of_disk_is_one():
    theta, dens = forward_measure(RadiusProfile([0], [1.0]), nodes=256)
    assert np.allclose(dens, 1.0, atol=1e-14)
    assert len(theta) == 256


@pytest.mark.filterwarnings("ignore:radius profile fails the convexity check:UserWarning")
def test_forward_mass_equals_smooth_perimeter():
    rng = np.random.default_rng(9)
    for _ in range(10):
        pairs = [(0, rng.uniform(0.8, 1.2), 0.0)]
        for k in rng.choice(np.arange(2, 7), size=2, replace=False):
            amp = rng.uniform(0.0, 0.02)
            pairs.append((int(k), amp, rng.uniform(-0.01, 0.01)))
        prof = RadiusProfile.from_coeff_pairs(pairs)
        _, dens = forward_measure(prof, nodes=512)
        mass = float(np.mean(dens) * 2.0 * np.pi)
        assert mass == pytest.approx(self_perimeter_smooth(prof, nodes=512).value, rel=1e-12)


def test_reconstruct_zero_epsilon_is_unit_disk():
    res = reconstruct(FourierDensity.from_pairs([(4, 0.5, 0.0)], 0.0))
    assert res.residual == 0.0 and res.residual_classical == 0.0
    assert list(res.radius.ks) == [0]
    assert res.radius.coeffs[0] == 1.0
    assert np.all(res.zeta1 == 0.0)


def test_reconstruct_residual_scales_with_epsilon():
    eps = 1e-3
    res = reconstruct(FourierDensity.from_pairs([(4, 0.5, 0.0)], eps), nodes=1024)
    assert res.residual <= 5.0 * eps
    # on the region where the shifted density is positive the defect is
    # higher order
    assert res.residual_classical <= 2.0 * eps ** 1.5
    assert abs(res.phi0) < 1e-10
    assert res.notes == ()


def test_reconstruct_classical_region_slope():
    # second-order accuracy where the shifted aligned part is positive:
    # log-log slope of the classical residual is well above linear
    ladder = []
    for eps in (4e-2, 1e-2, 2.5e-3):
        res = reconstruct(FourierDensity.from_pairs([(4, 0.5, 0.0)], eps), nodes=1024)
        ladder.append((eps, res.residual_classical))
    slope = np.polyfit(np.log([e for e, _ in ladder]), np.log([r for _, r in ladder]), 1)[0]
    assert slope >= 1.3



# (residual, residual_classical) of the 11c ladder, cos 4t at 4096 nodes, with
# every fourier_eval on the dense path
LADDER_11C = {0.04: (0.07877899748556588, 0.0037877649692208033),
              0.01: (0.019922491955887384, 0.00039026793720246204),
              0.0025: (0.004995132465396432, 4.536015675746458e-05)}


def test_reconstruct_ladder_matches_the_dense_forward_map(monkeypatch):
    results = {eps: reconstruct(FourierDensity.from_pairs([(4, 0.5, 0.0)], eps), nodes=4096)
               for eps in LADDER_11C}
    for eps, (residual, classical) in LADDER_11C.items():
        assert abs(results[eps].residual - residual) <= 1e-12
        assert abs(results[eps].residual_classical - classical) <= 1e-12
    # phi0 and the returned radius never go through the NUFFT: with the dense
    # path forced and the forward map stubbed out they come back identical
    monkeypatch.setattr(geometry, "NUFFT_CROSSOVER", math.inf)
    monkeypatch.setattr(alexandrov, "forward_measure",
                        lambda profile, nodes: (circle_grid(nodes), np.ones(nodes)))
    for eps, res in results.items():
        dense = reconstruct(FourierDensity.from_pairs([(4, 0.5, 0.0)], eps), nodes=4096)
        assert dense.phi0 == res.phi0
        assert np.array_equal(dense.radius.ks, res.radius.ks)
        assert np.array_equal(dense.radius.coeffs, res.radius.coeffs)


def test_reconstruct_both_sign_branches():
    eps = 4e-3
    phi = FourierDensity.from_pairs([(4, 0.5, 0.0)], eps)
    plus = reconstruct(phi, sign=1, nodes=1024)
    minus = reconstruct(phi, sign=-1, nodes=1024)
    assert np.array_equal(minus.zeta1, -plus.zeta1)
    assert plus.residual <= 5.0 * eps and minus.residual <= 5.0 * eps


AMPLITUDE = st.floats(-0.5, 0.5).filter(lambda a: abs(a) >= 0.05)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(aligned=st.dictionaries(st.sampled_from([4, 8, 12]), AMPLITUDE, min_size=1, max_size=2),
       imag=st.just(0.0) | st.floats(-0.3, 0.3),
       rest=st.dictionaries(st.sampled_from([1, 2, 3, 5, 6, 7]),
                            st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), max_size=3),
       eps=st.floats(1e-4, 1e-2))
def test_reconstruct_sign_branches_share_all_but_zeta1_sign(aligned, imag, rest, eps):
    # imag goes on the first aligned harmonic; with imag = 0 the aligned part is even
    pairs = [(k, a, imag if i == 0 else 0.0) for i, (k, a) in enumerate(aligned.items())]
    phi = FourierDensity.from_pairs(pairs + [(k, re, im) for k, (re, im) in rest.items()], eps)
    plus = reconstruct(phi, sign=1, nodes=512)
    minus = reconstruct(phi, sign=-1, nodes=512)
    assert np.array_equal(minus.zeta1, -plus.zeta1)
    assert np.array_equal(minus.zeta2, plus.zeta2)
    assert minus.phi0 == plus.phi0
    if imag == 0.0:
        # zeta1 is odd: the branches mirror each other under theta -> -theta at leading order
        mirrored = plus.zeta1[-np.arange(512) % 512]
        assert np.max(np.abs(mirrored + plus.zeta1)) < 1e-12


def test_reconstruct_notes_capture_convexity_loss():
    res = reconstruct(FourierDensity.from_pairs([(4, 0.5, 0.0)], 0.3), nodes=512)
    assert any("convexity" in note for note in res.notes)


def test_reconstruct_refuses_a_grid_that_the_cusp_guards_cover():
    # cos(4 theta) + phi0 changes sign every 1/16 turn: 2 nodes apart at 32 nodes
    with pytest.raises(FourierDensityError, match="^32 nodes are too few: .* CUSP_GUARD = 2 "):
        reconstruct(COS4, nodes=32)
    assert np.isfinite(reconstruct(COS4, nodes=64).residual)


def test_reconstruct_requires_aligned_part():
    with pytest.raises(FourierDensityError):
        reconstruct(density([(2, 0.5, 0.0)], eps=0.01))


def test_surface_measure_cube():
    sm = SurfaceMeasure(cube(3))
    assert sm.dim == 3
    assert len(sm.rows) == 6
    assert sm.total_mass == pytest.approx(24.0, rel=1e-12)
    for row in sm.rows:
        assert row.density == pytest.approx(1.0, abs=1e-12)
        assert row.cell_mass == pytest.approx(4.0, rel=1e-12)
    assert sm.evaluate([[1.0, 0.0, 0.0]])[0] == pytest.approx(1.0, abs=1e-12)
    diag = sm.evaluate([[1.0, 1.0, 1.0]])[0]
    assert diag == pytest.approx(3.0 * np.sqrt(3.0), rel=1e-12)


def test_surface_measure_total_is_dim_times_self_volume():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(14, 3))
    body = PolytopeN(np.vstack([pts, -pts]))
    sm = SurfaceMeasure(body)
    want = 3.0 * self_volume_recursive(body).value
    assert sm.total_mass == pytest.approx(want, rel=1e-12)


def test_surface_measure_fine_polygon_is_nearly_flat():
    # a fine regular polygon approximates the disk, whose density is 1
    sm = SurfaceMeasure(polygon_as_polytope(regular_polygon(256)))
    dens = np.array([r.density for r in sm.rows])
    assert np.max(np.abs(dens - 1.0)) < 5e-4
    vol = self_volume_recursive(polygon_as_polytope(regular_polygon(256))).value
    assert sm.total_mass == pytest.approx(2.0 * vol, rel=1e-12)


def test_surface_measure_monte_carlo_mass():
    # integrating the density over uniform sphere directions recovers the mass
    rng = np.random.default_rng(55)
    pts = rng.normal(size=(10, 3))
    body = PolytopeN(np.vstack([pts, -pts]))
    sm = SurfaceMeasure(body)
    dirs = rng.normal(size=(40_000, 3))
    vals = sm.evaluate(dirs)
    est = float(np.mean(vals)) * 4.0 * np.pi
    sem = float(np.std(vals)) / np.sqrt(len(vals)) * 4.0 * np.pi
    assert abs(est - sm.total_mass) < 4.0 * sem


def test_surface_measure_guards():
    with pytest.raises(GeometryError):
        SurfaceMeasure(interval())
    shifted = PolytopeN(cube(2).vertices + 3.0)
    with pytest.raises(NotInteriorError):
        SurfaceMeasure(shifted)
    sm = SurfaceMeasure(cube(2))
    with pytest.raises(GeometryError):
        sm.evaluate([[0.0, 0.0]])


@pytest.mark.parametrize("directions", [
    [np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0], [[1.0, 0.0]], [1.0, 0.0, 0.0, 0.0],
], ids=["nan", "inf", "short", "long"])
def test_surface_measure_rejects_bad_directions(directions):
    with pytest.raises(GeometryError, match="directions must"):
        SurfaceMeasure(cube(3)).evaluate(directions)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_surface_measure_rescales_extreme_directions(scale):
    # v . v overflows or underflows; pytest makes numpy's overflow warning an error
    sm = SurfaceMeasure(cube(3))
    plain = sm.evaluate([[1.0, 1.0, 0.0], [1.0, 2.0, 3.0]])
    assert np.array_equal(sm.evaluate([[scale, scale, 0.0], [1.0, 2.0, 3.0]]), plain)


def _where_density(sm, directions):
    # the exit rule as evaluate spelled it before geometry._exits: divide only
    # where the cosine is positive, infinity elsewhere, then the nearest exit
    dirs = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    den = dirs @ sm._normals.T
    with np.errstate(divide="ignore"):
        t = np.where(den > 0.0, sm._offsets / den, np.inf)
    hit = np.argmin(t, axis=1)
    idx = np.arange(len(dirs))
    return sm._densities[hit] * t[idx, hit] ** (sm.dim - 1) / den[idx, hit]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(2, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_surface_density_keeps_the_where_form_bit_for_bit(dim, box, seed):
    rng = np.random.default_rng(seed)
    if box:   # axis directions run parallel to facets: cosines of exactly +-0.0
        body = cube(dim)
    else:
        pts = rng.normal(size=(dim + 3, dim))
        body = PolytopeN(np.vstack([pts, -pts]))
    sm = SurfaceMeasure(body)
    dirs = np.vstack([np.eye(dim), -np.eye(dim), rng.normal(size=(48, dim))])
    assert sm.evaluate(dirs).tobytes() == _where_density(sm, dirs).tobytes()


def test_surface_measure_max_dim_bounds_the_section_dimension():
    # MAX_DIM bounds the body, so its sections stay at most MAX_DIM - 1 dimensional;
    # the 6-D triangle x 4-cube, whose surface mass is 432, is refused, not read as 432.4
    assert MAX_DIM == 5
    assert SurfaceMeasure(cube(4)).total_mass == pytest.approx(4.0 * 16.0, rel=1e-12)
    six = cartesian_product(polygon_as_polytope(regular_polygon(3)), cube(4))
    with pytest.raises(GeometryError, match="dimension 6 exceeds"):
        SurfaceMeasure(six)
