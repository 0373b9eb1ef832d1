"""Acceptance gate: thirteen numbered criteria over the whole library.

Each clause prints one `ACCEPTANCE <tag> PASS|FAIL` line (bypassing capture so
the verdicts always appear in the run log), then asserts. Two clauses check a
limit against the asymptotics the mathematics fixes rather than a flat bound:
09a brackets the 64-gon's distance to 2*pi between the first one and two terms
of the tan series of the closed form, and 11c checks second-order decay of the
reconstruction residual once the documented order-eps defect on the negative
set of the shifted density is taken out.
"""

import time

import numpy as np
import pytest

from common import interior_point, random_ccs_polygon, random_polygon
from selfmetric.alexandrov import (FourierDensity, leading_order, reconstruct,
                                   second_order, shift_eigenvalue, solve_phi0,
                                   split_harmonics)
from selfmetric.centers import convexity_probe, optimal_center_2d
from selfmetric.geometry import (BarycentricPoint, Polygon2, PolytopeN,
                                 RadiusProfile, cube, icosphere, interval,
                                 polygon_as_polytope, regular_polygon)
from selfmetric.perimeter2 import (busemann_perimeter_polygon, kgon_self_perimeter,
                                   self_perimeter_polygon, self_perimeter_smooth)
from selfmetric.selfvolume import (affine_image, cartesian_product,
                                   self_volume_recursive, simplex_self_volume)

TRI = Polygon2([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def report(capsys, tag, ok, detail=""):
    # leading newline: the verdict must start its own line even when pytest
    # has already written a progress marker or test id on the current one
    with capsys.disabled():
        print(f"\nACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {tag}: {detail}"


def test_criterion_01_hypercube_self_volume(capsys):
    t0 = time.perf_counter()
    values = {n: self_volume_recursive(cube(n)).value for n in (2, 3, 4)}
    elapsed = time.perf_counter() - t0
    ok = all(abs(values[n] - 2.0 ** n) < 1e-9 for n in (2, 3, 4)) and elapsed < 10.0
    report(capsys, "01", ok, f"values {values}, elapsed {elapsed:.2f}s")


def test_criterion_02_kgon_table(capsys):
    diffs = []
    for k in range(3, 17):
        closed = kgon_self_perimeter(k)
        exact = self_perimeter_polygon(regular_polygon(k), np.zeros(2)).value
        diffs.append(abs(closed - exact))
    ok = (max(diffs) < 1e-10
          and abs(kgon_self_perimeter(4) - 8.0) < 1e-12
          and abs(kgon_self_perimeter(6) - 6.0) < 1e-12)
    report(capsys, "02", ok, f"max closed-vs-exact diff {max(diffs):.3e}")


def test_criterion_03_disk_perimeter(capsys):
    value = self_perimeter_smooth(RadiusProfile([0], [1.0]), nodes=512).value
    gap = abs(value - 2.0 * np.pi)
    report(capsys, "03", gap < 1e-10, f"gap {gap:.3e}")


def test_criterion_04_triangle(capsys):
    at_centroid = self_perimeter_polygon(TRI, TRI.centroid).value
    opt = optimal_center_2d(TRI, "directed")
    dist = float(np.linalg.norm(opt.optimum - TRI.centroid))
    rng = np.random.default_rng(404)
    chain = True
    for _ in range(100):
        p = interior_point(TRI, rng)
        d = self_perimeter_polygon(TRI, p).value
        b = busemann_perimeter_polygon(TRI, p).value
        chain = chain and (9.0 - 1e-9 <= b <= d * (1.0 + 1e-12))
    ok = abs(at_centroid - 9.0) < 1e-12 and dist < 1e-6 and chain
    report(capsys, "04", ok,
           f"centroid value {at_centroid}, optimizer distance {dist:.2e}, chain {chain}")


def test_criterion_05_simplex_closed_form(capsys):
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (2, 3):
        verts = np.vstack([np.zeros(n), np.eye(n)])
        for _ in range(5):
            lam = rng.dirichlet(np.full(n + 1, 3.0))
            want = simplex_self_volume(n, lam)
            got = self_volume_recursive(PolytopeN(verts - lam @ verts)).value
            worst = max(worst, abs(got - want))
    centroid_ok = (abs(simplex_self_volume(2, np.full(3, 1 / 3)) - 4.5) < 1e-12
                   and abs(simplex_self_volume(3, np.full(4, 0.25)) - 32.0 / 3.0) < 1e-12)
    report(capsys, "05", worst < 1e-8 and centroid_ok,
           f"worst recursion-vs-closed-form gap {worst:.3e}")


def test_criterion_06_products(capsys):
    hexagonal = self_volume_recursive(
        cartesian_product(polygon_as_polytope(regular_polygon(6)), interval())).value
    square = self_volume_recursive(
        cartesian_product(polygon_as_polytope(regular_polygon(4)), interval())).value
    ok = abs(hexagonal - 6.0) < 1e-8 and abs(square - 8.0) < 1e-8
    report(capsys, "06", ok, f"hexagonal prism {hexagonal}, square prism {square}")


def test_criterion_07_affine_invariance(capsys):
    rng = np.random.default_rng(707)
    worst = 0.0
    for n in (2, 3):
        pts = rng.normal(size=(5 * n, n))
        body = PolytopeN(np.vstack([pts, -pts]))
        base = self_volume_recursive(body).value
        done = 0
        while done < 20:
            m = rng.normal(size=(n, n))
            if abs(np.linalg.det(m)) < 1e-2:
                continue
            done += 1
            mapped = self_volume_recursive(affine_image(body, m)).value
            worst = max(worst, abs(mapped - base) / base)
    report(capsys, "07", worst < 1e-6, f"worst relative deviation {worst:.3e}")


def test_criterion_08_golab_range(capsys):
    rng = np.random.default_rng(808)
    values = []
    for _ in range(200):
        poly = random_ccs_polygon(rng, pairs=int(rng.integers(2, 9)))
        values.append(self_perimeter_polygon(poly, np.zeros(2)).value)
    lo, hi = min(values), max(values)
    ok = lo >= 6.0 - 1e-9 and hi <= 8.0 + 1e-9
    report(capsys, "08", ok, f"range [{lo:.12f}, {hi:.12f}]")


@pytest.fixture(scope="module")
def ball_limit():
    t0 = time.perf_counter()
    kgon_gap = self_perimeter_polygon(regular_polygon(64), np.zeros(2)).value - 2.0 * np.pi
    ball = self_volume_recursive(icosphere(3)).value
    elapsed = time.perf_counter() - t0
    return kgon_gap, ball, elapsed


def test_criterion_09a_kgon_limit(capsys, ball_limit):
    kgon_gap, _, _ = ball_limit
    # for k in 4Z the exact value is P(k) = 2k tan(pi/k), and the tan series
    # gives P(k) - 2 pi = 2 pi^3/(3k^2) + 4 pi^5/(15k^4) + 34 pi^7/(315k^6) + ...
    # with every term positive. At k = 64 the leading term is 5.05e-3, so no
    # correct perimeter lies within 2e-3 of 2 pi; instead the computed gap must
    # sit between the first term and the first two, a window 4.9e-6 wide; the
    # k^-6 term, about 1e-3 of the second, stays inside its 1e-2 margin.
    k = 64
    lead = 2.0 * np.pi ** 3 / (3.0 * k ** 2)
    nxt = 4.0 * np.pi ** 5 / (15.0 * k ** 4)
    upper = lead + nxt * (1.0 + 1e-2)
    report(capsys, "09a", lead < kgon_gap < upper,
           f"P(64) - 2 pi = {kgon_gap:.6e}, tan-series window ({lead:.6e}, {upper:.6e}); "
           "convergence to 2 pi like 2 pi^3/(3k^2) is broken")


def test_criterion_09b_icosphere_ball(capsys, ball_limit):
    _, ball, _ = ball_limit
    want = 4.0 * np.pi / 3.0
    rel = abs(ball - want) / want
    assert len(icosphere(3).facets) == 1280 >= 320
    report(capsys, "09b", rel < 0.02, f"icosphere(3) volume {ball:.6f}, rel gap {rel:.4%}")


def test_criterion_09d_icosphere_ladder_rate(capsys, ball_limit):
    # P(B)/V(B) = n makes the ball's self-volume its Euclidean volume, so the
    # icospheres must close in on 4 pi/3 at second order in the edge length,
    # which halves per level: the error ratio of levels 2 and 3 sits near 4
    # (measured 0.1377, 0.02776 and 0.006656 for levels 1-3: ratios 4.96, 4.17)
    _, ball, _ = ball_limit
    want = 4.0 * np.pi / 3.0
    e2 = abs(self_volume_recursive(icosphere(2)).value - want)
    ratio = e2 / abs(ball - want)
    report(capsys, "09d", 3.5 <= ratio <= 4.5,
           f"icosphere(2) and (3) miss 4 pi/3 by {e2:.4e} and {abs(ball - want):.4e}, "
           f"ratio {ratio:.3f} outside [3.5, 4.5]")


def test_criterion_09c_runtime(capsys, ball_limit):
    _, _, elapsed = ball_limit
    report(capsys, "09c", elapsed < 60.0, f"elapsed {elapsed:.2f}s")


def test_criterion_10_convexity_probes(capsys):
    rng = np.random.default_rng(1010)
    violations = 0
    for _ in range(20):
        poly = random_polygon(rng, points=int(rng.integers(3, 10)))
        for variant in ("directed", "busemann"):
            rep = convexity_probe(poly, variant, trials=100,
                                  seed=int(rng.integers(1 << 30)))
            violations += rep.violation_count
    report(capsys, "10", violations == 0, f"{violations} violations")


def loglog_slope(ladder, values):
    return float(np.polyfit(np.log(ladder), np.log(values), 1)[0])


@pytest.fixture(scope="module")
def alexandrov_run():
    phi0 = solve_phi0(split_harmonics(FourierDensity.from_pairs([(4, 0.5, 0.0)], 0.01))[0])
    nodes = 4096
    z1 = leading_order(FourierDensity.from_pairs([(4, 0.5, 0.0)], 0.01), nodes=nodes)
    periodicity = float(np.max(np.abs(z1 - np.roll(z1, nodes // 4))))
    # per eps: (eps, full sup residual, residual_classical, full residual
    # minus the first-order defect 2 eps max(-s), s = phi_aligned + phi0)
    rows = []
    for eps in (4e-2, 1e-2, 2.5e-3):
        phi = FourierDensity.from_pairs([(4, 0.5, 0.0)], eps)
        res = reconstruct(phi, nodes=nodes)
        s = split_harmonics(phi)[0].evaluate(res.theta) + res.phi0
        defect = 2.0 * eps * float(np.max(-s))
        rows.append((eps, res.residual, res.residual_classical, abs(res.residual - defect)))
    ladder = [row[0] for row in rows]
    slopes = {name: loglog_slope(ladder, [row[j] for row in rows])
              for j, name in ((1, "full"), (2, "classical"), (3, "defect-subtracted"))}
    return phi0, periodicity, rows, slopes


def test_criterion_11a_shift_vanishes(capsys, alexandrov_run):
    phi0 = alexandrov_run[0]
    ok = (not phi0.trivial) and abs(phi0.value) < 1e-10
    report(capsys, "11a", ok, f"phi0 = {phi0.value:.3e}")


def test_criterion_11b_leading_order_periodic(capsys, alexandrov_run):
    periodicity = alexandrov_run[1]
    report(capsys, "11b", periodicity < 1e-10, f"quarter-turn defect {periodicity:.3e}")


def test_criterion_11c_residual_slope(capsys, alexandrov_run):
    _, _, rows, slopes = alexandrov_run
    # the full sup-residual is dominated by the order-eps defect 2|s| on the
    # set where s = cos(4t) + phi0 is negative: (3/2) zeta1'^2 cannot be
    # negative, and no harmonic in the range of the quarter-shift operator can
    # cancel an aligned one, so its own slope saturates at 1 (0.995). The
    # method promises second order on the positive set (residual_classical)
    # and, with the defect 2 eps max(-s) taken out, on the full sup as well.
    ok = slopes["classical"] >= 1.3 and slopes["defect-subtracted"] >= 1.3
    ladder = [(e, f"{full:.3e}", f"{cl:.3e}", f"{sub:.3e}") for e, full, cl, sub in rows]
    report(capsys, "11c", ok,
           f"slopes {', '.join(f'{k} {v:.4f}' for k, v in slopes.items())} over "
           f"(eps, full, classical, defect-subtracted) = {ladder}; the full residual "
           "decays at first order through the negative-set defect, the other two "
           "must reach 1.3")


def test_criterion_12_spectral_solve(capsys):
    phi = FourierDensity.from_pairs([(1, 0.2, -0.1), (2, 0.3, 0.1),
                                     (4, 0.5, 0.0), (7, 0.0, 0.2)], 0.01)
    ks, coeffs = second_order(phi)
    _, phi_u = split_harmonics(phi)
    lookup = dict(zip(phi_u.ks.tolist(), phi_u.coeffs))
    worst = max(abs(c * shift_eigenvalue(k) - lookup[int(k)]) for k, c in zip(ks, coeffs))
    report(capsys, "12", worst < 1e-12, f"worst coefficient defect {worst:.3e}")


def test_criterion_13_cross_module_consistency(capsys):
    rng = np.random.default_rng(1313)
    worst_ccs = 0.0
    for _ in range(25):
        poly = random_ccs_polygon(rng, pairs=int(rng.integers(2, 8)))
        volume = self_volume_recursive(polygon_as_polytope(poly)).value
        per = self_perimeter_polygon(poly, np.zeros(2)).value
        worst_ccs = max(worst_ccs, abs(2.0 * volume - per))
    worst_general = 0.0
    for _ in range(25):
        poly = random_polygon(rng, points=int(rng.integers(4, 10)))
        c = poly.centroid
        volume = self_volume_recursive(polygon_as_polytope(poly, c)).value
        per = busemann_perimeter_polygon(poly, c).value
        worst_general = max(worst_general, abs(2.0 * volume - per))
    ok = worst_ccs < 1e-9 and worst_general < 1e-9
    report(capsys, "13", ok,
           f"worst |2w - P| gaps: symmetric {worst_ccs:.3e}, general {worst_general:.3e}")
