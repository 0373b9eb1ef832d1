"""Choosing the best base point: convexity, the 9-bound, and equivariance.

The map from base point to self-perimeter is convex on the interior, so
cutting the polygon through the centroid of what is left, on exact
subgradients, finds the unique optimal center and certifies it: each result
carries a bound on its gap to the minimum. Every
convex body admits a point scoring at most 9, with equality
exactly on triangles.
"""

import numpy as np

from selfmetric import (Polygon2, convexity_probe, grunbaum_bound_check,
                        optimal_center_2d, optimal_simplex_center,
                        self_perimeter_polygon)

rng = np.random.default_rng(7)

print("== triangles optimize to the centroid, value 9 ==")
for _ in range(3):
    tri = Polygon2.from_hull(rng.normal(size=(3, 2)) * 2.0)
    res = optimal_center_2d(tri, "directed")
    drift = np.linalg.norm(res.optimum - tri.centroid)
    print(f"  optimum {np.round(res.optimum, 6)}  value {res.value:.9f}"
          f"  |optimum - centroid| {drift:.2e}  ({res.iterations} iterations,"
          f" certified gap {res.gap:.1e})")

print("\n== the universal 9-bound on random polygons ==")
worst = 0.0
for _ in range(12):
    poly = Polygon2.from_hull(rng.normal(size=(rng.integers(3, 9), 2)))
    value, ok = grunbaum_bound_check(poly)
    worst = max(worst, value)
    print(f"  {len(poly)}-gon: optimal value {value:.6f}  (<= 9: {ok})")
print(f"  worst over the sample: {worst:.6f}")

print("\n== the objective is convex: midpoint probes find no violations ==")
poly = Polygon2.from_hull(rng.normal(size=(8, 2)))
for variant in ("directed", "busemann"):
    rep = convexity_probe(poly, variant, trials=200, seed=3)
    print(f"  {variant:9s}: {rep.violation_count} violations in {rep.trials} trials")

print("\n== optima move with the body under linear maps ==")
poly = Polygon2.from_hull(rng.normal(size=(6, 2)))
base = optimal_center_2d(poly, "directed")
print(f"  base optimum {np.round(base.optimum, 8)}  value {base.value:.9f}")
for _ in range(3):
    m = rng.normal(size=(2, 2))
    if abs(np.linalg.det(m)) < 0.1:
        continue
    mapped = optimal_center_2d(Polygon2.from_hull(poly.vertices @ m.T), "directed")
    predicted = m @ base.optimum
    print(f"  mapped optimum {np.round(mapped.optimum, 8)} "
          f"  vs predicted {np.round(predicted, 8)}  value {mapped.value:.9f}")

print("\n== simplices in any dimension have a closed form ==")
for n in (2, 3, 4):
    res = optimal_simplex_center(n)
    print(f"  n={n}: centroid weights {np.round(res.optimum.weights, 4)},"
          f" value {res.value:.6f}")

print("\n== sanity: reported value matches the reported point ==")
check = self_perimeter_polygon(poly, base.optimum).value
print(f"  re-evaluated {check:.12f} vs reported {base.value:.12f}")
