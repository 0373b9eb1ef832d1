"""Self-perimeters of planar convex bodies: the boundary length of a body
measured in the norm whose unit ball is the body itself.

Two variants are implemented. The directed perimeter divides each boundary
element by the single ray radius in the (counterclockwise) tangent direction;
the Busemann variant divides by half the full chord, which makes it
orientation-free. The two agree on centrally symmetric bodies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    BarycentricPoint,
    GeometryError,
    NotInteriorError,
    Polygon2,
    RadiusProfile,
    _count,
    _exits,
    _point,
    _slack,
    uniform_grid,
)

MIN_NODES = 64  # coarsest admissible quadrature grid
VARIANTS = ("directed", "busemann")


@dataclass
class Perimeter2Result:
    value: float
    variant: str          # "directed" or "busemann"
    method: str           # "polygon-exact", "quadrature" or "closed-form"
    node_count: int | None = None


def self_perimeter_polygon(poly, center):
    """Directed self-perimeter of a polygon about an interior center.

    Sums edge_length / ray_radius over the edges, with the ray cast parallel
    to each edge in the CCW tangent direction.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("self_perimeter_polygon expects a Polygon2")
    value, _ = polygon_perimeter_subgradient(poly, center, "directed")
    return Perimeter2Result(value, "directed", "polygon-exact")


def busemann_perimeter_polygon(poly, center):
    """Busemann self-perimeter: each edge divided by half its parallel chord."""
    if not isinstance(poly, Polygon2):
        raise TypeError("busemann_perimeter_polygon expects a Polygon2")
    value, _ = polygon_perimeter_subgradient(poly, center, "busemann")
    return Perimeter2Result(value, "busemann", "polygon-exact")


def _check_variant(variant):
    if variant not in VARIANTS:
        raise GeometryError(f"variant must be one of {VARIANTS}, got {variant!r}")


def polygon_perimeter_subgradient(poly, center, variant):
    """(value, subgradient) of a polygon's self-perimeter as a function of its center.

    The one-point case of `_ray_casts`; raises NotInteriorError unless the
    center is strictly inside the polygon.
    """
    values, subgradients, inside, _ = _ray_casts(poly, _point(center, 2)[None], variant)
    if not inside[0]:
        raise NotInteriorError("center is not strictly inside the polygon")
    return float(values[0]), subgradients[0]


def _ray_casts(poly, points, variant):
    """(values, subgradients, inside, slack) of a polygon's self-perimeter at each row
    of points (R, 2).

    The ray radius r_i of edge i leaves through edge j, so r_i = s_j / (n_j.t_i)
    with slack s_j = h_j - n_j.p, and d r_i / dp = -r_i n_j / s_j. Where several
    exit edges tie (a crease of the convex objective) any of them gives a valid
    subgradient. slack (R, k) holds the edge slacks of each row, and inside (R,)
    flags the rows strictly inside the polygon, where every slack is positive;
    the values and subgradients of the other rows are meaningless, and they
    raise no floating-point warning. Each row gets the IEEE operations of a
    one-point cast (see geometry._slack), so its bits do not depend on the others.
    """
    _check_variant(variant)
    k = len(poly)
    cosines = poly.exit_cosines if variant == "busemann" else poly.exit_cosines[:k]
    lengths, normals = poly.edge_lengths, poly.normals
    with np.errstate(all="ignore"):
        slack = _slack(normals, poly.offsets, points)
        inside = slack.min(axis=1) > 0.0
        radii, exits, at_exit = _exits(slack, cosines)
        fwd, j_fwd = radii[:, :k], exits[:, :k]
        if variant == "directed":
            values = (lengths / fwd).sum(axis=1)
            subgradients = _weighted_normals(lengths / (fwd * at_exit), normals, j_fwd)
        else:
            bwd, j_bwd = radii[:, k:], exits[:, k:]
            chords = fwd + bwd
            values = (2.0 * lengths / chords).sum(axis=1)
            w = 2.0 * lengths / chords ** 2
            subgradients = (_weighted_normals(w * fwd / at_exit[:, :k], normals, j_fwd)
                            + _weighted_normals(w * bwd / at_exit[:, k:], normals, j_bwd))
    return values, subgradients, inside, slack


def _weighted_normals(weights, normals, exits):
    """Row r is weights[r] @ normals[exits[r]], one gemv per row."""
    return (weights[:, None, :] @ normals[exits])[:, 0]


def smooth_density(profile, theta):
    """Self-perimeter integrand of a smooth radial profile at angles theta.

    sqrt(r^2 + r'^2) / r(theta + alpha), where alpha = atan2(r, r') in (0, pi)
    is the angle from the radius vector to the CCW tangent. alpha is computed
    with the two-argument arctangent so the branch is continuous.
    """
    r = profile(theta)
    if np.min(r) <= 0.0:
        raise GeometryError("profile radius must stay positive")
    dr = profile.derivative(theta)
    alpha = np.arctan2(r, dr)
    return np.hypot(r, dr) / profile(np.asarray(theta) + alpha)


def self_perimeter_smooth(profile, nodes=512):
    """Directed self-perimeter of a smooth profile by periodic trapezoid quadrature.

    The trapezoid rule on a uniform periodic grid is spectrally accurate, so
    moderate node counts already reach near machine precision for smooth bodies.
    """
    if not isinstance(profile, RadiusProfile):
        raise TypeError("self_perimeter_smooth expects a RadiusProfile")
    nodes = int(nodes)
    if nodes < MIN_NODES:
        raise GeometryError(f"need at least {MIN_NODES} quadrature nodes, got {nodes}")
    theta = uniform_grid(nodes)
    value = float(np.mean(smooth_density(profile, theta)) * 2.0 * np.pi)
    return Perimeter2Result(value, "directed", "quadrature", node_count=nodes)


def kgon_self_perimeter(k):
    """Closed-form self-perimeter of the regular k-gon (split by k mod 4).

    All three branches converge to 2*pi from their own side; the square gives
    the extreme value 8 and the regular hexagon the extreme value 6.
    """
    k = _count(k, "k", 3)
    if k % 4 == 0:
        return 2.0 * k * np.tan(np.pi / k)
    if k % 2 == 1:
        return 2.0 * k * np.tan(np.pi / k) * np.cos(np.pi / (2.0 * k))
    return 2.0 * k * np.sin(np.pi / k)


def triangle_perimeters(bary):
    """Directed and Busemann self-perimeters of a triangle at a barycentric point.

    directed = sum 1/lambda_i, busemann = 2 * sum 1/(1 - lambda_i). Both are
    minimized at the centroid where they equal 9.
    """
    if not isinstance(bary, BarycentricPoint):
        bary = BarycentricPoint(bary)
    lam = bary.weights
    if len(lam) != 3:
        raise GeometryError("triangle_perimeters needs exactly 3 barycentric weights")
    directed = float(np.sum(1.0 / lam))
    busemann = float(2.0 * np.sum(1.0 / (1.0 - lam)))
    return directed, busemann
