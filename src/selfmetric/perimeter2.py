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
    values, subgradients, _, _, inside = _ray_casts(poly, _point(center, 2)[None], variant)
    if not inside[0]:
        raise NotInteriorError("center is not strictly inside the polygon")
    return float(values[0]), subgradients[0]


# rows of one _ray_casts pass: the (rows, exit rays, edges) quotient of _exits takes at
# most this many float64 elements (256 KiB), so that a wide cast of a 64-gon does not
# hold megabytes (with 512 KiB the centre probe of planar_batch peaked 0.2 MB above the
# unchunked casts of the secant solver); each row's IEEE operations are its own, so
# the chunks do not move a bit
_CAST_ELEMENTS = 1 << 15


def _ray_casts(poly, points, variant):
    """(values, subgradients, hessians, exits, inside) of a polygon's self-perimeter
    at each row of points (R, 2).

    The ray radius r_i of edge i leaves through edge j, so r_i = s_j / (n_j.t_i)
    with slack s_j = h_j - n_j.p, and d r_i / dp = -r_i n_j / s_j. Where several
    exit edges tie (a crease of the convex objective) any of them gives a valid
    subgradient. exits (R, c) holds each ray's exit edge, the first on a tie: the
    directed ray of edge i in column i, and for the Busemann variant the reversed
    one in column k + i. They fix the smooth piece of the objective a row lies on,
    and hessians (R, 2, 2) is that piece's Hessian there:
    - directed, term L_i / r_i: sum of 2 L_i n_j n_j^T / (r_i s_j^2);
    - Busemann, term 2 L_i / (a_i + b_i) with a_i, b_i the radii along t_i and -t_i,
      leaving through edges j and j' at exit cosines c_ij and c_ij': sum of
      4 L_i u_i u_i^T / (a_i + b_i)^3 with u_i = n_j / c_ij + n_j' / c_ij'.
    inside (R,) flags the rows strictly inside the polygon, where every edge slack
    is positive; the other rows' outputs are meaningless, and they raise no
    floating-point warning. Each row gets the IEEE operations of a one-point cast
    (see geometry._slack), so its bits do not depend on the others; casts of more
    than _CAST_ELEMENTS quotients go in row chunks.
    """
    _check_variant(variant)
    k = len(poly)
    cosines = poly.exit_cosines if variant == "busemann" else poly.exit_cosines[:k]
    chunk = max(1, _CAST_ELEMENTS // cosines.size)
    if len(points) > chunk:
        parts = [_ray_casts(poly, points[i:i + chunk], variant)
                 for i in range(0, len(points), chunk)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    lengths, normals = poly.edge_lengths, poly.normals
    with np.errstate(all="ignore"):
        slack = _slack(normals, poly.offsets, points)
        inside = slack.min(axis=1) > 0.0
        radii, exits, at_exit = _exits(slack, cosines)
        fwd, j_fwd = radii[:, :k], exits[:, :k]
        # the exit normals (R, k, 2): each weighted sum of them is one gemv per row
        n_fwd = normals[j_fwd]
        if variant == "directed":
            values = (lengths / fwd).sum(axis=1)
            w = lengths / (fwd * at_exit)
            subgradients = (w[:, None, :] @ n_fwd)[:, 0]
            u, w = n_fwd, 2.0 * w / at_exit
        else:
            bwd, j_bwd = radii[:, k:], exits[:, k:]
            n_bwd = normals[j_bwd]
            chords = fwd + bwd
            values = (2.0 * lengths / chords).sum(axis=1)
            w = 2.0 * lengths / chords ** 2
            subgradients = (((w * fwd / at_exit[:, :k])[:, None, :] @ n_fwd)[:, 0]
                            + ((w * bwd / at_exit[:, k:])[:, None, :] @ n_bwd)[:, 0])
            u = ((fwd / at_exit[:, :k])[..., None] * n_fwd
                 + (bwd / at_exit[:, k:])[..., None] * n_bwd)
            w = 2.0 * w / chords
        hessians = (u * w[..., None]).transpose(0, 2, 1) @ u
    return values, subgradients, hessians, exits, inside


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
    if not isinstance(nodes, (int, np.integer)):
        raise GeometryError(f"nodes must be an integer, got {nodes!r}")
    if nodes < MIN_NODES:
        raise GeometryError(f"need at least {MIN_NODES} quadrature nodes, got {nodes}")
    theta = uniform_grid(nodes)
    value = float(np.mean(smooth_density(profile, theta)) * 2.0 * np.pi)
    return Perimeter2Result(value, "directed", "quadrature", node_count=int(nodes))


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
