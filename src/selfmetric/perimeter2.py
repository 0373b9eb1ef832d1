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
)

MIN_NODES = 64  # coarsest admissible quadrature grid


@dataclass
class Perimeter2Result:
    value: float
    variant: str          # "directed" or "busemann"
    method: str           # "polygon-exact", "quadrature" or "closed-form"
    node_count: int | None = None


def _polygon_ray_lengths(poly, center, directions):
    """Exit distances from center along each unit direction (vectorized halfplane min)."""
    p = np.asarray(center, dtype=float)
    # an infinite center makes 0 * inf = NaN slacks; "not > 0" rejects those too
    with np.errstate(divide="ignore", invalid="ignore"):
        num = poly.offsets - poly.normals @ p
        if not np.min(num) > 0.0:
            raise NotInteriorError("center is not strictly inside the polygon")
        den = directions @ poly.normals.T          # (ndir, nedges)
        t = np.where(den > 0.0, num[None, :] / den, np.inf)
    return np.min(t, axis=1)


def self_perimeter_polygon(poly, center):
    """Directed self-perimeter of a polygon about an interior center.

    Sums edge_length / ray_radius over the edges, with the ray cast parallel
    to each edge in the CCW tangent direction.
    """
    if not isinstance(poly, Polygon2):
        raise TypeError("self_perimeter_polygon expects a Polygon2")
    radii = _polygon_ray_lengths(poly, center, poly.tangents)
    value = float(np.sum(poly.edge_lengths / radii))
    return Perimeter2Result(value, "directed", "polygon-exact")


def busemann_perimeter_polygon(poly, center):
    """Busemann self-perimeter: each edge divided by half its parallel chord."""
    if not isinstance(poly, Polygon2):
        raise TypeError("busemann_perimeter_polygon expects a Polygon2")
    fwd = _polygon_ray_lengths(poly, center, poly.tangents)
    bwd = _polygon_ray_lengths(poly, center, -poly.tangents)
    value = float(np.sum(2.0 * poly.edge_lengths / (fwd + bwd)))
    return Perimeter2Result(value, "busemann", "polygon-exact")


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
    theta = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    value = float(np.mean(smooth_density(profile, theta)) * 2.0 * np.pi)
    return Perimeter2Result(value, "directed", "quadrature", node_count=nodes)


def kgon_self_perimeter(k):
    """Closed-form self-perimeter of the regular k-gon (split by k mod 4).

    All three branches converge to 2*pi from their own side; the square gives
    the extreme value 8 and the regular hexagon the extreme value 6.
    """
    k = int(k)
    if k < 3:
        raise GeometryError("regular polygons need k >= 3")
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
