"""Recursive self-volumes of convex polytopes and their self-surface measures.

The self-volume omega^(k) of a k-dimensional polytope with the origin inside
is defined by recursion over central hyperplane sections:

    omega^(1) = 2 for every segment containing the origin,
    omega^(k) = (1/k) * sum over facets F of
                measure(F) * omega^(k-1)(section(nu_F)) / measure(section(nu_F)),

where section(nu) is the central section orthogonal to the facet normal.
n * omega^(n) generalizes the planar self-perimeter; the value is invariant
under invertible linear maps, multiplicative under Cartesian products, equals
2^n on cubes and (n+1)^n / n! on simplices sectioned at the centroid. The
self-surface measure (SurfaceMeasure) resolves n * omega^(n) per facet; both
measures read the same facet pass, _facet_terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .geometry import (
    BarycentricPoint,
    DegenerateSectionError,
    GeometryError,
    NotInteriorError,
    PolytopeN,
    _count,
    _exit_cosines,
    _exits,
    central_section,
)

ANTIPODE_TOL = 1e-12     # facets with max |u_i + u_j| below this share a section
MAX_DIM = 5              # above it, qhull's simplices of a section's facet can overlap
PRODUCT_VERTEX_GUARD = 100_000


@dataclass
class FacetContribution:
    facet_index: int
    facet_measure: float
    section_measure: float
    section_self_volume: float
    contribution: float   # facet_measure * section_self_volume / section_measure


@dataclass
class SelfVolumeResult:
    value: float
    dim: int
    facet_contributions: list[FacetContribution] = field(default_factory=list)


def _antipodes(u):
    """± representatives of unit facet normals u: facet i maps to the first facet
    j <= i with max |u_i + u_j| < ANTIPODE_TOL, whose central section it shares."""
    # u_i . u_j near -1 preselects the pairs, but cannot decide: normals within
    # about 1.5e-8 of each other tie in the dot product
    i, j = np.nonzero(u @ u.T < ANTIPODE_TOL - 1.0)
    near = (np.abs(u[i] + u[j]) < ANTIPODE_TOL).all(axis=1)
    rep = np.arange(len(u))
    np.minimum.at(rep, i[near], j[near])
    return rep.tolist()


def _facet_terms(poly, chain, rep):
    """Per-facet (section measure, section self-volume, contribution) arrays.

    Facet i reads the central section built for facet rep[i]; one section is
    built per distinct rep, in facet order. chain carries the facet indices
    descended so far, for error reporting.
    """
    sections = {}
    for k in sorted(set(rep)):
        try:
            section = central_section(poly, poly.facet_normals[k])
        except DegenerateSectionError as exc:
            raise DegenerateSectionError(
                f"degenerate section at facet chain {chain + (k,)}: {exc}") from exc
        sections[k] = section.volume, _omega(section, chain + (k,))
    sec_measure, sec_omega = np.array([sections[k] for k in rep]).T
    return sec_measure, sec_omega, poly.facet_measures * sec_omega / sec_measure


def _facet_sum(values):
    """values added in facet order, uncompensated (np.sum is pairwise, and sum()
    compensated from Python 3.12), so a value keeps its bits on every interpreter."""
    return reduce(add, values, 0.0)


def _omega(poly, chain):
    """Self-volume of a polytope with the origin strictly inside."""
    if poly.dim == 1:
        return 2.0
    rep = _antipodes(poly.facet_normals)
    return _facet_sum(_facet_terms(poly, chain, rep)[2].tolist()) / poly.dim


def _check_body(poly, noun):
    """Entry check of both measures: a PolytopeN, at most MAX_DIM-D, origin strictly inside."""
    if not isinstance(poly, PolytopeN):
        raise TypeError(f"{noun} expects a PolytopeN")
    if poly.dim > MAX_DIM:
        raise GeometryError(
            f"dimension {poly.dim} exceeds the section recursion's limit of {MAX_DIM}")
    if not poly.origin_interior():
        raise NotInteriorError(f"{noun} needs the origin strictly inside the polytope")


def self_volume_recursive(poly):
    """Self-volume of a PolytopeN by the central-section recursion.

    Parameters
    ----------
    poly : PolytopeN of dimension at most MAX_DIM with the origin strictly interior.

    Returns
    -------
    SelfVolumeResult with the value and one FacetContribution row per facet
    of the top-level polytope (value = sum of contributions / dim).
    """
    _check_body(poly, "self-volume")
    if poly.dim == 1:
        return SelfVolumeResult(2.0, 1)
    terms = [t.tolist() for t in _facet_terms(poly, (), _antipodes(poly.facet_normals))]
    rows = list(map(FacetContribution, itertools.count(), poly.facet_measures.tolist(), *terms))
    return SelfVolumeResult(_facet_sum(terms[2]) / poly.dim, poly.dim, rows)


@dataclass
class FacetDensityRow:
    """Per-facet slice of the self-surface measure of a polytope."""
    facet_index: int
    normal: np.ndarray
    facet_measure: float
    section_measure: float
    density: float       # self-volume of the central section / its measure
    cell_mass: float     # density * facet measure


class SurfaceMeasure:
    """Self-surface measure of a polytope, resolved per facet.

    The density over the radial projection of facet F to the unit sphere is
    the constant c_F = (self-volume of the central section parallel to F) /
    (measure of that section), times the Jacobian r^{n-1} / <theta, normal>.
    Total mass is dim times the self-volume, behind the self-volume's entry check.
    """

    def __init__(self, poly):
        _check_body(poly, "surface measure")
        if poly.dim < 2:
            raise GeometryError("surface measure needs dimension at least 2")
        # one section per facet, no +-normal memo: on ill-conditioned bodies the
        # two sections of a +-pair differ by rounding, which the mass carries
        normals = poly.facet_normals
        sec_measure, sec_volume, _ = _facet_terms(poly, (), range(len(normals)))
        self._densities = sec_volume / sec_measure
        masses = (self._densities * poly.facet_measures).tolist()
        self.dim = poly.dim
        self.rows = tuple(map(FacetDensityRow, range(len(normals)), normals.copy(),
                              poly.facet_measures.tolist(), sec_measure.tolist(),
                              self._densities.tolist(), masses))
        self.total_mass = _facet_sum(masses)
        self._normals = normals
        self._offsets = poly.facet_offsets

    def evaluate(self, directions):
        """Density at unit directions (m x dim array); rays must leave through a facet."""
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        if dirs.ndim != 2 or dirs.shape[1] != self.dim:
            raise GeometryError(f"directions must have shape (m, {self.dim}), got {dirs.shape}")
        if not np.all(np.isfinite(dirs)):
            raise GeometryError("directions must be finite")
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        # as geometry._unit: only a row whose norm underflows to 0 or overflows
        # is first divided by its max |v|; every other row keeps its bits
        extreme = ~((norms > 0.0) & (norms < np.inf))
        if np.any(extreme):
            big = np.max(np.abs(dirs), axis=1, keepdims=True)
            if np.any(big <= 0.0):
                raise GeometryError("zero direction")
            dirs = np.where(extreme, dirs / big, dirs)
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = dirs / norms
        # the slack at the origin is the offset; at the exit facet the cosine is positive
        den = _exit_cosines(dirs @ self._normals.T)
        with np.errstate(divide="ignore"):
            [r], [hit], _ = _exits(self._offsets[None], den)
        return self._densities[hit] * r ** (self.dim - 1) / den[np.arange(len(dirs)), hit]


def hypercube_self_volume(n):
    """Closed form for the cube [-h, h]^n: exactly 2^n, any h, for n up to 1023,
    the largest whose 2^n is a finite float."""
    n = _count(n, "n", 1)
    if n > 1023:
        raise GeometryError(f"n must be at most 1023 (2^n overflows a float), got {n}")
    return 2.0 ** n


def simplex_self_volume(n, bary):
    """Closed-form self-volume of an n-simplex sectioned at a barycentric point.

    omega = (2/n!) * sum over ordered tuples (k_1, ..., k_{n-1}) of pairwise
    distinct vertex indices of prod_{m=1}^{n-1} 1 / (1 - lambda_{k_1} - ... - lambda_{k_m}).

    The minimum over interior points is (n+1)^n / n!, attained at the centroid.
    """
    n = _count(n, "n", 1)
    if not isinstance(bary, BarycentricPoint):
        bary = BarycentricPoint(bary)
    lam = bary.weights
    if len(lam) != n + 1:
        raise GeometryError(f"need {n + 1} barycentric weights for an {n}-simplex, got {len(lam)}")
    total = 0.0
    for tup in itertools.permutations(range(n + 1), n - 1):
        partial = 0.0
        term = 1.0
        for k in tup:
            partial += lam[k]
            term /= 1.0 - partial
        total += term
    return 2.0 / math.factorial(n) * total


def cartesian_product(p, q):
    """Cartesian product of two polytopes: all concatenated vertex pairs."""
    if not isinstance(p, PolytopeN) or not isinstance(q, PolytopeN):
        raise TypeError("cartesian_product expects two PolytopeN")
    m = len(p.vertices) * len(q.vertices)
    if m > PRODUCT_VERTEX_GUARD:
        raise GeometryError(f"product would have {m} vertices (guard {PRODUCT_VERTEX_GUARD})")
    left = np.repeat(p.vertices, len(q.vertices), axis=0)
    right = np.tile(q.vertices, (len(p.vertices), 1))
    return PolytopeN(np.hstack([left, right]))


def affine_image(poly, matrix):
    """Image of a polytope under an invertible linear map (facets rebuilt)."""
    m = np.asarray(matrix, dtype=float)
    d = poly.dim
    if m.shape != (d, d):
        raise GeometryError(f"matrix must be {d}x{d}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise GeometryError("matrix must be finite")
    u = m / np.maximum(np.max(np.abs(m), axis=0), np.finfo(float).tiny)  # columns at max |u| 1
    if abs(np.linalg.det(u)) <= 1e-12 * np.prod(np.linalg.norm(u, axis=0)):  # Hadamard's bound
        raise GeometryError("matrix is singular within relative tolerance 1e-12")
    return PolytopeN(poly.vertices @ m.T)
