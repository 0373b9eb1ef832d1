"""Convex-body primitives: polygons, Fourier radius profiles, V-represented polytopes.

Everything downstream (perimeters, self-volumes, center optimization, the inverse
problem) is built on the handful of operations defined here: edge frames, facet
data, central hyperplane sections and Fourier evaluation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from typing import NamedTuple

import numpy as np

REL_TOL = 1e-9        # relative tolerance for collinearity / degeneracy decisions
COPLANAR_TOL = 1e-8   # hull pieces whose unit normals agree this closely form one facet
# largest aspect scale / min h_F of a scan-built polygon whose chords take its
# gauge: the facet rows carry about eps * aspect relative, so up to 16 a gauge
# chord stays within 1e-14 of the crossing chord (measured: 1.4e-15)
_GAUGE_ASPECT = 16.0
PROFILE_GRID = 2048   # dense grid used to validate radius profiles
MAX_PLANAR = 1e150    # largest |coordinate| of a polygon: its squares and areas stay finite
MIN_PLANAR = 1e-150   # least largest |coordinate| of a polygon: its squares stay normal
# angle chunk of the dense Fourier sum. Keep it at 256: its bits depend on how BLAS
# blocks the gemv, and 64-, 37- or 1-row blocks moved some bit in each of 300
# random cases (up to 700 angles, max |k| up to 200)
_EVAL_CHUNK = 256
# angle chunk of the NUFFT gather: each (chunk, 2w) float64 temporary is then
# 256 * 32 * 8 bytes = 64 KiB, which the allocator reuses where 1024 rows (256 KiB)
# came back as fresh pages on every call; each angle's sum is its own row, so the
# output does not depend on the chunk
_GATHER_CHUNK = 256
NUFFT_HALF_WIDTH = 16  # w: the NUFFT gathers 2w fine-grid values per angle
_TWO_PI_LO = 2.4492935982947064e-16   # 2 pi - float(2 pi)
# The NUFFT runs when the dense term count exceeds this many times its own
# operation count. Timed on 2-vCPU x86_64 (BENCH_7.json): above 0.4 the dense
# path won only at 16 or 64 angles, by under 0.04 ms; below it the winner
# varied, and the dense path keeps its exact values there
NUFFT_CROSSOVER = 0.4


def ConvexHull(points):
    """qhull's hull of points for PolytopeN(vertices) in d >= 3, scipy.spatial imported
    on first use.

    Planar bodies, 2-D PolytopeN(vertices) included, go through _hull_scan, so scipy
    loads only for a body of three or more dimensions. A qhull failure is a
    GeometryError with qhull's first line (the rest holds a run-id that differs per
    call). Every qhull hull goes through this global.
    """
    from scipy.spatial import ConvexHull as qhull, QhullError
    try:
        return qhull(points)
    except QhullError as exc:
        raise GeometryError("degenerate polytope (no full-dimensional hull): "
                            + str(exc).splitlines()[0]) from exc


@functools.lru_cache(maxsize=16)
def uniform_grid(n):
    """The n angles 2 pi j / n, j = 0..n-1: the grid fourier_eval sums by one FFT.

    Each n's grid is built once, by np.linspace, and every call returns that one
    read-only array (_frozen), which fourier_eval recognises by identity.
    """
    return _frozen(np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))


def fourier_eval(theta, ks, coeffs):
    """Evaluate sum_k c_k exp(i k theta) for integer harmonics ks.

    Returns the real part (the whole sum when c_{-k} = conj(c_k)). Scalar
    input gives a scalar back. Four paths give the same values:

    - dense: exp(1j * outer(theta, ks)) @ coeffs, chunked over theta to bound
      the outer-product temporary;
    - a type-2 non-uniform FFT with a Gaussian kernel (Dutt & Rokhlin, SIAM
      J. Sci. Comput. 14, 1993; Greengard & Lee, SIAM Rev. 46, 2004), see
      `_nufft_type2`. It agrees with the dense sum within 1e-12 * sum |c_k|
      (measured: within 4.2e-14 * sum |c_k| for theta in [0, 2 pi), max |k|
      up to 2047 and up to 8192 angles). At large |theta| both paths lose
      digits to the rounding of theta; the NUFFT reduces theta mod 2 pi in
      two parts and stays the closer of the two to the exact sum;
    - Horner's rule in z = exp(i theta) over the spectrum folded onto k >= 0,
      see `_horner`: max |k| complex multiply-adds per angle (measured:
      within 8.8e-15 * sum |c_k| of the dense sum for theta in [0, 2 pi) and
      1.5e-14 * sum |c_k| in [-10, 10], for c_k, i k c_k and -k^2 c_k, max |k|
      up to 4w = 64 and up to 8192 angles);
    - the exact grid path: where theta equals uniform_grid(n) bit for bit,
      the sums at the exact angles 2 pi j / n are one inverse DFT of the
      coefficients folded mod n (aliasing included), with no kernel. For
      max |k| up to 2047 and n from 512 to 8192 it was measured within
      2.7e-14 * sum |c_k| of those sums, and within 2.9e-13 * sum |c_k| of
      the dense sum, whose rounded angles account for the difference.

    The dense path runs unless the dense term count len(theta) * len(ks)
    exceeds NUFFT_CROSSOVER times fine * log2(fine) + 2w * len(theta), fine
    being the NUFFT's oversampled grid. Few harmonics or few angles, and
    sparse spectra with far harmonics, stay on it and keep its exact values.
    Above the crossover the grid path takes theta = uniform_grid(n), the
    cached array itself or an equal one; every other angle set, a shifted
    grid included, goes to Horner's rule when max |k| <= 4w, twice the
    NUFFT's gather width per angle, and to the NUFFT otherwise. (At max |k|
    = 64 Horner's rule took 0.4-0.8 of the NUFFT's time from 512 angles up,
    and 1.0-1.1 of it at 256 angles, on 2-vCPU x86_64.) Below the crossover
    the grid path also takes uniform_grid(n) when some |k| >= n / 2, where
    folding k mod n keeps the phase that k * theta in floating point loses.
    """
    th = np.asarray(theta, dtype=float)
    flat = np.atleast_1d(th).ravel()
    ks = np.asarray(ks)
    k_max = int(np.max(np.abs(ks), initial=0))
    modes = 2 * k_max + 1
    fine = 1 << (2 * modes - 1).bit_length()   # the power of two >= 2 * modes
    nufft_ops = fine * math.log2(fine) + 2 * NUFFT_HALF_WIDTH * len(flat)
    n = len(flat)
    dense = n * len(ks) <= NUFFT_CROSSOVER * nufft_ops
    if n and (not dense or modes > n) and (th is uniform_grid(n)
                                           or np.array_equal(flat, uniform_grid(n))):
        spec = np.zeros(n, dtype=complex)
        np.add.at(spec, ks % n, coeffs)
        out = np.fft.ifft(spec, norm="forward").real
    elif not dense and k_max <= 4 * NUFFT_HALF_WIDTH:
        out = _horner(flat, ks, coeffs)
    elif not dense:
        out = _nufft_type2(flat, ks, coeffs, modes, fine)
    else:
        out = np.empty(flat.shape, dtype=complex)
        with np.errstate(invalid="ignore"):   # an infinite angle gives NaN, as on the NUFFT path
            for lo in range(0, len(flat), _EVAL_CHUNK):
                blk = flat[lo:lo + _EVAL_CHUNK]
                out[lo:lo + _EVAL_CHUNK] = np.exp(1j * np.outer(blk, ks)) @ coeffs
        out = out.real
    res = out.reshape(np.shape(th))
    return float(res) if np.isscalar(theta) else res


def _horner(theta, ks, coeffs):
    """Real part of sum_k c_k exp(i k theta) by one Horner pass in z = exp(i theta).

    On |z| = 1, Re c_k z^k = Re conj(c_k) z^-k, so the spectrum folds onto
    d_|k| += c_k (conj(c_k) for k < 0) and the sum is Re sum_{k >= 0} d_k z^k:
    K = max |k| complex multiply-adds per angle, within gamma_2K * sum |c_k|
    (Higham, Accuracy and Stability of Numerical Algorithms, 5.1) plus the
    rounding of theta. Non-finite angles give NaN.
    """
    folded = np.abs(ks)
    d = np.zeros(int(np.max(folded)) + 1, dtype=complex)
    np.add.at(d, folded, np.where(ks >= 0, coeffs, np.conj(coeffs)))
    finite = np.isfinite(theta)
    z = np.exp(1j * np.where(finite, theta, 0.0))
    acc = np.full(len(theta), d[-1])
    for dk in d[-2::-1]:
        acc *= z
        acc += dk
    out = acc.real
    out[~finite] = np.nan
    return out


def _nufft_type2(theta, ks, coeffs, modes, fine):
    """Real part of sum_k c_k exp(i k theta) by a Gaussian-kernel type-2 NUFFT.

    With the periodic Gaussian g(x) = sum_l exp(-(x - 2 pi l)^2 / (4 tau)),
    whose Fourier coefficients are sqrt(tau / pi) exp(-k^2 tau): deconvolve
    c_k by them, take one inverse FFT onto `fine` equispaced nodes x_m, and
    gather f(theta) = sum_m v_m g(theta - x_m) over the 2w nodes nearest to
    theta mod 2 pi. tau is Greengard & Lee's choice for M = 2 max|k| + 1
    modes at oversampling R = fine / M, which balances the kernel's
    truncation at w nodes against aliasing. Non-finite angles give NaN.
    """
    w = NUFFT_HALF_WIDTH
    ratio = fine / modes
    tau = math.pi * w / (modes ** 2 * ratio * (ratio - 0.5))
    spec = np.zeros(fine, dtype=complex)
    deconvolve = math.sqrt(math.pi / tau) * np.exp(tau * ks.astype(float) ** 2)
    np.add.at(spec, ks % fine, coeffs * deconvolve)
    # the kernel is real, so the real part of the sum needs only the real part of v
    grid = np.fft.ifft(spec).real
    finite = np.isfinite(theta)
    # theta - 2 pi n in two parts (Cody & Waite), then in grid steps
    turns, rest = np.divmod(np.where(finite, theta, 0.0), 2.0 * math.pi)
    pos = (rest - turns * _TWO_PI_LO) * (fine / (2.0 * math.pi))
    offsets = np.arange(1 - w, w + 1)
    decay = (2.0 * math.pi / fine) ** 2 / (4.0 * tau)   # exp(-d^2 / 4 tau), d in grid steps
    out = np.empty(len(theta))
    for lo in range(0, len(theta), _GATHER_CHUNK):
        p = pos[lo:lo + _GATHER_CHUNK]
        nodes = np.floor(p).astype(np.int64)[:, None] + offsets
        dist = p[:, None] - nodes
        out[lo:lo + _GATHER_CHUNK] = np.einsum("ij,ij->i", grid[nodes & (fine - 1)],
                                               np.exp(-decay * dist * dist))
    out[~finite] = np.nan
    return out


class GeometryError(ValueError):
    """Invalid geometric input."""


class NotInteriorError(GeometryError):
    """A point required to lie strictly inside a body does not."""


class DegenerateSectionError(GeometryError):
    """A central section collapsed below full dimension."""


# ---------------------------------------------------------------------------
# conjugate-symmetric coefficients, shared by RadiusProfile and FourierDensity


def _conjugate_symmetric(ks, coeffs, error, scale_floor):
    """Integer ks and complex coeffs as 1d arrays, sorted by k, with c_{-k} = conj(c_k).

    The tolerance is 1e-12 * max(scale_floor, max |c_k|); a violation, a
    repeated k, mismatched shapes or a non-finite coefficient raises `error`,
    which names the first offending k in sorted order. Returns the sorted
    (ks, coeffs).
    """
    ks = np.asarray(ks, dtype=int)
    coeffs = np.asarray(coeffs, dtype=complex)
    if ks.ndim != 1 or ks.shape != coeffs.shape:
        raise error("ks and coeffs must be 1d arrays of equal length")
    order = np.argsort(ks)
    ks, coeffs = ks[order], coeffs[order]
    if np.any(ks[1:] == ks[:-1]):
        raise error("duplicate harmonic index")
    if not np.all(np.isfinite(coeffs)):
        raise error("coefficients must be finite")
    tol = 1e-12 * max(scale_floor, float(np.max(np.abs(coeffs), initial=0.0)))
    # the slot of -k in the sorted ks, clipped where -k exceeds every k
    mate = np.minimum(np.searchsorted(ks, -ks), len(ks) - 1)
    bad = (ks[mate] != -ks) | (np.abs(np.conj(coeffs) - coeffs[mate]) > tol)
    if np.any(bad):
        raise error(f"coefficients are not conjugate-symmetric at k={ks[np.argmax(bad)]}")
    return ks, coeffs


def _count(value, name, least):
    """value as an int >= least, or a GeometryError naming name and least. Only
    integers pass (operator.index: Python and numpy integers, no float)."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise GeometryError(f"{name} must be an integer >= {least}, got {value!r}")
    return n


def _mirrored_pairs(pairs):
    """(ks, coeffs) from [(k, re, im), ...], adding conj(c_k) at -k wherever -k is missing."""
    ks = np.array([int(k) for k, _, _ in pairs], dtype=int)
    coeffs = np.array([complex(re, im) for _, re, im in pairs], dtype=complex)
    lone = ~np.isin(-ks, ks)
    return np.append(ks, -ks[lone]), np.append(coeffs, np.conj(coeffs[lone]))


# ---------------------------------------------------------------------------
# bodies


def _hull_scan(points):
    """Indices of the CCW hull vertices of (k, 2) points around an interior origin.

    One pass of Graham's scan (Inf. Process. Lett. 1, 1972) over the points
    sorted by angle about the origin, from the farthest point, which is a
    vertex. A point where the boundary turns by at most COPLANAR_TOL (sine
    of the turn) is dropped, so reflex, collinear and repeated points go.
    Fewer than three vertices is a GeometryError. The points are first scaled
    by a power of two, exactly, so that no square below overflows or underflows.
    """
    points = np.ldexp(points, -math.frexp(float(np.abs(points).max()))[1])
    order = np.arctan2(points[:, 1], points[:, 0]).argsort(kind="stable")
    xs, ys = points.take(order, axis=0).T.tolist()
    squares = [x * x + y * y for x, y in zip(xs, ys)]
    start = squares.index(max(squares))
    tol2 = COPLANAR_TOL ** 2
    hull = []
    for i in [*range(start, len(xs)), *range(start + 1)]:
        px, py = xs[i], ys[i]
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            ux, uy = xs[b] - xs[a], ys[b] - ys[a]
            wx, wy = px - xs[b], py - ys[b]
            turn = ux * wy - uy * wx
            if turn > 0.0 and turn * turn > tol2 * (ux * ux + uy * uy) * (wx * wx + wy * wy):
                break
            hull.pop()
        hull.append(i)
    hull.pop()   # the start, visited again to close the boundary
    if len(hull) < 3:
        raise GeometryError("degenerate polygon: the points are collinear")
    return order.take(hull)


@functools.lru_cache(maxsize=256)
def _cycle(m):
    """The edges of an m-gon, (i, i + 1 mod m), as a read-only (m, 2) array, with
    the read-only array of their second ends; shared by every m-gon."""
    edges = (np.arange(1, 2 * m + 1) // 2).reshape(m, 2)
    edges[-1, 1] = 0
    nxt = edges[:, 1].copy()
    edges.flags.writeable = nxt.flags.writeable = False
    return edges, nxt


def _planar_points(points):
    """points as a new finite float (k, 2) array with k >= 3 whose largest |coordinate|
    lies in [MIN_PLANAR, MAX_PLANAR], or a GeometryError naming the shape or the
    magnitude."""
    v = np.array(points, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3 or not np.all(np.isfinite(v)):
        raise GeometryError(f"expected finite (k, 2) points, k >= 3, got shape {v.shape}")
    big = float(np.abs(v).max())
    if big > MAX_PLANAR:
        raise GeometryError(f"coordinates of magnitude {big:.3g} exceed {MAX_PLANAR:g}")
    if big < MIN_PLANAR:
        raise GeometryError(f"coordinates of magnitude {big:.3g} fall below {MIN_PLANAR:g}")
    return v


def _point(point, dim):
    """point as a float ndarray of shape (dim,); GeometryError naming any other shape."""
    p = np.asarray(point, dtype=float)
    if p.shape != (dim,):
        raise GeometryError(f"point must have shape ({dim},), got {p.shape}")
    return p


def _slack(normals, offsets, points):
    """Slacks h - nu.p of the facet rows at a point (d,), or at each row of points (R, d).

    numpy runs the stacked product as one gemv per point, as for one point (a 2-D
    points @ normals.T would run gemm, which fuses multiply-adds differently), so
    a point's slacks keep their bits in any stack. Callers hold the np.errstate
    that a point outside, or not finite, needs."""
    return offsets - (normals @ points[..., None])[..., 0]


def _exit_cosines(cosines):
    """cosines with every entry <= 0 set to +0.0, in place, as _exits reads them."""
    cosines[cosines <= 0.0] = 0.0
    return cosines


def _exits(slack, cosines):
    """(radius, exit facet, its slack), each (R, c), of rays from points with facet slacks
    slack (R, m) along directions with _exit_cosines (c, m): the least slack / cosine,
    the first on a tie. A positive slack over a +0.0 cosine is +inf, so no ray exits
    through a facet it does not move towards; callers hold the np.errstate."""
    t = slack[:, None, :] / cosines
    exits = t.argmin(axis=2)
    rows = np.arange(len(slack))[:, None]
    return t[rows, np.arange(len(cosines)), exits], exits, slack[rows, exits]


def _centroid(xs, ys, e):
    """Centroid [x, y] of the CCW polygon (xs, ys), summed over the fan of
    triangles at its first vertex relative to it; None unless its area is positive.

    The differences from the first vertex are scaled by 2**-e, exactly, for a
    cell that is a part of a polygon of scale about 2**e: the sums hold cubes of
    them, which would overflow from about 1e102 and underflow below about 1e-102."""
    if len(xs) < 3:
        return None
    x0, y0 = xs[0], ys[0]
    down, up = math.ldexp(1.0, -e), math.ldexp(1.0, e)
    px, py = (xs[1] - x0) * down, (ys[1] - y0) * down
    area = mx = my = 0.0
    for x, y in zip(xs[2:], ys[2:]):
        dx, dy = (x - x0) * down, (y - y0) * down
        c = px * dy - py * dx          # twice the area of the fan triangle
        area += c
        mx += c * (px + dx)
        my += c * (py + dy)
        px, py = dx, dy
    if not area > 0.0:
        return None
    return [x0 + mx / (3.0 * area) * up, y0 + my / (3.0 * area) * up]


def _frozen(rows):
    """rows as a read-only array: an ndarray is frozen in place, never copied."""
    a = np.asarray(rows)
    a.setflags(write=False)
    return a


class _ReadOnly:
    """A value checked once, when it is built: its builder binds every attribute
    through self.__dict__.update, each array by _frozen, so no later write can
    leave a check or a derived attribute stale."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: {name!r} cannot be set")


class Polygon2(_ReadOnly):
    """Strictly convex polygon with vertices in counterclockwise order.

    Precomputes the edge frame (unit tangents, outward unit normals, offsets)
    so that ray casting reduces to a vectorized halfplane intersection, and
    the exit cosines of the perimeter's ray casts, shape (2k, k) for k edges:
    row i < k is n_j . t_i against every edge normal n_j, for the ray along the
    edge tangent t_i; row k + i is n_j . (-t_i), for the reversed ray; as
    _exits reads them, every cosine <= 0 is +0.0. A polygon is read-only
    (_ReadOnly), its arrays built from a copy of the caller's vertices.
    """

    def __init__(self, vertices):
        v = _planar_points(vertices)
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(edges, axis=1)
        if np.any(lengths == 0.0):
            raise GeometryError("polygon has a repeated vertex")
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        floor = REL_TOL * lengths * np.roll(lengths, -1)
        if np.all(cross < 0.0):
            raise GeometryError("vertices are clockwise; counterclockwise order is required")
        if np.any(cross <= floor):
            raise GeometryError("polygon is not strictly convex (reflex or collinear vertex)")
        tangents = edges / lengths[:, None]
        # outward normal of a CCW edge is the tangent rotated -90 degrees
        normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
        cosines = tangents @ normals.T
        self.__dict__.update(
            vertices=_frozen(v), edges=_frozen(edges), edge_lengths=_frozen(lengths),
            tangents=_frozen(tangents), normals=_frozen(normals),
            offsets=_frozen(np.einsum("ij,ij->i", normals, v)),
            scale=float(np.max(np.linalg.norm(v, axis=1))),
            exit_cosines=_frozen(_exit_cosines(np.vstack([cosines, -cosines]))))

    def __len__(self):
        return len(self.vertices)

    @classmethod
    def from_hull(cls, points):
        """The CCW hull of a (k, 2) point cloud by _hull_scan about the mean, which is
        inside the hull of points spanning the plane; turns within COPLANAR_TOL go."""
        pts = _planar_points(points)
        return cls(pts.take(_hull_scan(pts - pts.mean(axis=0)), axis=0))

    @property
    def area(self):
        """Area, summed over the fan of triangles at vertex 0 relative to it."""
        v = self.vertices
        d1, d2 = v[1:-1] - v[0], v[2:] - v[0]
        return 0.5 * float(np.sum(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]))

    @property
    def centroid(self):
        """Area centroid, strictly interior for a convex polygon: _centroid of the vertices."""
        return np.array(_centroid(*self.vertices.T.tolist(), math.frexp(self.scale)[1]))

    def interior_distance(self, point):
        """Smallest slack over the edge halfplanes; positive iff strictly interior, NaN if
        the point is not finite."""
        with np.errstate(invalid="ignore"):
            return float(np.min(_slack(self.normals, self.offsets, _point(point, 2))))

    def contains(self, point):
        return self.interior_distance(point) > 0.0


class RadiusProfile(_ReadOnly):
    """Star-shaped body given by a truncated Fourier series of its radial function.

    r(theta) = sum_k c_k exp(i k theta) with c_{-k} = conj(c_k), so r is real.
    Derivatives are evaluated analytically from the coefficients; finite
    differences are never used. Positivity of r is enforced on a dense grid at
    construction; the convexity margin r^2 + 2 r'^2 - r r'' is advisory only
    (a warning), because near-limit shapes fail it by harmless amounts. Both
    checks sample PROFILE_GRID nodes, so a profile with a harmonic |k| >=
    PROFILE_GRID / 2 that passes them gets a warning that they cannot resolve it.
    """

    def __init__(self, ks, coeffs, check=True):
        ks, coeffs = _conjugate_symmetric(ks, coeffs, GeometryError, scale_floor=0.0)
        self.__dict__.update(ks=_frozen(ks), coeffs=_frozen(coeffs))
        if not np.any(self.coeffs):
            raise GeometryError("radius profile has no nonzero coefficient")
        if check:
            r = self(uniform_grid(PROFILE_GRID))
            if np.min(r) <= 0.0:
                raise GeometryError("radius profile is not strictly positive")
            margin = self.convexity_margin()
            k_max = int(np.max(np.abs(self.ks)))
            if margin < -REL_TOL * float(np.max(r)) ** 2:
                warnings.warn(f"radius profile fails the convexity check (margin {margin:.3e})",
                              stacklevel=2)
            elif k_max >= PROFILE_GRID // 2:
                # a harmonic at or past the grid's Nyquist index aliases there,
                # so passing on the nodes says nothing about the profile between them
                warnings.warn(f"the {PROFILE_GRID}-node validity check cannot resolve harmonic "
                              f"|k| = {k_max} (it resolves |k| < {PROFILE_GRID // 2})",
                              stacklevel=2)

    @classmethod
    def from_coeff_pairs(cls, pairs):
        """Build from [(k, re, im), ...]; missing negative harmonics are mirrored."""
        return cls(*_mirrored_pairs(pairs))

    @classmethod
    def from_samples(cls, values, k_max, **kwargs):
        """Project uniform-grid samples of r onto harmonics |k| <= k_max by FFT."""
        values = np.asarray(values, dtype=float)
        n = len(values)
        if _count(k_max, "k_max", 0) >= n // 2:
            raise GeometryError(f"k_max={k_max} needs more than {2 * k_max} samples")
        spec = np.fft.fft(values) / n
        ks = np.arange(-k_max, k_max + 1)
        return cls(ks, spec[ks % n], **kwargs)

    def __call__(self, theta):
        return fourier_eval(theta, self.ks, self.coeffs)

    def derivative(self, theta):
        return fourier_eval(theta, self.ks, 1j * self.ks * self.coeffs)

    def second_derivative(self, theta):
        # in float: int64 k**2 wraps for |k| >= 2**31.5
        return fourier_eval(theta, self.ks, -(self.ks.astype(float) ** 2) * self.coeffs)

    def convexity_margin(self):
        """Min of r^2 + 2 r'^2 - r r'' on PROFILE_GRID nodes; >= 0 if convex."""
        theta = uniform_grid(PROFILE_GRID)
        r = self(theta)
        dr = self.derivative(theta)
        ddr = self.second_derivative(theta)
        return float(np.min(r * r + 2.0 * dr * dr - r * ddr))


class Facet(NamedTuple):
    """One facet of a PolytopeN: unit outward normal, offset and (d-1)-measure."""

    normal: np.ndarray
    offset: float
    measure: float


# the facets of every segment are its two end points, each of 0-measure 1 by
# convention; segments share these read-only rows
_SEGMENT_NORMALS = _frozen([[-1.0], [1.0]])
_SEGMENT_MEASURES = _frozen([1.0, 1.0])
_SEGMENT_EDGES = _frozen([[0, 1]])
_ROTATE_CW = _frozen([1.0, -1.0])   # (y, x) * this = (y, -x): (x, y) turned by -90 degrees
_ROTATE_CCW = _frozen([-1.0, 1.0])  # (y, x) * this = (-y, x): (x, y) turned by +90 degrees


def _unit_rows(u):
    """The rows of u, an (m, d) array, divided by their lengths in one stacked product."""
    return u / np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]


def _row_order(normals):
    """The order of facet rows: by normal rounded to 12 digits, in coordinate order."""
    return np.lexsort(normals.round(12).T[::-1])


def _simplex_measures(vertices, simplices):
    """(d-1)-measure of each hull simplex from the Gram determinant of its edge vectors."""
    span = vertices[simplices[:, 1:]] - vertices[simplices[:, :1]]
    det = np.linalg.det(span @ span.transpose(0, 2, 1))
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(vertices.shape[1] - 1)


def _merge_facets(hull, vertices, simplices):
    """(normals, offsets, measures) of the facets, sorted by rounded normal.

    Neighbouring hull simplices whose plane equations agree to COPLANAR_TOL form one
    facet, with the plane of its lowest simplex and the sum of their measures.
    """
    eqs = hull.equations
    nf = len(simplices)
    i = np.repeat(np.arange(nf), hull.neighbors.shape[1])
    j = hull.neighbors.ravel()
    i, j = i[j > i], j[j > i]
    diff = np.abs(eqs[i] - eqs[j])
    same = ((np.max(diff[:, :-1], axis=1) < COPLANAR_TOL)
            & (diff[:, -1] < COPLANAR_TOL * np.maximum(1.0, np.abs(eqs[i, -1]))))
    i, j = i[same], j[same]
    # label every simplex with the lowest simplex index of its coplanar group
    label = np.arange(nf)
    while not np.array_equal(label[i], label[j]):
        np.minimum.at(label, i, label[j])
        np.minimum.at(label, j, label[i])
    rep = label == np.arange(nf)
    group = (np.cumsum(rep) - 1)[label]
    normals = _unit_rows(eqs[rep, :-1])
    offsets = -eqs[rep, -1]
    measures = np.zeros(len(offsets))
    np.add.at(measures, group, _simplex_measures(vertices, simplices))
    order = _row_order(normals)
    return normals[order], offsets[order], measures[order]


def _qhull_facets(v):
    """(vertices, simplices, normals, offsets, measures, volume) of qhull's hull of (k, d)
    points: the vertices in input order, the simplices as index rows into them.

    Right facet measures meet the cone formula (1/d) sum h_F m_F = volume. Where
    they miss it by more than 1e-6 relative, a kept non-extreme point has made
    the simplices of a facet overlap, and the hull is taken again of the kept
    vertices, until one keeps every point it was given.
    """
    while True:
        hull = ConvexHull(v)
        keep = np.sort(hull.vertices)
        remap = -np.ones(len(v), dtype=int)
        remap[keep] = np.arange(len(keep))
        verts, simplices = v[keep], remap[hull.simplices]
        normals, offsets, measures = _merge_facets(hull, verts, simplices)
        volume = float(hull.volume)
        if len(keep) == len(v) or abs(offsets @ measures / v.shape[1] - volume) <= 1e-6 * volume:
            return verts, simplices, normals, offsets, measures, volume
        v = verts


def _scan_facets(v):
    """(vertices, simplices, normals, offsets, measures, area) of the hull of (k, 2) points
    by _hull_scan about their mean, the simplices being its CCW edges as index pairs.

    The vertices keep the input order. Edge (a, b) takes qhull's row
    (b_y - a_y, a_x - b_x) / sqrt(n_0^2 + n_1^2), the bits of hull.equations,
    and its measure as _merge_facets takes both, so the rows are qhull's bit
    for bit wherever qhull keeps the scan's vertices. The offsets are a . u and
    the area is (1/2) sum h_F L_F with h_F taken about the points' mean.
    """
    centre = v.mean(axis=0)
    try:
        ccw = _hull_scan(v - centre)
    except GeometryError as exc:
        raise GeometryError(f"degenerate polytope (no full-dimensional hull): {exc}") from exc
    keep = np.sort(ccw)
    verts = v[keep]
    first = keep.searchsorted(ccw)
    simplices = np.column_stack([first, np.roll(first, -1)])
    a, b = verts[simplices[:, 0]], verts[simplices[:, 1]]
    n0, n1 = b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]
    norm = np.sqrt(n0 * n0 + n1 * n1)
    normals = _unit_rows(np.column_stack([n0 / norm, n1 / norm]))
    na, nc = normals * a, normals * (a - centre)
    offsets = na[:, 0] + na[:, 1]
    measures = _simplex_measures(verts, simplices)
    # summed about the centre, which is inside: about an origin far outside,
    # the terms h_F L_F cancel
    area = 0.5 * float((nc[:, 0] + nc[:, 1]) @ measures)
    order = _row_order(normals)
    return verts, simplices, normals[order], offsets[order], measures[order], area


class PolytopeN(_ReadOnly):
    """Convex polytope in R^d from its vertices; facets derived by convex hull.

    The vertex array is the single source of truth. Construction prunes
    non-extreme points, merges coplanar hull simplices into true facets and
    records a segment graph (hull simplex edges, a superset of the 1-skeleton)
    used for hyperplane crossing enumeration. In 2-D the hull is _hull_scan's,
    with qhull's facet rows (_scan_facets); from 3-D on it is qhull's.
    facet_normals (m, d), facet_offsets and facet_measures are row-aligned
    arrays; facets lists the rows as Facets. A body is read-only (_ReadOnly): every
    builder binds all its attributes through _bind, as read-only arrays (never
    the caller's), so neither the origin test, cached on first use, nor the polar
    rows of _polygon's polygons can go stale.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or len(v) < 2:
            raise GeometryError(f"expected an (m, d) vertex array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise GeometryError("polytope vertices must be finite")
        if v.shape[1] == 1:
            self._bind(**vars(self._segment(float(np.min(v)), float(np.max(v)))))
            return
        dim = int(v.shape[1])
        if len(v) < dim + 1:
            raise GeometryError(f"need at least {dim + 1} vertices in dimension {dim}")
        # the largest |coordinate| M within 10^(+-150 / (d - 1)) keeps a facet's
        # Gram determinant, about M^(2(d - 1)), within 1e+-300, and qhull in range
        big = float(np.abs(v).max())
        e = 150.0 / (dim - 1)
        if not 10.0 ** -e <= big <= 10.0 ** e:
            raise GeometryError(f"coordinates of magnitude {big:.3g} lie outside "
                                f"[{10.0 ** -e:.3g}, {10.0 ** e:.3g}], the range of a "
                                f"{dim}-D polytope")
        verts, simplices, normals, offsets, measures, volume = \
            (_scan_facets if dim == 2 else _qhull_facets)(v)
        # every vertex pair of every simplex, each once, in lexicographic order
        n = len(verts)
        ends = np.sort(simplices, axis=1)
        a, b = np.array(list(itertools.combinations(range(dim), 2))).T
        # np.sort and an adjacent-difference mask: np.unique imports numpy.ma
        codes = np.sort(ends[:, a] * n + ends[:, b], axis=None)
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
        edges = np.column_stack([codes // n, codes % n])
        scale = float(np.max(np.linalg.norm(verts, axis=1)))
        self._bind(dim, *map(_frozen, (verts, normals, offsets, measures, edges)), volume, scale)

    def _bind(self, dim, vertices, facet_normals, facet_offsets, facet_measures, edges,
              volume, scale, _polar=None):
        """Bind all nine attributes of a new body and return it: the only code that sets
        one. Arrays come read-only; _polar holds a gauge polygon's rows u_F / h_F."""
        self.__dict__.update(dim=dim, vertices=vertices, facet_normals=facet_normals,
                             facet_offsets=facet_offsets, facet_measures=facet_measures,
                             edges=edges, volume=volume, scale=scale, _polar=_polar)
        return self

    @classmethod
    def _segment(cls, lo, hi):
        """The segment [lo, hi], without the generic constructor; degenerate unless
        hi - lo exceeds REL_TOL times its larger end, a scale-invariant test."""
        ends, length = max(abs(lo), abs(hi)), hi - lo
        if length <= REL_TOL * ends:
            raise GeometryError("1d polytope is degenerate")
        # the vertices lo, hi and offsets -lo, hi share one buffer: one flag per chord
        rows = np.array([lo, hi, -lo, hi])
        rows.setflags(write=False)
        return cls.__new__(cls)._bind(1, rows[:2, None], _SEGMENT_NORMALS, rows[2:],
                                      _SEGMENT_MEASURES, _SEGMENT_EDGES, length, ends)

    @classmethod
    def _polygon(cls, points):
        """Polygon hull of (k, 2) points around an interior origin, by _hull_scan.

        Edges that _merge_facets would merge come out as one. Facet rows are
        ordered as in _merge_facets; the area is (1/2) sum h_F L_F. When its
        aspect scale / min h_F is at most _GAUGE_ASPECT, the polygon also keeps
        its polar rows u_F / h_F, from which central_section cuts its chords.
        """
        verts = _frozen(points.take(_hull_scan(points), axis=0))
        edges, nxt = _cycle(len(verts))
        e = verts.take(nxt, axis=0) - verts
        lengths = np.hypot(e[:, 0], e[:, 1])
        # outward normal of a CCW edge is its direction rotated -90 degrees
        normals = e[:, ::-1] * _ROTATE_CW / lengths[:, None]
        nv = normals * verts
        offsets = nv[:, 0] + nv[:, 1]
        rows = _row_order(normals)
        u, h, m = map(_frozen, (normals.take(rows, axis=0), offsets.take(rows),
                                lengths.take(rows)))
        xs, ys = verts.T.tolist()
        scale = math.sqrt(max([x * x + y * y for x, y in zip(xs, ys)]))
        polar = None
        if scale <= _GAUGE_ASPECT * min(offsets.tolist()):
            # each h_F > scale / _GAUGE_ASPECT > 0
            polar = _frozen(u / h[:, None])
        return cls.__new__(cls)._bind(2, verts, u, h, m, edges, 0.5 * float(offsets @ lengths),
                                      scale, polar)

    @property
    def facets(self):
        """The facet rows as a list of Facets, built on each access."""
        return list(map(Facet, self.facet_normals, self.facet_offsets.tolist(),
                        self.facet_measures.tolist()))

    def origin_interior(self):
        """Whether every facet lies beyond REL_TOL * scale from the origin."""
        return self._origin_inside

    @functools.cached_property
    def _origin_inside(self):
        # computed on first use, once per polytope: a body's facet rows are read-only
        return float(np.min(self.facet_offsets)) > REL_TOL * self.scale

    def interior_distance(self, point):
        """Smallest slack over the facet halfspaces; NaN for a non-finite point."""
        p = _point(point, self.dim)
        with np.errstate(invalid="ignore"):
            return float(np.min(_slack(self.facet_normals, self.facet_offsets, p)))


class BarycentricPoint(_ReadOnly):
    """Interior point of a simplex by barycentric weights: positive, summing to one."""

    def __init__(self, weights):
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or len(w) < 2:
            raise GeometryError("barycentric weights must be a 1d array of length >= 2")
        if not np.all(np.isfinite(w)):
            raise GeometryError("barycentric weights must be finite")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise GeometryError(f"barycentric weights sum to {np.sum(w)!r}, expected 1")
        if np.any(w <= 0.0):
            raise GeometryError("barycentric weights must be strictly positive (interior point)")
        self.__dict__.update(weights=_frozen(w))

    def cartesian(self, simplex_vertices):
        return self.weights @ np.asarray(simplex_vertices, dtype=float)


# ---------------------------------------------------------------------------
# sections


def _unit(direction, dim):
    """direction / |direction| for a nonzero finite vector of shape (dim,).

    The norm is sqrt(v . v), as np.linalg.norm computes it. Only a vector whose
    v . v would underflow to 0 or overflow is first divided by max |v|, so every
    direction with a representable v . v keeps its bits.
    """
    v = np.asarray(direction, dtype=float)
    if v.shape != (dim,):
        raise GeometryError(f"direction must have shape ({dim},), got {v.shape}")
    # components below 1e150 cannot overflow v . v; larger ones are checked
    # without numpy's overflow warning
    if max(map(abs, v.tolist())) < 1e150:
        n = math.sqrt(v.dot(v))
    else:
        with np.errstate(over="ignore"):
            n = math.sqrt(v.dot(v))
    if not 0.0 < n < math.inf:   # zero, underflow, overflow or not finite
        big = float(np.max(np.abs(v)))
        if not 0.0 < big < math.inf:
            raise GeometryError("direction must be a nonzero finite vector")
        v = v / big
        n = math.sqrt(v.dot(v))
    return v / n


def _pivoted_basis(nu):
    """Orthonormal basis of the hyperplane orthogonal to the unit vector nu
    (pivoted Gram-Schmidt), as the columns of a C-ordered (d, d - 1) array.

    nu is normalised once more, then the axes are taken most orthogonal first,
    ties in axis order: w = e_axis - sum_b (e_axis . b) b over nu and the basis
    so far, kept if |w| > 1e-8. The one-hot dot product e_axis . b is b[axis],
    and 0.0 - s equals e_axis - s off the axis, zero signs included.
    """
    nu = nu / math.sqrt(nu.dot(nu))
    d = len(nu)
    basis = []
    # numpy's default sort kind may dispatch to a SIMD sort that does not keep ties
    for axis in np.abs(nu).argsort(kind="stable").tolist():
        s = nu[axis] * nu
        for b in basis:
            s = s + b[axis] * b
        w = 0.0 - s
        w[axis] = 1.0 - s[axis]
        norm = math.sqrt(w.dot(w))
        if norm > 1e-8:
            basis.append(w / norm)
            if len(basis) == d - 1:
                break
    return np.array(basis).T.copy()


def central_section(poly, normal):
    """Intersection of a polytope with the hyperplane through the origin
    orthogonal to normal, returned as a PolytopeN of dimension dim - 1 in an
    orthonormal coordinate frame of the hyperplane (the origin is preserved).

    The section's points are the polytope's vertices on the hyperplane and the
    crossings of its edges, projected on a _pivoted_basis frame. The builder
    depends on the section's dimension: a chord is the segment between the
    extreme projections, a section of a 3-D body is a polygon by angular sort
    about the origin (PolytopeN._polygon, no qhull), and higher sections go
    through the qhull-backed PolytopeN constructor; each binds a read-only body
    through PolytopeN._bind, so the origin test and polar rows a deeper section
    reads are those of the rows it was built with.

    A chord of a polygon built by PolytopeN._polygon whose aspect is at most
    _GAUGE_ASPECT is cut by its gauge ||t|| = max_F t . u_F / h_F instead, t
    the unit normal turned by 90 degrees towards the _pivoted_basis axis: the
    segment [-1 / ||-t||, 1 / ||t||], one matrix-vector product and no frame.
    Only thinner _polygon polygons and 2-D PolytopeN(vertices), which keep no
    polar rows, take the crossings.
    """
    if not isinstance(poly, PolytopeN):
        raise TypeError("central_section expects a PolytopeN")
    d = poly.dim
    if d < 2:
        raise GeometryError("sections need dimension >= 2")
    if not poly.origin_interior():
        raise NotInteriorError("central section needs the origin strictly inside")
    nu = _unit(normal, d)
    if d == 2 and poly._polar is not None:
        # the _pivoted_basis axis is the one of the smaller |nu_i|, the first on
        # a tie, and t's coordinate on it is positive
        x, y = nu.tolist()
        ccw = y < 0.0 if abs(x) <= abs(y) else x > 0.0
        t = nu[::-1] * (_ROTATE_CCW if ccw else _ROTATE_CW)
        r = (poly._polar @ t).tolist()
        return _full_dimensional(PolytopeN._segment, 1.0 / min(r), 1.0 / max(r))
    verts = poly.vertices
    heights = verts @ nu
    tol = REL_TOL * poly.scale
    # +1 above the hyperplane, -1 below, 0 on it; an edge crosses when its
    # two ends lie on opposite sides
    side = np.subtract(heights > tol, heights < -tol, dtype=np.int8)
    ends_side = side.take(poly.edges)
    ends = poly.edges.take((ends_side[:, 0] * ends_side[:, 1] < 0).nonzero()[0], axis=0)
    h = heights.take(ends)
    hi = h[:, 0]
    t = hi / (hi - h[:, 1])
    v = verts.take(ends, axis=0)
    vi = v[:, 0]
    pts = vi + t[:, None] * (v[:, 1] - vi)
    if np.count_nonzero(side) < len(side):   # vertices on the hyperplane
        pts = np.vstack([verts[side == 0], pts])
    if len(pts) < d:
        raise DegenerateSectionError("hyperplane misses the polytope interior")
    pts = pts @ _pivoted_basis(nu)
    if d == 2:
        coords = pts.ravel().tolist()
        return _full_dimensional(PolytopeN._segment, min(coords), max(coords))
    return _full_dimensional(PolytopeN._polygon if d == 3 else PolytopeN, pts)


def _full_dimensional(build, *args):
    """The section build(*args), a GeometryError from it raised as DegenerateSectionError."""
    try:
        return build(*args)
    except GeometryError as exc:
        raise DegenerateSectionError(f"section is not full-dimensional: {exc}") from exc


# ---------------------------------------------------------------------------
# stock shapes


def regular_polygon(k, phase=0.0):
    """Regular k-gon inscribed in the unit circle with a vertex at angle phase."""
    k = _count(k, "k", 3)
    ang = phase + 2.0 * np.pi * np.arange(k) / k
    return Polygon2(np.column_stack([np.cos(ang), np.sin(ang)]))


def cube(n):
    """Hypercube [-1, 1]^n as a PolytopeN."""
    n = _count(n, "n", 1)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=n)), dtype=float)
    return PolytopeN(corners)


def interval(lo=-1.0, hi=1.0):
    return PolytopeN(np.array([[lo], [hi]], dtype=float))


def polygon_as_polytope(poly, center=(0.0, 0.0)):
    """Re-root a Polygon2 at center and return it as a 2d PolytopeN; center must
    also pass the body's origin_interior(), after its scan drops every vertex
    whose turn is at most COPLANAR_TOL."""
    c = np.asarray(center, dtype=float)
    if poly.interior_distance(c) > 0.0:   # NaN for a non-finite center
        body = PolytopeN._polygon(poly.vertices - c)
        if body.origin_interior():
            return body
    raise NotInteriorError("center must be strictly inside the polygon")


def icosphere(subdivisions=2):
    """Geodesic triangulation of the unit sphere: 20 * 4**s facets."""
    subdivisions = _count(subdivisions, "subdivisions", 0)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
             (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
             (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        faces = [tri for a, b, c in faces
                 for tri in ((a, midpoint(a, b), midpoint(a, c)),
                             (b, midpoint(b, c), midpoint(a, b)),
                             (c, midpoint(a, c), midpoint(b, c)),
                             (midpoint(a, b), midpoint(b, c), midpoint(a, c)))]
    return PolytopeN(np.array(verts))
