"""Inverse problem for the self-surface measure, perturbatively near the disk.

A smooth origin-star body with radial function r carries the boundary density

    f(theta) = sqrt(r^2 + r'^2) / r(theta + arccot(r'/r)),

whose integral over the circle is the directed self-perimeter. Given a target
density exp(eps * (phi + phi0)) with phi a zero-mean trigonometric polynomial,
the inverse problem asks for r reproducing it. Writing zeta = log r and
expanding in powers of eps**0.5 splits phi into harmonics aligned with the
quarter-turn grid (k in 4Z) and the rest: the aligned part is matched at order
eps**0.5 by a slope field with square-root cusps, the rest at order eps by a
spectral division, and the constant phi0 is pinned by a signed square-root
balance condition.

The order-eps balance forces (3/2) * zeta1'^2 = phi_aligned + phi0 pointwise.
A square cannot be negative, so on the set where phi_aligned + phi0 < 0 the
expansion carries an irreducible order-eps defect: the sup-norm residual of
the reconstruction decays like eps there, and like eps**1.5 on the positive
set (away from the cusps, where the expansion is non-uniform). Both numbers
are reported; see ReconstructionResult.
"""

import warnings
from dataclasses import dataclass

import numpy as np

# central_section, self_volume_recursive and SurfaceMeasure are not used here:
# they stay as module bindings because perfbench/tracing.py patches them in this module
from .geometry import (GeometryError, RadiusProfile, _ReadOnly,  # noqa: F401
                       _conjugate_symmetric, _frozen, _mirrored_pairs, central_section,
                       fourier_eval, uniform_grid)
from .perimeter2 import smooth_density
from .selfvolume import SurfaceMeasure, self_volume_recursive  # noqa: F401

GRID_NODES = 4096        # default circle resolution; divisible by 4
CUSP_GUARD = 2           # grid nodes dropped on each side of a slope-field cusp
K_MAX = 64               # harmonic cutoff of the returned radius profile
BALANCE_TOL = 1e-12      # bisection target for the signed square-root balance
CLOSURE_TOL = 1e-6       # allowed periodicity gap of the integrated slope field

__all__ = [
    "FourierDensity", "Phi0Result", "ReconstructionResult", "FourierDensityError",
    "ClosureError", "circle_grid", "split_harmonics", "sqrt_imbalance", "solve_phi0",
    "leading_order", "second_order", "shift_eigenvalue", "quarter_shift_difference",
    "forward_measure", "reconstruct",
]


class FourierDensityError(ValueError):
    """Invalid density: bad harmonics, broken symmetry, or a missing aligned part."""


class ClosureError(ValueError):
    """Integrated slope field fails to close into a periodic function."""


def circle_grid(nodes):
    """Uniform grid on [0, 2pi), endpoint excluded. nodes must be a multiple of 4."""
    if not isinstance(nodes, (int, np.integer)) or nodes < 8 or nodes % 4 != 0:
        raise ValueError("nodes must be a multiple of 4, at least 8")
    return uniform_grid(nodes)


class FourierDensity(_ReadOnly):
    """Zero-mean real trigonometric polynomial with a perturbation scale.

    Coefficients are indexed by nonzero integer harmonics with
    c_{-k} = conj(c_k); the k = 0 term is excluded by construction (the
    constant shift is solved for, not prescribed). An empty coefficient set is
    the zero density. epsilon >= 0 scales the perturbation.
    """

    def __init__(self, ks, coeffs, epsilon):
        if np.any(np.equal(ks, 0)):
            raise FourierDensityError("k=0 is excluded: the constant shift is not part of the density")
        epsilon = float(epsilon)
        if not np.isfinite(epsilon) or epsilon < 0.0:
            raise FourierDensityError(f"epsilon must be a finite nonnegative number, got {epsilon}")
        ks, coeffs = _conjugate_symmetric(ks, coeffs, FourierDensityError, scale_floor=1.0)
        self.__dict__.update(ks=_frozen(ks), coeffs=_frozen(coeffs), epsilon=epsilon)

    @classmethod
    def from_pairs(cls, pairs, epsilon):
        """Build from [(k, re, im), ...]; missing negative harmonics are mirrored."""
        return cls(*_mirrored_pairs(pairs), epsilon)

    def evaluate(self, theta):
        return fourier_eval(theta, self.ks, self.coeffs)

    def is_zero(self):
        return float(np.max(np.abs(self.coeffs), initial=0.0)) <= 1e-15


def split_harmonics(phi):
    """Partition a density into its k in 4Z part and the rest.

    Returns (aligned, rest), both FourierDensity with the same epsilon;
    aligned + rest reproduces the input coefficient for coefficient.
    """
    aligned = phi.ks % 4 == 0
    return (FourierDensity(phi.ks[aligned], phi.coeffs[aligned], phi.epsilon),
            FourierDensity(phi.ks[~aligned], phi.coeffs[~aligned], phi.epsilon))


def sqrt_imbalance(values, gamma):
    """Signed square-root balance of a grid function against a shift.

    Quadrature of sign(v - gamma) * sqrt(|v - gamma|) over the circle;
    continuous and strictly decreasing in gamma, positive below min(v),
    negative above max(v). Its root picks the constant shift.
    """
    s = np.asarray(values, dtype=float) - gamma
    return float(np.mean(np.sign(s) * np.sqrt(np.abs(s))) * 2.0 * np.pi)


@dataclass
class Phi0Result:
    value: float
    trivial: bool        # True when the aligned part vanishes and 0 is returned
    imbalance: float     # sqrt_imbalance at the returned shift


def solve_phi0(phi_p, nodes=GRID_NODES):
    """Constant shift balancing the signed square roots of the aligned part.

    phi_p is a FourierDensity, sampled on the uniform circle grid of `nodes`.
    Bisects the imbalance over [min - 1, max + 1]; a zero density returns
    value 0.0 with trivial=True instead of bisecting.
    """
    if not isinstance(phi_p, FourierDensity):
        raise TypeError("solve_phi0 expects a FourierDensity")
    if phi_p.is_zero():
        return Phi0Result(0.0, True, 0.0)
    vals = phi_p.evaluate(circle_grid(nodes))
    lo = float(np.min(vals)) - 1.0
    hi = float(np.max(vals)) + 1.0
    g = np.inf
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        g = sqrt_imbalance(vals, mid)
        if abs(g) < BALANCE_TOL:
            break
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    if abs(g) >= 1e-10:
        raise RuntimeError(f"balance bisection did not converge (imbalance {g:.3e})")
    return Phi0Result(-mid, False, g)


def _aligned_shift(phi_p, nodes):
    """solve_phi0 of the aligned part phi_p; FourierDensityError if phi_p is zero."""
    p0 = solve_phi0(phi_p, nodes)
    if p0.trivial:
        raise FourierDensityError(
            "no quarter-turn-aligned harmonics: the leading slope field is identically zero")
    return p0


def _snap_small(values):
    # zeros of the shifted density that land on grid nodes carry O(1e-16)
    # float noise; sqrt amplifies it to 1e-8, enough to break quarter-turn
    # symmetry, so snap them to exact zero
    cap = max(1.0, float(np.max(np.abs(values))))
    return np.where(np.abs(values) < 1e-12 * cap, 0.0, values)


def cusp_exclusion_mask(s):
    """Boolean mask dropping CUSP_GUARD nodes on each side of every sign change of s."""
    sgn = np.sign(np.asarray(s, dtype=float))
    # node j flips when its sign differs from node j + 1's; nodes j + 1 - CUSP_GUARD
    # to j + CUSP_GUARD, cyclically, are dropped
    flip = sgn != np.roll(sgn, -1)
    return ~np.any([np.roll(flip, d) for d in range(1 - CUSP_GUARD, CUSP_GUARD + 1)], axis=0)


def leading_order(phi, sign=1, nodes=GRID_NODES, phi0=None):
    """Leading log-radius correction, sampled on the uniform circle grid.

    Integrates sign * sgn(s) * sqrt((2/3)|s|) with s the aligned part plus the
    balancing shift, then removes the mean (the integration constant is not
    determined at this order; zero mean is the convention). The integral
    closes into a periodic function exactly when the shift balances the signed
    square roots; a closure gap above CLOSURE_TOL raises ClosureError.

    phi0 overrides the computed shift, chiefly to let callers reuse a solve.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    theta = circle_grid(nodes)
    phi_p, _ = split_harmonics(phi)
    if phi0 is None:
        phi0 = _aligned_shift(phi_p, nodes).value
    s = _snap_small(phi_p.evaluate(theta) + float(phi0))
    slope = sign * np.sign(s) * np.sqrt((2.0 / 3.0) * np.abs(s))
    gap = abs(float(np.sum(slope))) * (2.0 * np.pi / nodes)
    if gap > CLOSURE_TOL:
        raise ClosureError(
            f"slope field does not close (gap {gap:.3e}); the shift is inconsistent")
    # cumulative trapezoid rule, started at 0
    z1 = np.concatenate(([0.0], np.cumsum(np.diff(theta) * (slope[1:] + slope[:-1]) / 2.0)))
    return z1 - float(np.mean(z1))


def shift_eigenvalue(k):
    """Eigenvalue of f -> f - f(. + pi/2) on the harmonic exp(i k theta)."""
    return (0.0, 1.0 - 1.0j, 2.0, 1.0 + 1.0j)[int(k) % 4]


def quarter_shift_difference(values):
    """f - f(. + pi/2) for samples on a uniform circle grid (length % 4 == 0)."""
    values = np.asarray(values)
    if len(values) % 4 != 0:
        raise ValueError("grid length must be a multiple of 4")
    return values - np.roll(values, -len(values) // 4)


def second_order(phi):
    """Order-eps log-radius coefficients: spectral division of the non-aligned part.

    Returns (ks, coeffs) with coeffs = phi_k / (1 - exp(i k pi / 2)) over
    k not in 4Z. The quarter-shift difference operator annihilates aligned
    harmonics, so its inverse is defined only off them; the annihilated
    component is fixed to zero for reproducibility.
    """
    _, phi_u = split_harmonics(phi)
    lam = np.array([shift_eigenvalue(k) for k in phi_u.ks], dtype=complex)
    return phi_u.ks, phi_u.coeffs / lam


def forward_measure(profile, nodes=GRID_NODES):
    """Boundary density of a radial profile on the uniform circle grid.

    Returns (theta, density). The density integrates to the directed
    self-perimeter; for any constant profile it is identically 1.
    """
    theta = circle_grid(nodes)
    r = profile(theta)
    if float(np.min(r)) <= 0.0:
        raise GeometryError("boundary density needs a strictly positive radius")
    return theta, smooth_density(profile, theta)


@dataclass
class ReconstructionResult:
    """Perturbative solution of the inverse problem.

    zeta1, zeta2 sample the two log-radius corrections on `theta`; radius is
    exp(sqrt(eps) zeta1 + eps zeta2) projected to harmonics |k| <= K_MAX.
    residual is the sup of |log forward density - eps (phi + phi0)| over the
    grid minus cusp neighborhoods, evaluated on the unprojected
    reconstruction; residual_classical restricts the sup to the set where the
    shifted aligned part is positive, the region where the expansion is
    second-order accurate. notes collects advisory warnings (loss of
    convexity or positivity of the projected radius).
    """
    zeta1: np.ndarray
    zeta2: np.ndarray
    sign_branch: int
    radius: RadiusProfile
    residual: float
    residual_classical: float
    phi0: float
    theta: np.ndarray
    notes: tuple


def reconstruct(phi, sign=1, nodes=GRID_NODES):
    """Solve the inverse problem to two perturbative orders.

    eps = 0 returns the unit disk with zero residual. Otherwise the aligned
    part must be nonzero, exp(sqrt(eps) zeta1 + eps zeta2) finite and its
    unprojected profile positive, else FourierDensityError. Both sign branches
    are valid and share phi0 and zeta2; their zeta1 are exact negatives. For
    real aligned coefficients zeta1 is odd up to rounding, so the branches are
    mirror images under theta -> -theta at leading order only; zeta2 need not
    be even.
    """
    theta = circle_grid(nodes)
    eps = phi.epsilon
    if eps == 0.0:
        unit = RadiusProfile([0], [1.0])
        zero = np.zeros_like(theta)
        return ReconstructionResult(zero, zero.copy(), sign, unit, 0.0, 0.0, 0.0, theta, ())
    phi_p, _ = split_harmonics(phi)
    p0 = _aligned_shift(phi_p, nodes)
    z1 = leading_order(phi, sign=sign, nodes=nodes, phi0=p0.value)
    ks2, c2 = second_order(phi)
    z2 = fourier_eval(theta, ks2, c2)
    with np.errstate(over="ignore"):
        samples = np.exp(np.sqrt(eps) * z1 + eps * z2)
    if not np.all(np.isfinite(samples)):
        raise FourierDensityError(f"epsilon {eps:g} overflows the reconstructed radius")
    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        k_ret = min(K_MAX, nodes // 2 - 1)
        try:
            radius = RadiusProfile.from_samples(samples, k_max=k_ret)
        except GeometryError:
            notes.append("projected radius lost positivity; its validation is disabled")
            radius = RadiusProfile.from_samples(samples, k_max=k_ret, check=False)
        # residual is judged on the unprojected reconstruction: the projection
        # error of a hard cutoff would mask the expansion's own defect
        full = RadiusProfile.from_samples(samples, k_max=nodes // 2 - 1, check=False)
    notes.extend(str(w.message) for w in caught)
    try:
        _, density = forward_measure(full, nodes)
    except GeometryError as exc:
        raise FourierDensityError(
            f"epsilon {eps:g} lies outside the perturbative range: {exc}") from exc
    resid_fn = np.log(density) - eps * (phi.evaluate(theta) + p0.value)
    s = _snap_small(phi_p.evaluate(theta) + p0.value)
    keep = cusp_exclusion_mask(s)
    if not np.any(keep):
        raise FourierDensityError(f"{nodes} nodes are too few: every node lies within "
                                  f"CUSP_GUARD = {CUSP_GUARD} nodes of a cusp")
    residual = float(np.max(np.abs(resid_fn[keep])))
    classical = keep & (s > 0.0)
    residual_classical = float(np.max(np.abs(resid_fn[classical]))) if np.any(classical) else residual
    return ReconstructionResult(z1, z2, sign, radius, residual, residual_classical,
                                p0.value, theta, tuple(notes))
