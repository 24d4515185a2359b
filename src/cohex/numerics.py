"""Stable special functions and adaptive quadrature.

Everything downstream reduces to integrals of smooth-but-awkward kernels on
(0, inf): exponential tails and removable 0/0 points sitting on the
integration path.  This module provides

* ``expint_ei`` -- exponential integral Ei at negative argument with series /
  continued-fraction switchover, plus an exponentially scaled variant,
* ``bose_n`` / ``fermi_n`` / ``coth_stable`` -- occupation factors that keep
  full relative accuracy for tiny and huge arguments, in numpy alone (the
  package's only run-time dependency),
* ``integrate_semi_infinite`` -- adaptive Gauss-Kronrod quadrature on a
  log-mapped semi-infinite domain with windowed polynomial bridging of
  declared removable singularities.

Each kernel call carries a fixed numpy overhead of a few hundred
microseconds, far more than the arithmetic on its points, so the engine
makes few, full calls: a refined panel is cut into ``_SPLIT`` = 8 children
rather than bisected, and every bridge's fit nodes are evaluated in one
call and solved in one batched 4 x 4 Vandermonde solve.

Reduced units (hbar = k_B = 1) throughout the package.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_EPS = float(np.finfo(float).eps)

# Removable points closer together than this (relative) are bridged as one.
_CLUSTER_RTOL = 1e-6

# Children per refined panel in the adaptive quadrature.
_SPLIT = 8

# 15-point Kronrod extension of the 7-point Gauss rule (abscissae in (-1, 1)).
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299785,
    0.0229353220105292,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892766, 0.3818300505051189,
    0.4179591836734694,
    0.3818300505051189, 0.2797053914892766, 0.1294849661688697,
])

from .errors import (  # noqa: E402  (exceptions shared across modules)
    ConvergenceError,
    DomainError,
    KernelError,
)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and knobs for the adaptive quadrature routines.

    Attributes
    ----------
    rel_tol, abs_tol : float
        Relative target and absolute floor for the error estimate.
    max_subdivisions : int
        Panel budget for the adaptive refinement.
    singularity_window : float
        Half-width of the bridged window around a removable point, in units
        of the point itself (must lie in (0, 0.5)).
    tail_decay_scale : float
        Energy scale of the slowest exponential decay of the integrand;
        used to map [0, inf) onto (0, 1).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    max_subdivisions: int = 4000
    singularity_window: float = 1e-3
    tail_decay_scale: float = 1.0

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise DomainError("rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise DomainError("abs_tol must be non-negative")
        if self.max_subdivisions < 8:
            raise DomainError("max_subdivisions must be at least 8")
        if not (0.0 < self.singularity_window < 0.5):
            raise DomainError("singularity_window must lie in (0, 0.5)")
        if not (self.tail_decay_scale > 0.0):
            raise DomainError("tail_decay_scale must be positive")

    def replace(self, **kwargs) -> "QuadratureConfig":
        return dataclasses.replace(self, **kwargs)


DEFAULT_QUADRATURE = QuadratureConfig()


# ---------------------------------------------------------------------------
# Exponential integral
# ---------------------------------------------------------------------------

def _e1_series_small(y: float) -> float:
    # E1(y) = -gamma - ln y + sum (-1)^{n+1} y^n / (n n!), for 0 < y <= 1.
    total = -EULER_GAMMA - math.log(y)
    term = 1.0
    for n in range(1, 60):
        term *= -y / n
        contrib = -term / n
        total += contrib
        if abs(contrib) < 1e-17 * abs(total):
            return total
    raise ConvergenceError("E1 series did not converge", partial=total)


def _e1_cf_scaled(y: float) -> float:
    # e^y E1(y) via the continued fraction 1/(y+1- 1/(y+3- 4/(y+5- ...))),
    # evaluated with the modified Lentz scheme; reliable for y >= 1.
    tiny = 1e-300
    f = y + 1.0
    if f == 0.0:
        f = tiny
    c = f
    d = 0.0
    for m in range(1, 500):
        a = -float(m * m)
        b = y + 2.0 * m + 1.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 / f
    raise ConvergenceError("E1 continued fraction did not converge")


def expint_ei(x: float) -> float:
    """Exponential integral Ei(x) for real negative x.

    Convergent series for |x| <= 1, continued fraction beyond; the seam is
    validated against a high-precision series oracle in the test suite.
    """
    x = float(x)
    if not (x < 0.0) or not math.isfinite(x):
        raise DomainError("Ei is evaluated for finite negative x only")
    y = -x
    if y <= 1.0:
        return -_e1_series_small(y)
    return -math.exp(-y) * _e1_cf_scaled(y)


def _exp_scaled_ei_neg(c: float) -> float:
    """e^c * Ei(-c) for c > 0, without overflow."""
    if c >= 1.0:
        return -_e1_cf_scaled(c)
    return math.exp(c) * expint_ei(-c)


# ---------------------------------------------------------------------------
# Occupation factors
# ---------------------------------------------------------------------------

def _thermal_arg(xi, beta: float):
    if not (beta > 0.0):
        raise DomainError("beta must be positive (use math.inf for zero temperature)")
    return np.asarray(xi, dtype=float)


def bose_n(xi, beta: float):
    """Bose occupation 1/(e^{beta xi} - 1); xi may be a scalar or array.

    ``beta = inf`` gives the zero-temperature step (0 for xi > 0, -1 for
    xi < 0).  ``xi = 0`` at finite beta is a domain error.
    """
    x = _thermal_arg(xi, beta)
    if math.isinf(beta):
        if np.any(x == 0.0):
            raise DomainError("bose_n diverges at xi = 0")
        out = np.where(x > 0.0, 0.0, -1.0)
        return float(out) if np.isscalar(xi) else out
    bx = beta * x
    if np.any(bx == 0.0):
        raise DomainError("bose_n diverges at xi = 0")
    with np.errstate(over="ignore"):
        out = 1.0 / np.expm1(np.clip(bx, -745.0, 745.0))
    out = np.where(bx > 709.0, 0.0, out)
    return float(out) if np.isscalar(xi) else out


def fermi_n(xi, beta: float):
    """Fermi occupation 1/(e^{beta xi} + 1); xi may be a scalar or array.

    ``beta = inf`` gives the zero-temperature step (1/2 at xi = 0).  Above
    beta xi = 709, where the occupation is below 1e-307, it is exactly 0.
    """
    x = _thermal_arg(xi, beta)
    if math.isinf(beta):
        out = np.where(x > 0.0, 0.0, np.where(x < 0.0, 1.0, 0.5))
        return float(out) if np.isscalar(xi) else out
    bx = beta * x
    out = 1.0 / (1.0 + np.exp(np.minimum(bx, 709.0)))
    out = np.where(bx > 709.0, 0.0, out)
    return float(out) if np.isscalar(xi) else out


def coth_stable(x):
    """coth(x) accurate for |x| from 1e-12 up to overflow.

    Uses the Laurent expansion 1/x + x/3 - x^3/45 + ... (through x^9) below
    |x| = 0.125 so that differences like coth(x) - 1/x keep full relative
    accuracy; 1/tanh(x) elsewhere.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr == 0.0):
        raise DomainError("coth diverges at 0")
    small = np.abs(arr) < 0.125
    x_safe = np.where(small, 1.0, arr)
    with np.errstate(divide="ignore"):
        out = 1.0 / np.tanh(x_safe)
    xs = np.where(small, arr, 1.0)
    x2 = xs * xs
    poly = 1.0 / 3.0 - x2 * (
        1.0 / 45.0 - x2 * (2.0 / 945.0 - x2 * (1.0 / 4725.0 - x2 * (2.0 / 93555.0)))
    )
    series = 1.0 / xs + xs * poly
    out = np.where(small, series, out)
    return float(out) if np.isscalar(x) else out


def coth_minus_inv(y):
    """coth(y) - 1/y, evaluated without subtractive cancellation.

    Vanishes linearly at 0 (slope 1/3) and tends to sign(y) at infinity.
    Kernels of the form  x coth(b x) - x0 coth(b x0)  are rewritten through
    this helper so their 1/b parts cancel algebraically rather than in
    floating point, which matters at high temperature where 1/b dominates
    the difference by many orders of magnitude.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr == 0.0):
        raise DomainError("coth - 1/y is evaluated away from 0 only")
    small = np.abs(arr) < 0.125
    y_safe = np.where(small, 1.0, arr)
    with np.errstate(divide="ignore"):
        out = 1.0 / np.tanh(y_safe) - 1.0 / y_safe
    ys = np.where(small, arr, 1.0)
    y2 = ys * ys
    series = ys * (
        1.0 / 3.0
        - y2 * (1.0 / 45.0 - y2 * (2.0 / 945.0 - y2 * (1.0 / 4725.0 - y2 * (2.0 / 93555.0))))
    )
    out = np.where(small, series, out)
    return float(out) if np.isscalar(y) else out


def thermal_tanh_half(beta: float, energy: float) -> float:
    """tanh(beta * energy / 2) with beta = inf mapped to sign(energy)."""
    if math.isinf(beta):
        return math.copysign(1.0, energy) if energy != 0.0 else 0.0
    return math.tanh(0.5 * beta * energy)


def thermal_coth_half(beta: float, xi):
    """coth(beta * xi / 2); at beta = inf this is sign(xi)."""
    if math.isinf(beta):
        arr = np.asarray(xi, dtype=float)
        out = np.sign(arr)
        return float(out) if np.isscalar(xi) else out
    return coth_stable(0.5 * beta * np.asarray(xi, dtype=float))


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod engine
# ---------------------------------------------------------------------------

class _PatchedKernel:
    """Wraps a kernel, replacing declared removable windows by cubics.

    A window around a removable point p spans [p (1 - delta), p (1 + delta)].
    ``points`` must be positive, finite, distinct and ascending, as
    ``integrate_semi_infinite`` passes them, with one relative width
    delta per point in ``deltas``.  Overlapping windows are merged.
    Inside a (merged) window [L, R] the kernel is replaced by the cubic
    interpolating its values at L - w, L, R, R + w with w = (R - L)/2, so
    the limit value at the singular abscissa is never requested.
    """

    def __init__(self, kernel: Callable, points: Sequence[float],
                 deltas: Sequence[float]):
        self.kernel = kernel
        merged: list[list[float]] = []
        for p, d in zip(points, deltas):
            lo, hi = p - d * p, p + d * p
            # Merge if the outer fit nodes would land inside the neighbour.
            if merged and lo - (hi - lo) / 2.0 <= merged[-1][1]:
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        self.windows = []
        if not merged:
            return
        # All windows' fit nodes go to the kernel in one call, and the
        # cubics come from one batched solve of the 4 x 4 Vandermonde
        # systems: a cubic through four nodes is their interpolant.
        lo = np.array([m[0] for m in merged])
        hi = np.array([m[1] for m in merged])
        w = 0.5 * (hi - lo)
        nodes = np.stack([np.maximum(lo - w, 0.25 * lo), lo, hi, hi + w], axis=1)
        vals = np.asarray(kernel(nodes.reshape(-1)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise KernelError(
                "kernel is non-finite at bridging nodes near a removable point"
            )
        center = 0.5 * (lo + hi)
        half = np.maximum(0.5 * (nodes[:, -1] - nodes[:, 0]), 1e-300)
        t = (nodes - center[:, None]) / half[:, None]
        coeffs = np.linalg.solve(
            t[:, :, None] ** np.arange(4), vals.reshape(-1, 4, 1)
        )[:, :, 0]
        self.windows = list(zip(lo.tolist(), hi.tolist(), center.tolist(),
                                half.tolist(), coeffs))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        outside = np.ones(x.shape, dtype=bool)
        for lo, hi, center, half, coeffs in self.windows:
            mask = (x >= lo) & (x <= hi)
            if np.any(mask):
                out[mask] = np.polynomial.polynomial.polyval(
                    (x[mask] - center) / half, coeffs
                )
            outside &= ~mask
        if np.any(outside):
            vals = np.asarray(self.kernel(x[outside]), dtype=float)
            if not np.all(np.isfinite(vals)):
                bad = x[outside][~np.isfinite(vals)]
                raise KernelError(
                    "kernel returned a non-finite value at xi = %r outside any "
                    "declared removable window" % (bad[:3].tolist(),)
                )
            out[outside] = vals
        return out


def _gk_evaluate(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the GK15 rule on a batch of panels; returns (k15, err, resabs)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = center[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(f(nodes.reshape(-1)), dtype=float).reshape(nodes.shape)
    k15 = (vals @ _WGK) * half
    g7 = (vals[:, 1::2] @ _WG) * half
    resabs = (np.abs(vals) @ _WGK) * half
    err = np.abs(k15 - g7)
    return k15, err, resabs


def _split_panels(lo: np.ndarray, hi: np.ndarray, counts: np.ndarray):
    """Cut panel i into counts[i] equal children; returns their (lo, hi).

    Children of one panel share their inner edges bit for bit, and the
    outer edges are the parent's own.
    """
    owner = np.repeat(np.arange(lo.size), counts)
    n = counts[owner]
    j = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    base = lo[owner]
    width = hi[owner] - base
    child_lo = base + width * (j / n)
    child_hi = np.where(j + 1 == n, hi[owner], base + width * ((j + 1) / n))
    return child_lo, child_hi


def _adaptive_panels(f, breaks: np.ndarray, config: QuadratureConfig):
    """Adaptive refinement on (breaks[0], breaks[-1]) driven by GK15 estimates.

    Each pass selects the smallest set of panels carrying ~90% of the error
    estimate and cuts every selected panel into ``_SPLIT`` equal children,
    all evaluated in one kernel batch.  The fixed cost of a batch dwarfs
    its arithmetic, so fewer, fuller batches are cheaper than bisection,
    even though they spend some extra points on panels that two children
    would have settled.  When the panel budget cannot take full splits,
    the worst panels get them and one more gets the children that still
    fit, so the panel count never exceeds ``max_subdivisions``.

    Returns (value, err_estimate), the estimate being at least the rounding
    floor 50 eps integral |f|.  Raises ConvergenceError if the panel budget
    is exhausted while the estimate is still above both the requested
    target and the rounding floor.
    """
    lo = breaks[:-1].copy()
    hi = breaks[1:].copy()
    k15, err, resabs = _gk_evaluate(f, lo, hi)
    for _ in range(10000):
        order = np.argsort(lo, kind="stable")
        total = float(np.sum(k15[order]))
        total_err = float(np.sum(err))
        floor = 50.0 * _EPS * float(np.sum(resabs))
        target = max(config.rel_tol * abs(total), config.abs_tol, floor)
        if total_err <= target:
            # As in QUADPACK, the estimate never claims more accuracy than
            # the rounding floor: GK differences of a smooth integrand can
            # fall below one ulp of the sum.
            return total, max(total_err, floor)
        budget = config.max_subdivisions - lo.size
        if budget <= 0:
            if total_err <= 10.0 * floor:
                return total, total_err
            raise ConvergenceError(
                "quadrature did not reach tolerance within the panel budget",
                partial=total,
                err_estimate=total_err,
            )
        # Split the smallest set of panels carrying ~90% of the error.
        rank = np.argsort(-err, kind="stable")
        cum = np.cumsum(err[rank])
        n_split = int(np.searchsorted(cum, 0.9 * total_err)) + 1
        n_full, rest = divmod(budget, _SPLIT - 1)
        counts = np.full(min(n_split, n_full, lo.size), _SPLIT)
        if counts.size < min(n_split, lo.size) and rest:
            counts = np.append(counts, rest + 1)
        sel = rank[:counts.size]
        keep = np.ones(lo.size, dtype=bool)
        keep[sel] = False
        child_lo, child_hi = _split_panels(lo[sel], hi[sel], counts)
        k15_new, err_new, resabs_new = _gk_evaluate(f, child_lo, child_hi)
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        k15 = np.concatenate([k15[keep], k15_new])
        err = np.concatenate([err[keep], err_new])
        resabs = np.concatenate([resabs[keep], resabs_new])
    raise ConvergenceError("quadrature refinement loop did not terminate")


def _semi_infinite_breaks(interior: Sequence[float], scale: float) -> np.ndarray:
    u_pts = [0.0, 1.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97]
    for x in interior:
        if x > 0.0 and math.isfinite(x):
            u = -math.expm1(-x / scale)
            if 1e-14 < u < 1.0 - 1e-14:
                u_pts.append(u)
    return np.array(sorted(set(u_pts)))


def integrate_semi_infinite(
    kernel: Callable,
    removable_points: Sequence[float] = (),
    config: QuadratureConfig | None = None,
):
    """Integrate ``kernel`` over (0, inf).

    Parameters
    ----------
    kernel : callable
        Vectorized map from an array of abscissae to integrand values.
        Must be finite everywhere except possibly at the declared
        removable points.
    removable_points : sequence of float
        Abscissae where the kernel is 0/0-removable.  A window around each
        is bridged by a cubic through straddling sample points.
    config : QuadratureConfig, optional

    Returns
    -------
    (value, err_estimate) : tuple of float
    """
    cfg = config or DEFAULT_QUADRATURE
    scale = cfg.tail_decay_scale
    raw = sorted(float(p) for p in removable_points if p > 0.0 and math.isfinite(p))
    # Two removable points closer than the bridge resolution act as one
    # removable feature: the kernel is regular between them, but sampled
    # values there are pure cancellation noise.  Collapse such clusters
    # to their midpoint so a single window spans the whole feature.
    clusters: list[list[float]] = []
    for q in raw:
        if clusters and q - clusters[-1][-1] <= _CLUSTER_RTOL * q:
            clusters[-1].append(q)
        else:
            clusters.append([q])
    pts = [0.5 * (g[0] + g[-1]) for g in clusters]
    spreads = [g[-1] - g[0] for g in clusters]
    # Shrink each window so neighbouring bridges never overlap their fit
    # nodes.  The shrink is per point: an isolated point keeps the full
    # default window even when two other points happen to sit close
    # together (near-degenerate level pairs produce exactly that layout).
    deltas = []
    for p, spread in zip(pts, spreads):
        delta = cfg.singularity_window
        near = [abs(q - p) / max(q, p) for q in pts if q != p]
        near = [g for g in near if g > 0.0]
        if near:
            delta = min(delta, 0.2 * min(near))
        deltas.append(max(delta, 3.0 * spread / p))
    patched = _PatchedKernel(kernel, pts, deltas) if pts else kernel

    def f_u(u):
        u = np.asarray(u, dtype=float)
        # Nodes of very deep panels can round to u = 1.0 exactly; by then
        # xi > 35 * scale and the mapped integrand is below double noise.
        live = u < 1.0 - 4.9e-16
        u_safe = np.where(live, u, 0.5)
        xi = -scale * np.log1p(-u_safe)
        jac = scale / (1.0 - u_safe)
        vals = np.asarray(patched(xi), dtype=float)
        if patched is kernel and not np.all(np.isfinite(vals)):
            bad = xi[~np.isfinite(vals)]
            raise KernelError(
                "kernel returned a non-finite value at xi = %r" % (bad[:3].tolist(),)
            )
        return np.where(live, vals * jac, 0.0)

    interior = []
    for p, delta in zip(pts, deltas):
        h = delta * p
        interior.extend([p - h, p, p + h, p + 2 * h, max(p - 2 * h, p / 2)])
    breaks = _semi_infinite_breaks(interior, scale)
    return _adaptive_panels(f_u, breaks, cfg)
