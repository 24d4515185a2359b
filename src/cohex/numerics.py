"""Stable special functions and adaptive quadrature.

Everything downstream reduces to integrals of smooth-but-awkward kernels on
(0, inf): exponential tails and removable 0/0 points sitting on the
integration path.  This module provides

* ``expint_ei`` -- exponential integral Ei at negative argument with series /
  continued-fraction switchover, plus an exponentially scaled variant,
* ``bose_n`` / ``fermi_n`` / ``coth_stable`` -- occupation factors that keep
  full relative accuracy for tiny and huge arguments, in numpy alone (the
  package's only run-time dependency), an array with no full-array mask
  beyond its ``exp``, ``expm1`` or ``tanh``; zero temperature, beta = inf,
  takes the same formulas, which saturate to the step functions,
* ``integrate_many`` -- adaptive Gauss-Kronrod quadrature on a log-mapped
  semi-infinite domain, for many integrals at once; a window around each
  declared removable singularity is integrated once, exactly, as the
  cubic through four straddling kernel values, and a graded map takes
  integrable endpoint singularities;
  ``integrate_semi_infinite`` is its one-integral call, and ``integrate``
  runs one stated integral (an ``Integral`` request or a ready outcome)
  through it,
* ``run_steps`` -- the driver of steps: computations that state their
  integrals (``Integral`` requests), receive the outcomes of one
  ``integrate_many`` run shared with other steps, then finish; identical
  requests are integrated once, and many steps run in consecutive blocks
  of at most ``_BLOCK_REQUESTS`` = 144 requests.  ``runs_alone`` makes a
  step's public function, which runs it alone.

Each kernel call carries a fixed numpy overhead of tens of microseconds,
far more than the arithmetic on its points, so the engine makes few, full
calls.  Every requested integral is an owner of panels and refines by its
own rule: the smallest set of its panels carrying 90% of its error
estimate is cut into ``_SPLIT`` = 8 children per pass, against its own
tolerances and panel budget, and its failure (``ConvergenceError``,
``KernelError``) is its own.  Only the kernel calls are shared: a pass
sends the new nodes of all live owners of one group (the integrals
sharing a kernel, a density and their numbers of columns) in calls of at
most ``_MAX_NODES`` = 4,096 nodes, with the owners' parameters as
per-node columns.  A bridged window is no panel: its integral, fixed at
set-up from one call per group for the fit nodes of all owners, joins
its owner's sum, so no node of any pass lies in a window.  Every
reduction is batch-independent (row-wise ``vecdot`` for the GK sums,
``np.add.reduceat`` and a row-wise cumulative sum per owner), so an
integral has the same bits alone or in any batch.

The half line is mapped onto (0, 1) by u = 1 - exp(-xi/scale), which
keeps a small-xi power law: a density I ~ xi^s against a kernel ~ 1/xi
leaves u^(s - 1), on which GK15 converges slowly and |K15 - G7| is no
error bound.  An integral whose density declares such a power carries an
integer grade k >= 1 (``endpoint_grade``), and the engine integrates it
in v = u^(1/k) instead: the integrand at u = v^k, times du/dv = k
v^(k - 1), goes like v^(ks - 1), a polynomial in v when ks is an integer.
v^k is a product of k factors at every node, so a node's bits do not
depend on the other grades in its batch, and an ungraded owner (k = 1)
keeps the arithmetic of the plain map, in any batch.

Reduced units (hbar = k_B = 1) throughout the package.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import numbers
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_EPS = float(np.finfo(float).eps)

_NO_CONTEXT = contextlib.nullcontext()

# Removable points closer together than this (relative) are bridged as one.
_CLUSTER_RTOL = 1e-6

# Half-width of a removable point's bridged window, relative to the point.
_WINDOW = 1e-3

# Children per refined panel in the adaptive quadrature.
_SPLIT = 8

# Nodes per kernel call: a pass hands the new panels of many integrals to
# one kernel in calls of at most this many nodes, which keeps the
# temporaries of a call small (a 43,000-node call of the heaviest kernel
# adds about 5 MB of peak memory, a 4,096-node call none).
_MAX_NODES = 4096
# ``run_steps`` hands the engine at most this many integral requests in
# one run.  The engine keeps the panels of every integral of a run alive
# at once, so the count bounds a run's memory; 144 is what 24
# hartree_fock sweep cells state (6 each).  A 432-cell ohmic sweep (144
# beta omega1 x 3 cutoffs) raises the peak RSS of a warm process by
# 1.1-1.2 MB in hartree_fock's 24-cell blocks, 0.9-1.1 MB in
# sigma2x_fermion's 72-cell blocks and 0.75 MB in sigma2x's 144-cell
# blocks (0.25 and 0.5 MB in 24-cell blocks).  Every run pays the
# engine's fixed bookkeeping per refinement pass, so blocks are as large
# as that memory allows.
_BLOCK_REQUESTS = 144

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
    CohexError,
    ConvergenceError,
    DomainError,
    KernelError,
)


@dataclass(frozen=True)
class QuadratureConfig:
    """The caller's settings of the adaptive quadrature: ``rel_tol``, the
    relative target for the error estimate, and ``max_subdivisions``, the
    panel budget.  The tail scale is the integral's own (``Integral.scale``).
    """

    rel_tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self):
        if isinstance(self.rel_tol, bool) or not (
                isinstance(self.rel_tol, numbers.Real) and 0.0 < self.rel_tol < math.inf):
            raise DomainError("rel_tol must be positive and finite")
        if not isinstance(self.max_subdivisions, numbers.Integral) or self.max_subdivisions < 8:
            raise DomainError("max_subdivisions must be an integer of at least 8")

    def replace(self, **kwargs) -> "QuadratureConfig":
        return dataclasses.replace(self, **kwargs)


DEFAULT_QUADRATURE = QuadratureConfig()

# Largest grade the integer-ks rule of ``endpoint_grade`` tries, and the
# largest grade at all: beyond 64, v^k underflows at nodes a few panels
# deep at v = 0, and the product v^k costs one pass per rank.
_MAX_GRADE = 8
_GRADE_CAP = 64


def endpoint_grade(power: float | None) -> int:
    """Grade k of the map v = u^(1/k) for a density ~ xi^power near 0.

    The smallest k <= 8 making k * power an integer of at least 1 (so the
    mapped integrand is a polynomial in v near 0 against kernels with
    integer small-xi powers), else ceil(1/power) up to 64; 1 (no grading)
    when no power is declared.
    """
    if power is None:
        return 1
    for k in range(1, _MAX_GRADE + 1):
        ks = float(k * power)
        if ks >= 1.0 and ks.is_integer():
            return k
    return min(math.ceil(1.0 / power), _GRADE_CAP)


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

_BETA_DOMAIN = "beta must be positive (use math.inf for zero temperature)"

# Below |y| = 0.125 coth(y) - 1/y is summed as a series.
_SERIES_BELOW = 0.125
# Below 1/DBL_MAX, 1/tanh(y) and 1/y overflow.
_TINY = 1.0 / float(np.finfo(float).max)


def _beta_xi(xi, beta):
    """beta * xi as a fresh array, with beta * 0 = 0 at every beta, inf
    included.

    beta is checked through its least and greatest entries, and only a
    beta holding inf is masked: inf * 0 is the one product that differs.
    """
    b = np.asarray(beta, dtype=float)
    if b.size and not b.min() > 0.0:
        raise DomainError(_BETA_DOMAIN)
    x = np.asarray(xi, dtype=float)
    if b.size and b.max() == math.inf:
        return np.asarray(np.where(x == 0.0, 0.0, b) * x)
    return np.asarray(b * x)


def _float_beta_xi(xi: float, beta: float) -> float:
    """``_beta_xi`` of a float xi and beta, as a float with the same bits."""
    if not beta > 0.0:
        raise DomainError(_BETA_DOMAIN)
    return beta * xi if xi != 0.0 else xi


def _saturated(bx):
    """``bx`` with every entry above 709 set to inf, in place: there both
    occupations are exactly 0, and e^inf = inf raises no overflow."""
    np.copyto(bx, math.inf, where=bx > 709.0)
    return bx


def bose_n(xi, beta):
    """Bose occupation 1/(e^{beta xi} - 1); xi may be a scalar or array.

    ``xi = 0`` is a domain error at every beta.  ``beta`` may be an array
    broadcasting against ``xi``; an inf entry (zero temperature) needs no
    branch of its own: the exponential saturates, giving the step values
    0 for xi > 0 and -1 for xi < 0 exactly.

    An array takes its ``expm1`` in place, with reductions where masks
    would cost more (a mask only where beta holds inf).  A float ``xi``
    and ``beta`` take a scalar path (numpy's 0-d array path costs tens of
    microseconds per call) doing the same operations in the same order,
    so it has the bits of the array path.
    """
    if isinstance(xi, float) and isinstance(beta, float):
        bx = _float_beta_xi(xi, beta)
        if bx == 0.0:
            raise DomainError("bose_n diverges at xi = 0")
        # 0 before expm1 is called: it overflows, with a warning, above
        # 709.78 (the array path saturates); expm1 saturates to -1 below
        # -37.  A float divides without a warning where 1/expm1 overflows.
        return 0.0 if bx > 709.0 else 1.0 / float(np.expm1(bx))
    out = _saturated(_beta_xi(xi, beta))
    np.expm1(out, out=out)
    least = np.fmin.reduce(np.abs(out), axis=None, initial=math.inf)
    if least == 0.0:  # expm1 vanishes only where beta xi does
        raise DomainError("bose_n diverges at xi = 0")
    # A subnormal beta xi overflows 1/expm1 to inf, without a warning.
    with np.errstate(over="ignore") if least < _TINY else _NO_CONTEXT:
        np.divide(1.0, out, out=out)
    return float(out) if np.isscalar(xi) else out


def fermi_n(xi, beta):
    """Fermi occupation 1/(e^{beta xi} + 1); xi may be a scalar or array.

    Above beta xi = 709, where the occupation is below 1e-307, it is
    exactly 0, so an inf entry of ``beta`` (zero temperature) saturates
    to the step values 0 and 1; at xi = 0 it is 1/2 at every beta.
    ``beta`` may be an array broadcasting against ``xi``.  An array takes
    its ``exp`` in place, as in ``bose_n``, and a float ``xi`` and
    ``beta`` take a scalar path with the bits of the array path.
    """
    if isinstance(xi, float) and isinstance(beta, float):
        bx = _float_beta_xi(xi, beta)
        return 0.0 if bx > 709.0 else 1.0 / (1.0 + float(np.exp(bx)))
    out = _saturated(_beta_xi(xi, beta))
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return float(out) if np.isscalar(xi) else out


def _series_split(y, message):
    """(y as a flat float array, the indices of its entries below
    ``_SERIES_BELOW`` in magnitude or None, and whether any is below
    ``_TINY``); raises ``DomainError(message)`` at y = 0.

    The zero and series checks read one reduction, the least magnitude,
    so an array with no entry below 0.125 builds no mask at all.
    """
    arr = np.asarray(y, dtype=float).reshape(-1)
    mag = np.abs(arr)
    least = np.fmin.reduce(mag, initial=math.inf)
    if least == 0.0:
        raise DomainError(message)
    if not least < _SERIES_BELOW:
        return arr, None, False
    return arr, np.flatnonzero(mag < _SERIES_BELOW), least < _TINY


def coth_stable(x):
    """coth(x) accurate for |x| from 1e-12 up to overflow.

    Uses the Laurent expansion 1/x + x/3 - x^3/45 + ... (through x^9) below
    |x| = 0.125 so that differences like coth(x) - 1/x keep full relative
    accuracy; 1/tanh(x) elsewhere.  On an array the series is summed at
    the entries below 0.125 alone.
    """
    arr, series_at, _ = _series_split(x, "coth diverges at 0")
    out = 1.0 / np.tanh(arr)
    if series_at is not None:
        xs = arr[series_at]
        out[series_at] = 1.0 / xs + _coth_minus_inv_series(xs)
    return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))


def coth_minus_inv(y):
    """coth(y) - 1/y, evaluated without subtractive cancellation.

    Vanishes linearly at 0 (slope 1/3) and tends to sign(y) at infinity.
    Kernels of the form  x coth(b x) - x0 coth(b x0)  are rewritten through
    this helper so their 1/b parts cancel algebraically rather than in
    floating point, which matters at high temperature where 1/b dominates
    the difference by many orders of magnitude.

    On an array the series is summed at the entries below 0.125 alone,
    as in ``coth_stable``.  A float takes a scalar path (numpy's 0-d array
    path costs tens of microseconds per call) doing the same operations in
    the same order, so it has the bits of the array path.
    """
    if isinstance(y, float):
        if y == 0.0:
            raise DomainError("coth - 1/y is evaluated away from 0 only")
        if abs(y) < _SERIES_BELOW:
            return float(_coth_minus_inv_series(y))
        return float(1.0 / np.tanh(y) - 1.0 / y)
    arr, series_at, tiny = _series_split(y, "coth - 1/y is evaluated away from 0 only")
    # Entries that overflow 1/tanh and 1/y take the series, which holds.
    with np.errstate(over="ignore", invalid="ignore") if tiny else _NO_CONTEXT:
        out = 1.0 / np.tanh(arr) - 1.0 / arr
    if series_at is not None:
        out[series_at] = _coth_minus_inv_series(arr[series_at])
    return float(out[0]) if np.isscalar(y) else out.reshape(np.shape(y))


def _coth_minus_inv_series(y):
    """coth(y) - 1/y through y^9, for |y| < 0.125 (a float or an array)."""
    y2 = y * y
    return y * (
        1.0 / 3.0
        - y2 * (1.0 / 45.0 - y2 * (2.0 / 945.0 - y2 * (1.0 / 4725.0 - y2 * (2.0 / 93555.0))))
    )


def thermal_tanh_half(beta: float, energy: float) -> float:
    """tanh(beta * energy / 2); at beta = inf it saturates to sign(energy),
    and it is 0 at energy = 0 at every beta."""
    if energy == 0.0:
        return 0.0
    return math.tanh(0.5 * beta * energy)


def thermal_coth_half(beta, xi):
    """coth(beta * xi / 2); ``beta`` may be an array broadcasting against
    ``xi``, and an inf entry saturates to sign(xi).  At xi = 0 coth
    diverges: a finite beta raises ``DomainError``, and beta = inf gives
    NaN."""
    return coth_stable(0.5 * beta * np.asarray(xi, dtype=float))


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod engine
# ---------------------------------------------------------------------------

# Nodes at u >= _U_LIVE (deep panels round to u = 1) are below double noise
# and dropped: no kernel is evaluated past TAIL_REACH = 35.25 tail scales.
_U_LIVE = 1.0 - 4.9e-16
TAIL_REACH = -math.log(4.9e-16)


class Integral:
    """One integral over (0, inf), as the quadrature engine takes it.

    The integrand is ``kernel(xi, *columns)``, times ``density(xi,
    *density_columns)`` when a density is given (and exactly 0 wherever
    the density is 0).  ``columns`` and ``density_columns`` are the
    integral's own scalars: the engine hands the functions one array per
    column, with one entry per node, so the nodes of every integral with
    the same kernel, density and numbers of columns go to them in shared
    calls.  ``grade`` is the density's endpoint grade (``endpoint_grade``):
    the engine integrates in v = u^(1/grade).  Each of the ``breakpoints``
    (a tabulated density's knots) starts a panel edge; an integral whose
    first panels exceed its panel budget fails (``DomainError``).  Around
    each of the ``removable_points`` the kernel is never evaluated inside
    a small window: the window's integral is that of the cubic through the
    integrand at four nodes on and beyond its edges.
    ``scale`` (positive and finite) is the energy scale of the integrand's
    slowest exponential decay; the tail is mapped at the wider of 1 and it.
    """

    __slots__ = ("kernel", "columns", "removable_points", "config",
                 "density", "density_columns", "grade", "breakpoints", "scale")

    def __init__(self, kernel: Callable, columns: tuple = (),
                 removable_points: Sequence[float] = (),
                 config: QuadratureConfig | None = None,
                 density: Callable | None = None, density_columns: tuple = (),
                 grade: int = 1, breakpoints: Sequence[float] = (), scale: float = 1.0):
        if not (0.0 < scale < math.inf):
            raise DomainError(f"the tail scale must be positive and finite, got {scale!r}")
        self.kernel = kernel
        self.columns = tuple(columns)
        self.removable_points = tuple(removable_points)
        self.config = config or DEFAULT_QUADRATURE
        self.density = density
        self.density_columns = tuple(density_columns)
        self.grade = int(grade)
        self.breakpoints = tuple(breakpoints)
        self.scale = scale


def within_reach(request, overflow: float, what: str):
    """``request``, or a ``DomainError`` if it is an ``Integral`` whose tail
    nodes reach ``overflow``, where its kernel overflows; ``what`` names
    its scale."""
    reach = TAIL_REACH * max(1.0, request.scale) if isinstance(request, Integral) else 0.0
    if reach >= overflow:
        return DomainError(
            f"{what} = {request.scale:.3g} must be below {overflow / TAIL_REACH:.3g}, "
            f"or quadrature nodes pass {overflow:.3g}, where the kernel overflows"
        )
    return request


def _bridge_points(removable_points: Sequence[float]):
    """Removable points to bridge and each one's relative window width."""
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
        delta = _WINDOW
        near = [abs(q - p) / max(q, p) for q in pts if q != p]
        near = [g for g in near if g > 0.0]
        if near:
            delta = min(delta, 0.2 * min(near))
        deltas.append(max(delta, 3.0 * spread / p))
    return pts, deltas


def _merged_windows(points: Sequence[float], deltas: Sequence[float]) -> list:
    """[lo, hi] of the bridged windows around ascending removable points.

    A window around p spans [p (1 - delta), p (1 + delta)]; windows whose
    outer fit nodes would land inside a neighbour are merged.
    """
    merged: list[list[float]] = []
    for p, d in zip(points, deltas):
        lo, hi = p - d * p, p + d * p
        if merged and lo - (hi - lo) / 2.0 <= merged[-1][1]:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return merged


def _bridge_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(n, 4) fit nodes L - w, L, R, R + w of windows [L, R], w = (R - L)/2."""
    w = 0.5 * (hi - lo)
    nodes = np.empty((lo.size, 4))
    nodes[:, 0] = np.maximum(lo - w, 0.25 * lo)
    nodes[:, 1] = lo
    nodes[:, 2] = hi
    nodes[:, 3] = hi + w
    return nodes


# The two-point Gauss rule on [-1, 1], exact for cubics.
_GAUSS2 = np.array([-1.0, 1.0]) / math.sqrt(3.0)


def _window_weights(nodes: np.ndarray) -> np.ndarray:
    """(n, 4) weights: sum_j w[i, j] f(nodes[i, j]) is the integral over the
    window [nodes[i, 1], nodes[i, 2]] of the cubic through f at the four
    distinct nodes of row i.

    The two-point Gauss rule integrates that cubic exactly, so a weight is
    the window's half-width times the sum of its node's Lagrange basis
    polynomial at the rule's two points.  Each row is reduced on its own.
    """
    half = 0.5 * (nodes[:, 2] - nodes[:, 1])
    gauss = (0.5 * (nodes[:, 1] + nodes[:, 2]))[:, None] + half[:, None] * _GAUSS2
    # ratio[i, g, j, m] = (gauss[i, g] - nodes[i, m]) / (nodes[i, j] - nodes[i, m]),
    # with 1 at m = j, so its product over m is basis j at point g.
    gap = nodes[:, :, None] - nodes[:, None, :]
    diagonal = np.arange(4)
    gap[:, diagonal, diagonal] = 1.0
    ratio = (gauss[:, :, None, None] - nodes[:, None, None, :]) / gap[:, None, :, :]
    ratio[:, :, diagonal, diagonal] = 1.0
    return half[:, None] * ratio.prod(axis=3).sum(axis=1)


def _gk_evaluate(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the GK15 rule on a batch of panels; returns (k15, err, resabs).

    ``f`` takes the (panels, 15) array of nodes and returns its values.

    Each panel's sums are reduced on their own row (``vecdot``, one dot
    product per row, not a matrix product whose blocking depends on the
    batch), so a panel's results do not depend on the other panels
    evaluated with it.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = center[:, None] + half[:, None] * _XGK[None, :]
    vals = f(nodes)
    k15 = np.vecdot(vals, _WGK) * half
    g7 = np.vecdot(vals[:, 1::2], _WG) * half
    resabs = np.vecdot(np.abs(vals), _WGK) * half
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


def _u_break(x: float, scale: float):
    """u = 1 - exp(-x/scale) of a first-panel break at xi = x, or None: no
    break is taken at x <= 0 or non-finite, nor within 1e-14 of u = 0 or 1."""
    if x > 0.0 and math.isfinite(x):
        u = -math.expm1(-x / scale)
        if 1e-14 < u < 1.0 - 1e-14:
            return u
    return None


def _set_up(removable_points, breakpoints, scale, grade):
    """(lo, hi, n_first, fit nodes) of one integral, from the numbers they
    depend on.

    ``lo`` and ``hi`` are the edges, in u or v = u^(1/grade), of its first
    panels outside every bridged window, and ``n_first`` counts them with
    the windows'.  A merged window spans the breaks at its two edges, read
    from the break array itself (``**`` rounds a float and an array
    differently); its row of fit nodes (``_bridge_nodes``) lies on and
    beyond their xi, mapped back as the engine maps its nodes.  Where its
    edges are no two distinct breaks (within 1e-14 of u = 0 or 1, or
    rounding to one u or v deep in the tail) it is no window: its panels
    keep their nodes.
    """
    pts, deltas = _bridge_points(removable_points)
    interior = list(breakpoints)
    for p, delta in zip(pts, deltas):
        h = delta * p
        interior.extend([p - h, p, p + h, p + 2 * h, max(p - 2 * h, p / 2)])
    u_pts = {0.0, 1.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97}
    u_pts.update(u for u in (_u_break(x, scale) for x in interior) if u is not None)
    u_breaks = np.array(sorted(u_pts))
    breaks = u_breaks if grade == 1 else u_breaks ** (1.0 / grade)
    ends = [(_u_break(a, scale), _u_break(b, scale)) for a, b in _merged_windows(pts, deltas)]
    ends = [e for e in ends if None not in e]
    if not ends:
        return breaks[:-1], breaks[1:], breaks.size - 1, np.empty((0, 4))
    at = np.searchsorted(u_breaks, ends)
    v = u = breaks[at]
    for _ in range(1, grade):
        u = u * v
    xi = -scale * np.log1p(-u)
    nodes = _bridge_nodes(xi[:, 0], xi[:, 1])
    distinct = (np.diff(nodes, axis=1) > 0.0).all(axis=1)
    keep = np.ones(breaks.size - 1, dtype=bool)
    for first, last in at[distinct].tolist():
        keep[first:last] = False
    return breaks[:-1][keep], breaks[1:][keep], keep.size, nodes[distinct]


class _Group:
    """The integrals of one (kernel, density, column counts), owners from ``first`` on."""

    def __init__(self, kernel, density, first, requests):
        self.kernel = kernel
        self.density = density
        self.first = first
        self.columns = [np.array(c, dtype=float) for c in zip(*(r.columns for r in requests))]
        self.density_columns = [
            np.array(c, dtype=float) for c in zip(*(r.density_columns for r in requests))
        ]
        self.max_grade = max(r.grade for r in requests)


def _split_counts(err, n_pan, starts, total_err, budget):
    """Children per panel: each owner splits the smallest set of its
    panels carrying ~90% of its error estimate into ``_SPLIT`` children.

    When an owner's panel budget cannot take full splits, its worst
    panels get them and one more gets the children that still fit, so
    no owner exceeds ``max_subdivisions``.
    """
    pos = np.repeat(np.arange(n_pan.size), n_pan)
    r = np.arange(err.size) - starts[pos]
    # Each owner's panels by decreasing error, ties in panel order: the
    # order of lexsort((-err, pos)), from a stable sort of each owner's
    # row padded with inf, at half the cost.
    key = np.full((n_pan.size, int(n_pan.max())), np.inf)
    key[pos, r] = -err
    by_err = np.argsort(key, axis=1, kind="stable")
    rank = (by_err + starts[:, None])[by_err < n_pan[:, None]]
    sorted_err = np.zeros(key.shape)
    sorted_err[pos, r] = err[rank]
    cum = np.cumsum(sorted_err, axis=1)
    n_split = np.count_nonzero(cum < (0.9 * total_err)[:, None], axis=1) + 1
    n_full, rest = np.divmod(budget, _SPLIT - 1)
    n_sel = np.minimum(np.minimum(n_split, n_full), n_pan)
    extra = (n_sel < np.minimum(n_split, n_pan)) & (rest > 0)
    n_sel, extra, rest = n_sel[pos], extra[pos], rest[pos]
    by_rank = np.where(r < n_sel, _SPLIT, np.where(extra & (r == n_sel), rest + 1, 1))
    counts = np.empty_like(by_rank)
    counts[rank] = by_rank
    return counts


def _merged(counts, old, children):
    """Panel arrays with each split panel replaced, in place, by its children."""
    fresh = (counts > 1).repeat(counts).nonzero()[0]
    out = []
    for a, c in zip(old, children):
        arr = a.repeat(counts)
        arr[fresh] = c
        out.append(arr)
    return out


class _Engine:
    """Owner-indexed adaptive GK15 on the log-mapped half line.

    Every owner (one requested integral) refines exactly as it would
    alone: its own panels, tolerances and panel budget, plus its bridged
    windows' integral, fixed at set-up.
    Only the kernel calls are shared: each pass evaluates the new panels
    of all live owners of one group in calls of at most ``_MAX_NODES``
    nodes.  Panels are kept sorted by (owner, lo), and every per-owner
    reduction (``np.add.reduceat``, a row-wise cumulative sum) reads that
    owner's panels alone, so an owner's result has the same bits in any
    batch.
    """

    def __init__(self, requests):
        keyed: dict = {}
        for i, r in enumerate(requests):
            layout = (r.kernel, r.density, len(r.columns), len(r.density_columns))
            keyed.setdefault(layout, []).append(i)
        self.order = [i for members in keyed.values() for i in members]
        self.owners = [requests[i] for i in self.order]
        self.groups = []
        group_of = []
        for (kernel, density, _, _), members in keyed.items():
            group = _Group(kernel, density, len(group_of),
                           [requests[i] for i in members])
            group_of.extend([len(self.groups)] * len(members))
            self.groups.append(group)
        self.group_of = np.array(group_of, dtype=np.intp)
        n = len(self.owners)
        scales = [max(1.0, r.scale) for r in self.owners]
        self.scale = np.array(scales)
        self.grade = np.array([r.grade for r in self.owners], dtype=float)
        self.outcome: list = [None] * n
        self.dead = np.zeros(n, dtype=bool)
        # The owners of a run mostly share their set-up (a temperature sweep
        # moves no removable point), so each distinct one is planned once.
        plans: dict = {}
        self.panels, fits = [], []
        for o, r in enumerate(self.owners):
            cfg = r.config
            key = (r.removable_points, r.breakpoints, scales[o], r.grade)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _set_up(*key)
            lo, hi, n_first, nodes = plan
            if r.breakpoints and n_first >= cfg.max_subdivisions:
                # As QUADPACK's QAGP rejects more breakpoints than its limit.
                self.dead[o] = True
                self.outcome[o] = DomainError(
                    "%d breakpoints (knots) start %d panels, over the panel budget "
                    "max_subdivisions = %d"
                    % (len(r.breakpoints), n_first, cfg.max_subdivisions))
            self.panels.append((lo, hi))
            fits.append(nodes)
        self.has_windows = [len(nodes) > 0 for nodes in fits]
        self._bridge(fits)

    # -- integrand ---------------------------------------------------------
    def _fail(self, owner: int, message: str):
        if not self.dead[owner]:
            self.dead[owner] = True
            self.outcome[owner] = KernelError(message)

    def _integrand(self, group: _Group, xi: np.ndarray, own):
        """Kernel (times density) at xi, each node with its owner's columns."""
        local = own - group.first
        vals = np.asarray(
            group.kernel(xi, *[c[local] for c in group.columns]), dtype=float
        )
        if group.density is not None:
            dens = group.density(xi, *[c[local] for c in group.density_columns])
            vals = np.where(dens == 0.0, 0.0, dens * vals)
        return vals

    def _bridge(self, fits):
        """Integrate every window once, from one kernel call per group for
        the fit nodes of all owners: ``w_integral`` per window, and per
        owner their sum ``bridged`` and the sum of their magnitudes
        ``bridged_abs``, which join its panels' sum and rounding floor."""
        count = np.array([len(nodes) for nodes in fits], dtype=np.intp)
        self.w_start = np.cumsum(count) - count
        self.w_count = count
        self.w_nodes = nodes = np.concatenate(fits)
        self.w_integral = np.zeros(len(nodes))
        self.bridged = self.bridged_abs = np.zeros(count.size)
        if not len(nodes):
            return
        w_owner = np.repeat(np.arange(count.size), count)
        vals = np.empty_like(nodes)
        for a, b, group in self._segments(w_owner):
            per_call = _MAX_NODES // 4
            for c in range(a, b, per_call):
                d = min(c + per_call, b)
                vals[c:d] = self._integrand(
                    group, nodes[c:d].reshape(-1), np.repeat(w_owner[c:d], 4)
                ).reshape(-1, 4)
        bad = ~np.isfinite(vals).all(axis=1)
        for o in sorted(set(w_owner[bad].tolist())):
            self._fail(o, "kernel is non-finite at bridging nodes near a removable point")
        vals[bad] = 0.0  # a failed owner's windows are never read
        self.w_integral = np.vecdot(vals, _window_weights(nodes))
        # bincount sums each owner's windows in order, alone or pooled.
        self.bridged = np.bincount(w_owner, self.w_integral, minlength=count.size)
        self.bridged_abs = np.bincount(w_owner, np.abs(self.w_integral), minlength=count.size)

    def _segments(self, own: np.ndarray):
        """(start, end, group) of the runs of one group in an owner-sorted array."""
        if len(self.groups) == 1:
            return [(0, own.size, self.groups[0])]
        grp = self.group_of[own]
        cuts = np.flatnonzero(grp[1:] != grp[:-1]) + 1
        bounds = [0] + cuts.tolist() + [own.size]
        return [(a, b, self.groups[grp[a]]) for a, b in zip(bounds[:-1], bounds[1:])]

    def _checked(self, group: _Group, xi: np.ndarray, own):
        """The integrand at xi; an owner with a non-finite value fails."""
        vals = self._integrand(group, xi, own)
        bad = ~np.isfinite(vals)
        if bad.any():
            bad_own = np.broadcast_to(own, xi.shape)[bad]
            for o in sorted(set(bad_own.tolist())):
                hit = xi[bad][bad_own == o]
                msg = "kernel returned a non-finite value at xi = %r" % (hit[:3].tolist(),)
                if self.has_windows[o]:
                    msg += " outside any declared removable window"
                self._fail(o, msg)
            vals = np.where(bad, 0.0, vals)
        return vals

    def _evaluate(self, lo: np.ndarray, hi: np.ndarray, own: np.ndarray):
        """GK15 on owner-sorted panels: (k15, err, resabs) per panel."""
        k15 = np.empty(lo.size)
        err = np.empty(lo.size)
        res = np.empty(lo.size)
        if lo.size == 0:
            return k15, err, res
        for a, b, group in self._segments(own):
            k15[a:b], err[a:b], res[a:b] = self._evaluate_group(
                group, lo[a:b], hi[a:b], own[a:b]
            )
        return k15, err, res

    def _evaluate_group(self, group: _Group, lo, hi, own):
        """GK15 on panels of one group, in calls of at most _MAX_NODES nodes."""
        per_call = _MAX_NODES // _XGK.size
        if lo.size <= per_call:
            return _gk_evaluate(self._mapped(group, own), lo, hi)
        pooled = isinstance(own, np.ndarray)
        parts = [
            _gk_evaluate(self._mapped(group, own[c:c + per_call] if pooled else own),
                         lo[c:c + per_call], hi[c:c + per_call])
            for c in range(0, lo.size, per_call)
        ]
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _mapped(self, group: _Group, own):
        """The integrand in u = 1 - exp(-xi/scale) at the nodes of ``own``'s
        panels (one row per panel), or in v = u^(1/k) for a group with
        graded owners."""
        pooled = isinstance(own, np.ndarray)
        row_own = own[:, None] if pooled else own
        node_own = np.repeat(own, _XGK.size) if pooled else own
        scale = self.scale[row_own]
        graded = group.max_grade > 1

        def f_mapped(x):
            u, du = self._graded_nodes(group, x, row_own) if graded else (x, None)
            live = u < _U_LIVE
            if not u.all():
                # A node so deep in the first panel that u underflows would
                # hand the kernel xi = 0: its owner fails, and the node is
                # dropped as u = 1 is.
                at_zero = u == 0.0
                hit = np.broadcast_to(row_own, x.shape)[at_zero]
                for o in sorted(set(hit.tolist())):
                    self._fail(o, "a quadrature node reaches xi = 0 (u underflows "
                               "to 0 at v = %.3g)" % x[at_zero][hit == o][0])
                live &= ~at_zero
            u_safe = np.where(live, u, 0.5)
            xi = -scale * np.log1p(-u_safe)
            jac = scale / (1.0 - u_safe)
            if du is not None:
                jac = jac * du
            vals = self._checked(group, xi.reshape(-1), node_own).reshape(xi.shape)
            return np.where(live, vals * jac, 0.0)

        return f_mapped

    def _graded_nodes(self, group: _Group, v, row_own):
        """u = v^k and du/dv = k v^(k - 1) at nodes v of a graded group.

        v^(k - 1) is a product of factors of v, one per rank below each
        node's own grade, so k = 1 multiplies by 1.0 exactly and keeps
        the plain map's bits; ``**`` would round a scalar grade (libm
        pow) and per-node grades (numpy's loop) differently.
        """
        grade = self.grade[row_own]
        power = np.ones_like(v)
        for rank in range(1, group.max_grade):
            power = np.where(grade > rank, power * v, power)
        return power * v, grade * power

    # -- refinement --------------------------------------------------------
    def run(self) -> list:
        # Owner-count switch: a lone integral (every public one-integral
        # call) refines in scalars, its owner one index for all nodes.  Run
        # through ``_refine``, the per-owner bookkeeping of a pass (segment
        # starts, a lexsort, a padded row-wise cumulative sum, owner arrays
        # per panel and node) makes a lone ohmic coherence_integral about
        # 50% slower (1.19-1.31 ms against 0.81-0.87 ms, timeit minimum on
        # a 2-CPU x86 box).  Both loops do the same arithmetic on each node
        # and make the same choices, so an integral has the same bits
        # either way.
        if len(self.owners) == 1:
            self._refine_one()
        else:
            self._refine()
        outcomes = [None] * len(self.order)
        for owner, i in enumerate(self.order):
            outcomes[i] = self.outcome[owner]
        return outcomes

    def _refine_one(self):
        """``_refine`` for a lone owner, with its per-owner arrays as scalars."""
        if self.dead[0]:
            return
        group = self.groups[0]
        cfg = self.owners[0].config
        rel_tol, max_sub = cfg.rel_tol, cfg.max_subdivisions
        # reduceat sums in order, as ``_refine``'s per-owner sums do; np.sum
        # would sum pairwise and round differently.
        first = np.zeros(1, dtype=np.intp)
        lo, hi = self.panels[0]
        k15, err, res = self._evaluate_group(group, lo, hi, 0)
        for _ in range(10000):
            if self.dead[0]:
                return
            total = float(np.add.reduceat(k15, first)[0] + self.bridged[0])
            total_err = float(np.add.reduceat(err, first)[0])
            floor = 50.0 * _EPS * float(np.add.reduceat(res, first)[0] + self.bridged_abs[0])
            done = total_err <= max(rel_tol * abs(total), floor)
            budget = max_sub - lo.size
            if done or budget <= 0:
                self._finish(0, total, total_err, floor, done)
                return
            rank = np.argsort(-err, kind="stable")
            cum = np.cumsum(err[rank])
            n_split = int(np.searchsorted(cum, 0.9 * total_err)) + 1
            n_full, rest = divmod(budget, _SPLIT - 1)
            n_sel = min(n_split, n_full, lo.size)
            counts = np.ones(lo.size, dtype=np.intp)
            counts[rank[:n_sel]] = _SPLIT
            if n_sel < min(n_split, lo.size) and rest:
                counts[rank[n_sel]] = rest + 1
            sel = np.flatnonzero(counts > 1)
            child_lo, child_hi = _split_panels(lo[sel], hi[sel], counts[sel])
            new = self._evaluate_group(group, child_lo, child_hi, 0)
            lo, hi, k15, err, res = _merged(
                counts, (lo, hi, k15, err, res), (child_lo, child_hi) + new
            )
        raise ConvergenceError("quadrature refinement loop did not terminate")

    def _refine(self):
        configs = [r.config for r in self.owners]
        rel_tol = np.array([c.rel_tol for c in configs])
        max_sub = np.array([c.max_subdivisions for c in configs])
        live = np.flatnonzero(~self.dead).tolist()
        lo = np.concatenate([self.panels[o][0] for o in live] or [np.empty(0)])
        hi = np.concatenate([self.panels[o][1] for o in live] or [np.empty(0)])
        own = np.repeat(np.array(live, dtype=np.intp),
                        [self.panels[o][0].size for o in live])
        k15, err, res = self._evaluate(lo, hi, own)
        for _ in range(10000):
            if self.dead[own].any():
                keep = ~self.dead[own]
                lo, hi, k15, err, res, own = (a[keep] for a in (lo, hi, k15, err, res, own))
            if own.size == 0:
                return
            starts = np.flatnonzero(np.concatenate(([True], own[1:] != own[:-1])))
            owners = own[starts]
            n_pan = np.diff(np.append(starts, own.size))
            total = np.add.reduceat(k15, starts) + self.bridged[owners]
            total_err = np.add.reduceat(err, starts)
            floor = 50.0 * _EPS * (np.add.reduceat(res, starts) + self.bridged_abs[owners])
            done = total_err <= np.maximum(rel_tol[owners] * np.abs(total), floor)
            budget = max_sub[owners] - n_pan
            stop = done | (budget <= 0)
            if stop.any():
                for i in np.flatnonzero(stop).tolist():
                    self._finish(int(owners[i]), float(total[i]), float(total_err[i]),
                                 float(floor[i]), bool(done[i]))
                more = ~stop
                if not more.any():
                    return
                keep = np.repeat(more, n_pan)
                lo, hi, k15, err, res, own = (a[keep] for a in (lo, hi, k15, err, res, own))
                n_pan, total_err, budget = n_pan[more], total_err[more], budget[more]
                starts = np.cumsum(n_pan) - n_pan
            counts = _split_counts(err, n_pan, starts, total_err, budget)
            sel = np.flatnonzero(counts > 1)
            child_lo, child_hi = _split_panels(lo[sel], hi[sel], counts[sel])
            new = self._evaluate(child_lo, child_hi, np.repeat(own[sel], counts[sel]))
            lo, hi, k15, err, res = _merged(
                counts, (lo, hi, k15, err, res), (child_lo, child_hi) + new
            )
            own = np.repeat(own, counts)
        raise ConvergenceError("quadrature refinement loop did not terminate")

    def _finish(self, owner, total, total_err, floor, done):
        if done:
            # As in QUADPACK, the estimate never claims more accuracy than
            # the rounding floor: GK differences of a smooth integrand can
            # fall below one ulp of the sum.
            self.outcome[owner] = (total, max(total_err, floor))
        elif total_err <= 10.0 * floor:
            self.outcome[owner] = (total, total_err)
        else:
            self.outcome[owner] = ConvergenceError(
                "quadrature did not reach tolerance within the panel budget",
                partial=total,
                err_estimate=total_err,
            )


def integrate_many(requests: Sequence[Integral]) -> list:
    """Integrate every request; one outcome per request, in order.

    An outcome is (value, err_estimate), the estimate being at least the
    rounding floor 50 eps integral |f|, or the ``ConvergenceError`` or
    ``KernelError`` that request's integral raised; one request's failure
    never touches another's result.  Each request is refined by its own
    rule (the smallest set of panels carrying ~90% of its error estimate
    is cut into ``_SPLIT`` children per pass) and gets the same bits
    whichever requests share its passes.

    Kernels run with numpy's floating-point warnings off: an overflow or
    0/0 shows up as a non-finite value, which fails its owner with a
    ``KernelError`` instead of reaching the caller as a warning.
    """
    if not requests:
        return []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _Engine(requests).run()


def integrate_semi_infinite(
    kernel: Callable,
    removable_points: Sequence[float] = (),
    config: QuadratureConfig | None = None,
    density: tuple | None = None,
    scale: float = 1.0,
):
    """Integrate ``kernel`` (times a density) over (0, inf).

    Parameters
    ----------
    kernel : callable
        Vectorized map from an array of abscissae to integrand values.
        Must be finite everywhere except possibly at the declared
        removable points.
    removable_points : sequence of float
        Abscissae where the kernel is 0/0-removable.  The kernel is never
        evaluated inside a small window around each: the window is
        integrated once, exactly, as the cubic through the kernel at four
        nodes on and beyond its edges.
    config : QuadratureConfig, optional
    density : (function, columns[, grade[, breakpoints]]), optional
        A weight ``function(xi, *columns)`` the kernel is multiplied by;
        the product is exactly 0 wherever the weight is 0.  ``grade`` is
        its endpoint grade and ``breakpoints`` its knots (see
        ``Integral``), 1 and none if left out.
    scale : float, optional
        The integrand's tail scale (see ``Integral``).

    Returns
    -------
    (value, err_estimate) : tuple of float

    Raises ``ConvergenceError`` if the panel budget is exhausted while the
    estimate is still above both the requested target and the rounding
    floor, and ``KernelError`` if the kernel turns non-finite.
    """
    request = Integral(kernel, (), removable_points, config, *(density or ()), scale=scale)
    (outcome,) = integrate_many([request])
    return take(outcome)


def integrate(request):
    """The (value, err_estimate) of one stated integral, or raise its error.

    ``request`` is an ``Integral`` or a ready outcome (see ``take``).  An
    ``Integral`` runs alone through ``integrate_semi_infinite``, its
    columns bound into a kernel of xi and its density (with its grade
    and breakpoints) and tail scale passed alongside.
    """
    if not isinstance(request, Integral):
        return take(request)
    kernel, columns = request.kernel, request.columns
    density = None if request.density is None else (
        request.density, request.density_columns, request.grade, request.breakpoints
    )
    return integrate_semi_infinite(
        lambda xi: kernel(xi, *columns), request.removable_points, request.config,
        density=density, scale=request.scale,
    )


# ---------------------------------------------------------------------------
# Steps: computations that hand their integrals to the engine together
# ---------------------------------------------------------------------------

def requested(requests):
    """Step that yields ``requests`` and returns their outcomes."""
    outcomes = yield list(requests)
    return outcomes


def take(outcome):
    """The (value, err_estimate) of an integral's outcome, or raise its error.

    The error is raised with a fresh traceback: one outcome may be taken
    by many steps, and each raise would otherwise extend the last one's.
    """
    if isinstance(outcome, Exception):
        raise outcome.with_traceback(None)
    return outcome


def _start(step):
    """Run a step to its yield: (step, requests) or (None, result or error)."""
    try:
        return step, step.send(None)
    except StopIteration as stop:
        return None, stop.value
    except CohexError as exc:
        return None, exc


def _finish(step, outcomes):
    try:
        step.send(outcomes)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError("a step yields its integral requests once")


def _lockstep(started):
    """Step running started steps (``_start``) with one yield for all their
    requests.

    Returns each step's result or the ``CohexError`` it raised, in order.
    """
    requests = [r for step, reqs in started if step is not None for r in reqs]
    outcomes = (yield requests) if requests else []
    results = []
    at = 0
    for step, reqs in started:
        if step is None:
            results.append(reqs)
            continue
        try:
            results.append(_finish(step, outcomes[at:at + len(reqs)]))
        except CohexError as exc:
            results.append(exc)
        at += len(reqs)
    return results


def gather(*steps):
    """Step running sub-steps together: one yield for all their requests.

    Returns their results in order.  The first failure in that order is
    raised, as if the sub-steps had run one after another.
    """
    results = yield from _lockstep([_start(step) for step in steps])
    for result in results:
        if isinstance(result, CohexError):
            raise result
    return results


def _request_key(request: Integral):
    """Equal for two requests exactly when they have the same kernel and
    density objects and the same bits in every number the engine reads."""
    cfg = request.config
    numbers = (request.columns + request.removable_points + request.density_columns
               + request.breakpoints + (cfg.rel_tol, request.scale))
    return (request.kernel, request.density, len(request.columns),
            len(request.removable_points), len(request.breakpoints), request.grade,
            cfg.max_subdivisions, struct.pack("%dd" % len(numbers), *numbers))


def run_steps(steps, known: dict | None = None) -> list:
    """Drive steps in lockstep: every step's integrals go to one engine run.

    A step is a generator that yields once, a list whose items are
    ``Integral`` requests or ready outcomes ((value, err_estimate) or a
    ``CohexError``), receives their outcomes in the same order, and
    returns its result.  Returns each step's result or the ``CohexError``
    it raised, in order.

    Steps run in consecutive blocks of one engine run each, started in
    order as their block reaches them.  A block closes before the step
    whose ``Integral`` requests would take it past ``_BLOCK_REQUESTS``
    (a step stating more runs as a block of its own).

    Identical requests of a block are integrated once and share their
    outcome.  ``known`` holds the outcomes of the caller's previous run,
    which are reused, and is left holding the last block's, so it never
    outgrows one block; each block hands its outcomes on to the next.
    """
    known = {} if known is None else known
    results, block, count = [], [], 0
    for step in steps:
        started = _start(step)
        stated = 0 if started[0] is None else sum(
            isinstance(r, Integral) for r in started[1])
        if block and count + stated > _BLOCK_REQUESTS:
            results += _run_block(block, known)
            block, count = [], 0
        block.append(started)
        count += stated
    return results + _run_block(block, known)


def _run_block(started, known: dict) -> list:
    """``run_steps`` for one block of started steps (``_start``)."""
    lock, pending = _start(_lockstep(started))
    if lock is None:
        return pending
    keys = [_request_key(r) if isinstance(r, Integral) else None for r in pending]
    fresh = {key: r for key, r in zip(keys, pending) if key is not None and key not in known}
    outcomes = {key: known[key] for key in keys if key in known}
    outcomes.update(zip(fresh, integrate_many(list(fresh.values()))))
    known.clear()
    known.update(outcomes)
    return _finish(lock, [r if key is None else known[key] for key, r in zip(keys, pending)])


def run_step(step):
    """Run one step alone; return its result or raise its error."""
    (result,) = run_steps([step])
    if isinstance(result, CohexError):
        raise result
    return result


def runs_alone(step):
    """The public function of a step function: it runs ``step`` alone
    (``run_step``), keeps its name, signature and docstring, and holds it
    as ``.step``.  Steps yield from other steps by a private alias
    (``_sigma1x_step = sigma1x.step``), which a tracer's rebinding of the
    public name leaves alone."""

    @functools.wraps(step)
    def alone(*args, **kwargs):
        return run_step(step(*args, **kwargs))

    alone.step = step
    return alone
