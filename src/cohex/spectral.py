"""Bath spectral densities and integrals against them.

Four families cover everything downstream: the ohmic density
A xi exp(-xi/omega_c), its generalized power-law form A xi^s exp(-xi/omega_c),
an explicit finite set of modes (a sum of delta peaks), and a tabulated
curve interpolated monotonically with a declared exponential tail.

Every integral against a bath is stated through one method,
``integral(kernel, columns, ...)``, for integral I(xi) kernel(xi, *columns)
dxi with a kernel of xi and per-integral columns, without evaluating it: a
continuous family returns a ``numerics.Integral`` for the adaptive
quadrature engine, which integrates many such requests together, and the
discrete family returns the exact finite sum
sum_k lambda_k^2 kernel(Omega_k, *columns) (or the error computing it
raised) at once.  That shared dispatch is what lets the perturbative
formulas and the exact-diagonalization cross-check consume the same bath
object.  ``weighted_integral(kernel, ...)`` evaluates one such integral of
a kernel of xi alone, through ``numerics.integrate``.

A bath may declare its small-xi power (``small_xi_power``): s for the
generalized family, whose density goes like xi^s at 0; the ohmic,
tabulated and discrete families declare none.  A continuous family
stamps the grade ``numerics.endpoint_grade`` gives that power on every
request it states, so the engine integrates a sub-ohmic endpoint
singularity xi^(s - 1) in a graded variable in which it is smooth (see
``numerics``); a request without a declared power keeps the plain map.
Likewise a tabulated bath declares its knots as ``breakpoints`` (the
others declare none), stamped on every request: the engine starts each
integral with a panel edge at every knot, so no Gauss-Kronrod panel
straddles a knot, where the interpolant is only once differentiable.

A tabulated curve is the piecewise cubic Hermite interpolant (PCHIP) of
Fritsch & Carlson (SIAM J. Numer. Anal. 17 (1980) 238) with the knot slopes
of Fritsch & Butland (SIAM J. Sci. Stat. Comput. 5 (1984) 300): the
weighted harmonic mean of the neighbouring secants where they share a
sign, 0 at a local extremum or flat secant, and a shape-preserving
one-sided three-point rule at both ends.  It preserves monotonicity
between knots, so a non-negative table never interpolates below zero.
Every family needs numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CohexError, DomainError, UnsupportedOperationError
from .numerics import (
    DEFAULT_QUADRATURE,
    Integral,
    endpoint_grade,
    integrate,
)


def _check_positive(name, value):
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


class SpectralDensity:
    """Common interface of the four bath families."""

    # The power p of I(xi) ~ xi^p as xi -> 0, where a family declares one.
    small_xi_power: float | None = None
    # Abscissae where I is less smooth than elsewhere (a table's knots).
    breakpoints: tuple = ()

    def eval(self, xi):
        """Pointwise density I(xi); xi may be a positive scalar or array."""
        raise NotImplementedError

    def reorganization_omega(self, config=None):
        """The reorganization-type scale  integral I(xi)/xi dxi, as
        (value, err_estimate); closed forms and finite sums report 0 and
        ignore ``config``, the quadrature config of an integrated Omega."""
        raise NotImplementedError

    def weighted_integral(self, kernel, removable_points=(), config=None):
        """integral I(xi) kernel(xi) dxi as (value, err_estimate)."""
        return integrate(self.integral(kernel, (), removable_points, config))

    def integral(self, kernel, columns=(), removable_points=(), config=None):
        """integral I(xi) kernel(xi, *columns) dxi, stated for the engine.

        Returns a ``numerics.Integral``, or an outcome that needs no
        quadrature: (value, err_estimate), or the ``CohexError`` that
        computing it raised.
        """
        raise NotImplementedError

    def _checked_xi(self, xi):
        arr = np.asarray(xi, dtype=float)
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise DomainError("spectral density is defined for xi > 0 only")
        return arr


def _ohmic_density(xi, coupling, cutoff):
    return coupling * xi * np.exp(-xi / cutoff)


def _generalized_density(xi, coupling, exponent, cutoff):
    # The exponent is spread to one entry per node: numpy takes a square
    # root for a lone integral's scalar exponent 0.5 (and a square for 2)
    # but pow for pooled per-node exponents, which round differently.
    return coupling * np.power(xi, np.full_like(xi, exponent)) * np.exp(-xi / cutoff)


def _reciprocal(xi):
    return 1.0 / xi


class _ContinuousDensity(SpectralDensity):
    def decay_scale(self) -> float:
        """Energy scale of the slowest decay of I, for tail mapping."""
        raise NotImplementedError

    def _density(self):
        """(function, columns) with I(xi) = function(xi, *columns)."""
        raise NotImplementedError

    def integral(self, kernel, columns=(), removable_points=(), config=None):
        density, density_columns = self._density()
        return Integral(kernel, columns, removable_points, config,
                        density, density_columns, endpoint_grade(self.small_xi_power),
                        self.breakpoints, self.decay_scale())

    def eval(self, xi):
        density, columns = self._density()
        out = density(self._checked_xi(xi), *columns)
        return float(out) if np.isscalar(xi) else out


class OhmicDensity(_ContinuousDensity):
    """I(xi) = A xi exp(-xi/omega_c)."""

    def __init__(self, coupling: float, cutoff: float):
        self.coupling = _check_positive("coupling", coupling)
        self.cutoff = _check_positive("cutoff", cutoff)

    @classmethod
    def from_ratio(cls, coupling: float, omega1: float,
                   omega1_over_omegac: float) -> "OhmicDensity":
        """The ohmic bath with cutoff omega1 / omega1_over_omegac; the
        ratio must be positive and finite."""
        if not (omega1_over_omegac > 0.0) or not math.isfinite(omega1_over_omegac):
            raise DomainError("omega1_over_omegac must be positive and finite")
        return cls(coupling, omega1 / omega1_over_omegac)

    def __repr__(self):
        return f"OhmicDensity(coupling={self.coupling!r}, cutoff={self.cutoff!r})"

    def _density(self):
        return _ohmic_density, (self.coupling, self.cutoff)

    def reorganization_omega(self, config=None):
        return self.coupling * self.cutoff, 0.0

    def decay_scale(self) -> float:
        return self.cutoff


class GeneralizedOhmicDensity(_ContinuousDensity):
    """I(xi) = A xi^s exp(-xi/omega_c) with s > 0."""

    def __init__(self, coupling: float, exponent: float, cutoff: float):
        self.coupling = _check_positive("coupling", coupling)
        self.exponent = _check_positive("exponent", exponent)
        self.cutoff = _check_positive("cutoff", cutoff)
        self.small_xi_power = self.exponent

    def __repr__(self):
        return (
            f"GeneralizedOhmicDensity(coupling={self.coupling!r}, "
            f"exponent={self.exponent!r}, cutoff={self.cutoff!r})"
        )

    def _density(self):
        return _generalized_density, (self.coupling, self.exponent, self.cutoff)

    def reorganization_omega(self, config=None):
        # integral A xi^{s-1} e^{-xi/wc} = A Gamma(s) wc^s
        try:
            value = self.coupling * math.gamma(self.exponent) * self.cutoff ** self.exponent
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise DomainError(
                f"Omega = A Gamma(s) omega_c^s overflows at A = {self.coupling!r}, "
                f"s = {self.exponent!r}, omega_c = {self.cutoff!r}"
            )
        return value, 0.0

    def decay_scale(self) -> float:
        return self.cutoff


class DiscreteDensity(SpectralDensity):
    """A finite set of modes: I(xi) = sum_k lambda_k^2 delta(xi - Omega_k).

    Exists so the closed-form coherences and the exact-diagonalization
    cross-check can consume the identical bath object; every integral
    against it is the exact finite sum.
    """

    def __init__(self, modes):
        lam = []
        freq = []
        for entry in modes:
            l_k, w_k = entry
            lam.append(float(l_k))
            if not math.isfinite(lam[-1]):
                raise DomainError(f"mode coupling must be finite, got {l_k!r}")
            freq.append(_check_positive("mode frequency", w_k))
        self.couplings = np.asarray(lam, dtype=float)
        self.frequencies = np.asarray(freq, dtype=float)

    def __repr__(self):
        pairs = list(zip(self.couplings.tolist(), self.frequencies.tolist()))
        return f"DiscreteDensity(modes={pairs!r})"

    def eval(self, xi):
        raise UnsupportedOperationError(
            "a discrete density is a sum of delta peaks; use weighted_integral "
            "or reorganization_omega instead of pointwise evaluation"
        )

    def reorganization_omega(self, config=None):
        return float(np.sum(self.couplings ** 2 / self.frequencies)), 0.0

    def integral(self, kernel, columns=(), removable_points=(), config=None):
        try:
            vals = np.asarray(kernel(self.frequencies, *columns), dtype=float)
        except CohexError as exc:
            return exc
        if not np.all(np.isfinite(vals)):
            bad = self.frequencies[~np.isfinite(vals)]
            return DomainError(
                "kernel is singular at mode frequencies %r; discrete sums "
                "cannot bridge removable points" % (bad.tolist(),)
            )
        return float(np.sum(self.couplings ** 2 * vals)), 0.0


def _pchip_coefficients(x, y):
    """(4, n - 1) power-form coefficients, highest power first, of the
    cubic on each interval in the local variable s = xi - x_i."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = _pchip_slopes(h, m)
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _pchip_slopes(h, m):
    """Fritsch-Butland knot slopes from the interval widths h and secants m."""
    if m.size == 1:
        return np.array([m[0], m[0]])
    w_left = 2.0 * h[1:] + h[:-1]
    w_right = h[1:] + 2.0 * h[:-1]
    same = np.sign(m[:-1]) * np.sign(m[1:]) > 0.0
    d = np.zeros(m.size + 1)
    inverse_mean = (
        w_left[same] / m[:-1][same] + w_right[same] / m[1:][same]
    ) / (w_left + w_right)[same]
    d[1:-1][same] = 1.0 / inverse_mean
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class TabulatedDensity(_ContinuousDensity):
    """Monotone-cubic interpolation through (xi, I) knots.

    A knot at the origin, (0, 0), is prepended if absent; knot densities
    below the smallest normal double are flushed to 0; beyond the last
    knot the density continues as I_last * exp(-(xi - xi_last)/tail_decay).
    """

    def __init__(self, knots, tail_decay: float):
        pts = np.asarray(list(knots), dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise DomainError("knots must be a sequence of at least two (xi, I) pairs")
        xi, dens = pts[:, 0], pts[:, 1]
        if not np.all(np.isfinite(xi)):
            raise DomainError("knot abscissae must be finite")
        if np.any(np.diff(xi) <= 0.0):
            raise DomainError("knot abscissae must be strictly increasing")
        if xi[0] < 0.0:
            raise DomainError("knot abscissae must be non-negative")
        if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
            raise DomainError("knot densities must be finite and non-negative")
        if xi[0] > 0.0:
            xi = np.concatenate([[0.0], xi])
            dens = np.concatenate([[0.0], dens])
        # The harmonic-mean slopes divide by the secants, and a secant
        # between two subnormal densities overflows that quotient; such
        # densities are zero at every precision the quadrature can resolve.
        dens = np.where(dens < np.finfo(float).tiny, 0.0, dens)
        self.knot_xi = xi
        self.knot_density = dens
        self.breakpoints = tuple(xi.tolist())
        self.tail_decay = _check_positive("tail_decay", tail_decay)
        self._coefficients = _pchip_coefficients(xi, dens)
        self._omega = {}

    @classmethod
    def from_file(cls, path, tail_decay: float) -> "TabulatedDensity":
        """Load whitespace-separated "xi I" rows; '#' starts a comment."""
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise DomainError("expected exactly two columns: xi and I(xi)")
        return cls(data, tail_decay)

    def __repr__(self):
        return (
            f"TabulatedDensity(<{self.knot_xi.size} knots on "
            f"[0, {self.knot_xi[-1]!r}]>, tail_decay={self.tail_decay!r})"
        )

    def _density(self):
        return self._tabulated, ()

    def _tabulated(self, xi):
        xi = np.asarray(xi, dtype=float)
        last_xi = self.knot_xi[-1]
        last_density = self.knot_density[-1]
        inside = xi <= last_xi
        out = np.empty(xi.shape, dtype=float)
        if np.any(inside):
            out[inside] = self._pchip(xi[inside])
        tail = ~inside
        if np.any(tail):
            out[tail] = last_density * np.exp(-(xi[tail] - last_xi) / self.tail_decay)
        return out

    def _pchip(self, xi):
        """The interpolant at 0 <= xi <= last knot.

        Summed in ascending powers, c0 + c1 s + c2 s^2 + c3 s^3, as common
        piecewise-polynomial libraries sum them, so this interpolant and
        theirs agree bit for bit (``tests/test_spectral.py`` checks it).
        """
        # Interval k holds knot_xi[k] <= xi < knot_xi[k + 1]; the last
        # knot closes the last interval.
        k = np.searchsorted(self.knot_xi[1:-1], xi, side="right")
        c3, c2, c1, c0 = self._coefficients.take(k, axis=1)
        s = xi - self.knot_xi.take(k)
        s2 = s * s
        return c0 + c1 * s + c2 * s2 + c3 * (s2 * s)

    def reorganization_omega(self, config=None):
        # Kept per config after its first call, but not computed at
        # construction, so a bath whose Omega integral fails can still be
        # built.
        cfg = config or DEFAULT_QUADRATURE
        if cfg not in self._omega:
            self._omega[cfg] = self.weighted_integral(_reciprocal, (), cfg)
        return self._omega[cfg]

    def decay_scale(self) -> float:
        # quadrature must resolve both the knot span and the declared tail
        return max(self.tail_decay, self.knot_xi[-1] / 4.0)
