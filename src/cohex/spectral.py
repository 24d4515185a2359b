"""Bath spectral densities and integrals against them.

Four families cover everything downstream: the ohmic density
A xi exp(-xi/omega_c), its generalized power-law form A xi^s exp(-xi/omega_c),
an explicit finite set of modes (a sum of delta peaks), and a tabulated
curve interpolated monotonically with a declared exponential tail.

The one method every coherence formula actually consumes is
``weighted_integral(kernel, ...)`` which evaluates
integral I(xi) kernel(xi) dxi -- by adaptive quadrature for the continuous
families and as the exact finite sum  sum_k lambda_k^2 kernel(Omega_k)  for
the discrete one.  That shared dispatch is what lets the perturbative
formulas and the exact-diagonalization cross-check consume the same bath
object.

scipy is imported only when a ``TabulatedDensity`` is built (for its
``PchipInterpolator``); the other three families need numpy alone, so
code that never builds a tabulated bath never pays scipy's import cost.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedOperationError
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, integrate_semi_infinite


def _check_positive(name, value):
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


class SpectralDensity:
    """Common interface of the four bath families."""

    def eval(self, xi):
        """Pointwise density I(xi); xi may be a positive scalar or array."""
        raise NotImplementedError

    def reorganization_omega(self) -> float:
        """The reorganization-type scale  integral I(xi)/xi dxi."""
        raise NotImplementedError

    def weighted_integral(self, kernel, removable_points=(), config=None):
        """integral I(xi) kernel(xi) dxi as (value, err_estimate)."""
        raise NotImplementedError

    def _checked_xi(self, xi):
        arr = np.asarray(xi, dtype=float)
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise DomainError("spectral density is defined for xi > 0 only")
        return arr


class _ContinuousDensity(SpectralDensity):
    def decay_scale(self) -> float:
        """Energy scale of the slowest decay of I, for tail mapping."""
        raise NotImplementedError

    def weighted_integral(self, kernel, removable_points=(), config=None):
        cfg = config or DEFAULT_QUADRATURE
        scale = max(cfg.tail_decay_scale, self.decay_scale())
        if scale != cfg.tail_decay_scale:
            cfg = cfg.replace(tail_decay_scale=scale)

        def integrand(x):
            dens = self._eval_unchecked(x)
            vals = np.asarray(kernel(x), dtype=float)
            # 0 * inf at the origin (or in the tail) is a genuine 0 here:
            # the density vanishes identically there.
            return np.where(dens == 0.0, 0.0, dens * vals)

        return integrate_semi_infinite(integrand, removable_points, cfg)

    def _eval_unchecked(self, xi):
        raise NotImplementedError

    def eval(self, xi):
        out = self._eval_unchecked(self._checked_xi(xi))
        return float(out) if np.isscalar(xi) else out


class OhmicDensity(_ContinuousDensity):
    """I(xi) = A xi exp(-xi/omega_c)."""

    def __init__(self, coupling: float, cutoff: float):
        self.coupling = _check_positive("coupling", coupling)
        self.cutoff = _check_positive("cutoff", cutoff)

    def __repr__(self):
        return f"OhmicDensity(coupling={self.coupling!r}, cutoff={self.cutoff!r})"

    def _eval_unchecked(self, xi):
        return self.coupling * xi * np.exp(-xi / self.cutoff)

    def reorganization_omega(self) -> float:
        return self.coupling * self.cutoff

    def decay_scale(self) -> float:
        return self.cutoff


class GeneralizedOhmicDensity(_ContinuousDensity):
    """I(xi) = A xi^s exp(-xi/omega_c) with s > 0."""

    def __init__(self, coupling: float, exponent: float, cutoff: float):
        self.coupling = _check_positive("coupling", coupling)
        self.exponent = _check_positive("exponent", exponent)
        self.cutoff = _check_positive("cutoff", cutoff)

    def __repr__(self):
        return (
            f"GeneralizedOhmicDensity(coupling={self.coupling!r}, "
            f"exponent={self.exponent!r}, cutoff={self.cutoff!r})"
        )

    def _eval_unchecked(self, xi):
        return self.coupling * xi ** self.exponent * np.exp(-xi / self.cutoff)

    def reorganization_omega(self) -> float:
        # integral A xi^{s-1} e^{-xi/wc} = A Gamma(s) wc^s
        return self.coupling * math.gamma(self.exponent) * self.cutoff ** self.exponent

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

    def reorganization_omega(self) -> float:
        if self.frequencies.size == 0:
            return 0.0
        return float(np.sum(self.couplings ** 2 / self.frequencies))

    def weighted_integral(self, kernel, removable_points=(), config=None):
        if self.frequencies.size == 0:
            return 0.0, 0.0
        vals = np.asarray(kernel(self.frequencies), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = self.frequencies[~np.isfinite(vals)]
            raise DomainError(
                "kernel is singular at mode frequencies %r; discrete sums "
                "cannot bridge removable points" % (bad.tolist(),)
            )
        return float(np.sum(self.couplings ** 2 * vals)), 0.0


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
        if np.any(np.diff(xi) <= 0.0):
            raise DomainError("knot abscissae must be strictly increasing")
        if xi[0] < 0.0:
            raise DomainError("knot abscissae must be non-negative")
        if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
            raise DomainError("knot densities must be finite and non-negative")
        if xi[0] > 0.0:
            xi = np.concatenate([[0.0], xi])
            dens = np.concatenate([[0.0], dens])
        # Subnormal densities overflow PCHIP's slope weights (1/slope);
        # they are zero at every precision the quadrature can resolve.
        dens = np.where(dens < np.finfo(float).tiny, 0.0, dens)
        self.knot_xi = xi
        self.knot_density = dens
        self.tail_decay = _check_positive("tail_decay", tail_decay)
        # scipy costs ~0.6 s to import, so only tabulated baths pay for it.
        from scipy.interpolate import PchipInterpolator

        self._interp = PchipInterpolator(xi, dens, extrapolate=False)

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

    def _eval_unchecked(self, xi):
        xi = np.asarray(xi, dtype=float)
        last_xi = self.knot_xi[-1]
        last_density = self.knot_density[-1]
        inside = xi <= last_xi
        out = np.empty(xi.shape, dtype=float)
        if np.any(inside):
            out[inside] = self._interp(xi[inside])
        tail = ~inside
        if np.any(tail):
            out[tail] = last_density * np.exp(-(xi[tail] - last_xi) / self.tail_decay)
        return out

    def reorganization_omega(self) -> float:
        value, _ = self.weighted_integral(lambda x: 1.0 / x)
        return value

    def decay_scale(self) -> float:
        # quadrature must resolve both the knot span and the declared tail
        return max(self.tail_decay, self.knot_xi[-1] / 4.0)
