"""Coherences at arbitrary inter-spin coupling, and their small-t ratios.

For arbitrary coupling t the pair Hamiltonian is diagonal in a mixed
basis parameterized by a single angle.  The second-order steady-state
coherences then become integrals of the bath spectral density against
rational-hyperbolic kernels of the bath frequency: three kernels for the
first spin, two for the second.  The kernels have removable singular
points at |omega - epsilon|, omega + epsilon (and 2 epsilon for the
first spin), which the quadrature bridges.

The ratios R1 and R2 of these general coherences to their small-t closed
forms quantify where the detuned formulas remain accurate; the validity
maps in :mod:`cohex.sweep` tabulate them over the (omega2/omega1,
t/omega1) plane.  Coherences and ratios are steps (see ``numerics.run_steps``)
that state their integrals as requests, which a sweep's cells pool: a
ratio states the small-t reference integral J, integrated once for all
cells that need it, and integrates its numerator alone.

Internally every kernel is evaluated with the four hyperbolic weights
cosh(beta*omega), cosh(beta*epsilon), sinh(beta*omega), sinh(beta*epsilon)
divided by cosh(beta*omega) + cosh(beta*epsilon).  The kernels are linear
in those four values, so this rescaling folds the partition-function
normalization into the integrand and keeps everything finite for
arbitrarily large beta, including beta = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateBasisError, DomainError
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    integrate,
    runs_alone,
    take,
    thermal_coth_half,
    thermal_tanh_half,
)
from .spectral import SpectralDensity
from .spin_detuned import (
    CoherenceResult,
    ModelParams,
    ThermalPoint,
    _magnitude_flags,
    coherence_request,
)

_EPS = np.finfo(float).eps

# The kernels carry a 1/(omega^2 - epsilon^2) prefactor that cancels only
# in the assembled combination.  On the surface t^2 = omega1 omega2 the
# prefactor is infinite; within this relative distance of it the coupling
# is nudged sideways instead.
_NEAR_SURFACE_GAP_RTOL = 1e-5
_COUPLING_NUDGE = 3e-5


@dataclass(frozen=True)
class SpinMixing:
    """Mixed-basis data of the pair Hamiltonian at arbitrary coupling.

    omega is the mean splitting (omega1 + omega2)/2 and epsilon the mixed
    gap sqrt(t^2 + (omega1 - omega2)^2/4); cos_theta = t/epsilon and
    sin_theta = (omega1 - omega2)/(2 epsilon) rotate the central
    two-dimensional block.
    """

    omega: float
    epsilon: float
    cos_theta: float
    sin_theta: float

    @property
    def cos_two_theta(self) -> float:
        return (self.cos_theta - self.sin_theta) * (self.cos_theta + self.sin_theta)


def mixing(params: ModelParams) -> SpinMixing:
    """Mixed-basis quantities for the given spin pair.

    Raises a degenerate-basis error at t = 0 with omega1 = omega2, where
    the rotation angle is undefined.
    """
    d = params.detuning
    if params.t == 0.0 and d == 0.0:
        raise DegenerateBasisError(
            "mixing angle undefined at t = 0 with omega1 = omega2"
        )
    r = math.hypot(2.0 * params.t, d)
    omega = 0.5 * (params.omega1 + params.omega2)
    return SpinMixing(omega, 0.5 * r, 2.0 * params.t / r, d / r)


def _scaled_weights(mix: SpinMixing, tp: ThermalPoint):
    """cosh bw, cosh be, sinh bw, sinh be, all over (cosh bw + cosh be).

    Factoring out exp(max(bw, be)) keeps the ratios exact for any beta;
    at beta = inf only the larger of omega, epsilon survives.
    """
    if tp.is_zero_temperature:
        if mix.omega > mix.epsilon:
            return 1.0, 0.0, 1.0, 0.0
        if mix.epsilon > mix.omega:
            return 0.0, 1.0, 0.0, 1.0
        return 0.5, 0.5, 0.5, 0.5
    bw = tp.beta * mix.omega
    be = tp.beta * mix.epsilon
    m = max(bw, be)
    u = math.exp(bw - m)
    v = math.exp(-bw - m)
    p = math.exp(be - m)
    q = math.exp(-be - m)
    h = u + v + p + q
    return (u + v) / h, (p + q) / h, (u - v) / h, (p - q) / h


def _g_parts(xi, cothb, omega, epsilon, chw, che, shw, she):
    """The three first-spin kernels for given hyperbolic values.

    cothb is coth(beta xi / 2) at the same xi.  With the raw hyperbolic
    values these are the printed kernels; the integral routines pass the
    values divided by cosh(beta omega) + cosh(beta epsilon), which simply
    divides the (linear) kernels by the same factor.  Squares are
    products: numpy rounds ``scalar ** 2`` (libm pow) and ``array ** 2``
    (a square) differently, and a lone integral's columns are scalars
    where pooled ones are arrays.
    """
    w2 = omega * omega
    e2 = epsilon * epsilon
    x2 = xi * xi
    wpe = omega + epsilon
    wme = omega - epsilon
    d2 = (x2 - wpe * wpe) * (x2 - wme * wme)
    we = w2 - e2
    x2m4e = x2 - 4.0 * e2
    g0 = (-1.0 / (we * d2)) * (
        4.0 * omega * chw * (we * we - x2 * w2) / xi
        - 4.0 * omega * che * (
            x2 * w2 * (x2 - w2)
            + e2 * e2 * (3.0 * x2 - 4.0 * w2)
            + 2.0 * e2 * (x2 * w2 - x2 * x2 + w2 * w2)
            + 2.0 * e2 * e2 * e2
        ) / (xi * x2m4e)
        - 2.0 * cothb * (
            omega * epsilon * she * (
                -7.0 * x2 * w2 + x2 * x2 + 2.0 * w2 * w2
                + e2 * (3.0 * x2 + 8.0 * w2) - 10.0 * e2 * e2
            ) / x2m4e
            - shw * (2.0 * w2 * (x2 - w2) + e2 * (w2 - x2) + e2 * e2)
        )
    )
    g1 = (
        4.0 * epsilon * (x2 + w2 - e2) * (chw + che)
        - 4.0 * xi * cothb * (2.0 * omega * epsilon * shw + she * (x2 - w2 - e2))
    ) / (xi * d2)
    g2 = (-2.0 * epsilon / (we * d2)) * (
        -2.0 * xi * omega * epsilon * chw
        + 2.0 * che * omega * epsilon * (
            x2 * x2 + 2.0 * (w2 * w2 - 2.0 * w2 * (x2 + e2) + e2 * e2)
        ) / (xi * x2m4e)
        + cothb * (
            epsilon * shw * (x2 + w2 - e2)
            + omega * she * (
                3.0 * x2 * w2 - x2 * x2 - 2.0 * w2 * w2
                + e2 * (x2 + 8.0 * w2) - 6.0 * e2 * e2
            ) / x2m4e
        )
    )
    return g0, g1, g2


def _f_parts(xi, cothb, omega, epsilon, chw, che, shw, she):
    """The two second-spin kernels; same conventions as _g_parts."""
    w2 = omega * omega
    e2 = epsilon * epsilon
    x2 = xi * xi
    we = w2 - e2
    wme = omega - epsilon
    wpe = omega + epsilon
    den = we * (x2 - wme * wme) * (x2 - wpe * wpe)
    sq = we * we - x2 * (w2 + e2)
    f1k = (
        8.0 * epsilon * (shw / xi) * sq
        + 16.0 * xi * omega * e2 * she
        + 8.0 * epsilon * omega * cothb * (x2 - w2 + e2) * (chw - che)
    ) / den
    f2k = (
        8.0 * epsilon * (she / xi) * sq
        + 16.0 * xi * omega * e2 * shw
        + 8.0 * e2 * cothb * (x2 + w2 - e2) * (che - chw)
    ) / den
    return f1k, f2k


def _prepared(params: ModelParams, config):
    """Mixing plus an effective quadrature config for one evaluation.

    Near the surface t^2 = omega1 omega2 the 1/(omega^2 - epsilon^2)
    kernel prefactor amplifies round-off in the assembled combination;
    the achievable relative accuracy degrades like
    eps (omega / (omega - epsilon))^2.  Points within relative gap 1e-5
    of the surface are therefore nudged sideways in t (growing the gap,
    never crossing the surface), and the requested tolerance is floored
    at the noise estimate.  Both adjustments raise the
    "mixing-regularized" flag; the returned extra_rel bounds the
    relative error they introduce beyond what the quadrature's own
    estimator can see (the nudge shift plus the noise bias), so callers
    fold extra_rel * |value| into their error estimate.
    """
    cfg = DEFAULT_QUADRATURE if config is None else config
    flags = ()
    extra_rel = 0.0
    mix = mixing(params)
    if params.t > 0.0 and abs(mix.omega - mix.epsilon) < _NEAR_SURFACE_GAP_RTOL * mix.omega:
        bump = _COUPLING_NUDGE if mix.epsilon >= mix.omega else -_COUPLING_NUDGE
        params = replace(params, t=params.t * (1.0 + bump))
        mix = mixing(params)
        flags = ("mixing-regularized",)
        extra_rel = 3.0 * _COUPLING_NUDGE
    gap_rel = abs(mix.omega - mix.epsilon) / mix.omega
    if gap_rel > 0.0:
        noise = 5.0 * _EPS / (gap_rel * gap_rel)
        floor = min(noise, 1e-4)
        if floor > cfg.rel_tol:
            cfg = cfg.replace(rel_tol=floor)
            flags = ("mixing-regularized",)
            extra_rel += floor
    return params, mix, cfg, flags, extra_rel


def _general_step(params, sd, tp, config, second=False):
    """sigma1x_general, or sigma2x_general if ``second``, as a step."""
    params, mix, cfg, flags, extra_rel = _prepared(params, config)
    if second and params.t == 0.0:
        return CoherenceResult((0.0,), 0.0, "general_mixed_basis")
    stated = _second_spin_request if second else _first_spin_request
    (outcome,) = yield [stated(sd, tp, mix, cfg)]
    val, err = take(outcome)
    pre = 0.5 * params.f1 * params.f2 * mix.cos_theta if second else params.f1 * params.f2
    value = pre * val
    err_total = abs(pre) * err + extra_rel * abs(value)
    return CoherenceResult(
        (value,), err_total, "general_mixed_basis", flags + _magnitude_flags(value)
    )


@runs_alone
def sigma1x_general(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """First-spin coherence at arbitrary coupling t."""
    return (yield from _general_step(params, sd, tp, config))


@runs_alone
def sigma2x_general(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Second-spin coherence at arbitrary coupling t.

    Exactly zero at t = 0: the prefactor cos(theta) epsilon equals t.
    """
    return (yield from _general_step(params, sd, tp, config, second=True))


def _first_spin_kernel(xi, beta, omega, epsilon, sin_t, cos2t, chw, che, shw, she):
    """g0 + sin(theta) g1 + cos(2 theta) g2 with scaled weights."""
    g0, g1, g2 = _g_parts(xi, thermal_coth_half(beta, xi), omega, epsilon, chw, che, shw, she)
    return g0 + sin_t * g1 + cos2t * g2


def _second_spin_kernel(xi, beta, omega, epsilon, sin_t, chw, che, shw, she):
    """f1k - sin(theta) f2k with scaled weights."""
    f1k, f2k = _f_parts(xi, thermal_coth_half(beta, xi), omega, epsilon, chw, che, shw, she)
    return f1k - sin_t * f2k


def _first_spin_request(sd, tp, mix, cfg):
    """Integral of I(xi) [g0 + sin(theta) g1 + cos(2 theta) g2], scaled."""
    omega, epsilon = mix.omega, mix.epsilon
    columns = (tp.beta, omega, epsilon, mix.sin_theta, mix.cos_two_theta)
    removable = (abs(omega - epsilon), omega + epsilon, 2.0 * epsilon)
    return sd.integral(_first_spin_kernel, columns + _scaled_weights(mix, tp), removable, cfg)


def _second_spin_request(sd, tp, mix, cfg):
    """Integral of I(xi) [f1k - sin(theta) f2k] with scaled weights."""
    omega, epsilon = mix.omega, mix.epsilon
    columns = (tp.beta, omega, epsilon, mix.sin_theta)
    removable = (abs(omega - epsilon), omega + epsilon)
    return sd.integral(_second_spin_kernel, columns + _scaled_weights(mix, tp), removable, cfg)


@runs_alone
def r1_value(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Ratio of the general first-spin coherence to its small-t form.

    The coupling weights f1, f2 cancel; the result depends on omega1,
    omega2, t, the bath, and the temperature only.  The step states J, then
    integrates its numerator alone.
    """
    (j,) = yield [coherence_request(params, sd, tp, config)]
    j_val, j_err = take(j)
    params, mix, cfg, flags, extra_rel = _prepared(params, config)
    num, num_err = integrate(_first_spin_request(sd, tp, mix, cfg))
    th1 = thermal_tanh_half(tp.beta, params.omega1)
    den = -4.0 * th1 * j_val
    value = num / den if den != 0.0 else math.inf
    if not math.isfinite(value):
        raise DomainError("small-t reference coherence vanishes; R1 undefined")
    err = (num_err + abs(value) * 4.0 * abs(th1) * j_err) / abs(den)
    err += extra_rel * abs(value)
    return CoherenceResult((value,), err, "ratio_r1", flags)


@runs_alone
def r2_value(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Ratio of the general second-spin coherence to its small-t form.

    Finite on the whole t = 0 edge (away from omega1 = omega2), where it
    tends to 1 by construction: the cos(theta)/t prefactor is evaluated as
    1/epsilon.  The step states J, then integrates its numerator alone.
    """
    (j,) = yield [coherence_request(params, sd, tp, config)]
    j_val, j_err = take(j)
    params, mix, cfg, flags, extra_rel = _prepared(params, config)
    num, num_err = integrate(_second_spin_request(sd, tp, mix, cfg))
    cos_over_t = 1.0 / mix.epsilon
    th1 = thermal_tanh_half(tp.beta, params.omega1)
    th2 = thermal_tanh_half(tp.beta, params.omega2)
    den = 8.0 * th2 * th1 * j_val
    value = params.omega2 * cos_over_t * num / den if den != 0.0 else math.inf
    if not math.isfinite(value):
        raise DomainError("small-t reference coherence vanishes; R2 undefined")
    err = abs(params.omega2 * cos_over_t / den) * num_err + abs(
        value / j_val
    ) * j_err
    err += extra_rel * abs(value)
    return CoherenceResult((value,), err, "ratio_r2", flags)
