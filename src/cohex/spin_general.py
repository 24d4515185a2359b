"""Coherences at arbitrary inter-spin coupling, and their small-t ratios.

For arbitrary coupling t the pair Hamiltonian is diagonal in a mixed
basis parameterized by a single angle.  The second-order steady-state
coherences then become integrals of the bath spectral density against
rational-hyperbolic kernels of the bath frequency: three printed kernels
for the first spin, two for the second, with removable singular points
at |omega - epsilon|, omega + epsilon (and 2 epsilon for the first spin),
which the quadrature bridges.  Each spin's assembled kernel is a pole
sum over those points.  Removability ties the coth part's residue at
each point p to the 1/xi part's, alpha_p, so the kernel is

    sum_p alpha_p [1/xi - coth(beta xi/2) tanh(beta p/2)/p] / (xi^2 - p^2),

with every parameter and thermal weight in the residues.  A request
computes them once and passes them to the engine as columns of the one
kernel ``_pole_sum``, so no intermediate at a node grows past xi^2, and
the request is stated only while its nodes stay below where xi^2
overflows.  Written through
coth(y) - 1/y (see ``_stated``), the bracket cancels nothing as
beta -> 0, where the printed kernels cancel from order 1 to order beta^2.
``tests/derive_pole_sums.py`` re-derives the residues from the printed
kernels, which ``tests/oracles.py`` keeps as the high-precision reference.

The ratios R1 and R2 of these general coherences to their small-t closed
forms quantify where the detuned formulas remain accurate; the validity
maps in :mod:`cohex.sweep` tabulate them over the (omega2/omega1,
t/omega1) plane.  Coherences and ratios are steps (see ``numerics.run_steps``)
that state their integrals as requests, which a sweep's cells pool
(integrals sharing a kernel, a density and a column count share kernel
calls, so each spin's integrals pool apart from the other's): a ratio
states the small-t reference integral J, integrated once for all
cells that need it, and integrates its numerator alone.

The residues take the hyperbolic weights divided by cosh(beta*omega) +
cosh(beta*epsilon): the first spin's the share cosh(beta*epsilon) of that
sum, the second spin's the sum and difference of the two sinh weights,
which are tanh(beta*(omega +- epsilon)/2).  This folds the
partition-function normalization into the integrand and keeps everything
finite for arbitrarily large beta, including beta = inf.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .errors import DegenerateBasisError, DomainError
from .numerics import (
    _EPS,
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    _float_beta_xi,
    coth_minus_inv,
    integrate,
    runs_alone,
    take,
    thermal_tanh_half,
    within_reach,
)
from .spectral import SpectralDensity
from .spin_detuned import (
    _SQUARE_OVERFLOW,
    CoherenceResult,
    ModelParams,
    ThermalPoint,
    _magnitude_flags,
    coherence_request,
)

_NORMAL_MIN = sys.float_info.min

# The residues at omega + epsilon and 2 epsilon carry a 1/(omega - epsilon)
# factor that cancels only in the assembled kernel.  On the surface
# t^2 = omega1 omega2 the factor is infinite; within this relative distance
# of it the coupling is nudged sideways instead.
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


def _cosh_share(mix: SpinMixing, tp: ThermalPoint) -> float:
    """cosh(beta epsilon) / (cosh(beta omega) + cosh(beta epsilon)).

    Every exponential is taken relative to e^(beta m), m = max(omega,
    epsilon), with beta 0 = 0, so one formula holds at every beta, inf
    included.
    """
    beta, omega, epsilon = tp.beta, mix.omega, mix.epsilon
    m = max(omega, epsilon)
    u = math.exp(-_float_beta_xi(m - omega, beta))
    p = math.exp(-_float_beta_xi(m - epsilon, beta))
    v = math.exp(-_float_beta_xi(m + omega, beta))
    q = math.exp(-_float_beta_xi(m + epsilon, beta))
    return (p + q) / (u + v + p + q)


def _prepared(params: ModelParams, config):
    """Mixing plus an effective quadrature config for one evaluation.

    Near the surface t^2 = omega1 omega2 the residues' 1/(omega - epsilon)
    factor amplifies round-off in the assembled kernel; the noise estimate
    below, eps (omega / (omega - epsilon))^2, is the printed kernels' and
    bounds the pole sums' too.  Points within relative gap 1e-5
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


def _first_spin_residues(mix: SpinMixing, che):
    """alpha_p of g0 + sin(theta) g1 + cos(2 theta) g2 at p = omega -
    epsilon, omega + epsilon and 2 epsilon, for the weights over
    chw + che, with che the cosh share.  Plain arithmetic, so it runs on
    symbols too."""
    omega, epsilon, sin_t = mix.omega, mix.epsilon, mix.sin_theta
    gap, total = omega - epsilon, omega + epsilon
    lead = 2.0 * (omega - epsilon * sin_t)
    return (
        -gap * lead * (sin_t - 1.0) / total,
        total * lead * (sin_t + 1.0) / gap,
        -16.0 * epsilon * epsilon * omega * che * (mix.cos_theta * mix.cos_theta) / (gap * total),
    )


def _second_spin_residues(mix: SpinMixing, shs, shd):
    """alpha_p of f1k - sin(theta) f2k at p = omega - epsilon and omega +
    epsilon, for the sinh weights shs = shw + she and shd = shw - she."""
    omega, epsilon, sin_t = mix.omega, mix.epsilon, mix.sin_theta
    gap, total = omega - epsilon, omega + epsilon
    return (
        4.0 * epsilon * gap * shs * (sin_t - 1.0) / total,
        -4.0 * epsilon * total * shd * (sin_t + 1.0) / gap,
    )


def _pole_sum(xi, beta, *columns):
    """sum_p alpha_p [phi_p / xi - (coth(beta xi/2) - 2/(beta xi)) tau_p]
    / (xi^2 - p^2), with (p^2, alpha_p, phi_p, tau_p) per removable point
    as columns (see ``_stated``)."""
    x2 = xi * xi
    cmi = coth_minus_inv(0.5 * beta * xi)
    total = 0.0
    for i in range(0, len(columns), 4):
        p2, alpha, phi, tau = columns[i:i + 4]
        total = total + alpha * (phi / xi - cmi * tau) / (x2 - p2)
    return total


def _removable_points(mix: SpinMixing):
    """|omega - epsilon|, omega + epsilon and 2 epsilon, or ``DomainError``
    where the first rounds to 0 (the residues divide by it) or one passes
    where xi^2 overflows."""
    points = (abs(mix.omega - mix.epsilon), mix.omega + mix.epsilon, 2.0 * mix.epsilon)
    if points[0] == 0.0:
        raise DomainError(
            "omega - epsilon rounds to 0: the general-coupling kernels' "
            "residues at their removable points are undefined"
        )
    if max(points) >= _SQUARE_OVERFLOW:
        raise DomainError(
            f"a removable point at {max(points):.3g} passes {_SQUARE_OVERFLOW:.3g}, "
            "where the general-coupling kernels overflow"
        )
    return points


def _stated(sd, tp, points, alphas, cfg):
    """The integral of I(xi) times the pole sum with residues ``alphas``
    at ``points``, stated only while its tail nodes stay below where xi^2
    overflows.

    At each point p, with x = beta p/2, removability ties the coth part's
    residue to alpha_p: it is -alpha_p tau_p, tau_p = tanh(x)/p.  So the
    kernel is alpha_p [1/xi - coth(beta xi/2) tau_p] / (xi^2 - p^2),
    written with phi_p = 1 - tanh(x)/x = tanh(x) (coth(x) - 1/x): as beta
    -> 0 both bracket terms are of order beta^2, and nothing cancels.
    Where phi_p is no longer a normal float, the kernel has no digits
    left and ``DomainError`` is raised.
    """
    columns = [tp.beta]
    for p, alpha in zip(points, alphas):
        x = 0.5 * _float_beta_xi(p, tp.beta)
        th = math.tanh(x)
        phi = th * coth_minus_inv(x)
        if phi < _NORMAL_MIN:
            raise DomainError(
                f"beta = {tp.beta!r} is too hot for the general-coupling kernels: "
                f"(beta p)^2 underflows at the removable point p = {p:.3g}; "
                "high_T_asymptotes holds there"
            )
        columns += [p * p, alpha, phi, th / p]
    request = sd.integral(_pole_sum, tuple(columns), points, cfg)
    return within_reach(request, _SQUARE_OVERFLOW, "the decay scale of the general-coupling bath")


def _first_spin_request(sd, tp, mix, cfg):
    """Integral of I(xi) [g0 + sin(theta) g1 + cos(2 theta) g2] with the
    weights over cosh(beta omega) + cosh(beta epsilon)."""
    points = _removable_points(mix)
    alphas = _first_spin_residues(mix, _cosh_share(mix, tp))
    return _stated(sd, tp, points, alphas, cfg)


def _second_spin_request(sd, tp, mix, cfg):
    """Integral of I(xi) [f1k - sin(theta) f2k] with the same weights,
    whose sum and difference are tanh(beta p/2) at p = omega +- epsilon."""
    points = _removable_points(mix)[:2]
    gap_tanh, total_tanh = (math.tanh(0.5 * _float_beta_xi(p, tp.beta)) for p in points)
    gap_tanh = math.copysign(gap_tanh, mix.omega - mix.epsilon)
    alphas = _second_spin_residues(mix, total_tanh, gap_tanh)
    return _stated(sd, tp, points, alphas, cfg)


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
