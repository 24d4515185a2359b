"""Steady-state coherences of two detuned spins sharing a bosonic bath.

Second-order perturbation theory in the system--bath coupling gives every
coherence here as a prefactor times one shared bath integral

    J = integral I(xi) [xi coth(beta xi/2) - omega1 coth(beta omega1/2)]
                 / [xi (xi^2 - omega1^2)] dxi

with a removable point at xi = omega1.  Both spin coherences are built from
the same J evaluation, so their exact proportionality

    <sigma2x> = -(t/omega2) tanh(beta omega2/2) <sigma1x>

holds to machine precision by construction, for any bath.  Zero temperature
is a separate analytic path where the kernel collapses to
1/[xi (xi + omega1)] and the singular point disappears.

Conventions: hbar = k_B = 1; beta = +inf encodes T = 0; f1, f2 are the
dimensionless longitudinal/transverse bath-coupling weights of the first
spin; t couples the two spins.

Every sweepable quantity is written once, as a step (see
``numerics.run_steps``) taking (params, sd, tp, config) that yields its
request for J or F, or nothing for a closed form; its public function
runs the step alone, and a sweep pools the requests of many cells in one
engine run.  Every quantity returns one ``CoherenceResult``: its values,
one error estimate bounding each of them, the method and the advisory
flags; a one-valued result reads as ``value``.  Only the plain integrals
``coherence_integral`` and ``f_dimensionless``, which integrate J and F
alone, return (value, err_estimate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .numerics import (
    Integral,
    QuadratureConfig,
    _exp_scaled_ei_neg,
    coth_minus_inv,
    integrate,
    runs_alone,
    take,
    thermal_tanh_half,
    with_tail_scale,
)
from .spectral import OhmicDensity, SpectralDensity

# Advisory thresholds (flags only, never hard errors): the detuned formulas
# assume t small against every level splitting; the low-temperature form
# assumes clearly low temperature; perturbative values should stay small.
DETUNED_COUPLING_FACTOR = 0.2
LOW_T_MIN_BETA_OMEGA1 = 5.0
STATIC_VALIDITY_FACTOR = 0.1
PERTURBATIVE_MAGNITUDE = 0.1


@dataclass(frozen=True)
class ModelParams:
    """Energies of the two spins, their coupling, and the bath weights."""

    omega1: float
    omega2: float
    t: float
    f1: float
    f2: float

    def __post_init__(self):
        for name in ("omega1", "omega2"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise DomainError(f"{name} must be positive and finite")
        if self.t < 0.0 or not math.isfinite(self.t):
            raise DomainError("t must be non-negative and finite")
        for name in ("f1", "f2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    @property
    def detuning(self) -> float:
        """omega1 - omega2 (signed)."""
        return self.omega1 - self.omega2


@dataclass(frozen=True)
class ThermalPoint:
    """Inverse temperature; beta = +inf encodes T = 0."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0.0):
            raise DomainError("beta must be positive (inf allowed for T = 0)")

    @classmethod
    def from_axis(cls, name: str, value: float, omega1: float) -> "ThermalPoint":
        """The point a temperature key names: ``T_over_omega1`` or
        ``beta_omega1`` at ``value``, in units of ``omega1``."""
        make = {"T_over_omega1": cls.from_T_over_omega1, "beta_omega1": cls.from_beta_omega1}
        return make[name](value, omega1)

    @classmethod
    def from_beta_omega1(cls, beta_omega1: float, omega1: float) -> "ThermalPoint":
        return cls(beta_omega1 / omega1)

    @classmethod
    def from_T_over_omega1(cls, t_rel: float, omega1: float) -> "ThermalPoint":
        if t_rel < 0.0:
            raise DomainError("temperature must be non-negative")
        if t_rel == 0.0:
            return cls(math.inf)
        return cls(1.0 / (t_rel * omega1))

    @property
    def is_zero_temperature(self) -> bool:
        return math.isinf(self.beta)

    def beta_omega1(self, omega1: float) -> float:
        return self.beta * omega1


@dataclass(frozen=True)
class CoherenceResult:
    """A computed quantity: its values, one numeric error estimate bounding
    each of them, the method that made them, and advisory flags."""

    values: tuple
    err_estimate: float
    method: str
    flags: tuple = field(default_factory=tuple)

    @property
    def value(self) -> float:
        """The value of a one-valued result."""
        (value,) = self.values
        return value


def detuned_validity_flags(params: ModelParams) -> tuple:
    """Advisory flags for using the detuned (small-t) formulas."""
    scales = [params.omega1, params.omega2]
    if params.detuning != 0.0:
        scales.append(abs(params.detuning))
    if params.t >= DETUNED_COUPLING_FACTOR * min(scales):
        return ("detuned-coupling",)
    return ()


def _magnitude_flags(value: float) -> tuple:
    if abs(value) > PERTURBATIVE_MAGNITUDE:
        return ("perturbative-magnitude",)
    return ()


def _linear_in_omega_err(values, omega: float, omega_err: float) -> float:
    """Estimate bounding each of values proportional to Omega: Omega's
    relative estimate carried to the largest of them."""
    if omega_err == 0.0:
        return 0.0
    return max(abs(v) for v in values) * omega_err / abs(omega)


def _j_kernel(xi, omega1, half_beta, anchor):
    # xi coth(beta xi/2) - omega1 coth(beta omega1/2) with the common 2/beta
    # part removed analytically; essential at high temperature.
    num = xi * coth_minus_inv(half_beta * xi) - anchor
    return num / (xi * (xi * xi - omega1 * omega1))


def _j_kernel_zero(xi, omega1):
    return 1.0 / (xi * (xi + omega1))


def coherence_request(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
):
    """The shared integral J stated for the engine (``sd.integral``)."""
    w1 = params.omega1
    if tp.is_zero_temperature:
        return sd.integral(_j_kernel_zero, (w1,), (), config)
    half_beta = 0.5 * tp.beta
    anchor = w1 * coth_minus_inv(half_beta * w1)
    return sd.integral(_j_kernel, (w1, half_beta, anchor), (w1,), config)


def coherence_integral(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
):
    """The shared integral J; returns (value, err_estimate).

    All detuned coherences are proportional to this one number, which is
    why the transfer relation between the two spins is exact here.
    """
    return integrate(coherence_request(params, sd, tp, config))


@runs_alone
def sigma1x(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """<sigma1x> at temperature 1/beta: -4 f1 f2 tanh(beta omega1/2) J."""
    flags = detuned_validity_flags(params)
    pre = -4.0 * params.f1 * params.f2 * thermal_tanh_half(tp.beta, params.omega1)
    if pre == 0.0:
        return CoherenceResult((0.0,), 0.0, "full", flags)
    (outcome,) = yield [coherence_request(params, sd, tp, config)]
    j, err = take(outcome)
    value = pre * j
    return CoherenceResult(
        (value,), abs(pre) * err, "full", flags + _magnitude_flags(value)
    )


_sigma1x_step = sigma1x.step


@runs_alone
def sigma2x(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """<sigma2x>: the first spin's coherence transferred through t.

    Computed as -(t/omega2) tanh(beta omega2/2) * sigma1x, sharing the
    identical J evaluation, so the proportionality is structural rather
    than a numerical coincidence.
    """
    first = yield from _sigma1x_step(params, sd, tp, config)
    factor = -(params.t / params.omega2) * thermal_tanh_half(tp.beta, params.omega2)
    value = factor * first.value
    return CoherenceResult(
        (value,),
        abs(factor) * first.err_estimate,
        "full",
        detuned_validity_flags(params) + _magnitude_flags(value),
    )


_sigma2x_step = sigma2x.step


@runs_alone
def sigma2y(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """<sigma2y> vanishes identically in the steady state."""
    yield from ()  # a closed form states no integral
    return CoherenceResult((0.0,), 0.0, "full")


def _f_kernel(x, a, half_b, anchor):
    num = x * coth_minus_inv(half_b * x) - anchor
    return np.exp(-a * x) * num / (x * x - 1.0)


def f_request(
    omega1_over_omegac: float,
    beta_omega1: float,
    config: QuadratureConfig | None = None,
):
    """The shape factor F stated for the engine.

    Returns a ``numerics.Integral``, or an outcome that needs no
    quadrature: the zero-temperature closed form (F, 0), or the
    ``DomainError`` for arguments outside its domain.
    """
    a = float(omega1_over_omegac)
    b = float(beta_omega1)
    if not (a > 0.0) or not math.isfinite(a):
        return DomainError("omega1_over_omegac must be positive and finite")
    if not (b > 0.0):
        return DomainError("beta_omega1 must be positive (inf allowed)")
    if math.isinf(b):
        return -_exp_scaled_ei_neg(a), 0.0
    half_b = 0.5 * b
    return Integral(_f_kernel, (a, half_b, coth_minus_inv(half_b)), (1.0,),
                    with_tail_scale(config, 1.0 / a))


def f_dimensionless(
    omega1_over_omegac: float,
    beta_omega1: float,
    config: QuadratureConfig | None = None,
):
    """The dimensionless ohmic shape factor F(omega1/omegac, beta omega1).

    F = integral_0^inf e^{-(omega1/omegac) x}
        [x coth(beta omega1 x/2) - coth(beta omega1/2)] / (x^2 - 1) dx,

    removable at x = 1.  At beta omega1 = +inf it reduces to
    -e^{omega1/omegac} Ei(-omega1/omegac).  Positive, and grows as the
    temperature drops.  Returns (F, err_estimate); the zero-temperature
    closed form has err_estimate 0.
    """
    return integrate(f_request(omega1_over_omegac, beta_omega1, config))


def _f_step(omega1_over_omegac, beta_omega1, config):
    """Step returning the shape factor F as (value, err_estimate)."""
    (outcome,) = yield [f_request(omega1_over_omegac, beta_omega1, config)]
    return take(outcome)


def _ohmic(sd: SpectralDensity, what: str) -> OhmicDensity:
    """``sd``, which must be the ohmic bath that ``what`` is written for."""
    if not isinstance(sd, OhmicDensity):
        raise DomainError(f"{what} uses the ohmic closed form")
    return sd


@runs_alone
def sigma2x_low_T(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Low-temperature closed form of <sigma2x> for the ohmic bath.

    (4 A f1 f2 t / omega2) tanh(beta omega2/2) tanh(beta omega1/2)
        [-e^{omega1/omegac} Ei(-omega1/omegac) - pi^2/(3 (beta omega1)^2)].

    The second bracket term is the leading thermal correction; the overall
    tanh(beta omega1/2) keeps the approximation within a few percent down
    to beta omega1 ~ 2.5.  Returns its value with err_estimate 0.
    """
    yield from ()  # a closed form states no integral
    a = params.omega1 / _ohmic(sd, "the low-temperature form of <sigma2x>").cutoff
    b = tp.beta_omega1(params.omega1)
    # At T = 0, b = inf: the thermal correction is 0.0 and no flag is raised.
    denom = 3.0 * b * b
    corr = math.pi ** 2 / denom if denom > 0.0 else math.inf
    if not math.isfinite(corr):
        raise DomainError(
            f"beta omega1 = {b!r} is too hot for the low-temperature form: "
            "pi^2/(3 (beta omega1)^2) overflows; high_T_asymptotes holds there"
        )
    bracket = -_exp_scaled_ei_neg(a) - corr
    flags = ("low-T-advisory",) if b < LOW_T_MIN_BETA_OMEGA1 else ()
    value = (
        4.0 * sd.coupling * params.f1 * params.f2 * params.t / params.omega2
        * thermal_tanh_half(tp.beta, params.omega2)
        * thermal_tanh_half(tp.beta, params.omega1)
        * bracket
    )
    return CoherenceResult((value,), 0.0, "low_T_asymptotic", flags)


def high_T_asymptotes(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Leading high-temperature forms of both coherences (any bath).

    Only the reorganization scale Omega = integral I/xi survives:
    sigma1x ~ -f1 f2 (Omega/3 omega1) (beta omega1)^2 and
    sigma2x ~ +f1 f2 t Omega omega1 beta^3 / 6.  Returns the values
    (sigma1x, sigma2x); both are linear in Omega, which a tabulated bath
    integrates under ``config``, so the estimate is Omega's relative one
    on the larger of the two.
    """
    if tp.is_zero_temperature:
        raise DomainError("high-temperature asymptote is meaningless at T = 0")
    omega, omega_err = sd.reorganization_omega(config)
    b = tp.beta_omega1(params.omega1)
    s1 = -params.f1 * params.f2 * (omega / (3.0 * params.omega1)) * b * b
    s2 = (params.f1 * params.f2 * params.t / params.omega1) * (
        omega / (6.0 * params.omega1)
    ) * b ** 3
    err = _linear_in_omega_err((s1, s2), omega, omega_err)
    return CoherenceResult((s1, s2), err, "high_T_asymptotic")


class StaticChain(NamedTuple):
    """The four mean-field steps: spin polarization, per-mode bath shift
    coefficient, back-shifted first-spin coherence, transferred output."""

    sigma1z_st: float
    boson_shift_coeff: float
    sigma1x_st: float
    sigma2x_st: float


def static_chain(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Mean-field chain ignoring back-action dynamics.

    The thermalized first spin polarizes the bath, the shifted bath tilts
    the first spin, and the tilt transfers to the second spin.  Every step
    is closed-form; the bath enters only through Omega, which a tabulated
    bath integrates under ``config``.  Returns the ``StaticChain`` as its
    values; the estimate bounds both coherences and is Omega's, carried
    through the linear chain.  The flags name a broken weak-coupling
    assumption: ``static-bath-coupling`` when 4 |f1 f2| Omega, and
    ``static-spin-coupling`` when t |sigma1x_st|, exceeds
    ``STATIC_VALIDITY_FACTOR`` of omega1 and omega2 respectively.
    """
    omega, omega_err = sd.reorganization_omega(config)
    s1z = -thermal_tanh_half(tp.beta, params.omega1)
    shift_coeff = -2.0 * params.f1 * s1z
    s1x = -4.0 * params.f1 * params.f2 * s1z * s1z * omega / params.omega1
    s2x = -(params.t / params.omega2) * thermal_tanh_half(tp.beta, params.omega2) * s1x
    flags = ()
    if 4.0 * abs(params.f1 * params.f2) * omega > STATIC_VALIDITY_FACTOR * params.omega1:
        flags += ("static-bath-coupling",)
    if params.t * abs(s1x) > STATIC_VALIDITY_FACTOR * params.omega2:
        flags += ("static-spin-coupling",)
    return CoherenceResult(
        StaticChain(s1z, shift_coeff, s1x, s2x),
        _linear_in_omega_err((s1x, s2x), omega, omega_err),
        "static_chain",
        flags,
    )


@runs_alone
def static_sigma2x(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """The output coherence sigma2x_st of ``static_chain``, with its
    estimate and flags."""
    yield from ()  # a closed form states no integral
    chain = static_chain(params, sd, tp, config)
    return replace(chain, values=(chain.values.sigma2x_st,))


@runs_alone
def static_compare(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """<sigma2x> three ways on the ohmic bath: the values (full, static,
    low-T) of ``sigma2x``, ``static_chain`` and ``sigma2x_low_T``, with the
    full form's estimate (the other two are exact on an ohmic bath) and
    the flags of all three, each once."""
    _ohmic(sd, "the low-temperature form of <sigma2x>")
    full = yield from _sigma2x_step(params, sd, tp, config)
    chain = static_chain(params, sd, tp, config)
    low = sigma2x_low_T(params, sd, tp, config)
    return CoherenceResult(
        (full.value, chain.values.sigma2x_st, low.value),
        full.err_estimate,
        "static_compare",
        tuple(dict.fromkeys(full.flags + chain.flags + low.flags)),
    )


def _dynamical_kernel(xi, omega1):
    return 1.0 / (xi + omega1)


def static_dynamical_split(
    params: ModelParams,
    sd: SpectralDensity,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Zero-temperature <sigma2x> split into its two competing pieces.

    static_term = 4 f1 f2 t Omega/(omega1 omega2) is bath-shape-blind;
    dynamical_term = -(4 f1 f2 t/(omega1 omega2)) integral I/(xi + omega1)
    carries the back-action and is always <= 0, so the static term alone is
    an upper bound on the true zero-temperature value.  Returns the values
    (static_term, dynamical_term); the estimate bounds each term: Omega's
    estimate for the static one, the integral's for the dynamical one.
    """
    pre = 4.0 * params.f1 * params.f2 * params.t / (params.omega1 * params.omega2)
    omega, omega_err = sd.reorganization_omega(config)
    static_term = pre * omega
    if omega == 0.0:
        return CoherenceResult((static_term, 0.0), 0.0, "static_dynamical_split")
    integral, err = integrate(sd.integral(_dynamical_kernel, (params.omega1,), (), config))
    err = abs(pre) * max(err, omega_err)
    return CoherenceResult((static_term, -pre * integral), err, "static_dynamical_split")


@runs_alone
def normalized_output_ratio(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """(omega1/t) <sigma2x>_T / <sigma1x>_{T=0} for the ohmic bath.

    Couplings cancel, leaving
    (omega1/omega2) tanh(beta omega2/2) tanh(beta omega1/2)
        F(a, b) / (e^a Ei(-a)),  a = omega1/omegac.
    Negative at all T; magnitude 1 at T = 0 when omega2 = omega1, and
    falling off as T^{-3} at high temperature.  Returns the ratio with
    the estimate carried from F.
    """
    a = params.omega1 / _ohmic(sd, "the normalized output ratio").cutoff
    b = tp.beta_omega1(params.omega1)
    f_val, f_err = yield from _f_step(a, b, config)
    pre = (
        (params.omega1 / params.omega2)
        * thermal_tanh_half(tp.beta, params.omega2)
        * thermal_tanh_half(tp.beta, params.omega1)
    )
    ei = _exp_scaled_ei_neg(a)
    return CoherenceResult((pre * f_val / ei,), abs(pre / ei) * f_err, "shape_factor")


@runs_alone
def normalized_coherences_spin(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """<sigma_jx>_T / <sigma_jx>_{T=0} for the ohmic bath, j = 1, 2.

    Both are ratios of the shape factor F to its zero-temperature value,
    weighted by the thermal polarization factors; both increase
    monotonically as the temperature drops and reach 1 at T = 0.  They
    depend on omega2/omega1, omega1/omega_c and beta omega1 only: the
    couplings cancel.  Returns the values (n1, n2); n1's estimate,
    carried from F, bounds n2's too, since |tanh| <= 1.
    """
    a = params.omega1 / _ohmic(sd, "the normalized spin coherences").cutoff
    b = tp.beta_omega1(params.omega1)
    f_val, f_err = yield from _f_step(a, b, config)
    f_zero = -_exp_scaled_ei_neg(a)
    tanh1 = thermal_tanh_half(b, 1.0)
    tanh2 = thermal_tanh_half(b, params.omega2 / params.omega1)
    n1 = tanh1 * f_val / f_zero
    return CoherenceResult((n1, tanh2 * n1), abs(tanh1 / f_zero) * f_err, "shape_factor")
