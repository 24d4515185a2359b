"""Coherences of the fermionized chain: closed forms and their checks.

A Jordan-Wigner transformation with one auxiliary zero-energy level maps
the two-spin chain onto three spinless fermion levels coupled to the same
boson bath.  The mapping flips the signs of the inter-spin hopping and of
the transverse bath coupling (t -> -t, f2 -> -f2); every expression below
absorbs that flip, so callers pass the same spin-convention ``ModelParams``
used elsewhere and receive fermion-model values directly.

All results are leading order in the bath coupling, in the weakly
hybridized (small t) regime:

* the internal coherence <sigma1x>_F shares its spectral integral with the
  spin result, which ties the two models together exactly;
* the output coherence <sigma2x>_F exists in two algebraically equal but
  independently coded organizations -- a folded exponential-kernel form in
  units of omega1, specific to the ohmic bath, and a combined weighted
  spectral integral valid for any bath.  ``sigma2x_fermion`` evaluates
  both when it can, returns their mean, and treats disagreement beyond
  tolerance as a transcription bug rather than noise;
* each coherence splits into a static (Hartree) part, which feels the
  bath only through the reorganization scale Omega, and a dynamical
  (Fock) remainder, evaluated both by subtraction and from its own
  spectral integral.

Expressions carrying omega2 - omega1 in a denominator refuse to evaluate
within a relative 1e-6 of resonance rather than guess an unpublished
limit; a softer advisory flag appears once |omega2 - omega1| < 10 t.

Every sweepable quantity is written once, as a step (see
``numerics.run_steps``) taking (params, sd, tp, config): a generator that
checks its inputs, yields all its integral requests at once, then
assembles and cross-checks the outcomes.  Composite quantities ``gather`` the steps they build on, so
``hartree_fock`` states its six integrals in one yield.  The public
functions run their step alone; a sweep runs the steps of many cells in
lockstep, so every integral of one kernel across the block goes to the
engine together.  The kernels are module-level functions of xi and
per-integral parameter columns.

Every quantity returns one ``CoherenceResult``: its values, one error
estimate bounding each of them, the method and the flags; only
``fock_term`` returns ((k1, k2), (err1, err2)), one estimate per part.
Where a kernel's cancellation noise lifts the quadrature tolerance above
the requested one, the results of ``sigma2x_fermion``, ``hartree_fock``,
``g_script``, ``ratio_R`` and ``normalized_fermion`` carry the
``tolerance-floor`` flag.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CrossFormError, DomainError, NearResonanceError
from .numerics import (
    DEFAULT_QUADRATURE,
    Integral,
    QuadratureConfig,
    _exp_scaled_ei_neg,
    bose_n,
    fermi_n,
    gather,
    requested,
    run_step,
    runs_alone,
    take,
    thermal_coth_half,
    thermal_tanh_half,
)
from .spectral import OhmicDensity, SpectralDensity
from .spin_detuned import (
    CoherenceResult,
    ModelParams,
    ThermalPoint,
    _f_step,
    _linear_in_omega_err,
    _magnitude_flags,
    _ohmic,
    coherence_request,
    detuned_validity_flags,
    f_request,
)

# Hard refusal below this |omega2 - omega1| / omega1; advisory flag when
# the detuning is within this factor of t.
NEAR_RESONANCE_RTOL = 1e-6
NEAR_RESONANCE_COUPLING_FACTOR = 10.0

# The two organizations of <sigma2x>_F and the two Fock routes are exact
# algebraic identities; disagreement beyond these relative levels (on the
# scale of the terms, not of possibly cancelling results) means a
# transcription bug, not quadrature noise.
_DUAL_FORM_RTOL = 1e-5
_CLOSED_FORM_RTOL = 1e-6
_ROUTE_RTOL = 1e-5

_EPS = float(np.finfo(float).eps)


def _guarded_detuning(params: ModelParams) -> float:
    dw = params.omega2 - params.omega1
    if abs(dw) < NEAR_RESONANCE_RTOL * params.omega1:
        raise NearResonanceError(
            "omega2 - omega1 enters a denominator and "
            f"|detuning|/omega1 = {abs(dw) / params.omega1:.2e} is below "
            f"{NEAR_RESONANCE_RTOL:g}"
        )
    return dw


def _second_flags(params: ModelParams, dw: float) -> tuple:
    flags = detuned_validity_flags(params)
    if abs(dw) < NEAR_RESONANCE_COUPLING_FACTOR * params.t:
        flags = flags + ("near-resonance",)
    return flags


def _noise_floor(config: QuadratureConfig, beta_omega1: float, power: int):
    """``config`` with rel_tol raised to a kernel's cancellation-noise floor.

    Relative to its integral, the noise of a thermal kernel grows as a
    power of 1/(beta omega1); at the hottest points the requested
    tolerance can sit below it.  Returns (config, flags): ``flags`` is
    ``("tolerance-floor",)`` when the floor lifted rel_tol and empty
    otherwise.  A floor past the largest double raises ``DomainError``.
    """
    try:
        floor = 64.0 * _EPS * max(1.0, 1.0 / beta_omega1) ** power
    except OverflowError:
        raise DomainError(
            f"beta omega1 = {beta_omega1!r} is too hot for the fermion kernels: "
            f"their noise floor (1/(beta omega1))^{power} overflows; "
            "fermion_high_T and high_T_asymptotes hold there"
        ) from None
    if floor > config.rel_tol:
        return config.replace(rel_tol=floor), ("tolerance-floor",)
    return config, ()


def _agreement(what, a, b, rtol, scale, err):
    """|a - b| for two routes to one quantity that must agree within
    rtol * scale + 4 err; otherwise ``CrossFormError`` naming both."""
    gap = abs(a - b)
    if gap > rtol * scale + 4.0 * err:
        raise CrossFormError(f"{what} disagree: {a!r} vs {b!r}", values=(a, b))
    return gap


@runs_alone
def sigma1x_fermion(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """<sigma1x>_F: internal coherence of the fermionized chain.

    Evaluated as 2 f1 f2 tanh(beta omega1/2) (Omega/omega1 - J) with the
    same shared integral J as the spin coherence, so the exact relation

        <sigma1x> = 2 <sigma1x>_F - 4 f1 f2 Omega tanh(beta omega1/2)/omega1

    holds by construction for any bath.  For an ohmic bath the
    dimensionless shape-factor form A (omega_c/omega1 - F) is evaluated as
    well; the J and F routes must agree, and their gap is folded into the
    error estimate.
    """
    flags = detuned_validity_flags(params)
    th1 = thermal_tanh_half(tp.beta, params.omega1)
    pre = 2.0 * params.f1 * params.f2 * th1
    if pre == 0.0:
        return CoherenceResult((0.0,), 0.0, "full", flags)
    ohmic = isinstance(sd, OhmicDensity)
    requests = [coherence_request(params, sd, tp, config)]
    if ohmic:
        requests.append(
            f_request(params.omega1 / sd.cutoff, tp.beta * params.omega1, config)
        )
    outcomes = yield requests
    j, err = take(outcomes[0])
    if ohmic:
        f_val, _ = take(outcomes[1])
        closed = sd.coupling * f_val
        gap = _agreement(
            "the spectral-integral and ohmic shape-factor routes for <sigma1x>_F",
            j, closed, _CLOSED_FORM_RTOL, max(abs(j), abs(closed)), err,
        )
        err = max(err, gap)
    omega, omega_err = sd.reorganization_omega(config)
    value = pre * (omega / params.omega1 - j)
    return CoherenceResult(
        (value,),
        abs(pre) * (err + omega_err / params.omega1),
        "full",
        flags + _magnitude_flags(value),
    )


_sigma1x_fermion_step = sigma1x_fermion.step


def _folded_x_kernel(x, a, beta_omega1, g, n1, n2):
    """e^{-a|x|}-weighted kernel of the output shape factor, folded to x > 0.

    Works in units of omega1 (x = xi/omega1), with a = omega1/omega_c,
    g = omega2/omega1 and the level occupations n1 = n(omega1), n2 =
    n(omega2).  The two half-lines carry the same rational structure with
    Bose/Fermi weights of opposite-sign arguments and share the e^{-a|x|}
    damping, so folding keeps the integration domain semi-infinite; the
    rational part alone tends to a nonzero constant, so the damping cannot
    be factored out of the tail.
    """
    r = g - 1.0

    def one_side(x):
        nb = bose_n(x, beta_omega1)
        nm = fermi_n(1.0 - x, beta_omega1)
        braces = (
            0.5 * x / (x - 1.0) * (r / g)
            - nm * r / ((x - 1.0) * (x + r))
            + n2 * x / (g * (x + r))
        )
        return (nb + n1) * braces

    return np.exp(-a * x) * (one_side(x) + one_side(-x))


def _f_fermion_parts_step(omega1_over_omegac, beta_omega1, omega2_over_omega1, config):
    """Step returning (occupation term, kernel integral, its estimate,
    flags) of F_F; the flags name a raised tolerance."""
    a = float(omega1_over_omegac)
    b = float(beta_omega1)
    g = float(omega2_over_omega1)
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError("omega1_over_omegac must be positive and finite")
    if not (g > 0.0) or not math.isfinite(g):
        raise DomainError("omega2_over_omega1 must be positive and finite")
    if not (b > 0.0):
        raise DomainError("beta_omega1 must be positive (inf allowed)")
    n1 = fermi_n(1.0, b)
    n2 = fermi_n(g, b)
    term0 = n1 * (1.0 - 2.0 * n2) / (a * g)
    # The kernel's cancellation noise grows as the square of 1/(beta omega1).
    cfg, flags = _noise_floor(config or DEFAULT_QUADRATURE, b, 2)
    (outcome,) = yield [
        Integral(_folded_x_kernel, (a, b, g, n1, n2), (1.0, abs(g - 1.0)), cfg, scale=1.0 / a)
    ]
    xint, err = take(outcome)
    return term0, xint, err, flags


def _shape_factor_route(params, sd, tp, config):
    """Step returning (value, err, scale, flags) of <sigma2x>_F from the
    folded x-kernel form on the ohmic bath ``sd``; the flags name a raised
    tolerance."""
    dw = params.omega2 - params.omega1
    term0, xint, err, flags = yield from _f_fermion_parts_step(
        params.omega1 / sd.cutoff,
        tp.beta * params.omega1,
        params.omega2 / params.omega1,
        config,
    )
    pre = -4.0 * params.t * params.f1 * params.f2 * sd.coupling / dw
    return (
        pre * (term0 + xint),
        abs(pre) * err,
        abs(pre) * (abs(term0) + abs(xint)),
        flags,
    )


def _combined_second_kernel(xi, w1, w2, beta, n1, n2):
    """Single xi-kernel of the arbitrary-bath <sigma2x>_F organization.

    The two occupation groupings diverge like 1/xi^2 individually and
    cancel only in their sum, so they must be evaluated together.
    n1 and n2 are the level occupations n(w1) and n(w2).
    """
    dw = w2 - w1
    nb = bose_n(xi, beta)
    below = fermi_n(w1 - xi, beta)
    above = fermi_n(w1 + xi, beta)
    group_a = (
        0.5 / (w1 * (xi - w1))
        - 0.5 / (w2 * (xi - w1))
        - below / (xi * (xi - w1))
        + n2 / (w2 * (xi + dw))
        + below / ((xi - w1) * (xi + dw))
    )
    group_b = (
        above / ((xi + w1) * (xi - dw))
        - n2 / (w2 * (xi - dw))
        - above / (xi * (xi + w1))
        + 0.5 / ((xi + w1) * w2)
        - 0.5 / ((xi + w1) * w1)
    )
    return (nb + n1) * group_a + (nb + 1.0 - n1) * group_b


def _combined_route(params, sd, tp, config):
    """Step returning (value, err, scale, flags) of <sigma2x>_F from the
    weighted spectral integral; the flags name a raised tolerance."""
    w1, w2, beta = params.omega1, params.omega2, tp.beta
    dw = w2 - w1
    # Same quadratic noise floor as the x-kernel organization.
    cfg, flags = _noise_floor(config or DEFAULT_QUADRATURE, beta * w1, 2)
    n1 = fermi_n(w1, beta)
    n2 = fermi_n(w2, beta)
    (outcome,) = yield [
        sd.integral(_combined_second_kernel, (w1, w2, beta, n1, n2), (w1, abs(dw)), cfg)
    ]
    integral, err = take(outcome)
    omega, omega_err = sd.reorganization_omega(config)
    occupation = n1 * (1.0 - 2.0 * n2)
    const = occupation * omega / w2
    pre = -4.0 * params.t * params.f1 * params.f2 / dw
    return (
        pre * (integral + const),
        abs(pre) * (err + abs(occupation) * omega_err / w2),
        abs(pre) * (abs(integral) + abs(const)),
        flags,
    )


@runs_alone
def sigma2x_fermion(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """<sigma2x>_F: output coherence of the fermionized chain.

    At zero temperature it is exactly (t/omega2) <sigma1x>_F, evaluated
    through the shared integral so the relation holds to round-off.  At
    finite temperature the arbitrary-bath spectral organization is
    evaluated, and for an ohmic bath the folded x-kernel organization as
    well; the result is then their mean with the (typically ~1e-9
    relative) gap folded into ``err_estimate``.  Disagreement beyond
    ``_DUAL_FORM_RTOL`` of the term magnitudes raises ``CrossFormError``.
    Where the kernels' cancellation noise lifts the quadrature tolerance
    above the requested one (high temperature), the result carries the
    ``tolerance-floor`` flag.
    """
    dw = _guarded_detuning(params)
    flags = _second_flags(params, dw)
    if tp.is_zero_temperature:
        first = yield from _sigma1x_fermion_step(params, sd, tp, config)
        factor = params.t / params.omega2
        value = factor * first.value
        return CoherenceResult(
            (value,),
            abs(factor) * first.err_estimate,
            "zero_T_transfer",
            flags + _magnitude_flags(value),
        )
    if not isinstance(sd, OhmicDensity):
        value_c, err_c, _, floor = yield from _combined_route(params, sd, tp, config)
        return CoherenceResult(
            (value_c,), err_c, "combined_integral",
            flags + floor + _magnitude_flags(value_c),
        )
    (value_c, err_c, scale_c, floor_c), (value_s, err_s, scale_s, floor_s) = yield from gather(
        _combined_route(params, sd, tp, config),
        _shape_factor_route(params, sd, tp, config),
    )
    gap = _agreement(
        "the x-kernel and spectral-integral organizations of <sigma2x>_F",
        value_s, value_c, _DUAL_FORM_RTOL, max(scale_s, scale_c), err_s + err_c,
    )
    value = 0.5 * (value_s + value_c)
    return CoherenceResult(
        (value,),
        max(err_s, err_c) + 0.5 * gap,
        "dual_form",
        flags + (floor_c or floor_s) + _magnitude_flags(value),
    )


_sigma2x_fermion_step = sigma2x_fermion.step


def hartree_static(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Static (Hartree) coherences; the bath enters only through Omega.

    sigma1x_st_F = (4 f1 f2 Omega/omega1) n(omega1) tanh(beta omega1/2),
    sigma2x_st_F = (4 f1 f2 Omega t/(omega2 - omega1)) n(omega1)
                   [tanh(beta omega1/2)/omega1 - tanh(beta omega2/2)/omega2].

    Pure arithmetic on Omega, which a tabulated bath integrates under
    ``config``.  Both vanish at zero temperature with the
    Fermi factor n(omega1).  Returns the values (first, second); both are
    linear in Omega, so the estimate is Omega's relative one on the larger
    of the two.
    """
    n1 = fermi_n(params.omega1, tp.beta)
    omega, omega_err = sd.reorganization_omega(config)
    pre = 4.0 * params.f1 * params.f2 * omega * n1
    if pre == 0.0:
        return CoherenceResult((0.0, 0.0), 0.0, "hartree")
    dw = _guarded_detuning(params)
    th1 = thermal_tanh_half(tp.beta, params.omega1)
    th2 = thermal_tanh_half(tp.beta, params.omega2)
    first = pre * th1 / params.omega1
    second = (
        pre * params.t / dw * (th1 / params.omega1 - th2 / params.omega2)
    )
    err = _linear_in_omega_err((first, second), omega, omega_err)
    return CoherenceResult((first, second), err, "hartree")


def _first_fock_kernel(xi, w1, beta, n1, th1):
    # Grouped through coth(beta xi/2) and tanh(beta omega1/2) = th1: the
    # raw occupation form pairs 1/(beta xi^2)-sized pieces whose
    # cancellation noise swamps the small high-temperature remainder.
    c = thermal_coth_half(beta, xi)
    denom = xi * xi - w1 * w1
    return (
        -0.5 * th1 * c / denom
        + 0.5 * th1 * xi / (w1 * denom)
        + n1 * (w1 * w1 - th1 * denom) / (w1 * xi * denom)
    )


def _fermi_diff_over_xi(w1, xi, beta, below, above):
    """[n(w1 - xi) - n(w1 + xi)] / xi without cancellation at small xi.

    ``below`` and ``above`` are n(w1 - xi) and n(w1 + xi), which the
    caller has at hand.  The direct difference loses all significance once
    beta xi is small; there the identity n(u) - n(v) = e^{-beta u}
    (1 - e^{-beta (v - u)}) / ((1 + e^{-beta u})(1 + e^{-beta v}))
    evaluates it through expm1, at those abscissae alone.  ``w1`` and
    ``beta`` may be arrays, one entry per abscissa; at beta = inf no xi is
    small, so the direct difference is taken.
    """
    out = np.asarray((below - above) / xi)
    at = np.flatnonzero((beta * xi < 0.5) & (xi < 0.5 * w1))
    if at.size:
        w1, xs, beta = (np.ravel(v)[at] if np.ndim(v) else v for v in (w1, xi, beta))
        em = np.exp(-beta * (w1 - xs))
        ep = np.exp(-beta * (w1 + xs))
        grow = -np.expm1(-2.0 * beta * xs) / xs
        out.reshape(-1)[at] = em * grow / ((1.0 + em) * (1.0 + ep))
    return out


def _second_fock_kernel(xi, w1, w2, beta, th1, n1, n2):
    """Difference of the two level-resolved dynamical weights.

    Each weight alone has poles at xi = omega1 that cancel only inside a
    single weight, and the difference adds a removable point at
    |omega2 - omega1|, so the whole difference is one kernel.  It is
    regrouped so Bose and Fermi occupations enter only through coth, tanh
    and the stable Fermi difference: the raw weight difference pairs
    1/(beta xi^2)-sized pieces near xi = 0 whose cancellation noise would
    defeat the quadrature at high temperature.  th1 = tanh(beta w1/2),
    n1 = n(w1) and n2 = n(w2).
    """
    dw = w2 - w1
    level_pre = 0.5 * (1.0 / w2 - 1.0 / w1)
    c = thermal_coth_half(beta, xi)
    above = fermi_n(w1 + xi, beta)
    below = fermi_n(w1 - xi, beta)
    level = level_pre * (th1 * xi - c * w1) / (xi * xi - w1 * w1)
    shifted = (n2 / w2) * (c * dw + th1 * xi) / (
        dw * dw - xi * xi
    ) + n1 * th1 / (w1 * xi)
    q = (w1 * w1 - xi * xi) * (xi * xi - dw * dw)
    sum_part = (
        (below + above) * (w1 - dw)
        + _fermi_diff_over_xi(w1, xi, beta, below, above) * (xi * xi - w1 * dw)
    ) / q
    diff_part = (
        above / ((w1 + xi) * (xi - dw)) - below / ((w1 - xi) * (xi + dw))
    ) / xi
    return level + shifted + 0.5 * dw * (c * sum_part + th1 * diff_part)


def _fock_step(params, sd, tp, config):
    """Step returning ((h1, h2), (k1, k2), (err1, err2), flags): the
    Hartree parts, then the Fock parts of ``fock_term``."""
    hartree = hartree_static(params, sd, tp, config)
    (h1, h2), h_err = hartree.values, hartree.err_estimate
    w1, w2, beta = params.omega1, params.omega2, tp.beta
    dw = w2 - w1
    # The direct integrands carry cancellation noise that grows as the
    # cube of 1/(beta omega1) relative to the Fock remainder, so at high
    # temperature the default tolerance is unreachable; loosen it to the
    # noise floor and let err_estimate report the achieved accuracy.
    cfg = config or DEFAULT_QUADRATURE
    flags = ()
    if not tp.is_zero_temperature:
        cfg, flags = _noise_floor(cfg, beta * w1, 3)
    n1 = fermi_n(w1, beta)
    th1 = thermal_tanh_half(beta, w1)
    direct = [
        sd.integral(_first_fock_kernel, (w1, beta, n1, th1), (w1,), cfg),
        sd.integral(_second_fock_kernel, (w1, w2, beta, th1, n1, fermi_n(w2, beta)),
                    (w1, abs(dw)), cfg),
    ]
    full1, full2, outcomes = yield from gather(
        _sigma1x_fermion_step(params, sd, tp, config),
        _sigma2x_fermion_step(params, sd, tp, config),
        requested(direct),
    )
    fock1 = full1.value - h1
    fock2 = full2.value - h2

    direct1, err1 = take(outcomes[0])
    pre1 = 4.0 * params.f1 * params.f2
    direct1 *= pre1
    err1 *= abs(pre1)

    direct2, err2 = take(outcomes[1])
    pre2 = -4.0 * params.t * params.f1 * params.f2 / dw
    direct2 *= pre2
    err2 *= abs(pre2)

    _agreement("the subtraction and direct routes for the first Fock term", fock1, direct1,
               _ROUTE_RTOL, abs(full1.value) + abs(h1) + abs(direct1), full1.err_estimate + err1)
    _agreement("the subtraction and direct routes for the second Fock term", fock2, direct2,
               _ROUTE_RTOL, abs(full2.value) + abs(h2) + abs(direct2), full2.err_estimate + err2)
    # The cubic floor lies above the quadratic ones of full2, so ``flags``
    # covers every raised tolerance of this step.
    return (
        (h1, h2),
        (fock1, fock2),
        (full1.err_estimate + h_err, full2.err_estimate + h_err),
        flags,
    )


@runs_alone
def hartree_fock(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Both fermion coherences split into their Hartree parts (of
    ``hartree_static``) and Fock parts (of ``fock_term``): the values
    (h1, h2, k1, k2), with the larger Fock estimate, which bounds all four."""
    hartree, fock, errs, flags = yield from _fock_step(params, sd, tp, config)
    # Each Fock estimate already carries the Hartree one, so it bounds both.
    return CoherenceResult(hartree + fock, max(errs), "hartree_fock", flags)


def fock_term(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
):
    """Dynamical (Fock) parts of both fermion coherences.

    Returns ((k1, k2), (err1, err2)) with k = full - Hartree for each
    coherence, bit for bit the rounded difference, so the decomposition
    h + k = full holds to one rounding:
    |(h + k) - full| <= ulp(max(|h|, |k|, |full|)), and exactly whenever
    full - h is exact.  Each Fock part carries the error estimate of the
    full coherence it is subtracted from plus the Hartree part's.  Each is
    also evaluated from its own spectral integral; the subtraction and
    direct routes are the same quantity by an algebraic identity, so
    disagreement beyond quadrature tolerance raises ``CrossFormError``.
    Unlike the Hartree parts, these depend on the full shape of I(xi).
    """
    _, fock, errs, _ = run_step(_fock_step(params, sd, tp, config))
    return fock, errs


@runs_alone
def ratio_R(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """R(T) in <sigma2x>_F = (t/omega2) <sigma1x>_F R(T), ohmic bath.

    R = -(2 omega2/(omega2 - omega1)) coth(beta omega1/2)
        F_F / (omega_c/omega1 - F).

    R -> 1 at zero temperature (the transfer relation becomes exact) and
    depends on both level energies, unlike its spin counterpart.  The
    coupling amplitude cancels in the ratio.  Returns R with the estimate
    carried to first order from F_F and F, and the ``tolerance-floor``
    flag where F_F's noise floor raised the tolerance.
    """
    cutoff = _ohmic(sd, "R(T)").cutoff
    if tp.is_zero_temperature:
        return CoherenceResult((1.0,), 0.0, "zero_T_limit")
    dw = _guarded_detuning(params)
    a = params.omega1 / cutoff
    b = tp.beta * params.omega1
    (term0, xint, err_ff, flags), (f_val, err_f) = yield from gather(
        _f_fermion_parts_step(a, b, params.omega2 / params.omega1, config),
        _f_step(a, b, config),
    )
    f_f = term0 + xint
    denom = 1.0 / a - f_val
    if denom == 0.0:
        raise DomainError(
            "internal shape factor F equals omega_c/omega1; R is undefined"
        )
    pre = -(2.0 * params.omega2 / dw) * thermal_coth_half(tp.beta, params.omega1)
    err = abs(pre / denom) * (err_ff + abs(f_f / denom) * err_f)
    return CoherenceResult((pre * f_f / denom,), err, "shape_factor", flags)


@runs_alone
def fermion_high_T(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Leading high-temperature value of <sigma2x>_F, ohmic bath.

    -(t f1 f2 beta^2/6) Omega with Omega = A omega_c: quadratic in beta,
    independent of omega2, and shape-blind like every high-temperature
    limit here.  The normalized output ratio therefore falls as T^-2,
    against T^-3 for the spins.  Returns the value with err_estimate 0.
    """
    yield from ()  # a closed form states no integral
    omega, _ = _ohmic(sd, "the fermion high-temperature form").reorganization_omega()
    if tp.is_zero_temperature:
        raise DomainError("high-temperature asymptote is meaningless at T = 0")
    try:
        value = -params.t * params.f1 * params.f2 * tp.beta ** 2 * omega / 6.0
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(
            f"beta = {tp.beta!r} is too cold for the high-temperature form: "
            "-(t f1 f2 beta^2/6) Omega overflows"
        )
    return CoherenceResult((value,), 0.0, "high_T_asymptotic")


@runs_alone
def g_script(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Dimensionless output coherence <sigma2x>_F/(2 A sin_theta_f f1 f2).

    Evaluated in units of omega1 at unit coupling amplitude and bath
    couplings, so it depends on omega2/omega1, t/omega1, omega1/omega_c
    and beta omega1 only; t must be positive.  Crosses zero at an
    intermediate temperature for narrow baths (omega1 >> omega_c), where
    the occupation term and the kernel integral compete.  Returns G with
    the estimate carried from <sigma2x>_F, its method, and only its
    ``tolerance-floor`` flag.
    """
    unit_bath = OhmicDensity.from_ratio(
        1.0, 1.0, params.omega1 / _ohmic(sd, "G").cutoff
    )
    if not (params.t > 0.0):
        raise DomainError(
            "t must be positive: the output coherence and "
            "sin_theta_f both vanish with t and their ratio needs t > 0"
        )
    unit = ModelParams(
        1.0, params.omega2 / params.omega1, params.t / params.omega1, 1.0, 1.0
    )
    tp = ThermalPoint(tp.beta_omega1(params.omega1))
    result = yield from _sigma2x_fermion_step(unit, unit_bath, tp, config)
    # Imported here so the oracle, which needs this module, loads no
    # spin_general.
    from .spin_general import mixing

    # sin(theta_f) = 2 t / sqrt(delta_omega^2 + 4 t^2), the spin cos(theta)
    scale = 2.0 * mixing(unit).cos_theta
    flags = tuple(f for f in result.flags if f == "tolerance-floor")
    return CoherenceResult(
        (result.value / scale,), result.err_estimate / scale, result.method, flags
    )


@runs_alone
def normalized_fermion(
    params: ModelParams,
    sd: SpectralDensity,
    tp: ThermalPoint,
    config: QuadratureConfig | None = None,
) -> CoherenceResult:
    """Both fermion coherences over their zero-temperature values, ohmic.

    n1 = tanh(beta omega1/2) (omega_c/omega1 - F)/(omega_c/omega1 +
    e^{omega1/omegac} Ei(-omega1/omegac)) and n2 carries F_F with the same
    zero-temperature denominator.  The coupling amplitude cancels.  For
    omega1 >> omega_c, n1 peaks above 1 at beta omega1 near 1: the
    internal coherence is largest at a finite temperature.  Returns the
    values (n1, n2); the estimate, carried from F and F_F, bounds both.
    """
    cutoff = _ohmic(sd, "the normalized fermion coherence").cutoff
    if tp.is_zero_temperature:
        return CoherenceResult((1.0, 1.0), 0.0, "zero_T_limit")
    dw = _guarded_detuning(params)
    a = params.omega1 / cutoff
    b = tp.beta * params.omega1
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError("omega1_over_omegac must be positive and finite")
    # Checked before any quadrature: denom0 ~ 1/a^2 is the difference of
    # two terms ~ 1/a, so rounding leaves it a relative error of about
    # eps / (a denom0) ~ eps a.
    denom0 = 1.0 / a + _exp_scaled_ei_neg(a)
    if not a * denom0 * (config or DEFAULT_QUADRATURE).rel_tol >= _EPS:
        raise DomainError(
            f"omega1/omega_c = {a!r} is too narrow a bath: the zero-temperature "
            "denominator omega_c/omega1 + e^a Ei(-a) cancels to fewer digits "
            "than rel_tol asks for"
        )
    (f_val, err_f), (term0, xint, err_ff, flags) = yield from gather(
        _f_step(a, b, config),
        _f_fermion_parts_step(a, b, params.omega2 / params.omega1, config),
    )
    th1 = thermal_tanh_half(tp.beta, params.omega1)
    first = th1 * (1.0 / a - f_val) / denom0
    pre2 = -(2.0 * params.omega2 / dw)
    f_f = term0 + xint
    second = pre2 * f_f / denom0
    err = max(abs(th1) * err_f, abs(pre2) * err_ff) / abs(denom0)
    return CoherenceResult((first, second), err, "shape_factor", flags)
