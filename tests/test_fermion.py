import math

import numpy as np
import pytest

from cohex.errors import (
    CrossFormError,
    DomainError,
    NearResonanceError,
)
from cohex.fermion import (
    fermion_high_T,
    fock_term,
    g_script,
    hartree_static,
    normalized_fermion,
    ratio_R,
    sigma1x_fermion,
    sigma2x_fermion,
    _combined_route,
    _fermi_diff_over_xi,
    _first_fock_kernel,
    _second_fock_kernel,
    _shape_factor_route,
)
from cohex.numerics import (
    QuadratureConfig,
    _exp_scaled_ei_neg,
    bose_n,
    fermi_n,
    run_step,
    thermal_tanh_half,
)
from cohex.spectral import (
    DiscreteDensity,
    GeneralizedOhmicDensity,
    OhmicDensity,
    TabulatedDensity,
)
from cohex.spin_detuned import (
    ModelParams,
    ThermalPoint,
    coherence_integral,
    f_dimensionless,
    sigma1x,
)
from cohex.spin_general import mixing

import oracles


PARAMS = ModelParams(omega1=1.0, omega2=3.0, t=0.1, f1=0.1, f2=0.1)
UNIT_WEIGHTS = ModelParams(omega1=1.0, omega2=3.0, t=0.1, f1=1.0, f2=1.0)


def _g_script(beta_omega1, omega1_over_omegac, omega2_over_omega1, t_over_omega1=0.1):
    """G at unit omega1, coupling amplitude and bath weights."""
    return g_script(
        ModelParams(1.0, omega2_over_omega1, t_over_omega1, 1.0, 1.0),
        OhmicDensity.from_ratio(1.0, 1.0, omega1_over_omegac),
        ThermalPoint(beta_omega1),
    )


def four_bath_family():
    knots = [(x, 0.8 * x * math.exp(-x / 1.5)) for x in np.linspace(0.0, 18.0, 220)]
    return [
        OhmicDensity(0.7, 1.3),
        GeneralizedOhmicDensity(0.5, 1.7, 0.9),
        DiscreteDensity([(0.05, 0.8), (0.03, 2.6), (0.08, 0.33)]),
        TabulatedDensity(knots, 1.5),
    ]


def test_sigma1x_fermion_vanishing_coupling():
    p = ModelParams(omega1=1.0, omega2=3.0, t=0.1, f1=0.1, f2=0.0)
    r = sigma1x_fermion(p, OhmicDensity(1.0, 10.0), ThermalPoint(2.0))
    assert r.value == 0.0 and r.err_estimate == 0.0


def test_sigma1x_fermion_zero_temperature_closed_form():
    sd = OhmicDensity(1.0, 10.0)
    r = sigma1x_fermion(PARAMS, sd, ThermalPoint(math.inf))
    # 2 A f1 f2 (omegac/omega1 + e^a Ei(-a)) with a = omega1/omegac
    ref = 2.0 * 1.0 * 0.1 * 0.1 * (10.0 + _exp_scaled_ei_neg(0.1))
    assert r.value == pytest.approx(ref, rel=1e-9)
    assert r.value > 0.0


def test_spin_fermion_identity_every_bath():
    # <sigma1x> = 2 <sigma1x>_F - 4 f1 f2 Omega tanh(beta omega1/2)/omega1
    # holds structurally: both sides share the spectral integral J.
    for sd in four_bath_family():
        for b in (0.8, 2.0, math.inf):
            tp = ThermalPoint(b)
            lhs = sigma1x(PARAMS, sd, tp).value
            th1 = thermal_tanh_half(tp.beta, PARAMS.omega1)
            rhs = (
                2.0 * sigma1x_fermion(PARAMS, sd, tp).value
                - 4.0 * 0.1 * 0.1 * sd.reorganization_omega()[0] * th1
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_sigma1x_fermion_matches_shape_factor_arithmetic():
    sd = OhmicDensity(0.8, 2.5)
    tp = ThermalPoint(1.3)
    r = sigma1x_fermion(PARAMS, sd, tp)
    a = 1.0 / 2.5
    pre = 2.0 * 0.1 * 0.1 * math.tanh(0.5 * 1.3)
    f_val, _ = f_dimensionless(a, 1.3)
    ref = pre * (sd.reorganization_omega()[0] - 0.8 * f_val)
    assert r.value == pytest.approx(ref, rel=1e-10)


def test_f_fermion_dimensionless_zero_temperature_reduction():
    for a, g in ((1.0, 3.0), (0.25, 1.5), (4.0, 0.4)):
        ff, _ = oracles.f_fermion_dimensionless(a, math.inf, g)
        ref = -((g - 1.0) / (2.0 * g)) * (1.0 / a + _exp_scaled_ei_neg(a))
        assert ff == pytest.approx(ref, rel=1e-9)


def test_f_fermion_dimensionless_high_temperature_quadratic():
    # F_F -> (g - 1) b^2 / (24 a); the residual is linear in b, so halving
    # b must halve the relative residual as well.
    a, g = 1.0, 3.0
    resid = []
    for b in (0.02, 0.01):
        ff, _ = oracles.f_fermion_dimensionless(a, b, g)
        ratio = ff / ((g - 1.0) * b * b / (24.0 * a))
        assert ratio == pytest.approx(1.0, abs=5e-2)
        resid.append(ratio - 1.0)
    assert resid[1] / resid[0] == pytest.approx(0.5, abs=0.1)


def test_f_fermion_dimensionless_domain():
    with pytest.raises(DomainError):
        oracles.f_fermion_dimensionless(-1.0, 2.0, 3.0)
    with pytest.raises(DomainError):
        oracles.f_fermion_dimensionless(1.0, -2.0, 3.0)
    with pytest.raises(DomainError):
        oracles.f_fermion_dimensionless(1.0, 2.0, -3.0)


def test_sigma2x_fermion_reference_point_dual_form():
    r = sigma2x_fermion(UNIT_WEIGHTS, OhmicDensity(1.0, 1.0), ThermalPoint(2.0))
    assert r.method == "dual_form"
    assert r.flags == ()
    assert r.value == pytest.approx(2.444942159528389e-02, rel=1e-9)
    assert r.err_estimate < 1e-10


def test_sigma2x_fermion_dual_organizations_random_ohmic():
    rng = np.random.default_rng(20260814)
    for _ in range(20):
        p = ModelParams(
            1.0,
            float(rng.uniform(1.3, 6.0)),
            float(rng.uniform(0.01, 0.12)),
            float(rng.uniform(0.3, 1.5)),
            float(rng.uniform(0.3, 1.5)),
        )
        sd = OhmicDensity(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 3.0)))
        tp = ThermalPoint(float(rng.uniform(0.5, 5.0)))
        va, _, _, _ = run_step(_shape_factor_route(p, sd, tp, None))
        vb, _, _, _ = run_step(_combined_route(p, sd, tp, None))
        assert abs(va - vb) <= 1e-6 * max(abs(va), abs(vb))
        assert sigma2x_fermion(p, sd, tp).method == "dual_form"


def test_sigma2x_fermion_zero_temperature_transfer():
    sd = OhmicDensity(1.0, 1.0)
    tz = ThermalPoint(math.inf)
    first = sigma1x_fermion(UNIT_WEIGHTS, sd, tz)
    second = sigma2x_fermion(UNIT_WEIGHTS, sd, tz)
    assert second.method == "zero_T_transfer"
    assert second.value == (0.1 / 3.0) * first.value
    # the arbitrary-bath organization reduces to the same number
    vi, _, _, _ = run_step(_combined_route(UNIT_WEIGHTS, sd, tz, None))
    assert vi == pytest.approx(second.value, rel=1e-8)


def test_sigma2x_fermion_mirror_ordering():
    # omega1 > omega2 flips the sign of the detuning; both organizations
    # must keep agreeing without any branch on the ordering.
    p = ModelParams(omega1=3.0, omega2=1.0, t=0.1, f1=1.0, f2=1.0)
    sd = OhmicDensity(1.0, 1.0)
    for b in (0.5, 2.0):
        tp = ThermalPoint(b)
        r = sigma2x_fermion(p, sd, tp)
        assert r.method == "dual_form"
        va, _, sa, _ = run_step(_shape_factor_route(p, sd, tp, None))
        vb, _, sb, _ = run_step(_combined_route(p, sd, tp, None))
        assert abs(va - vb) <= 1e-8 * max(sa, sb)


def test_near_resonance_refusals():
    p = ModelParams(omega1=1.0, omega2=1.0 + 5e-7, t=0.01, f1=0.1, f2=0.1)
    sd = OhmicDensity(1.0, 1.0)
    tp = ThermalPoint(2.0)
    for call in (
        lambda: sigma2x_fermion(p, sd, tp),
        lambda: hartree_static(p, sd, tp),
        lambda: fock_term(p, sd, tp),
        lambda: ratio_R(p, sd, tp),
        lambda: normalized_fermion(p, sd, tp),
    ):
        with pytest.raises(NearResonanceError):
            call()


def test_near_resonance_advisory_flag():
    p = ModelParams(omega1=1.0, omega2=1.5, t=0.2, f1=0.1, f2=0.1)
    r = sigma2x_fermion(p, OhmicDensity(1.0, 1.0), ThermalPoint(2.0))
    assert "near-resonance" in r.flags
    far = sigma2x_fermion(PARAMS, OhmicDensity(1.0, 1.0), ThermalPoint(2.0))
    assert "near-resonance" not in far.flags


def test_hartree_static_closed_form():
    sd = OhmicDensity(2.0, 5.0)  # Omega = 10
    tp = ThermalPoint(2.0)
    h1, h2 = hartree_static(PARAMS, sd, tp).values
    n1 = 1.0 / (math.exp(2.0) + 1.0)
    ref1 = 4.0 * 0.1 * 0.1 * 10.0 * n1 * math.tanh(1.0)
    ref2 = (
        4.0 * 0.1 * 0.1 * 10.0 * 0.1 / 2.0
        * n1 * (math.tanh(1.0) - math.tanh(3.0) / 3.0)
    )
    assert h1 == pytest.approx(ref1, rel=1e-14)
    assert h2 == pytest.approx(ref2, rel=1e-14)
    zero = hartree_static(PARAMS, sd, ThermalPoint(math.inf))
    assert (zero.values, zero.err_estimate) == ((0.0, 0.0), 0.0)


def test_hartree_static_zero_prefactor_skips_resonance_guard():
    # At T = 0 or with a vanishing bath weight the Hartree terms are zero
    # even on resonance, where the finite-T formula would be refused.
    resonant = ModelParams(omega1=1.0, omega2=1.0, t=0.05, f1=0.1, f2=0.1)
    sd = OhmicDensity(1.0, 1.0)
    zero = hartree_static(resonant, sd, ThermalPoint(math.inf))
    assert (zero.values, zero.err_estimate) == ((0.0, 0.0), 0.0)
    no_weight = ModelParams(omega1=1.0, omega2=1.0, t=0.05, f1=0.0, f2=0.1)
    zero = hartree_static(no_weight, sd, ThermalPoint(2.0))
    assert (zero.values, zero.err_estimate) == ((0.0, 0.0), 0.0)


def test_fock_decomposition_is_exact_and_routes_agree():
    # k = full - h is one rounded subtraction, so h + k restores full to
    # one rounding only: when full lies a binade below h, no double k
    # makes the sum exact.
    sd = OhmicDensity(1.0, 1.0)
    for b in (0.7, 2.0, 5.0, math.inf):
        tp = ThermalPoint(b)
        hs = hartree_static(PARAMS, sd, tp).values
        ks, _ = fock_term(PARAMS, sd, tp)  # raises CrossFormError on drift
        fulls = (
            sigma1x_fermion(PARAMS, sd, tp).value,
            sigma2x_fermion(PARAMS, sd, tp).value,
        )
        for h, k, full in zip(hs, ks, fulls):
            assert k == full - h
            assert abs((h + k) - full) <= math.ulp(max(abs(h), abs(k), abs(full)))


@pytest.mark.parametrize("a, b", [(0.4, 0.501), (0.1, 2.0), (1.0, 7.0)])
def test_fock_and_g_script_errors_bound_mpmath_gap(a, b):
    # (a, b) = (omega1/omegac, beta omega1); omega1 = 1 and A = 1 below.
    sd = OhmicDensity(1.0, 1.0 / a)
    tp = ThermalPoint(b)
    f_ref = oracles.shape_factor_reference(a, b)
    ff_ref = oracles.fermion_shape_factor_reference(a, b, 3.0)
    p = PARAMS
    full1 = 2.0 * p.f1 * p.f2 * math.tanh(0.5 * b) * (1.0 / a - f_ref)
    full2 = -4.0 * p.t * p.f1 * p.f2 / (p.omega2 - p.omega1) * ff_ref
    h1, h2 = hartree_static(p, sd, tp).values
    (k1, k2), (err1, err2) = fock_term(p, sd, tp)
    assert err1 > 0.0 and abs(k1 - (full1 - h1)) <= err1
    assert err2 > 0.0 and abs(k2 - (full2 - h2)) <= err2

    g = _g_script(b, a, 3.0, 0.1)
    g_val, g_err = g.value, g.err_estimate
    sin_theta = mixing(UNIT_WEIGHTS).cos_theta
    g_ref = -4.0 * 0.1 / 2.0 * ff_ref / (2.0 * sin_theta)
    assert g_err > 0.0 and abs(g_val - g_ref) <= g_err


def test_fock_route_guard_detects_sabotage(monkeypatch):
    import cohex.fermion as fermion_module

    monkeypatch.setattr(
        fermion_module,
        "_first_fock_kernel",
        lambda xi, *columns: 1.0 / (1.0 + xi * xi),
    )
    with pytest.raises(CrossFormError):
        fock_term(PARAMS, OhmicDensity(1.0, 1.0), ThermalPoint(2.0))


def test_dual_form_guard_detects_sabotage(monkeypatch):
    import cohex.fermion as fermion_module

    true_route = fermion_module._shape_factor_route

    def skewed(params, sd, tp, config):
        value, err, scale, flags = yield from true_route(params, sd, tp, config)
        return value + 1e-3 * scale, err, scale, flags

    monkeypatch.setattr(fermion_module, "_shape_factor_route", skewed)
    with pytest.raises(CrossFormError) as excinfo:
        sigma2x_fermion(UNIT_WEIGHTS, OhmicDensity(1.0, 1.0), ThermalPoint(2.0))
    assert excinfo.value.values is not None


def test_first_fock_kernel_matches_raw_occupation_form():
    # The shipped kernel regroups the raw occupation expression through
    # coth and tanh; both must be the same function where the raw form is
    # well conditioned.
    beta = 1.7
    w1 = PARAMS.omega1
    n1 = fermi_n(w1, beta)
    th1 = thermal_tanh_half(beta, w1)
    xi = np.array([0.11, 0.37, 0.63, 1.45, 2.2, 3.3, 5.7])
    nb = bose_n(xi, beta)
    raw = (
        -(((2.0 * nb + 1.0) * w1 + (2.0 * n1 - 1.0) * xi))
        / (2.0 * w1 * (xi * xi - w1 * w1))
        + (2.0 * n1 - 1.0) * n1 / (w1 * xi)
        + (nb + 1.0) * n1 / (xi * (xi - w1))
        + nb * n1 / (xi * (xi + w1))
    )
    assert _first_fock_kernel(xi, w1, beta, n1, th1) == pytest.approx(raw, rel=1e-11)
    # Per-node temperatures, as a pooled call passes them.
    betas = np.full(xi.size, beta)
    assert np.array_equal(_first_fock_kernel(xi, w1, betas, n1, th1),
                          _first_fock_kernel(xi, w1, beta, n1, th1))
    cold = _first_fock_kernel(xi, w1, math.inf, 0.0, 1.0)
    assert cold == pytest.approx(1.0 / (2.0 * w1 * (xi + w1)), rel=1e-13)


def test_fermi_difference_takes_the_stable_form_node_by_node():
    # As the Fock kernel calls it: w1 and beta are per-node columns, with
    # finite and inf (zero temperature) owners mixed.  Every node has the
    # bits of its own one-node call, and the small nodes (beta xi < 1/2
    # and xi < w1/2) carry the expm1 form, within 5e-15 of mpmath.
    import mpmath

    rng = np.random.default_rng(5)
    xi = np.exp(rng.uniform(math.log(1e-9), math.log(40.0), 600))
    beta = rng.choice([0.1, 1.7, 30.0, math.inf], xi.size)
    w1 = rng.choice([0.5, 1.0], xi.size)
    below, above = fermi_n(w1 - xi, beta), fermi_n(w1 + xi, beta)
    got = _fermi_diff_over_xi(w1, xi, beta, below, above)
    alone = [_fermi_diff_over_xi(*(np.array([v[i]]) for v in (w1, xi, beta, below, above)))[0]
             for i in range(xi.size)]
    assert np.array_equal(got.view(np.int64), np.array(alone).view(np.int64))
    small = (beta * xi < 0.5) & (xi < 0.5 * w1)
    assert 100 < small.sum() < xi.size - 100
    assert np.array_equal(got[~small], ((below - above) / xi)[~small])
    with mpmath.workdps(40):
        for w, x, b, value in zip(w1[small], xi[small], beta[small], got[small]):
            w, x, b = (mpmath.mpf(float(v)) for v in (w, x, b))
            ref = (1 / (1 + mpmath.exp(b * (w - x))) - 1 / (1 + mpmath.exp(b * (w + x)))) / x
            assert abs(value - ref) <= 5e-15 * abs(ref)


def test_second_fock_kernel_matches_raw_weight_difference():
    beta = 1.7
    p = PARAMS
    w1, w2 = p.omega1, p.omega2
    th1 = thermal_tanh_half(beta, w1)
    xi = np.array([0.11, 0.37, 0.63, 1.45, 2.45, 3.3, 5.7])
    nb = bose_n(xi, beta)
    n1 = fermi_n(w1, beta)
    n2 = fermi_n(w2, beta)

    def raw_weight(w):
        nw = fermi_n(w, beta)
        plus = nb + 1.0 - n1
        minus = nb + n1
        return (
            0.5 / w * (plus / (w1 + xi) - minus / (xi - w1))
            + plus * fermi_n(w1 + xi, beta) / ((w1 + xi) * (w1 + xi - w))
            + nw / w * (minus / (w - w1 + xi) + plus / (w - w1 - xi))
            + minus * fermi_n(w1 - xi, beta) / ((w1 - xi) * (w1 - xi - w))
        )

    kernel = _second_fock_kernel(xi, w1, w2, beta, th1, n1, n2)
    assert kernel == pytest.approx(raw_weight(w2) - raw_weight(w1), rel=1e-10)
    betas = np.full(xi.size, beta)
    assert np.array_equal(_second_fock_kernel(xi, w1, w2, betas, th1, n1, n2), kernel)
    cold = _second_fock_kernel(xi, w1, w2, math.inf, 1.0, 0.0, 0.0)
    ref = 0.5 * (1.0 / w2 - 1.0 / w1) / (xi + w1)
    assert cold == pytest.approx(ref, rel=1e-13)


def test_combined_route_against_midpoint_oracle():
    beta = 2.0
    p = UNIT_WEIGHTS
    w1, w2 = p.omega1, p.omega2
    dw = w2 - w1
    wc = 1.0
    sd = OhmicDensity(1.0, wc)
    n1 = fermi_n(w1, beta)
    n2 = fermi_n(w2, beta)

    def integrand(x):
        with np.errstate(all="ignore"):
            nb = 1.0 / np.expm1(beta * x)
            below = fermi_n(w1 - x, beta)
            above = fermi_n(w1 + x, beta)
            group_a = (
                0.5 / (w1 * (x - w1))
                - 0.5 / (w2 * (x - w1))
                - below / (x * (x - w1))
                + n2 / (w2 * (x + dw))
                + below / ((x - w1) * (x + dw))
            )
            group_b = (
                above / ((x + w1) * (x - dw))
                - n2 / (w2 * (x - dw))
                - above / (x * (x + w1))
                + 0.5 / ((x + w1) * w2)
                - 0.5 / ((x + w1) * w1)
            )
            return x * np.exp(-x / wc) * ((nb + n1) * group_a + (nb + 1.0 - n1) * group_b)

    ref_int = oracles.midpoint_reference(
        integrand, upper=40.0 * wc, n=10_000_000, skip_points=[w1, dw]
    )
    const = n1 * (1.0 - 2.0 * n2) * sd.reorganization_omega()[0] / w2
    ref = -4.0 * p.t / dw * (ref_int + const)
    value, _, _, _ = run_step(_combined_route(p, sd, ThermalPoint(beta), None))
    assert value == pytest.approx(ref, rel=2e-5)


def test_single_mode_bath_exact_sums():
    p = PARAMS
    sd = DiscreteDensity([(0.3, 0.7)])
    tp = ThermalPoint(2.0)
    r = sigma2x_fermion(p, sd, tp)
    assert r.method == "combined_integral"
    assert r.err_estimate == 0.0
    h1, h2 = hartree_static(p, sd, tp).values
    (k1, k2), _ = fock_term(p, sd, tp)
    assert h1 + k1 == sigma1x_fermion(p, sd, tp).value
    assert h2 + k2 == r.value
    lhs = sigma1x(p, sd, tp).value
    rhs = (
        2.0 * sigma1x_fermion(p, sd, tp).value
        - 4.0 * 0.1 * 0.1 * sd.reorganization_omega()[0] * math.tanh(1.0)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_equal_reorganization_baths_share_hartree_but_not_fock():
    # The Hartree terms see the bath only through Omega; the Fock terms
    # feel its full shape.
    p = PARAMS
    tp = ThermalPoint(2.0)
    narrow = OhmicDensity(2.0, 1.0)
    wide = OhmicDensity(0.2, 10.0)  # same Omega = 2
    assert narrow.reorganization_omega()[0] == pytest.approx(wide.reorganization_omega()[0])
    h_narrow = hartree_static(p, narrow, tp).values
    h_wide = hartree_static(p, wide, tp).values
    assert h_narrow == pytest.approx(h_wide, rel=1e-12)
    (k1_narrow, _), _ = fock_term(p, narrow, tp)
    (k1_wide, _), _ = fock_term(p, wide, tp)
    assert abs(k1_narrow - k1_wide) > 1e-3 * abs(k1_narrow)


def test_ratio_r_transfer_consistency():
    p = UNIT_WEIGHTS
    sd = OhmicDensity(1.0, 1.0)
    cold = ratio_R(p, sd, ThermalPoint(math.inf))
    assert (cold.value, cold.err_estimate) == (1.0, 0.0)
    for b in (0.8, 2.0, 6.0):
        tp = ThermalPoint(b)
        lhs = sigma2x_fermion(p, sd, tp).value
        r = ratio_R(p, sd, tp).value
        rhs = p.t / p.omega2 * sigma1x_fermion(p, sd, tp).value * r
        assert lhs == pytest.approx(rhs, rel=1e-7)


def test_fermion_high_T_value_and_approach():
    p = PARAMS
    tp = ThermalPoint(0.01)
    ref = -0.1 * 0.1 * 0.1 * 0.01 ** 2 * 2.0 * 5.0 / 6.0
    assert fermion_high_T(p, OhmicDensity(2.0, 5.0), tp).value == pytest.approx(ref, rel=1e-14)
    with pytest.raises(DomainError):
        fermion_high_T(p, OhmicDensity(2.0, 5.0), ThermalPoint(math.inf))
    # the full result approaches the asymptote linearly in beta
    sd = OhmicDensity(1.0, 1.0)
    full = sigma2x_fermion(p, sd, tp).value
    assert full / fermion_high_T(p, sd, tp).value == pytest.approx(1.0, abs=3e-2)


def test_g_script_golden_values_and_sign_change():
    # Narrow bath (omega1 = 10 omegac): the occupation term and the kernel
    # integral compete, so the output coherence changes sign with T.
    g_cold = _g_script(1.0, 10.0, 1.5).value
    assert g_cold == pytest.approx(2.082844223284694e-04, rel=1e-8)
    g_colder = _g_script(5.0, 10.0, 1.5).value
    assert g_colder == pytest.approx(6.310380771526803e-03, rel=1e-8)
    g_coldest = _g_script(10.0, 10.0, 1.5).value
    assert g_coldest == pytest.approx(3.841190182781396e-03, rel=1e-8)
    g_hot = _g_script(0.2, 10.0, 1.5).value
    assert g_hot < 0.0 < g_cold
    with pytest.raises(DomainError):
        _g_script(2.0, 10.0, 1.5, 0.0)


def test_normalized_fermion_peak_structure():
    p = PARAMS
    cold = normalized_fermion(p, OhmicDensity(1.0, 1.0), ThermalPoint(math.inf))
    assert cold.values + (cold.err_estimate,) == (1.0, 1.0, 0.0)
    grid = np.geomspace(0.05, 60.0, 40)
    narrow = []
    wide = []
    for b in grid:
        n1, _ = normalized_fermion(p, OhmicDensity(1.0, 0.01), ThermalPoint(float(b))).values
        narrow.append(n1)
        n1, _ = normalized_fermion(p, OhmicDensity(1.0, 100.0), ThermalPoint(float(b))).values
        wide.append(n1)
    assert max(narrow) > 1.0
    assert max(wide) < 1.0 + 1e-3


def test_spin_internal_coherence_nonpositive_fermion_nonnegative():
    # Fermionization flips the internal coherence, over the whole
    # (omega1/omega_c, beta omega1) quarter-plane.
    for a in (0.1, 1.0, 10.0):
        sd = OhmicDensity(0.6, 1.0 / a)
        for b in (1e-3, 0.05, 1.0, 10.0, 100.0, math.inf):
            tp = ThermalPoint.from_beta_omega1(b, 1.0)
            assert sigma1x(PARAMS, sd, tp).value <= 0.0
            assert sigma1x_fermion(PARAMS, sd, tp).value >= 0.0


def test_decoupled_spins_close_the_output_channel():
    p = ModelParams(omega1=1.0, omega2=3.0, t=0.0, f1=0.1, f2=0.1)
    sd = OhmicDensity(1.0, 1.0)
    tp = ThermalPoint(2.0)
    assert sigma2x_fermion(p, sd, tp).value == 0.0
    h1, h2 = hartree_static(p, sd, tp).values
    (k1, k2), _ = fock_term(p, sd, tp)
    assert h2 == 0.0 and k2 == 0.0
    assert k1 != 0.0  # the internal coherence survives t = 0


def test_extreme_temperatures_stay_finite():
    p = UNIT_WEIGHTS
    sd = OhmicDensity(1.0, 1.0)
    hot = sigma2x_fermion(p, sd, ThermalPoint(1e-3))
    assert hot.method == "dual_form"
    assert math.isfinite(hot.value) and hot.value < 0.0
    fock_term(p, sd, ThermalPoint(5e-3))
    n1, n2 = normalized_fermion(p, sd, ThermalPoint(80.0)).values
    assert n1 == pytest.approx(1.0, abs=2e-3)
    assert n2 == pytest.approx(1.0, abs=2e-3)


def test_perturbative_magnitude_flag():
    p = ModelParams(omega1=1.0, omega2=3.0, t=0.1, f1=1.0, f2=1.0)
    r = sigma1x_fermion(p, OhmicDensity(1.0, 10.0), ThermalPoint(math.inf))
    assert "perturbative-magnitude" in r.flags


def test_sigma1x_fermion_estimate_carries_tabulated_omega():
    # On a tabulated bath Omega is itself a quadrature result; its
    # estimate reaches the coherence through the Omega/omega1 term.
    xi = np.linspace(1e-3, 18.0, 200)
    sd = TabulatedDensity(np.column_stack([xi, xi * np.exp(-xi)]), tail_decay=1.0)
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    tp = ThermalPoint(2.0)
    _, omega_err = sd.reorganization_omega()
    _, j_err = coherence_integral(p, sd, tp)
    pre = 2.0 * p.f1 * p.f2 * math.tanh(1.0)
    omega_share = pre * omega_err / p.omega1
    assert omega_share > pre * j_err
    result = sigma1x_fermion(p, sd, tp)
    assert result.err_estimate >= omega_share
    assert result.err_estimate == pytest.approx(pre * j_err + omega_share, rel=1e-12)


def test_tolerance_floor_is_flagged():
    # At beta omega1 = 0.005 the kernels' cancellation noise lifts rel_tol
    # from the requested 1e-10 to 64 eps / 0.005^2 (both <sigma2x>_F
    # organizations) and 64 eps / 0.005^3 (the direct Fock integrals).
    from cohex.sweep import AxisSpec, SweepSpec, run_sweep

    sd = OhmicDensity(1.0, 1.0)
    hot = ThermalPoint(0.005)
    assert "tolerance-floor" in sigma2x_fermion(PARAMS, sd, hot).flags
    # A bath without the ohmic shape factor runs the combined route alone.
    alone = sigma2x_fermion(PARAMS, GeneralizedOhmicDensity(1.0, 1.0, 1.0), hot)
    assert alone.method == "combined_integral"
    assert alone.flags == ("tolerance-floor",)
    axis = (AxisSpec("beta_omega1", 0.005, 0.005, 1),)
    for name in ("sigma2x_fermion", "hartree_fock"):
        (row,) = run_sweep(SweepSpec(name, axis, sd, PARAMS)).rows
        assert "tolerance-floor" in row[-1].split(";")
    # A tolerance below 64 eps is floored at any temperature.
    tight = sigma2x_fermion(PARAMS, sd, ThermalPoint(2.0), QuadratureConfig(rel_tol=1e-15))
    assert "tolerance-floor" in tight.flags


@pytest.mark.parametrize("bath, floors", [
    (OhmicDensity(1.0, 1.0), 2), (GeneralizedOhmicDensity(1.0, 1.0, 1.0), 1),
])
def test_each_route_floors_its_tolerance_once(monkeypatch, bath, floors):
    # The flag comes from the floors the routes apply.
    import cohex.fermion as fermion_module

    calls = []
    real = fermion_module._noise_floor

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(fermion_module, "_noise_floor", counting)
    result = sigma2x_fermion(PARAMS, bath, ThermalPoint(0.005))
    assert calls == [(0.005, 2)] * floors
    assert "tolerance-floor" in result.flags


@pytest.mark.parametrize("name", ["g_script", "ratio_R", "normalized_fermion"])
def test_rows_built_on_a_floored_f_f_carry_only_the_floor_flag(name):
    # Each row integrates F_F, whose quadratic noise floor lifts rel_tol at
    # beta omega1 = 0.005; the public results carry the row's flag too.
    from cohex.sweep import AxisSpec, SweepSpec, run_sweep

    sd = OhmicDensity(1.0, 1.0)
    axis = (AxisSpec("beta_omega1", 0.005, 0.005, 1),)
    (row,) = run_sweep(SweepSpec(name, axis, sd, PARAMS)).rows
    assert row[-1] == "tolerance-floor"
    hot = ThermalPoint(0.005)
    result = {"g_script": g_script, "ratio_R": ratio_R,
              "normalized_fermion": normalized_fermion}[name](PARAMS, sd, hot)
    assert result.values + (result.err_estimate,) == row[1:-1]
    assert result.flags == ("tolerance-floor",)


def test_no_tolerance_floor_at_default_tolerance_from_beta_omega1_0_1():
    # The floors stay below 1e-10 there (1.4e-12 and 1.4e-11 at 0.1).
    from cohex.sweep import AxisSpec, SweepSpec, run_sweep

    axes = (
        AxisSpec("beta_omega1", 0.1, 30.0, 6, "log"),
        AxisSpec("omega1_over_omegac", 0.1, 1.6, 3, "log"),
    )
    for name in ("sigma2x_fermion", "hartree_fock", "g_script", "ratio_R",
                 "normalized_fermion"):
        table = run_sweep(SweepSpec(name, axes, OhmicDensity(1.0, 1.0), PARAMS))
        assert all(row[-1] == "ok" for row in table.rows)
    assert sigma2x_fermion(PARAMS, OhmicDensity(1.0, 1.0), ThermalPoint(0.1)).flags == ()
