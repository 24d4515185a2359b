import math

import numpy as np
import pytest

from cohex.errors import DomainError
from cohex.numerics import DEFAULT_QUADRATURE, _exp_scaled_ei_neg, bose_n
from cohex.spectral import DiscreteDensity, OhmicDensity, TabulatedDensity
from cohex.spin_detuned import (
    ModelParams,
    ThermalPoint,
    detuned_validity_flags,
    f_dimensionless,
    high_T_asymptotes,
    normalized_coherences_spin,
    normalized_output_ratio,
    sigma1x,
    sigma2x,
    sigma2x_low_T,
    sigma2y,
    static_chain,
    static_dynamical_split,
)

import oracles
from test_spectral import smeared_discrete_knots


PARAMS = ModelParams(omega1=1.0, omega2=3.0, t=0.1, f1=0.1, f2=0.1)


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(omega1=0.0, omega2=1.0, t=0.1, f1=0.1, f2=0.1)
    with pytest.raises(DomainError):
        ModelParams(omega1=1.0, omega2=1.0, t=-0.1, f1=0.1, f2=0.1)
    with pytest.raises(DomainError):
        ModelParams(omega1=1.0, omega2=1.0, t=0.1, f1=math.nan, f2=0.1)


def test_thermal_point_constructions():
    tp = ThermalPoint.from_beta_omega1(2.0, 0.5)
    assert tp.beta == pytest.approx(4.0)
    assert tp.beta_omega1(0.5) == pytest.approx(2.0)
    assert ThermalPoint.from_T_over_omega1(0.0, 1.0).is_zero_temperature
    assert ThermalPoint.from_T_over_omega1(0.5, 2.0).beta == pytest.approx(1.0)
    with pytest.raises(DomainError):
        ThermalPoint(-1.0)
    with pytest.raises(DomainError):
        ThermalPoint.from_T_over_omega1(-0.1, 1.0)


def test_sigma1x_vanishing_coupling():
    p = ModelParams(omega1=1.0, omega2=3.0, t=0.1, f1=0.1, f2=0.0)
    r = sigma1x(p, OhmicDensity(1.0, 10.0), ThermalPoint(2.0))
    assert r.value == 0.0 and r.err_estimate == 0.0


def test_sigma1x_zero_temperature_ohmic_closed_form():
    sd = OhmicDensity(1.0, 10.0)
    r = sigma1x(PARAMS, sd, ThermalPoint(math.inf))
    # -4 A f1 f2 * (-e^a Ei(-a)) with a = omega1/omegac
    ref = 4.0 * 1.0 * 0.1 * 0.1 * _exp_scaled_ei_neg(0.1)
    assert r.value == pytest.approx(ref, rel=1e-9)
    assert r.value < 0.0


def test_sigma1x_against_midpoint_oracle():
    beta, w1, wc = 5.0, 1.0, 10.0
    sd = OhmicDensity(1.0, wc)
    r = sigma1x(PARAMS, sd, ThermalPoint(beta))

    anchor = w1 / math.tanh(0.5 * beta * w1)

    def integrand(x):
        with np.errstate(all="ignore"):
            return (
                x * np.exp(-x / wc)
                * (x / np.tanh(0.5 * beta * x) - anchor)
                / (x * (x * x - w1 * w1))
            )

    ref_j = oracles.midpoint_reference(
        integrand, upper=40.0 * wc, n=10_000_000, skip_points=[w1]
    )
    ref = -4.0 * 0.1 * 0.1 * math.tanh(0.5 * beta * w1) * ref_j
    assert r.value == pytest.approx(ref, rel=2e-5)


def test_sigma2x_prefactor_zeros_and_transfer():
    sd = OhmicDensity(1.0, 10.0)
    tp = ThermalPoint(2.0)
    p0 = ModelParams(omega1=1.0, omega2=3.0, t=0.0, f1=0.1, f2=0.1)
    assert sigma2x(p0, sd, tp).value == 0.0
    # transfer relation is structural: same J evaluation on both sides
    s1 = sigma1x(PARAMS, sd, tp)
    s2 = sigma2x(PARAMS, sd, tp)
    rhs = -(PARAMS.t / PARAMS.omega2) * math.tanh(0.5 * tp.beta * PARAMS.omega2) * s1.value
    assert s2.value == pytest.approx(rhs, rel=1e-14)


def test_sigma2x_against_midpoint_oracle():
    beta, w1, wc = 10.0, 1.0, 100.0
    sd = OhmicDensity(1.0, wc)
    r = sigma2x(PARAMS, sd, ThermalPoint(beta))

    anchor = w1 / math.tanh(0.5 * beta * w1)

    def integrand(x):
        with np.errstate(all="ignore"):
            return (
                x * np.exp(-x / wc)
                * (x / np.tanh(0.5 * beta * x) - anchor)
                / (x * (x * x - w1 * w1))
            )

    ref_j = oracles.midpoint_reference(
        integrand, upper=40.0 * wc, n=10_000_000, skip_points=[w1]
    )
    ref = (
        4.0 * 0.1 * 0.1 * PARAMS.t / PARAMS.omega2
        * math.tanh(0.5 * beta * PARAMS.omega2)
        * math.tanh(0.5 * beta * w1)
        * ref_j
    )
    assert r.value == pytest.approx(ref, rel=2e-5)


def test_sigma2y_is_zero():
    assert sigma2y(PARAMS, OhmicDensity(1.0, 1.0), ThermalPoint(1.0)).value == 0.0


def test_sign_structure():
    sd = OhmicDensity(1.0, 10.0)
    for beta in (0.3, 1.0, 8.0):
        s1 = sigma1x(PARAMS, sd, ThermalPoint(beta))
        s2 = sigma2x(PARAMS, sd, ThermalPoint(beta))
        assert s1.value < 0.0
        assert s2.value > 0.0


def test_f_dimensionless_zero_temperature():
    f_val, err = f_dimensionless(1.0, math.inf)
    assert f_val == pytest.approx(-math.e * oracles.ei_reference(-1.0), rel=1e-13)
    assert err == 0.0  # closed form
    # deep adiabatic limit: F -> omegac/omega1
    f_val, _ = f_dimensionless(100.0, math.inf)
    assert f_val == pytest.approx(0.01, rel=2e-2)


def test_f_dimensionless_decomposition_oracle():
    # Checks the direct quadrature against its decomposition into the
    # zero-temperature Ei term, the principal-value pair and the thermal
    # Ei series, the last two from the mpmath references.
    a, b = 0.1, 5.0
    f_val, _ = f_dimensionless(a, b)
    t_zero = -_exp_scaled_ei_neg(a)
    t_pv = oracles.pv_reference(a)
    t_series = oracles.double_ei_series_reference(a, b)
    decomp = t_zero - 2.0 * bose_n(b, 1.0) * t_pv + t_series
    assert f_val == pytest.approx(decomp, rel=1e-8)


@pytest.mark.parametrize("a, b", [(100.0, 20.0), (100.0, 5.0), (100.0, 2.5), (0.1, 0.5)])
def test_f_dimensionless_err_bounds_mpmath_gap(a, b):
    # At omega1/omegac = 100 the GK differences fall below one ulp of F;
    # the estimate must still cover the rounding of the panel sum.
    value, err = f_dimensionless(a, b)
    assert abs(value - oracles.shape_factor_reference(a, b)) <= err < 1e-10 * value


def test_f_dimensionless_monotone_in_temperature():
    a = 0.5
    vals = [f_dimensionless(a, b)[0] for b in (0.5, 1.0, 2.0, 5.0, 20.0, math.inf)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_f_dimensionless_domain():
    with pytest.raises(DomainError):
        f_dimensionless(-1.0, 2.0)
    with pytest.raises(DomainError):
        f_dimensionless(1.0, -2.0)


def test_low_T_zero_temperature_bracket_exact():
    r = sigma2x_low_T(PARAMS, OhmicDensity(1.0, 10.0), ThermalPoint(math.inf))
    ref = (
        4.0 * 0.1 * 0.1 * PARAMS.t / PARAMS.omega2
        * (-_exp_scaled_ei_neg(0.1))
    )
    assert r.value == pytest.approx(ref, rel=1e-14)
    assert r.method == "low_T_asymptotic"


@pytest.mark.parametrize("coupling, cutoff, value", [
    (1.0, 10.0, 0.0026861900596112692),
    (0.7, 0.3, 0.00022433215831498552),
])
def test_low_T_zero_temperature_takes_the_finite_formula(coupling, cutoff, value):
    # At beta = inf the thermal correction pi^2/(3 b^2) is 0.0 and b < 5 is
    # false: the values are the ones a separate T = 0 branch gave.
    r = sigma2x_low_T(PARAMS, OhmicDensity(coupling, cutoff), ThermalPoint(math.inf))
    assert (r.value, r.err_estimate, r.flags) == (value, 0.0, ())


def test_low_T_close_to_full_at_deep_cold():
    # omega1/omegac = 1, beta omega1 = 20
    p = ModelParams(omega1=1.0, omega2=3.0, t=0.1, f1=0.1, f2=0.1)
    sd = OhmicDensity(1.0, 1.0)
    tp = ThermalPoint(20.0)
    full = sigma2x(p, sd, tp)
    approx = sigma2x_low_T(p, sd, tp)
    assert approx.value == pytest.approx(full.value, rel=1e-2)
    assert approx.flags == ()  # beta omega1 = 20 is comfortably low-T


def test_low_T_advisory_flag():
    r = sigma2x_low_T(PARAMS, OhmicDensity(1.0, 10.0), ThermalPoint(2.0))
    assert "low-T-advisory" in r.flags


def test_high_T_asymptotes_ohmic_identity():
    sd = OhmicDensity(2.0, 5.0)  # Omega = 10
    tp = ThermalPoint(0.05)
    s1, s2 = high_T_asymptotes(PARAMS, sd, tp).values
    b = 0.05
    assert s1 == pytest.approx(-0.1 * 0.1 * (10.0 / 3.0) * b * b, rel=1e-14)
    assert s2 == pytest.approx(0.1 * 0.1 * 0.1 * 10.0 * b ** 3 / 6.0, rel=1e-14)
    with pytest.raises(DomainError):
        high_T_asymptotes(PARAMS, sd, ThermalPoint(math.inf))


def test_high_T_asymptotes_take_the_config_of_omega():
    # 6,001 knots start more panels than the default budget of 4,000, so a
    # tabulated Omega converges only under a raised one.
    bath = TabulatedDensity(smeared_discrete_knots(), tail_decay=0.05)
    tp = ThermalPoint(0.1)
    with pytest.raises(DomainError, match="over the panel budget"):
        high_T_asymptotes(PARAMS, bath, tp)
    roomy = DEFAULT_QUADRATURE.replace(max_subdivisions=8000)
    asymptotes = high_T_asymptotes(PARAMS, bath, tp, roomy)
    (s1, s2), err = asymptotes.values, asymptotes.err_estimate
    omega, omega_err = bath.reorganization_omega(roomy)
    assert s1 == -0.1 * 0.1 * (omega / 3.0) * 0.1 * 0.1
    assert s2 > 0.0 and err == pytest.approx(abs(s1) * omega_err / omega, rel=1e-12)


def test_high_T_asymptotes_converge_to_full():
    # The expansion parameter is beta*omegac; at beta omega1 = 0.01 and
    # omegac = 100 it is 1, leaving a ~3% residual, which shrinks with b.
    sd = OhmicDensity(1.0, 100.0)
    tp = ThermalPoint(0.01)
    s1_ht, s2_ht = high_T_asymptotes(PARAMS, sd, tp).values
    assert sigma1x(PARAMS, sd, tp).value / s1_ht == pytest.approx(1.0, abs=4e-2)
    assert sigma2x(PARAMS, sd, tp).value / s2_ht == pytest.approx(1.0, abs=4e-2)
    tp_hotter = ThermalPoint(0.001)
    s1_ht, s2_ht = high_T_asymptotes(PARAMS, sd, tp_hotter).values
    assert sigma1x(PARAMS, sd, tp_hotter).value / s1_ht == pytest.approx(1.0, abs=1e-3)
    assert sigma2x(PARAMS, sd, tp_hotter).value / s2_ht == pytest.approx(1.0, abs=1e-3)


def test_static_chain_closed_form():
    sd = OhmicDensity(1.0, 10.0)  # Omega = 10
    tp = ThermalPoint(2.0)
    chain = static_chain(PARAMS, sd, tp).values
    # independent re-composition from primitives
    s1z = -math.tanh(1.0)
    assert chain.sigma1z_st == pytest.approx(s1z, rel=1e-15)
    assert chain.boson_shift_coeff == pytest.approx(-2.0 * 0.1 * s1z, rel=1e-15)
    s1x = -4.0 * 0.1 * 0.1 * s1z ** 2 * 10.0 / 1.0
    assert chain.sigma1x_st == pytest.approx(s1x, rel=1e-15)
    assert chain.sigma2x_st == pytest.approx(
        -(0.1 / 3.0) * math.tanh(3.0) * s1x, rel=1e-15
    )
    # tuple protocol
    a, b, c, d = chain
    assert (a, b, c, d) == tuple(chain)


def test_static_chain_zero_coupling():
    p = ModelParams(omega1=1.0, omega2=3.0, t=0.1, f1=0.0, f2=0.1)
    chain = static_chain(p, OhmicDensity(1.0, 10.0), ThermalPoint(2.0)).values
    assert chain.sigma1x_st == 0.0 and chain.sigma2x_st == 0.0
    assert chain.sigma1z_st == pytest.approx(-math.tanh(1.0))


def test_static_chain_flags():
    strong = ModelParams(omega1=1.0, omega2=3.0, t=0.1, f1=0.5, f2=0.5)
    flags = static_chain(strong, OhmicDensity(1.0, 10.0), ThermalPoint(math.inf)).flags
    assert "static-bath-coupling" in flags
    weak = ModelParams(omega1=1.0, omega2=3.0, t=0.01, f1=0.05, f2=0.05)
    assert static_chain(weak, OhmicDensity(0.1, 1.0), ThermalPoint(2.0)).flags == ()


def test_static_dynamical_split():
    empty = DiscreteDensity([])
    split = static_dynamical_split(PARAMS, empty)
    (static_term, dynamical_term), err = split.values, split.err_estimate
    assert (static_term, dynamical_term, err) == (0.0, 0.0, 0.0)

    sd = OhmicDensity(1.0, 10.0)
    split = static_dynamical_split(PARAMS, sd)
    (static_term, dynamical_term), err = split.values, split.err_estimate
    # dynamical integrand against midpoint oracle
    ref = oracles.midpoint_reference(
        lambda x: x * np.exp(-x / 10.0) / (x + 1.0), upper=400.0, n=10_000_000
    )
    pre = 4.0 * 0.1 * 0.1 * 0.1 / 3.0
    assert static_term == pytest.approx(pre * 10.0, rel=1e-14)
    assert dynamical_term == pytest.approx(-pre * ref, rel=1e-6)
    # the two pieces recombine into the zero-temperature output coherence
    full = sigma2x(PARAMS, sd, ThermalPoint(math.inf))
    assert static_term + dynamical_term == pytest.approx(full.value, rel=1e-9)
    assert static_term >= full.value
    gap = abs(static_term + dynamical_term - full.value)
    assert 0.0 < err and gap <= err + full.err_estimate


def test_normalized_output_ratio():
    sd = OhmicDensity(1.0, 100.0)
    p_res = ModelParams(omega1=1.0, omega2=1.0, t=0.1, f1=0.1, f2=0.1)
    ratio = normalized_output_ratio(p_res, sd, ThermalPoint(math.inf)).value
    assert ratio == pytest.approx(-1.0, rel=1e-12)
    # direct-quotient oracle
    p = ModelParams(omega1=1.0, omega2=2.0, t=0.07, f1=0.1, f2=0.1)
    tp = ThermalPoint(1.0)
    ratio = normalized_output_ratio(p, sd, tp).value
    quotient = (
        p.omega1 / p.t
        * sigma2x(p, sd, tp).value
        / sigma1x(p, sd, ThermalPoint(math.inf)).value
    )
    assert ratio == pytest.approx(quotient, rel=1e-9)
    with pytest.raises(DomainError):
        normalized_output_ratio(p, DiscreteDensity([(0.1, 1.0)]), tp)


def test_normalized_coherences_monotone_short_grid():
    # the acceptance suite runs the full 200-point version
    for a in (0.01, 1.0):
        bath = OhmicDensity.from_ratio(1.0, PARAMS.omega1, a)
        b_grid = np.logspace(-1.5, 1.5, 25)
        n1_vals, n2_vals = [], []
        for b in b_grid:
            n1, n2 = normalized_coherences_spin(PARAMS, bath, ThermalPoint(float(b))).values
            n1_vals.append(n1)
            n2_vals.append(n2)
        assert all(x < y for x, y in zip(n1_vals, n1_vals[1:]))
        assert all(x < y for x, y in zip(n2_vals, n2_vals[1:]))
        n1_cold, n2_cold = normalized_coherences_spin(PARAMS, bath, ThermalPoint(math.inf)).values
        assert n1_cold == pytest.approx(1.0, rel=1e-12)
        assert n2_cold == pytest.approx(1.0, rel=1e-12)


def test_detuned_validity_flags():
    tight = ModelParams(omega1=1.0, omega2=1.1, t=0.05, f1=0.1, f2=0.1)
    assert detuned_validity_flags(tight) == ("detuned-coupling",)
    ok = ModelParams(omega1=1.0, omega2=3.0, t=0.05, f1=0.1, f2=0.1)
    assert detuned_validity_flags(ok) == ()
    big = sigma1x(
        ModelParams(omega1=1.0, omega2=3.0, t=0.05, f1=1.0, f2=1.0),
        OhmicDensity(1.0, 10.0),
        ThermalPoint(2.0),
    )
    assert "perturbative-magnitude" in big.flags
