import math

import numpy as np
import pytest
from scipy.integrate import quad

from cohex.errors import ConvergenceError, DegenerateBasisError, DomainError
from cohex.numerics import (
    DEFAULT_QUADRATURE,
    thermal_coth_half,
    thermal_tanh_half,
)
from cohex.spectral import DiscreteDensity, OhmicDensity
from cohex.spin_detuned import (
    ModelParams,
    ThermalPoint,
    coherence_integral,
    sigma1x,
    sigma2x,
)
from cohex.spin_general import (
    SpinMixing,
    _f_parts,
    _g_parts,
    mixing,
    r1_value,
    r2_value,
    sigma1x_general,
    sigma2x_general,
)
from cohex.sweep import r1_map, r2_map
from cohex.table import SweepTable

import oracles


TP = ThermalPoint(2.0)
SD = OhmicDensity(1.0, 10.0)


# ---------------------------------------------------------------------------
# The kernels as printed: raw hyperbolic weights, for the transcription
# checks below.  The package integrates the same _g_parts/_f_parts with
# the weights scaled by 1/(cosh(beta omega) + cosh(beta epsilon)).
# ---------------------------------------------------------------------------

def _raw_weights(mix: SpinMixing, tp: ThermalPoint):
    if tp.is_zero_temperature:
        raise DomainError(
            "raw kernels diverge at T = 0; the assembled coherences handle it"
        )
    bw = tp.beta * mix.omega
    be = tp.beta * mix.epsilon
    try:
        return math.cosh(bw), math.cosh(be), math.sinh(bw), math.sinh(be)
    except OverflowError:
        raise DomainError(
            "hyperbolic overflow in the raw kernels; beta too large"
        ) from None


def _partition_function(mix: SpinMixing, tp: ThermalPoint):
    """The pair partition function 2 cosh(beta omega) + 2 cosh(beta epsilon)."""
    return 2.0 * (math.cosh(tp.beta * mix.omega) + math.cosh(tp.beta * mix.epsilon))


def _checked_xi(xi):
    arr = np.asarray(xi, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("kernel frequency xi must be positive and finite")
    return arr


def g2_kernels(xi, mix: SpinMixing, tp: ThermalPoint):
    """First-spin kernels (g0, g1, g2) at positive xi, as printed.

    The assembled integrand is g0 + sin(theta) g1 + cos(2 theta) g2;
    removable singular points sit at |omega - epsilon|, omega + epsilon
    and 2 epsilon and are bridged by the quadrature, not here.
    """
    arr = _checked_xi(xi)
    chw, che, shw, she = _raw_weights(mix, tp)
    cothb = thermal_coth_half(tp.beta, arr)
    g0, g1, g2 = _g_parts(arr, cothb, mix.omega, mix.epsilon, chw, che, shw, she)
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(g0), float(g1), float(g2)
    return g0, g1, g2


def f2_kernels(xi, mix: SpinMixing, tp: ThermalPoint):
    """Second-spin kernels (f1k, f2k) at positive xi, as printed.

    The assembled integrand is cos(theta) [f1k - sin(theta) f2k], with
    removable points at |omega - epsilon| and omega + epsilon.
    """
    arr = _checked_xi(xi)
    chw, che, shw, she = _raw_weights(mix, tp)
    cothb = thermal_coth_half(tp.beta, arr)
    f1k, f2k = _f_parts(arr, cothb, mix.omega, mix.epsilon, chw, che, shw, she)
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(f1k), float(f2k)
    return f1k, f2k




def _combo_g(xi, mix, tp):
    g0, g1, g2 = g2_kernels(xi, mix, tp)
    return g0 + mix.sin_theta * g1 + mix.cos_two_theta * g2


def _combo_f(xi, mix, tp):
    f1k, f2k = f2_kernels(xi, mix, tp)
    return mix.cos_theta * (f1k - mix.sin_theta * f2k)


# ---------------------------------------------------------------------------
# Mixing data
# ---------------------------------------------------------------------------

def test_mixing_basics():
    p = ModelParams(omega1=1.0, omega2=2.0, t=0.3, f1=0.1, f2=0.1)
    mix = mixing(p)
    assert mix.omega == pytest.approx(1.5)
    assert mix.epsilon == pytest.approx(0.5 * math.hypot(0.6, 1.0))
    assert mix.cos_theta == pytest.approx(0.6 / math.hypot(0.6, 1.0))
    assert mix.sin_theta == pytest.approx(-1.0 / math.hypot(0.6, 1.0))
    assert mix.cos_theta**2 + mix.sin_theta**2 == pytest.approx(1.0)
    theta = math.atan2(mix.sin_theta, mix.cos_theta)
    assert mix.cos_two_theta == pytest.approx(math.cos(2.0 * theta))


def test_mixing_detuning_sign_bookkeeping():
    up = mixing(ModelParams(1.0, 2.0, 0.3, 0.1, 0.1))
    down = mixing(ModelParams(2.0, 1.0, 0.3, 0.1, 0.1))
    assert up.sin_theta < 0.0 < down.sin_theta
    assert up.sin_theta == pytest.approx(-down.sin_theta)
    # omega, epsilon, cos(theta) only see |detuning|
    assert up.omega == down.omega
    assert up.epsilon == down.epsilon
    assert up.cos_theta == pytest.approx(down.cos_theta)
    res = mixing(ModelParams(1.0, 1.0, 0.3, 0.1, 0.1))
    assert res.sin_theta == 0.0


def test_mixing_gap_bounds():
    # The mixed gap 2 epsilon is never below |detuning| or 2 t, and
    # cos(theta) = 2 t / (2 epsilon), the fermion image's sin(theta_f),
    # lies in [0, 1] and vanishes exactly at t = 0.
    rng = np.random.default_rng(7)
    for _ in range(20):
        w1 = float(rng.uniform(0.2, 3.0))
        w2 = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.0, 2.0))
        if t == 0.0 and w1 == w2:
            continue
        mix = mixing(ModelParams(w1, w2, t, 0.1, 0.1))
        assert mix.epsilon >= 0.5 * abs(w1 - w2)
        assert mix.epsilon >= t
        assert 0.0 <= mix.cos_theta <= 1.0
    for w1, w2 in ((1.0, 3.0), (3.0, 1.0)):
        assert mixing(ModelParams(w1, w2, 0.0, 0.1, 0.1)).cos_theta == 0.0


def test_mixing_degenerate_basis_rejected():
    with pytest.raises(DegenerateBasisError):
        mixing(ModelParams(1.0, 1.0, 0.0, 0.1, 0.1))


# ---------------------------------------------------------------------------
# Kernel transcription against the imaginary-time oracle
# ---------------------------------------------------------------------------

def test_kernels_reference_point_against_tau_oracle():
    p = ModelParams(omega1=1.0, omega2=2.0, t=0.3, f1=0.1, f2=0.1)
    mix = mixing(p)
    xi = 0.7
    og = oracles.g2_combo_tau_reference(xi, mix.omega, mix.epsilon,
                                        mix.sin_theta, TP.beta)
    of = oracles.f2_combo_tau_reference(xi, mix.omega, mix.epsilon,
                                        mix.sin_theta, mix.cos_theta, TP.beta)
    assert _combo_g(xi, mix, TP) == pytest.approx(og, rel=1e-12)
    assert _combo_f(xi, mix, TP) == pytest.approx(of, rel=1e-12)


def test_kernels_reference_point_frozen_values():
    # Regression anchors for the oracle-checked point above.
    p = ModelParams(omega1=1.0, omega2=2.0, t=0.3, f1=0.1, f2=0.1)
    mix = mixing(p)
    g0, g1, g2 = g2_kernels(0.7, mix, TP)
    f1k, f2k = f2_kernels(0.7, mix, TP)
    assert g0 == pytest.approx(-1.64350512495960537e+01, rel=1e-12)
    assert g1 == pytest.approx(-9.29355640626125856e-01, rel=1e-12)
    assert g2 == pytest.approx(-5.03326219058700008e-01, rel=1e-12)
    assert f1k == pytest.approx(1.18389225932656181e+01, rel=1e-12)
    assert f2k == pytest.approx(-3.69663907902604238e+00, rel=1e-12)


def test_kernels_random_sweep_against_tau_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 30:
        w1 = float(rng.uniform(0.3, 3.0))
        w2 = float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.5, 4.0))
        p = ModelParams(w1, w2, t, 0.1, 0.1)
        mix = mixing(p)
        # stay away from the degenerate mixing surface and pick an
        # abscissa clear of every removable point
        if abs(mix.omega - mix.epsilon) < 1e-2 * mix.omega:
            continue
        xi = float(rng.uniform(0.1, 5.0))
        removable = (abs(mix.omega - mix.epsilon), mix.omega + mix.epsilon,
                     2.0 * mix.epsilon)
        if min(abs(xi - q) for q in removable) < 5e-2:
            continue
        tp = ThermalPoint(beta)
        og = oracles.g2_combo_tau_reference(xi, mix.omega, mix.epsilon,
                                            mix.sin_theta, beta)
        of = oracles.f2_combo_tau_reference(xi, mix.omega, mix.epsilon,
                                            mix.sin_theta, mix.cos_theta, beta)
        assert _combo_g(xi, mix, tp) == pytest.approx(og, rel=1e-6, abs=1e-12)
        assert _combo_f(xi, mix, tp) == pytest.approx(of, rel=1e-6, abs=1e-12)
        checked += 1


def test_kernels_vanishing_coupling_identity():
    # At t = 0 the assembled first-spin combination collapses to the
    # detuned integrand times 8 cosh(beta omega2 / 2) cosh(beta omega1 / 2).
    for w1, w2 in [(1.0, 2.0), (2.0, 1.0)]:
        p = ModelParams(w1, w2, 0.0, 0.1, 0.1)
        mix = mixing(p)
        b = TP.beta
        for xi in (0.35, 0.8, 2.3, 6.0):
            g0, g1, g2 = g2_kernels(xi, mix, TP)
            combo = g0 + math.copysign(1.0, p.detuning) * g1 - g2
            pref = 8.0 * math.cosh(0.5 * b * w2) * math.cosh(0.5 * b * w1)
            kern = (w1 - xi * thermal_coth_half(b, xi)
                    * thermal_tanh_half(b, w1)) / (xi * (xi * xi - w1 * w1))
            assert combo == pytest.approx(pref * kern, rel=1e-12)


def test_second_spin_kernel_resonant_leading_order():
    # At omega1 = omega2 and small t the first kernel approaches
    # 8 t [xi coth(beta xi / 2) (cosh(beta omega) - 1) - omega sinh(beta omega)]
    #   / (xi omega (xi^2 - omega^2)).
    w, t, b = 1.0, 1e-5, 2.0
    p = ModelParams(w, w, t, 0.1, 0.1)
    mix = mixing(p)
    for xi in (0.4, 1.7, 3.0):
        f1k, _ = f2_kernels(xi, mix, ThermalPoint(b))
        lead = (8.0 * t / (xi * w * (xi * xi - w * w))) * (
            xi * thermal_coth_half(b, xi) * (math.cosh(b * w) - 1.0)
            - w * math.sinh(b * w)
        )
        assert f1k == pytest.approx(lead, rel=1e-7)


def test_kernel_combinations_high_temperature_order():
    # The first-spin combination vanishes quadratically with beta, the
    # second-spin one cubically (its linear parts cancel); halving beta
    # scales them by 1/4 and 1/8.
    p = ModelParams(1.0, 2.0, 0.3, 0.1, 0.1)
    xi = 0.9
    vals_g, vals_f = [], []
    for beta in (2e-2, 1e-2):
        tp = ThermalPoint(beta)
        mix = mixing(p)
        vals_g.append(_combo_g(xi, mix, tp) / _partition_function(mix, tp))
        vals_f.append(_combo_f(xi, mix, tp) / _partition_function(mix, tp))
    assert vals_g[1] / vals_g[0] == pytest.approx(0.25, rel=5e-3)
    assert vals_f[1] / vals_f[0] == pytest.approx(0.125, rel=5e-3)


def test_raw_kernels_reject_zero_temperature_and_bad_xi():
    p = ModelParams(1.0, 2.0, 0.3, 0.1, 0.1)
    mix = mixing(p)
    with pytest.raises(DomainError):
        g2_kernels(0.7, mix, ThermalPoint(math.inf))
    with pytest.raises(DomainError):
        g2_kernels(-0.5, mix, TP)
    with pytest.raises(DomainError):
        f2_kernels(math.nan, mix, TP)


# ---------------------------------------------------------------------------
# Assembled observables
# ---------------------------------------------------------------------------

def test_sigma1x_general_against_tau_oracle_integral():
    p = ModelParams(omega1=1.0, omega2=2.0, t=0.3, f1=0.2, f2=0.3)
    tp = ThermalPoint(2.0)
    mix = mixing(p)
    h = 0.5 * _partition_function(mix, tp)

    def integrand(xi):
        return SD.eval(xi) * oracles.g2_combo_tau_reference(
            xi, mix.omega, mix.epsilon, mix.sin_theta, tp.beta) / h

    upper = min(650.0 / tp.beta, 60.0 * SD.cutoff)
    ref, _ = quad(integrand, 0.0, upper, limit=300)
    got = sigma1x_general(p, SD, tp)
    assert got.value == pytest.approx(p.f1 * p.f2 * ref, rel=1e-6)
    assert got.method == "general_mixed_basis"


def test_sigma2x_general_against_tau_oracle_integral():
    p = ModelParams(omega1=1.0, omega2=2.0, t=0.3, f1=0.2, f2=0.3)
    tp = ThermalPoint(2.0)
    mix = mixing(p)
    h = 0.5 * _partition_function(mix, tp)

    def integrand(xi):
        return SD.eval(xi) * oracles.f2_combo_tau_reference(
            xi, mix.omega, mix.epsilon, mix.sin_theta, mix.cos_theta,
            tp.beta) / h

    upper = min(650.0 / tp.beta, 60.0 * SD.cutoff)
    ref, _ = quad(integrand, 0.0, upper, limit=300)
    got = sigma2x_general(p, SD, tp)
    assert got.value == pytest.approx(0.5 * p.f1 * p.f2 * ref, rel=1e-6)


def test_sigma1x_general_reduces_to_detuned():
    p = ModelParams(omega1=1.0, omega2=2.0, t=1e-4, f1=0.1, f2=0.1)
    full = sigma1x_general(p, SD, TP)
    small = sigma1x(p, SD, TP)
    assert full.value == pytest.approx(small.value, rel=1e-6)


def test_sigma2x_general_reduces_to_detuned():
    p = ModelParams(omega1=1.0, omega2=2.0, t=1e-4, f1=0.1, f2=0.1)
    full = sigma2x_general(p, SD, TP)
    small = sigma2x(p, SD, TP)
    assert full.value == pytest.approx(small.value, rel=1e-6)


def test_general_reduces_to_detuned_at_resonance():
    p = ModelParams(omega1=1.0, omega2=1.0, t=1e-4, f1=0.1, f2=0.1)
    assert sigma1x_general(p, SD, TP).value == pytest.approx(
        sigma1x(p, SD, TP).value, rel=1e-6)
    assert sigma2x_general(p, SD, TP).value == pytest.approx(
        sigma2x(p, SD, TP).value, rel=1e-6)


def test_general_detuned_deviation_is_quadratic_in_coupling():
    base = dict(omega1=1.0, omega2=2.0, f1=0.1, f2=0.1)
    devs = []
    for t in (0.01, 0.02):
        p = ModelParams(t=t, **base)
        devs.append(abs(sigma1x_general(p, SD, TP).value
                        - sigma1x(p, SD, TP).value))
    assert devs[1] / devs[0] == pytest.approx(4.0, rel=0.15)


def test_sigma2x_general_zero_coupling_is_exactly_zero():
    p = ModelParams(omega1=1.0, omega2=2.0, t=0.0, f1=0.1, f2=0.1)
    r = sigma2x_general(p, SD, TP)
    assert r.value == 0.0 and r.err_estimate == 0.0


def test_general_observables_discrete_bath():
    sd = DiscreteDensity([(0.25, 0.6), (0.04, 1.9)])
    p = ModelParams(omega1=1.0, omega2=2.0, t=1e-4, f1=0.1, f2=0.1)
    assert sigma1x_general(p, sd, TP).value == pytest.approx(
        sigma1x(p, sd, TP).value, rel=1e-6)
    assert sigma2x_general(p, sd, TP).value == pytest.approx(
        sigma2x(p, sd, TP).value, rel=1e-6)


def test_near_surface_evaluation_is_regularized():
    # t^2 = omega1 omega2 makes the mixing prefactor singular; the
    # evaluation must still return, flagged and with an honest error bar.
    truth = -2.548158530351e-1 * 0.1 * 0.1  # tau-oracle limit on the surface
    for t in (1.0, 1.0 + 1e-7):
        p = ModelParams(omega1=1.0, omega2=1.0, t=t, f1=0.1, f2=0.1)
        r = sigma1x_general(p, OhmicDensity(1.0, 1.0), ThermalPoint(1.0))
        assert "mixing-regularized" in r.flags
        assert abs(r.value - truth) <= abs(truth) * 5e-5 + r.err_estimate


# ---------------------------------------------------------------------------
# Validity ratios and maps
# ---------------------------------------------------------------------------

def test_r1_r2_match_direct_quotients():
    p = ModelParams(omega1=1.0, omega2=2.0, t=0.4, f1=0.1, f2=0.1)
    r1 = r1_value(p, SD, TP)
    r2 = r2_value(p, SD, TP)
    assert r1.value * sigma1x(p, SD, TP).value == pytest.approx(
        sigma1x_general(p, SD, TP).value, rel=1e-9)
    assert r2.value * sigma2x(p, SD, TP).value == pytest.approx(
        sigma2x_general(p, SD, TP).value, rel=1e-9)


def test_r1_r2_small_coupling_edge_is_unity():
    for w2, beta in [(2.0, 2.0), (0.7, 0.5), (4.0, 1.0)]:
        p = ModelParams(omega1=1.0, omega2=w2, t=1e-6, f1=1.0, f2=1.0)
        tp = ThermalPoint(beta)
        assert r1_value(p, SD, tp).value == pytest.approx(1.0, abs=1e-3)
        assert r2_value(p, SD, tp).value == pytest.approx(1.0, abs=1e-3)


def test_r2_finite_on_zero_coupling_edge():
    # cos(theta)/t stays finite as t -> 0 at fixed detuning
    p = ModelParams(omega1=1.0, omega2=3.0, t=0.0, f1=1.0, f2=1.0)
    r = r2_value(p, SD, TP)
    assert r.value == pytest.approx(1.0, abs=1e-3)


def test_ratio_map_structure_and_statuses():
    w2_grid = np.array([0.0, 1.0, 2.0, 4.0, 6.0])
    t_grid = np.array([0.0, 0.5, 1.0, 2.0, 3.5])
    tab = r1_map(0.1, 2.0, omega2_over_omega1=w2_grid, t_over_omega1=t_grid)
    assert isinstance(tab, SweepTable)
    assert tab.columns == ("omega2_over_omega1", "t_over_omega1", "r1",
                           "err_estimate", "status")
    assert len(tab.rows) == w2_grid.size * t_grid.size
    # row-major: omega2 outer, t inner
    assert [r[0] for r in tab.rows[:5]] == [0.0] * 5
    assert [r[1] for r in tab.rows[:5]] == list(t_grid)
    by_cell = {(r[0], r[1]): r for r in tab.rows}
    for t in t_grid:
        row = by_cell[(0.0, float(t))]
        assert row[4] == "invalid-params" and row[2] is None and row[3] is None
    assert by_cell[(1.0, 0.0)][4] == "degenerate-basis"
    ok = [r for r in tab.rows if r[4] == "ok"]
    assert ok and all(math.isfinite(r[2]) for r in ok)
    assert not tab.all_ok()
    assert tab.meta["map"] == "r1"


def test_ratio_map_exact_surface_cells_are_flagged_not_failed():
    tab = r1_map(0.1, 2.0,
                 omega2_over_omega1=np.array([1.0]),
                 t_over_omega1=np.array([1.0]))
    (row,) = tab.rows
    assert row[4] == "mixing-regularized"
    assert row[2] is not None and math.isfinite(row[2])


def test_ratio_map_parallel_jobs_identical():
    w2_grid = np.linspace(0.5, 4.0, 4)
    t_grid = np.linspace(0.0, 2.0, 3)
    serial = r2_map(0.1, 2.0, omega2_over_omega1=w2_grid,
                    t_over_omega1=t_grid, jobs=1)
    parallel = r2_map(0.1, 2.0, omega2_over_omega1=w2_grid,
                      t_over_omega1=t_grid, jobs=2)
    assert serial.rows == parallel.rows
    assert serial.columns == parallel.columns


def test_ratio_map_small_patch_near_edge():
    tab = r2_map(0.01, 2.0,
                 omega2_over_omega1=np.array([0.5, 2.0, 4.0]),
                 t_over_omega1=np.array([0.05]))
    for row in tab.rows:
        assert row[4] == "ok"
        assert row[2] == pytest.approx(1.0, abs=0.1)
