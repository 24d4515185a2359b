import math

import numpy as np
import pytest

from cohex import numerics as nm
from cohex.errors import ConvergenceError, DomainError, KernelError

import oracles


# ---------------------------------------------------------------------------
# Exponential integral
# ---------------------------------------------------------------------------

EI_PROBE_POINTS = [
    -1e-8, -1e-3, -0.1, -0.5, -0.9, -0.999, -1.0, -1.001, -1.1,
    -2.0, -5.9, -6.0, -6.1, -10.0, -30.0, -100.0, -300.0, -700.0,
]


@pytest.mark.parametrize("x", EI_PROBE_POINTS)
def test_expint_ei_matches_series_oracle(x):
    ref = oracles.ei_reference(x)
    got = nm.expint_ei(x)
    assert got == pytest.approx(ref, rel=5e-15, abs=1e-305)


def test_expint_ei_known_value():
    # Ei(-1) = -E1(1); the constant below is E1(1) to full double precision.
    assert nm.expint_ei(-1.0) == pytest.approx(-0.21938393439552026, rel=1e-15)


def test_expint_ei_deep_negative_asymptotic():
    # Ei(-y) ~ -e^{-y}/y, so -300 e^{300} Ei(-300) -> 1 (within 1/300 or so).
    val = nm.expint_ei(-300.0)
    assert -300.0 * math.exp(300.0) * val == pytest.approx(1.0, rel=1e-2)


def test_expint_ei_domain_and_overflow():
    # Ei is implemented for finite negative argument only.
    for x in (0.0, math.inf, -math.inf, math.nan, 1.0, 710.0):
        with pytest.raises(DomainError):
            nm.expint_ei(x)


def test_scaled_ei_helpers():
    rng = np.random.default_rng(7)
    for c in np.concatenate([rng.uniform(0.01, 5.0, 8), [20.0, 45.0, 300.0, 700.0, 1e4]]):
        c = float(c)
        ref_neg = oracles.ei_reference(-c) * math.exp(c) if c < 600 else None
        got_neg = nm._exp_scaled_ei_neg(c)
        if ref_neg is not None:
            assert got_neg == pytest.approx(ref_neg, rel=1e-13)
        # e^c Ei(-c) ~ -1/c for large c and is always negative
        assert got_neg < 0.0


# ---------------------------------------------------------------------------
# Occupation factors
# ---------------------------------------------------------------------------

def test_bose_reflection():
    rng = np.random.default_rng(11)
    xi = rng.uniform(0.01, 20.0, 50)
    beta = 0.7
    n_plus = nm.bose_n(xi, beta)
    n_minus = nm.bose_n(-xi, beta)
    np.testing.assert_allclose(n_plus + n_minus, -1.0, rtol=0, atol=1e-14)


def test_bose_extremes():
    assert nm.bose_n(1.0, 2000.0) == 0.0
    assert nm.bose_n(-1.0, 2000.0) == -1.0
    assert nm.bose_n(1e-12, 1.0) == pytest.approx(1e12, rel=1e-9)
    assert nm.bose_n(3.0, math.inf) == 0.0
    assert nm.bose_n(-3.0, math.inf) == -1.0
    with pytest.raises(DomainError):
        nm.bose_n(0.0, 1.0)
    with pytest.raises(DomainError):
        nm.bose_n(1.0, -1.0)


def test_fermi_complement():
    rng = np.random.default_rng(13)
    xi = rng.uniform(-50.0, 50.0, 100)
    n = nm.fermi_n(xi, 1.3)
    np.testing.assert_allclose(n + nm.fermi_n(-xi, 1.3), 1.0, rtol=0, atol=1e-15)
    assert nm.fermi_n(0.0, 5.0) == 0.5
    assert nm.fermi_n(1e4, 1.0) == 0.0
    assert nm.fermi_n(2.0, math.inf) == 0.0
    assert nm.fermi_n(-2.0, math.inf) == 1.0


def test_fermi_accuracy_against_mpmath():
    import mpmath
    import warnings

    bx = np.concatenate([
        np.linspace(-800.0, 800.0, 1601),
        np.linspace(700.0, 750.0, 501),  # the overflow edge of e^{beta xi}
        np.linspace(-40.0, 40.0, 801),
        [0.0, 1e-300, -1e-300, 1e-12, -1e-12, 708.99999, 709.0, 709.00001],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nm.fermi_n(bx / 2.0, 2.0)
        scalar = nm.fermi_n(0.3, 2.0)
    assert isinstance(got, np.ndarray) and got.shape == bx.shape
    assert type(scalar) is float
    with mpmath.workdps(40):
        for x, value in zip(bx.tolist(), got.tolist()):
            ref = 1 / (1 + mpmath.exp(mpmath.mpf(x)))
            if ref < 1e-300 and value == 0.0:
                continue
            assert abs(value - ref) <= 1e-15 * ref, (x, value)


def test_coth_accuracy():
    import mpmath
    for x in [1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.124, 0.126, 0.5, 1.0, 5.0, 50.0, 400.0]:
        ref = float(mpmath.coth(mpmath.mpf(x)))
        assert nm.coth_stable(x) == pytest.approx(ref, rel=5e-15)
        assert nm.coth_stable(-x) == pytest.approx(-ref, rel=5e-15)
    with pytest.raises(DomainError):
        nm.coth_stable(0.0)


def test_coth_difference_near_zero():
    # The Laurent branch keeps coth(x) - 1/x meaningful at small x; the
    # external subtraction still costs ~eps/x absolute, hence the tolerance.
    x = 1e-4
    diff = nm.coth_stable(x) - 1.0 / x
    assert diff == pytest.approx(x / 3.0, abs=5e-12)


def test_thermal_helpers_zero_temperature():
    assert nm.thermal_tanh_half(math.inf, 2.0) == 1.0
    assert nm.thermal_tanh_half(math.inf, -2.0) == -1.0
    assert nm.thermal_tanh_half(2.0, 3.0) == pytest.approx(math.tanh(3.0))
    np.testing.assert_allclose(
        nm.thermal_coth_half(math.inf, np.array([0.5, 2.0])), 1.0
    )
    assert nm.thermal_coth_half(2.0, 1.0) == pytest.approx(1.0 / math.tanh(1.0))


# ---------------------------------------------------------------------------
# Quadrature engine
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        nm.QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        nm.QuadratureConfig(singularity_window=0.7)
    with pytest.raises(DomainError):
        nm.QuadratureConfig(tail_decay_scale=-1.0)


def test_gk_rule_exactness():
    # The embedded 7-point Gauss rule is exact through degree 13, the
    # 15-point Kronrod extension through degree 22; both are checked by
    # integrating monomials on a single panel.
    for deg in (12, 13):
        k15, err, _ = nm._gk_evaluate(
            lambda x: x ** deg, np.array([0.0]), np.array([1.0])
        )
        assert float(k15[0]) == pytest.approx(1.0 / (deg + 1), rel=1e-14)
        assert float(err[0]) < 1e-14
    for deg in (18, 22):
        k15, _, _ = nm._gk_evaluate(
            lambda x: x ** deg, np.array([0.0]), np.array([1.0])
        )
        assert float(k15[0]) == pytest.approx(1.0 / (deg + 1), rel=1e-13)


def test_integrate_exponential():
    val, err = nm.integrate_semi_infinite(lambda x: np.exp(-x))
    assert val == pytest.approx(1.0, rel=1e-12)
    assert err < 1e-10


def test_integrate_polynomial_weight():
    val, _ = nm.integrate_semi_infinite(lambda x: x ** 2 * np.exp(-x))
    assert val == pytest.approx(2.0, rel=1e-10)
    val, _ = nm.integrate_semi_infinite(lambda x: np.exp(-x) * np.cos(3.0 * x))
    assert val == pytest.approx(0.1, rel=1e-10, abs=1e-12)


def test_integrate_slow_tail_scale():
    cfg = nm.QuadratureConfig(tail_decay_scale=7.0)
    val, _ = nm.integrate_semi_infinite(lambda x: np.exp(-x / 7.0), config=cfg)
    assert val == pytest.approx(7.0, rel=1e-11)


def test_removable_singularity_bridging():
    # e^{-x} sin(x-1)/(x-1) has a removable point at x = 1.
    def kernel(x):
        out = np.empty_like(x)
        away = np.abs(x - 1.0) > 1e-13
        out[away] = np.exp(-x[away]) * np.sin(x[away] - 1.0) / (x[away] - 1.0)
        out[~away] = np.nan  # the engine must never ask for the limit
        return out

    val, err = nm.integrate_semi_infinite(kernel, removable_points=[1.0])
    ref = oracles.quad_reference(
        lambda t: math.exp(-t) * (math.sin(t - 1.0) / (t - 1.0) if t != 1.0 else 1.0),
        points=[1.0],
    )
    assert val == pytest.approx(ref, rel=1e-9)


def test_thermal_kernel_vs_midpoint_oracle():
    # A production-shaped kernel: ohmic density times the 0/0-removable
    # occupation bracket, hole at x = omega1.
    beta, w1, wc = 2.0, 1.0, 4.0

    def kernel(x):
        num = x * nm.thermal_coth_half(beta, x) * math.tanh(0.5 * beta * w1) - w1
        return (x * np.exp(-x / wc)) * num / (x * (x * x - w1 * w1))

    cfg = nm.QuadratureConfig(tail_decay_scale=wc)
    val, err = nm.integrate_semi_infinite(kernel, removable_points=[w1], config=cfg)
    ref = oracles.midpoint_reference(
        kernel, upper=60.0 * wc, n=2_000_000, skip_points=[w1]
    )
    assert val == pytest.approx(ref, rel=2e-5)
    assert err < 1e-8 * abs(val)


def test_two_nearby_removable_points():
    # Windows around clustered points must shrink instead of overlapping.
    p1, p2 = 1.0, 1.002

    def kernel(x):
        return np.exp(-x) * np.sin(x - p1) * np.sin(x - p2) / ((x - p1) * (x - p2))

    val, _ = nm.integrate_semi_infinite(kernel, removable_points=[p1, p2])
    ref = oracles.quad_reference(
        lambda t: math.exp(-t)
        * (math.sin(t - p1) / (t - p1) if t != p1 else 1.0)
        * (math.sin(t - p2) / (t - p2) if t != p2 else 1.0),
        points=[p1, p2],
    )
    assert val == pytest.approx(ref, rel=1e-8)


def test_undeclared_nan_raises():
    def kernel(x):
        return np.where(np.abs(x - 2.0) < 0.05, np.nan, np.exp(-x))

    with pytest.raises(KernelError):
        nm.integrate_semi_infinite(kernel)


def test_divergent_integrand_raises_loudly():
    with pytest.raises((ConvergenceError, KernelError)):
        with np.errstate(all="ignore"):
            nm.integrate_semi_infinite(lambda x: np.exp(-x) / x)


def test_convergence_error_carries_partial():
    cfg = nm.QuadratureConfig(rel_tol=1e-10, max_subdivisions=8)
    try:
        nm.integrate_semi_infinite(
            lambda x: np.exp(-x) * np.cos(40.0 * x) * x ** 2, config=cfg
        )
    except ConvergenceError as exc:
        assert exc.partial is not None
        assert exc.err_estimate is not None
    else:
        pytest.fail("expected ConvergenceError with a tiny panel budget")
