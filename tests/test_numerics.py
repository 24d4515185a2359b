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


def test_coth_minus_inv_scalar_has_the_array_bits():
    # A float takes its own path; it must round exactly as the array path
    # on both branches (|y| < 0.125 series, 1/tanh(y) - 1/y beyond), for
    # either sign, far into the tails and at the branch edge.
    rng = np.random.default_rng(7)
    edge = np.nextafter(0.125, 0.0)
    y = np.concatenate([
        rng.uniform(-0.2, 0.2, 2000),
        np.exp(rng.uniform(-10.0, 6.0, 1000)),
        -np.exp(rng.uniform(-10.0, 6.0, 1000)),
        [0.125, -0.125, edge, -edge, 1e-300, 5e-324, 700.0, 1e300, -1e300, np.inf],
    ])
    scalar = np.array([nm.coth_minus_inv(v) for v in y.tolist()])
    assert all(type(nm.coth_minus_inv(v)) is float for v in (0.5, -0.01, np.float64(2.0)))
    assert np.array_equal(scalar.view(np.int64), nm.coth_minus_inv(y).view(np.int64))
    with pytest.raises(DomainError):
        nm.coth_minus_inv(0.0)
    with pytest.raises(DomainError):
        nm.coth_minus_inv(-0.0)


def _domain_message(f, *args):
    with pytest.raises(DomainError) as excinfo:
        f(*args)
    return str(excinfo.value)


def test_occupations_scalar_have_the_array_bits():
    # A float xi and beta take their own path; it must round exactly as
    # the array path for either sign of xi, from tiny to huge |xi|, at
    # xi = +-0, at zero temperature and next to the cut-offs of beta xi
    # (709, past which both are 0, and the clip of bose_n at 745).
    rng = np.random.default_rng(11)
    edges = [np.nextafter(t, d) for t in (709.0, 745.0) for d in (0.0, np.inf)]
    xi = np.concatenate([
        rng.uniform(-3.0, 3.0, 1000),
        np.exp(rng.uniform(-30.0, 7.0, 500)),
        -np.exp(rng.uniform(-30.0, 7.0, 500)),
        [709.0, 745.0, -709.0, -745.0], edges, np.negative(edges),
        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan],
    ])
    for f in (nm.fermi_n, nm.bose_n):
        for beta in (0.37, 1.0, 25.0, math.inf):
            # bose_n is a domain error wherever beta xi is 0 (test below).
            x = xi if f is nm.fermi_n else xi[nm._beta_xi(xi, beta) != 0.0]
            scalar = [f(v, beta) for v in x.tolist()]
            assert all(type(v) is float for v in scalar)
            assert np.array_equal(np.array(scalar).view(np.int64), f(x, beta).view(np.int64))
        for beta in (0.0, -1.0, -math.inf, math.nan):
            assert _domain_message(f, 1.0, beta) == _domain_message(f, np.array([1.0]), beta)
    for v in (0.0, -0.0):
        assert (_domain_message(nm.bose_n, v, 2.0)
                == _domain_message(nm.bose_n, np.array([v]), 2.0))


def _per_node_beta(rng, size, mixed):
    """beta as the engine hands it to a kernel: one entry per node, a run
    of entries per owner, finite or mixed with inf (zero temperature)."""
    owners = [0.05, 0.37, 1.0, 2.0, 25.0] + ([math.inf, math.inf] if mixed else [])
    return np.repeat(owners, rng.multinomial(size, [1.0 / len(owners)] * len(owners)))


@pytest.mark.parametrize("mixed", [False, True], ids=["finite", "mixed-inf"])
def test_helpers_on_a_per_node_beta_have_the_scalar_bits(mixed):
    # The occupations and both coth forms as the kernels call them, with a
    # per-node beta column: every node has the bits of its own scalar
    # call, on both sides of |y| = 0.125 and of beta xi = 709, at
    # subnormal and huge |y|, and nothing warns.
    import warnings

    rng = np.random.default_rng(23)
    edge = np.nextafter(0.125, 0.0)
    xi = np.concatenate([
        rng.uniform(-3.0, 3.0, 1500),
        np.exp(rng.uniform(-30.0, 7.0, 750)),
        -np.exp(rng.uniform(-30.0, 7.0, 750)),
        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
    ])
    rng.shuffle(xi)
    beta = _per_node_beta(rng, xi.size, mixed)
    rng.shuffle(beta)
    # beta xi on both sides of 709 and 745 at beta = 2 (halving is exact).
    cut_offs = [np.nextafter(t, d) for t in (709.0, 745.0) for d in (0.0, 1e3)]
    xi = np.append(xi, np.array(cut_offs + [709.0, 745.0]) / 2.0)
    beta = np.append(beta, np.full(6, 2.0))
    # The coth forms' argument as ``thermal_coth_half`` forms it, and the
    # series edge.  coth(y) itself overflows below 1/DBL_MAX.
    x_half, b_half = xi[xi != 0.0], beta[xi != 0.0]
    y = 0.5 * b_half * x_half
    x_half, b_half = (v[np.abs(y) > 1.0 / np.finfo(float).max] for v in (x_half, b_half))
    y = np.append(y[np.isfinite(y) & (y != 0.0)],
                  [0.125, -0.125, edge, -edge, np.nextafter(0.125, 1.0),
                   5e-324, -1e-310, 1e300, -1e300])
    coth_y = y[np.abs(y) > 1.0 / np.finfo(float).max]
    assert ((np.abs(y) < 0.125).any() and (np.abs(y) >= 0.125).any()
            and (np.abs(y) == 0.125).any())

    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (nm.fermi_n, nm.bose_n):
            # bose_n is a domain error wherever beta xi is 0.
            keep = slice(None) if f is nm.fermi_n else nm._beta_xi(xi, beta) != 0.0
            x, b = xi[keep], beta[keep]
            scalar = [f(v, w) for v, w in zip(x.tolist(), b.tolist())]
            assert np.array_equal(bits(f(x, b)), bits(scalar)), f.__name__
        for f, z in ((nm.coth_stable, coth_y), (nm.coth_minus_inv, y)):
            array = f(z)
            assert isinstance(array, np.ndarray) and array.shape == z.shape
            assert np.array_equal(bits(array), bits([f(v) for v in z.tolist()])), f.__name__
            cut = z.size - z.size % 6
            assert np.array_equal(bits(f(z[:cut].reshape(-1, 6))), bits(array[:cut].reshape(-1, 6)))
            with pytest.raises(DomainError):
                f(np.append(z, 0.0))
        half = nm.thermal_coth_half(b_half, x_half)
        assert np.array_equal(bits(half), bits(
            [nm.thermal_coth_half(b, v) for v, b in zip(x_half.tolist(), b_half.tolist())]))
        with pytest.raises(DomainError):
            nm.bose_n(np.append(xi, 0.0), np.append(beta, 1.0))
    assert np.array_equal(bits(nm.fermi_n(np.append(xi, 0.0), np.append(beta, math.inf))[-1:]),
                          bits([0.5]))


def test_thermal_helpers_zero_temperature():
    assert nm.thermal_tanh_half(math.inf, 2.0) == 1.0
    assert nm.thermal_tanh_half(math.inf, -2.0) == -1.0
    assert nm.thermal_tanh_half(2.0, 3.0) == pytest.approx(math.tanh(3.0))
    np.testing.assert_allclose(
        nm.thermal_coth_half(math.inf, np.array([0.5, 2.0])), 1.0
    )
    assert nm.thermal_coth_half(2.0, 1.0) == pytest.approx(1.0 / math.tanh(1.0))

    # beta = inf is an ordinary point: the finite-temperature formulas
    # saturate to the zero-temperature steps exactly, from tiny to huge
    # |xi|, and a scalar beta and an array of mixed finite and inf entries
    # give the same bits.
    def coth(xi, beta):
        return nm.thermal_coth_half(beta, xi)

    xi = np.array([-50.0, -3.0, -1e-300, 1e-300, 0.5, 2.0, 700.0, 1e300])
    steps = (
        (nm.bose_n, np.where(xi > 0.0, 0.0, -1.0)),
        (nm.fermi_n, np.where(xi > 0.0, 0.0, 1.0)),
        (coth, np.sign(xi)),
    )
    mixed = np.where(np.arange(xi.size) % 2 == 0, math.inf, 1.3)
    cold = np.isinf(mixed)
    for factor, step in steps:
        assert np.array_equal(factor(xi, math.inf), step)
        assert np.array_equal(factor(xi, np.full(xi.shape, math.inf)), step)
        got = factor(xi, mixed)
        assert np.array_equal(got[cold], step[cold])
        one_by_one = np.array([factor(x, b) for x, b in zip(xi.tolist(), mixed.tolist())])
        assert np.array_equal(got.view(np.int64), one_by_one.view(np.int64))
    assert nm.fermi_n(0.0, math.inf) == 0.5
    assert nm.thermal_tanh_half(math.inf, 0.0) == 0.0
    with pytest.raises(DomainError):
        nm.bose_n(0.0, math.inf)


# ---------------------------------------------------------------------------
# Quadrature engine
# ---------------------------------------------------------------------------

def test_config_validation():
    for field, value in (
        ("rel_tol", 0.0), ("rel_tol", math.nan), ("rel_tol", math.inf),
        ("rel_tol", True), ("rel_tol", None), ("rel_tol", "1e-8"), ("rel_tol", 1e-8 + 0j),
        ("max_subdivisions", 7), ("max_subdivisions", 100.5), ("max_subdivisions", 100.0),
        ("max_subdivisions", True), ("max_subdivisions", None), ("max_subdivisions", "100"),
        ("max_subdivisions", 100 + 0j),
    ):
        with pytest.raises(DomainError):
            nm.QuadratureConfig(**{field: value})
        with pytest.raises(DomainError):
            nm.DEFAULT_QUADRATURE.replace(**{field: value})
    assert nm.QuadratureConfig(max_subdivisions=np.int64(8)).max_subdivisions == 8


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_a_tail_scale_must_be_positive_and_finite(scale):
    with pytest.raises(DomainError, match="tail scale"):
        nm.Integral(lambda x: np.exp(-x), scale=scale)
    with pytest.raises(DomainError, match="tail scale"):
        nm.integrate_semi_infinite(lambda x: np.exp(-x), scale=scale)


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
    val, _ = nm.integrate_semi_infinite(lambda x: np.exp(-x / 7.0), scale=7.0)
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

    val, err = nm.integrate_semi_infinite(kernel, removable_points=[w1], scale=wc)
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


# ---------------------------------------------------------------------------
# Batching: K-way splits and one-call bridges
# ---------------------------------------------------------------------------

def _spy_lone_integrals(monkeypatch):
    """Count the integrals made through ``numerics.integrate_semi_infinite``
    (where a tracer counts them), those weighted by a bath density, their
    kernel calls, and every integral the engine makes."""
    counts = {"integrals": 0, "densities": 0, "calls": 0, "engine": 0}
    integrate = nm.integrate_semi_infinite
    integrate_many = nm.integrate_many

    def counting_integrate(kernel, removable_points=(), config=None, density=None, scale=1.0):
        counts["integrals"] += 1
        counts["densities"] += density is not None

        def counted(x):
            counts["calls"] += 1
            return kernel(x)

        return integrate(counted, removable_points, config, density=density, scale=scale)

    def counting_many(requests):
        counts["engine"] += len(requests)
        return integrate_many(requests)

    monkeypatch.setattr(nm, "integrate_semi_infinite", counting_integrate)
    monkeypatch.setattr(nm, "integrate_many", counting_many)
    return counts


@pytest.mark.parametrize("exponent, cutoff, beta, max_batches", [
    (None, 1.0, 2.0, 6),  # bisection took 16 batches
    (0.5, 1.0, 2.0, 8),  # bisection 56, 8-way splits in u 20
    (None, 10.0, 1.0, 6),
    (0.5, 10.0, 1.0, 8),  # 20 in u
    (0.25, 10.0, 1.0, 8),  # 41 in u
])
def test_canonical_integral_batch_counts(monkeypatch, exponent, cutoff, beta, max_batches):
    # Sub-ohmic J is graded (v = u^(1/k)); an ohmic J is not, and keeps
    # exactly the count of the plain map.
    import cohex.spectral as spectral
    from cohex.spin_detuned import ModelParams, ThermalPoint, coherence_integral

    sd = (spectral.OhmicDensity(1.0, cutoff) if exponent is None
          else spectral.GeneralizedOhmicDensity(1.0, exponent, cutoff))
    batches = []
    gk = nm._gk_evaluate

    def counting_gk(f, lo, hi):
        batches.append(lo.size)
        return gk(f, lo, hi)

    monkeypatch.setattr(nm, "_gk_evaluate", counting_gk)
    counts = _spy_lone_integrals(monkeypatch)
    params = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    coherence_integral(params, sd, ThermalPoint(beta))
    assert counts["integrals"] == counts["engine"] == counts["densities"] == 1
    assert len(batches) <= max_batches
    if exponent is None:
        assert len(batches) == max_batches
    # One removable point (xi = omega1): its bridge costs one kernel call.
    assert counts["calls"] - len(batches) == 1


def test_endpoint_grade_rule():
    # The smallest k <= 8 with k s an integer of at least 1, else ceil(1/s)
    # up to 64.
    cases = {None: 1, 1.0: 1, 2.0: 1, 0.5: 2, 0.25: 4, 0.75: 4, 1.5: 2,
             0.2: 5, 0.6: 5, 0.125: 8, 0.3: 4, 0.7: 2, 0.1: 10, 1.3: 1,
             0.02: 50, 0.01: 64, 1e-300: 64}
    assert {s: nm.endpoint_grade(s) for s in cases} == cases


def _lone_sites():
    from cohex import spectral, spin_detuned, spin_general
    from cohex.spin_detuned import ModelParams, ThermalPoint

    p = ModelParams(1.0, 3.0, 0.4, 0.1, 0.1)
    sd = spectral.OhmicDensity(1.0, 2.0)
    tp = ThermalPoint(2.0)
    knots = [(x, x * math.exp(-x / 5.0)) for x in np.linspace(0.0, 40.0, 30)]
    # (lone integrals, integrals the engine makes, the computation): r1_value
    # states J as a step's request, which reaches the engine directly, and
    # integrates its numerator alone; sigma1x_general and sigma2x_general
    # state their one integral as a request and make none alone.
    return {
        "sigma1x_general": (0, 1, lambda: spin_general.sigma1x_general(p, sd, tp)),
        "sigma2x_general": (0, 1, lambda: spin_general.sigma2x_general(p, sd, tp)),
        "r1_value": (1, 2, lambda: spin_general.r1_value(p, sd, tp)),
        "f_dimensionless": (1, 1, lambda: spin_detuned.f_dimensionless(0.5, 2.0)),
        "static_dynamical_split": (
            1, 1, lambda: spin_detuned.static_dynamical_split(p, sd)
        ),
        "tabulated_omega": (
            1, 1, lambda: spectral.TabulatedDensity(knots, 5.0).reorganization_omega()
        ),
    }


@pytest.mark.parametrize("site", sorted(_lone_sites()))
def test_every_lone_integral_runs_through_integrate_semi_infinite(monkeypatch, site):
    expected, engine, compute = _lone_sites()[site]
    counts = _spy_lone_integrals(monkeypatch)
    compute()
    assert counts["integrals"] == expected
    assert counts["engine"] == engine
    # Every bath integral hands its density to the engine; F has no bath.
    assert counts["densities"] == (0 if site == "f_dimensionless" else expected)
    assert counts["calls"] >= 2 * expected


@pytest.mark.parametrize("budget", [8, 16, 40])
def test_panel_budget_is_never_exceeded(monkeypatch, budget):
    sizes = []
    split = nm._split_panels
    gk = nm._gk_evaluate

    def first_batch(f, lo, hi):
        if not sizes:
            sizes.append(lo.size)
        return gk(f, lo, hi)

    def recording_split(lo, hi, counts):
        assert np.all(counts >= 2) and np.all(counts <= nm._SPLIT)
        sizes.append(sizes[-1] + int(np.sum(counts - 1)))
        return split(lo, hi, counts)

    monkeypatch.setattr(nm, "_gk_evaluate", first_batch)
    monkeypatch.setattr(nm, "_split_panels", recording_split)
    cfg = nm.QuadratureConfig(rel_tol=1e-10, max_subdivisions=budget)
    with pytest.raises(ConvergenceError) as excinfo:
        nm.integrate_semi_infinite(
            lambda x: np.exp(-x) * np.cos(40.0 * x) * x ** 2, config=cfg
        )
    assert max(sizes) <= budget
    assert sizes[-1] == budget  # the whole budget is spent before giving up
    assert math.isfinite(excinfo.value.partial)
    assert excinfo.value.err_estimate > 1e-10 * abs(excinfo.value.partial)


def test_split_ranking_keeps_lexsort_order():
    # Panels of equal error (0 among them), inf and NaN errors, and
    # budgets that leave room for only part of a pass: ties must fall in
    # panel order, or another panel of a tie gets split.
    rng = np.random.default_rng(5)
    for trial in range(200):
        n_pan = rng.integers(1, 40, rng.integers(1, 12))
        starts = np.cumsum(n_pan) - n_pan
        values = [0.0, 1e-9, 2e-9, 3.0] + ([np.inf, np.nan] if trial % 4 == 0 else [])
        err = rng.choice(values, n_pan.sum())
        total_err = np.add.reduceat(err, starts)
        budget = rng.integers(1, 60, n_pan.size)
        assert np.array_equal(nm._split_counts(err, n_pan, starts, total_err, budget),
                              oracles.split_counts(err, n_pan, starts, total_err, budget))


def test_split_panels_tiles_each_parent():
    lo = np.array([0.0, 0.3, 0.9])
    hi = np.array([0.3, 0.9, 0.97])
    counts = np.array([8, 3, 2])
    child_lo, child_hi = nm._split_panels(lo, hi, counts)
    assert child_lo.size == child_hi.size == 13
    starts = np.cumsum(counts) - counts
    ends = np.cumsum(counts) - 1
    assert np.array_equal(child_lo[starts], lo)
    assert np.array_equal(child_hi[ends], hi)
    inner = np.setdiff1d(np.arange(13), ends)
    assert np.array_equal(child_hi[inner], child_lo[inner + 1])
    np.testing.assert_allclose(
        child_hi - child_lo, np.repeat((hi - lo) / counts, counts), rtol=1e-14
    )


def _bridge_kernel(x):
    return np.exp(-x) * (np.cos(3.0 * x) + x ** 2 / (1.0 + x))


def _assert_is_the_polyfit_integral(nodes, integral):
    """``integral`` is that of ``np.polyfit``'s cubic through the kernel at
    the four fit nodes, over the window between the middle two."""
    vals = _bridge_kernel(nodes)
    center, half = 0.5 * (nodes[1] + nodes[2]), 0.5 * (nodes[3] - nodes[0])
    t = (nodes - center) / half
    antiderivative = np.polyint(np.polyfit(t, vals, 3))
    exact = half * (np.polyval(antiderivative, t[2]) - np.polyval(antiderivative, t[1]))
    # Relative to the fitted data: the cubic may cross zero in the window.
    assert abs(integral - exact) <= 1e-13 * np.max(np.abs(vals)) * (nodes[2] - nodes[1])


@pytest.mark.parametrize("points, delta, n_windows", [
    ([1.0], 1e-3, 1),
    ([0.3, 1.0, 4.0], [1e-3, 1e-2, 0.2], 3),
    ([1.0, 1.0015], 1e-3, 1),       # overlapping windows, merged
    ([0.001, 0.0015, 50.0], 0.2, 2),  # merged at small xi: clamped outer node
])
def test_batched_bridge_matches_polyfit(points, delta, n_windows):
    deltas = np.broadcast_to(delta, len(points)).tolist()
    merged = nm._merged_windows(points, deltas)
    assert len(merged) == n_windows
    lo, hi = np.array(merged).T
    nodes = nm._bridge_nodes(lo, hi)
    assert nodes.shape == (n_windows, 4)
    integrals = np.vecdot(_bridge_kernel(nodes), nm._window_weights(nodes))
    for row, integral in zip(nodes, integrals):
        _assert_is_the_polyfit_integral(row, integral)
    # Each row's weights are its own: a window alone has the same bits.
    for row, weights in zip(nodes, nm._window_weights(nodes)):
        assert np.array_equal(nm._window_weights(row[None, :])[0], weights)


def _assert_engine_windows_match_polyfit(engine, owner):
    first, count = engine.w_start[owner], engine.w_count[owner]
    assert count
    for row, integral in zip(engine.w_nodes[first:first + count],
                             engine.w_integral[first:first + count]):
        _assert_is_the_polyfit_integral(row, integral)


def test_bridges_of_every_integral_share_one_call():
    calls = []

    def kernel(x, shift):
        calls.append(x.size)
        return _bridge_kernel(x) + 0.0 * shift

    points = ([1.0], [0.3, 4.0], [2.0, 2.0 + 1e-7, 5.0])
    engine = nm._Engine([nm.Integral(kernel, (0.0,), p) for p in points])
    assert calls == [4 * 5]  # five windows, one call
    assert engine.w_count.tolist() == [1, 2, 2]
    for owner in range(3):
        _assert_engine_windows_match_polyfit(engine, owner)


def test_clustered_points_bridge_matches_polyfit(monkeypatch):
    made = []
    engine_class = nm._Engine

    def recording(requests):
        made.append(engine_class(requests))
        return made[-1]

    monkeypatch.setattr(nm, "_Engine", recording)
    # Three points within 1e-6 (relative) are bridged as one feature.
    nm.integrate_semi_infinite(
        _bridge_kernel, removable_points=[2.0, 2.0 + 1e-7, 2.0 + 2e-7, 5.0]
    )
    (engine,) = made
    assert engine.w_count.tolist() == [2]
    _assert_engine_windows_match_polyfit(engine, 0)


def test_bridge_rejects_non_finite_fit_nodes():
    # Finite everywhere except next to the window's left fit node
    # (xi = 1 - 2e-3 for a 1e-3 window at 1), so only the bridge sees it.
    def kernel(x):
        return np.where(np.abs(x - 0.998) < 1e-9, np.nan, np.exp(-x))

    with pytest.raises(KernelError, match="bridging nodes"):
        nm.integrate_semi_infinite(kernel, removable_points=[1.0])


@pytest.mark.parametrize("points", [(5e-324,), (30.0, 30.0003)], ids=["subnormal", "tail"])
def test_a_window_whose_edges_are_no_two_breaks_is_no_window(points):
    # The window at the smallest subnormal lies below u = 1e-14, where no
    # break is taken.  The pair 30 tail scales out shrink each other's
    # windows to a half-width of 6e-5, whose two edges round to one u.
    # Neither leaves a window: no fit node is evaluated (the kernel is NaN
    # there), no panel is taken out, and the kernel is integrated through
    # the point like anywhere else.
    lo, hi = np.array(nm._merged_windows(*nm._bridge_points(points))).T
    edges = -np.expm1(-np.concatenate((lo, hi)))
    assert (edges < 1e-14).all() or (edges[:len(lo)] == edges[len(lo):]).all()

    def kernel(x, c):
        at_points = np.isin(x, nm._bridge_nodes(lo, hi))
        return np.where(at_points | (x < 1e-300), np.nan, np.exp(-x)) + 0.0 * c

    request = nm.Integral(kernel, (1.0,), points)
    engine = nm._Engine([request, nm.Integral(kernel, (0.0,), (1.0,))])
    assert engine.w_count.tolist() == [0, 1]
    breaks = oracles.first_u_breaks(points, (), nm._WINDOW, 1.0)
    assert np.array_equal(engine.panels[0][0], breaks[:-1])
    (value, err), fine = nm.integrate_many([request, nm.Integral(kernel, (0.0,), (1.0,))])
    assert abs(value - 1.0) <= err < 1e-13
    assert fine == nm.integrate_many([nm.Integral(kernel, (0.0,), (1.0,))])[0]


def test_a_finite_kernel_at_the_smallest_subnormal_integrates():
    # The window at 5e-324 is no window (see above): its owner integrates
    # as if it had no removable point.
    val, err = nm.integrate_semi_infinite(lambda x: np.exp(-x), removable_points=[5e-324])
    assert abs(val - 1.0) <= err < 1e-13
    assert (val, err) == nm.integrate_semi_infinite(lambda x: np.exp(-x))


def test_an_owner_reaching_xi_zero_fails_alone():
    # x^-0.99 under the grade-64 map still needs refinement at v = 0, so
    # its first panel's nodes soon have v^64 = 0, which would hand the
    # kernel xi = 0.  Its neighbour in the same group integrates in the
    # plain map's variable and keeps the bits it has alone.
    def kernel(x, singular):
        power = np.where(x > 0.0, x, np.nan) ** -0.99
        return np.exp(-x) * np.where(singular > 0.0, power, 1.0)

    deep = nm.Integral(kernel, (1.0,), grade=64)
    plain = nm.Integral(kernel, (0.0,))
    failed, pooled = nm.integrate_many([deep, plain])
    assert isinstance(failed, KernelError)
    assert "reaches xi = 0" in str(failed)
    assert pooled == nm.integrate_many([plain])[0]
    assert abs(pooled[0] - 1.0) <= pooled[1]


def test_bridged_kernel_rejects_non_finite_values_outside_windows():
    # Finite at the window and its fit nodes, infinite beyond xi = 3.
    def kernel(x):
        return np.where(x > 3.0, np.inf, np.exp(-x))

    engine = nm._Engine([nm.Integral(kernel, (), [1.0])])
    group = engine.groups[0]
    assert np.all(np.isfinite(engine._checked(group, np.array([0.5, 1.0, 2.5]), 0)))
    assert engine.outcome[0] is None
    engine._checked(group, np.array([1.0, 4.0]), 0)
    assert isinstance(engine.outcome[0], KernelError)
    assert "outside any declared removable window" in str(engine.outcome[0])
    with pytest.raises(KernelError, match="outside any declared removable window"):
        nm.integrate_semi_infinite(kernel, removable_points=[1.0])


def _sinc(t, p):
    return math.sin(t - p) / (t - p) if t != p else 1.0


@pytest.mark.parametrize("points", [(), (1.0,), (1.0, 2.5)])
def test_results_within_estimate_of_mpmath(points):
    def kernel(x):
        out = np.exp(-x) * (1.0 + np.cos(3.0 * x))
        for p in points:
            away = x != p
            out = np.where(away, out * np.sin(x - p) / np.where(away, x - p, 1.0), np.nan)
        return out

    def scalar(t):
        out = math.exp(-t) * (1.0 + math.cos(3.0 * t))
        for p in points:
            out *= _sinc(t, p)
        return out

    val, err = nm.integrate_semi_infinite(kernel, removable_points=points)
    ref = oracles.quad_reference(scalar, points=points)
    assert 0.0 < err < 1e-9 * abs(ref)
    assert abs(val - ref) <= err
