import io
import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from cohex.errors import DomainError, UnsupportedOperationError
from cohex.numerics import DEFAULT_QUADRATURE, QuadratureConfig
from cohex.spectral import (
    DiscreteDensity,
    GeneralizedOhmicDensity,
    OhmicDensity,
    TabulatedDensity,
)

import oracles


def test_ohmic_eval():
    sd = OhmicDensity(coupling=1.0, cutoff=1.0)
    assert sd.eval(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    xi = np.array([0.5, 2.0])
    np.testing.assert_allclose(sd.eval(xi), xi * np.exp(-xi), rtol=1e-15)
    with pytest.raises(DomainError):
        sd.eval(0.0)
    with pytest.raises(DomainError):
        sd.eval(-1.0)


def test_generalized_ohmic_eval():
    sd = GeneralizedOhmicDensity(coupling=1.0, exponent=2.0, cutoff=1.0)
    assert sd.eval(2.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-15)


def test_construction_validation():
    with pytest.raises(DomainError):
        OhmicDensity(coupling=-1.0, cutoff=1.0)
    with pytest.raises(DomainError):
        OhmicDensity(coupling=1.0, cutoff=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            OhmicDensity(coupling=bad, cutoff=1.0)
        with pytest.raises(DomainError):
            OhmicDensity(coupling=1.0, cutoff=bad)
    with pytest.raises(DomainError):
        GeneralizedOhmicDensity(coupling=1.0, exponent=0.0, cutoff=1.0)
    with pytest.raises(DomainError):
        DiscreteDensity([(0.3, -1.5)])
    with pytest.raises(DomainError):
        TabulatedDensity([(1.0, 0.5), (0.5, 0.2)], tail_decay=1.0)
    with pytest.raises(DomainError):
        TabulatedDensity([(0.5, -0.1), (1.0, 0.2)], tail_decay=1.0)


@pytest.mark.parametrize("exponent, cutoff", [(200.0, 1.0), (50.0, 1e10), (2.0, 1e200)])
def test_generalized_omega_overflow_is_a_domain_error(exponent, cutoff):
    # Gamma(200), 1e10^50 and A Gamma(2) (1e200)^2 all overflow.
    with pytest.raises(DomainError, match="overflows"):
        GeneralizedOhmicDensity(1.0, exponent, cutoff).reorganization_omega()
    from cohex.spin_detuned import ModelParams
    from cohex.sweep import AxisSpec, SweepSpec, run_sweep

    (row,) = run_sweep(SweepSpec(
        "static_sigma2x", (AxisSpec("beta_omega1", 2.0, 2.0, 1),),
        GeneralizedOhmicDensity(1.0, exponent, cutoff), ModelParams(1.0, 3.0, 0.1, 0.1, 0.1),
    )).rows
    assert row == (2.0, None, None, "invalid-params")


@pytest.mark.parametrize("coupling", [math.nan, math.inf, -math.inf])
def test_discrete_rejects_non_finite_couplings(coupling):
    with pytest.raises(DomainError, match="mode coupling must be finite"):
        DiscreteDensity([(0.05, 1.0), (coupling, 0.8)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tabulated_rejects_non_finite_abscissae(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="knot abscissae must be finite"):
            TabulatedDensity([(0.0, 0.0), (1.0, 0.5), (bad, 0.2)], tail_decay=1.0)


def test_reorganization_closed_forms():
    assert OhmicDensity(1.0, 2.0).reorganization_omega() == (2.0, 0.0)
    assert DiscreteDensity([(0.3, 1.5)]).reorganization_omega() == (pytest.approx(0.06), 0.0)
    assert DiscreteDensity([]).reorganization_omega() == (0.0, 0.0)
    # Gamma(2) = 1
    sd = GeneralizedOhmicDensity(1.0, 2.0, 1.0)
    assert sd.reorganization_omega() == (pytest.approx(1.0, rel=1e-14), 0.0)
    # quadrature oracle for the same quantity
    numeric, _ = sd.weighted_integral(lambda x: 1.0 / x)
    assert sd.reorganization_omega()[0] == pytest.approx(numeric, rel=1e-10)


@pytest.mark.parametrize("exponent", [0.25, 0.5, 1.5, 3.0])
def test_generalized_reorganization_against_mpmath(exponent):
    import mpmath

    coupling, cutoff = 0.7, 2.5
    sd = GeneralizedOhmicDensity(coupling, exponent, cutoff)
    with mpmath.workdps(30):
        # integral A x^{s-1} e^{-x/wc} dx with x = u^{1/s}: a smooth integrand
        s = mpmath.mpf(exponent)
        ref = coupling / s * mpmath.quad(
            lambda u: mpmath.exp(-u ** (1 / s) / cutoff), [0, cutoff ** s, mpmath.inf]
        )
    assert abs(sd.reorganization_omega()[0] - ref) <= 1e-14 * ref


def test_discrete_eval_unsupported():
    sd = DiscreteDensity([(0.5, 1.0)])
    with pytest.raises(UnsupportedOperationError):
        sd.eval(1.0)


def test_discrete_moment_sum():
    sd = DiscreteDensity([(0.5, 1.0), (0.2, 2.0)])
    val, err = sd.weighted_integral(lambda x: x)
    assert val == pytest.approx(0.25 * 1.0 + 0.04 * 2.0, rel=1e-15)
    assert err == 0.0  # an exact finite sum
    # The kernel divides by zero at the mode x = 1 itself; the refusal,
    # not numpy's warning, is what is tested.
    with pytest.raises(DomainError), np.errstate(divide="ignore"):
        sd.weighted_integral(lambda x: 1.0 / (x - 1.0))


def test_ohmic_moment_against_midpoint_oracle():
    sd = OhmicDensity(1.0, 1.0)
    val, _ = sd.weighted_integral(lambda x: 1.0 / (x + 1.0))
    ref = oracles.midpoint_reference(
        lambda x: x * np.exp(-x) / (x + 1.0), upper=60.0, n=2_000_000
    )
    assert val == pytest.approx(ref, rel=1e-6)


def test_moment_respects_bath_decay_scale():
    # Cutoff far above the default map scale: the dispatcher must widen it.
    sd = OhmicDensity(coupling=1.0, cutoff=50.0)
    val, _ = sd.weighted_integral(lambda x: np.ones_like(x))
    assert val == pytest.approx(50.0 ** 2, rel=1e-9)


def test_generalized_matches_ohmic_at_s_one():
    a, wc = 0.7, 1.3
    ohm = OhmicDensity(a, wc)
    gen = GeneralizedOhmicDensity(a, 1.0, wc)
    xi = np.linspace(0.05, 12.0, 40)
    np.testing.assert_allclose(gen.eval(xi), ohm.eval(xi), rtol=1e-14)
    assert gen.reorganization_omega()[0] == pytest.approx(
        ohm.reorganization_omega()[0], rel=1e-14
    )
    for kern in (lambda x: 1.0 / (x + 0.3), lambda x: np.exp(-0.5 * x)):
        gen_val, _ = gen.weighted_integral(kern)
        ohm_val, _ = ohm.weighted_integral(kern)
        assert gen_val == pytest.approx(ohm_val, rel=1e-12)


def test_tabulated_matches_sampled_ohmic():
    wc = 1.0
    xi = np.linspace(1e-3, 18.0, 1000)
    knots = np.column_stack([xi, xi * np.exp(-xi / wc)])
    sd = TabulatedDensity(knots, tail_decay=wc)
    assert sd.eval(0.37) == pytest.approx(0.37 * math.exp(-0.37), abs=1e-6)
    # reorganization integral close to the analytic A*wc
    assert sd.reorganization_omega()[0] == pytest.approx(1.0, rel=1e-4)


def test_tabulated_tail_and_origin():
    sd = TabulatedDensity([(1.0, 0.5), (2.0, 0.25)], tail_decay=0.5)
    # (0,0) knot is prepended
    assert sd.knot_xi[0] == 0.0
    assert sd.eval(1e-9) == pytest.approx(0.0, abs=1e-8)
    # beyond the last knot: declared exponential tail
    assert sd.eval(3.0) == pytest.approx(0.25 * math.exp(-2.0), rel=1e-12)


def test_tabulated_from_file(tmp_path):
    path = tmp_path / "density.txt"
    path.write_text(
        "# xi  I(xi)\n"
        "0.5   0.1\n"
        "1.0   0.3\n"
        "2.0   0.2\n"
    )
    sd = TabulatedDensity.from_file(path, tail_decay=1.0)
    assert sd.eval(1.0) == pytest.approx(0.3, rel=1e-12)
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 0.1 9\n1.0 0.3 9\n")
    with pytest.raises(DomainError):
        TabulatedDensity.from_file(bad, tail_decay=1.0)


SMEARED_MODES = [(0.4, 0.8), (0.3, 1.7)]


def smeared_discrete_knots(width=0.01):
    """Normalized Gaussian bumps at each mode on 6,000 knots; far from the
    modes the densities underflow, 73 of them to subnormals."""
    xi = np.linspace(1e-4, 3.0, 6000)
    dens = np.zeros_like(xi)
    for lam, freq in SMEARED_MODES:
        dens += (
            lam ** 2
            / (width * math.sqrt(2.0 * math.pi))
            * np.exp(-0.5 * ((xi - freq) / width) ** 2)
        )
    return np.column_stack([xi, dens])


def test_smeared_discrete_approximates_continuum():
    # Narrow normalized bumps at each mode should reproduce smooth-kernel
    # integrals of the discrete density to about a percent.  Every knot
    # starts a panel, so 6,001 knots need a budget above the default 4,000.
    disc = DiscreteDensity(SMEARED_MODES)
    tab = TabulatedDensity(smeared_discrete_knots(), tail_decay=0.05)
    roomy = DEFAULT_QUADRATURE.replace(max_subdivisions=8000)
    for kern in (lambda x: 1.0 / (x + 0.5), lambda x: np.exp(-x)):
        d_val, _ = disc.weighted_integral(kern)
        t_val, _ = tab.weighted_integral(kern, config=roomy)
        assert t_val == pytest.approx(d_val, rel=1e-2)


def test_subnormal_knot_densities_are_flushed_without_warnings():
    knots = smeared_discrete_knots()
    dens = knots[:, 1]
    subnormal = (dens > 0.0) & (dens < np.finfo(float).tiny)
    assert np.count_nonzero(subnormal) > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = TabulatedDensity(knots, tail_decay=0.05)
        values = tab.eval(knots[:, 0])
    assert np.all(tab.knot_density[1:][subnormal] == 0.0)
    assert np.array_equal(tab.knot_density[1:][~subnormal], dens[~subnormal])
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)


def _pchip_knot_sets():
    rng = np.random.default_rng(7)
    random_xi = np.sort(rng.uniform(0.05, 6.0, 60))
    steep_xi = np.linspace(0.0, 1.0, 41)
    steep = 1.0 + rng.uniform(0.0, 1.0, 41)
    steep[(np.arange(41) // 3) % 2 == 1] += 1e12
    wavy_xi = np.linspace(0.0, 3.0, 31)
    return {
        "random": np.column_stack([random_xi, rng.uniform(0.0, 2.0, 60)]),
        "flat": np.column_stack([np.linspace(0.0, 2.0, 25), np.full(25, 0.7)]),
        "steep": np.column_stack([steep_xi, steep]),
        "two knots": [(0.0, 0.5), (2.0, 1.5)],
        "non-monotone": np.column_stack(
            [wavy_xi, 1.5 + np.sin(4.0 * wavy_xi) + 0.3 * np.cos(9.0 * wavy_xi)]
        ),
        "smeared, subnormal": smeared_discrete_knots(),
    }


@pytest.mark.parametrize("name", list(_pchip_knot_sets()))
def test_tabulated_interpolant_matches_reference_pchip(name):
    # The reference interpolant is built on the stored (flushed) knots.
    tab = TabulatedDensity(_pchip_knot_sets()[name], tail_decay=1.0)
    xi, dens = tab.knot_xi, tab.knot_density
    reference = PchipInterpolator(xi, dens, extrapolate=False)
    rng = np.random.default_rng(11)
    points = np.concatenate([xi[1:], rng.uniform(xi[0], xi[-1], 1000)])

    k = np.searchsorted(xi[1:-1], points, side="right")
    c3, c2, c1, _ = tab._coefficients[:, k]
    s = points - xi[k]
    # d/dxi of the stored cubic, summed in ascending powers as the
    # reference sums it.
    slopes = c1 + c2 * s * 2.0 + c3 * (s * s) * 3.0

    for ours, ref in ((tab.eval(points), reference(points)),
                      (slopes, reference(points, 1))):
        assert np.all(np.abs(ours - ref) <= 1e-14 * np.abs(ref))
    # At the origin knot (no positive xi reaches it) the cubic starts at
    # the knot value with the knot slope.
    assert tab._coefficients[3, 0] == dens[0]
    assert abs(tab._coefficients[2, 0] - reference(0.0, 1)) <= 1e-14 * abs(reference(0.0, 1))


def test_tabulated_interpolant_is_flat_at_local_extrema():
    knots = _pchip_knot_sets()["non-monotone"]
    tab = TabulatedDensity(knots, tail_decay=1.0)
    secant = np.diff(tab.knot_density)
    extrema = np.flatnonzero(np.sign(secant[:-1]) != np.sign(secant[1:])) + 1
    assert extrema.size >= 4
    assert np.all(tab._coefficients[2, extrema] == 0.0)
    # Monotone between knots: no sample leaves its interval's knot range
    # by more than rounding.
    xi = np.linspace(0.0, 3.0, 30001)[1:]
    values = tab.eval(xi)
    k = np.searchsorted(tab.knot_xi[1:-1], xi, side="right")
    low = np.minimum(tab.knot_density[k], tab.knot_density[k + 1])
    high = np.maximum(tab.knot_density[k], tab.knot_density[k + 1])
    ulps = 4.0 * np.finfo(float).eps * high
    assert np.all((values >= low - ulps) & (values <= high + ulps))
