import io
import math

import numpy as np
import pytest

from cohex.errors import DomainError, UnsupportedOperationError
from cohex.numerics import QuadratureConfig
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
    with pytest.raises(DomainError):
        GeneralizedOhmicDensity(coupling=1.0, exponent=0.0, cutoff=1.0)
    with pytest.raises(DomainError):
        DiscreteDensity([(0.3, -1.5)])
    with pytest.raises(DomainError):
        TabulatedDensity([(1.0, 0.5), (0.5, 0.2)], tail_decay=1.0)
    with pytest.raises(DomainError):
        TabulatedDensity([(0.5, -0.1), (1.0, 0.2)], tail_decay=1.0)


def test_reorganization_closed_forms():
    assert OhmicDensity(1.0, 2.0).reorganization_omega() == pytest.approx(2.0)
    assert DiscreteDensity([(0.3, 1.5)]).reorganization_omega() == pytest.approx(0.06)
    assert DiscreteDensity([]).reorganization_omega() == 0.0
    # Gamma(2) = 1
    sd = GeneralizedOhmicDensity(1.0, 2.0, 1.0)
    assert sd.reorganization_omega() == pytest.approx(1.0, rel=1e-14)
    # quadrature oracle for the same quantity
    numeric = sd.moment_integral(lambda x: 1.0 / x)
    assert sd.reorganization_omega() == pytest.approx(numeric, rel=1e-10)


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
    assert abs(sd.reorganization_omega() - ref) <= 1e-14 * ref


def test_discrete_eval_unsupported():
    sd = DiscreteDensity([(0.5, 1.0)])
    with pytest.raises(UnsupportedOperationError):
        sd.eval(1.0)


def test_discrete_moment_sum():
    sd = DiscreteDensity([(0.5, 1.0), (0.2, 2.0)])
    val = sd.moment_integral(lambda x: x)
    assert val == pytest.approx(0.25 * 1.0 + 0.04 * 2.0, rel=1e-15)
    with pytest.raises(DomainError):
        sd.moment_integral(lambda x: 1.0 / (x - 1.0))


def test_ohmic_moment_against_midpoint_oracle():
    sd = OhmicDensity(1.0, 1.0)
    val = sd.moment_integral(lambda x: 1.0 / (x + 1.0))
    ref = oracles.midpoint_reference(
        lambda x: x * np.exp(-x) / (x + 1.0), upper=60.0, n=2_000_000
    )
    assert val == pytest.approx(ref, rel=1e-6)


def test_moment_respects_bath_decay_scale():
    # Cutoff far above the default map scale: the dispatcher must widen it.
    sd = OhmicDensity(coupling=1.0, cutoff=50.0)
    val = sd.moment_integral(lambda x: np.ones_like(x))
    assert val == pytest.approx(50.0 ** 2, rel=1e-9)


def test_generalized_matches_ohmic_at_s_one():
    a, wc = 0.7, 1.3
    ohm = OhmicDensity(a, wc)
    gen = GeneralizedOhmicDensity(a, 1.0, wc)
    xi = np.linspace(0.05, 12.0, 40)
    np.testing.assert_allclose(gen.eval(xi), ohm.eval(xi), rtol=1e-14)
    assert gen.reorganization_omega() == pytest.approx(
        ohm.reorganization_omega(), rel=1e-14
    )
    for kern in (lambda x: 1.0 / (x + 0.3), lambda x: np.exp(-0.5 * x)):
        assert gen.moment_integral(kern) == pytest.approx(
            ohm.moment_integral(kern), rel=1e-12
        )


def test_tabulated_matches_sampled_ohmic():
    wc = 1.0
    xi = np.linspace(1e-3, 18.0, 1000)
    knots = np.column_stack([xi, xi * np.exp(-xi / wc)])
    sd = TabulatedDensity(knots, tail_decay=wc)
    assert sd.eval(0.37) == pytest.approx(0.37 * math.exp(-0.37), abs=1e-6)
    # reorganization integral close to the analytic A*wc
    assert sd.reorganization_omega() == pytest.approx(1.0, rel=1e-4)


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


def test_smeared_discrete_approximates_continuum():
    # Narrow normalized bumps at each mode should reproduce smooth-kernel
    # integrals of the discrete density to about a percent.
    modes = [(0.4, 0.8), (0.3, 1.7)]
    disc = DiscreteDensity(modes)
    width = 0.01
    xi = np.linspace(1e-4, 3.0, 6000)
    dens = np.zeros_like(xi)
    for lam, freq in modes:
        dens += (
            lam ** 2
            / (width * math.sqrt(2.0 * math.pi))
            * np.exp(-0.5 * ((xi - freq) / width) ** 2)
        )
    tab = TabulatedDensity(np.column_stack([xi, dens]), tail_decay=0.05)
    for kern in (lambda x: 1.0 / (x + 0.5), lambda x: np.exp(-x)):
        d_val = disc.moment_integral(kern)
        t_val = tab.moment_integral(kern)
        assert t_val == pytest.approx(d_val, rel=1e-2)
