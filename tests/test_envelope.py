"""Envelope guard: only ``CohexError`` escapes a sweep cell.

Every registry quantity runs one-cell sweeps at the edges of double
precision: beta omega1 at 1e-300, 1e-161, 1e-155, 1e-150, 1e150 and 1e300
(between 1e-162 and 1e-154, 3 (beta omega1)^2 is subnormal), omega1/omega_c
at 1e-300, 1e-150, 1e150 and 1e300, omega2/omega1 at 1e-300 and 1e300, and
t/omega1 at 1e300, on an
ohmic bath and, for the quantities that take any bath, on a generalized
(s = 0.5) and a 40-knot tabulated bath (the cutoff-ratio axis is ohmic
only).  Each of the 445 sweeps must return, and each row must hold
either finite values or an error status word with blank values.  The
quantity's public function, called on the cell's inputs, must carry the
row's flags, or raise the error that the row's status word names.
"""

import math
import warnings

import numpy as np
import pytest

import cohex.numerics as nm
from cohex.errors import DomainError
from cohex.fermion import (
    fermion_high_T, hartree_static, normalized_fermion, ratio_R, sigma2x_fermion,
)
from cohex.spectral import GeneralizedOhmicDensity, OhmicDensity, TabulatedDensity
from cohex.spin_detuned import ModelParams, ThermalPoint, sigma2x_low_T
from cohex.sweep import _STATUS, QUANTITIES, AxisSpec, SweepSpec, _cell_inputs, run_sweep

from test_public_functions import public_status

PARAMS = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
_KNOTS = [(x, x * np.exp(-x / 10.0)) for x in np.linspace(0.0, 60.0, 40)]
BATHS = {
    "ohmic": OhmicDensity(1.0, 10.0),
    "generalized": GeneralizedOhmicDensity(1.0, 0.5, 10.0),
    "tabulated": TabulatedDensity(_KNOTS, 10.0),
}
EXTREMES = (
    [("beta_omega1", v) for v in (1e-300, 1e-161, 1e-155, 1e-150, 1e150, 1e300)]
    + [("omega1_over_omegac", v) for v in (1e-300, 1e-150, 1e150, 1e300)]
    + [("omega2_over_omega1", v) for v in (1e-300, 1e300)]
    + [("t_over_omega1", 1e300)]
)
ERROR_WORDS = {word for _, word in _STATUS}


def _cases():
    for bath, sd in BATHS.items():
        for name, q in QUANTITIES.items():
            if bath != "ohmic" and q.needs_ohmic:
                continue
            for axis, value in EXTREMES:
                if axis == "omega1_over_omegac" and bath != "ohmic":
                    continue
                axes = [AxisSpec(axis, value, value, 1)]
                if axis != "beta_omega1":
                    axes.insert(0, AxisSpec("beta_omega1", 2.0, 2.0, 1))
                yield f"{bath}/{name}/{axis}={value:g}", SweepSpec(name, tuple(axes), sd, PARAMS)


def test_extreme_cells_return_finite_values_or_a_status():
    cases = list(_cases())
    assert len(cases) == 445
    bad = []
    for label, spec in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                (row,) = run_sweep(spec).rows
            except Exception as exc:  # noqa: BLE001 - the escape is the failure
                bad.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
        cells, status = row[len(spec.axes):-1], row[-1]
        if status in ERROR_WORDS:
            ok = all(v is None for v in cells)
        else:
            ok = all(isinstance(v, float) and math.isfinite(v) for v in cells)
        if not ok:
            bad.append(f"{label}: {row!r}")
    assert bad == []


def test_public_calls_carry_the_extreme_rows_status():
    bad = []
    for label, spec in _cases():
        (row,) = run_sweep(spec).rows
        point = {axis.name: float(axis.start) for axis in spec.axes}
        got = public_status(spec.quantity, *_cell_inputs(spec, point))
        if got != row[-1]:
            bad.append(f"{label}: public call {got!r}, row {row[-1]!r}")
    assert bad == []


def test_the_hot_end_points_to_the_high_temperature_forms():
    hot = ThermalPoint(1e-300)
    with pytest.raises(DomainError, match="fermion_high_T and high_T_asymptotes"):
        sigma2x_fermion(PARAMS, BATHS["ohmic"], hot)
    for b in (1e-300, 1e-161, 1e-155):
        # pi^2/(3 b^2) overflows from b ~ 1.35e-154 down; past ~1e-162 the
        # prefactor underflows too and the product would be 0 * inf.
        with pytest.raises(DomainError, match="high_T_asymptotes"):
            sigma2x_low_T(PARAMS, BATHS["ohmic"], ThermalPoint(b))
    assert math.isfinite(sigma2x_low_T(PARAMS, BATHS["ohmic"], ThermalPoint(1e-150)).value)
    # Closed forms that need no kernel still evaluate there.
    h1, h2 = hartree_static(PARAMS, BATHS["ohmic"], hot).values
    assert math.isfinite(h1) and math.isfinite(h2)


def test_the_cold_end_of_the_high_temperature_form_is_a_domain_error():
    # beta^2 overflows at beta = 1e300; at beta = 1e150 beta^2 is finite
    # but the product with Omega = A omega_c = 1e100 is not.
    for beta, cutoff in ((1e300, 10.0), (1e150, 1e100)):
        with pytest.raises(DomainError, match="too cold for the high-temperature form"):
            fermion_high_T(PARAMS, OhmicDensity(1.0, cutoff), ThermalPoint(beta))
    assert math.isfinite(
        fermion_high_T(PARAMS, OhmicDensity(1.0, 1e10), ThermalPoint(1e150)).value)


def test_narrow_bath_edges_fail_in_their_own_words():
    # 1/a + e^a Ei(-a) ~ 1/a^2 cancels between two terms ~ 1/a: at a = 1e12
    # it keeps about 4 digits (finite but wrong), at 1e150 it is 0.
    for ratio in (1e12, 1e150):
        with pytest.raises(DomainError, match="cancels to fewer digits than rel_tol"):
            normalized_fermion(PARAMS, OhmicDensity.from_ratio(1.0, 1.0, ratio), ThermalPoint(2.0))
    first, _ = normalized_fermion(
        PARAMS, OhmicDensity.from_ratio(1.0, 1.0, 1e4), ThermalPoint(2.0)).values
    assert math.isfinite(first)
    # R(T) has no zero-temperature denominator and stays finite there.
    value = ratio_R(PARAMS, OhmicDensity.from_ratio(1.0, 1.0, 1e150), ThermalPoint(2.0)).value
    assert math.isfinite(value)


def test_a_bath_too_narrow_for_the_normalized_fermion_starts_no_engine_run(monkeypatch):
    # The zero-temperature denominator reads omega1/omega_c and rel_tol
    # only, so it is checked before any integral is stated.
    runs = []
    many = nm.integrate_many
    monkeypatch.setattr(nm, "integrate_many", lambda requests: runs.append(1) or many(requests))
    axes = (AxisSpec("beta_omega1", 2.0, 2.0, 1), AxisSpec("omega1_over_omegac", 1e6, 1e6, 1))
    (row,) = run_sweep(SweepSpec("normalized_fermion", axes, BATHS["ohmic"], PARAMS)).rows
    assert row[-1] == "invalid-params"
    with pytest.raises(DomainError, match="cancels to fewer digits than rel_tol"):
        normalized_fermion(PARAMS, OhmicDensity.from_ratio(1.0, 1.0, 1e6), ThermalPoint(2.0))
    assert runs == []
