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

import json
import math
import pathlib
import warnings

import numpy as np
import pytest

import cohex.numerics as nm
from cohex.errors import DomainError
from cohex.fermion import (
    fermion_high_T, hartree_static, normalized_fermion, ratio_R, sigma2x_fermion,
)
from cohex.spectral import GeneralizedOhmicDensity, OhmicDensity, TabulatedDensity
from cohex.spin_detuned import (
    ModelParams, ThermalPoint, coherence_integral, f_dimensionless, sigma2x_low_T,
)
from cohex.spin_general import sigma2x_general
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


def _one_cell(quantity, params, ratio):
    axes = (AxisSpec("beta_omega1", 2.0, 2.0, 1),
            AxisSpec("omega1_over_omegac", ratio, ratio, 1))
    (row,) = run_sweep(SweepSpec(quantity, axes, BATHS["ohmic"], params)).rows
    return row


def test_j_ends_where_its_kernel_overflows():
    # xi (xi^2 - omega1^2) overflows past xi = 5.6e102, where J's kernel
    # reads 0 while its tail still carries weight; the engine's nodes reach
    # about 35 decay scales.  J on an ohmic bath is A F.
    tp = ThermalPoint(2.0)
    j, err = coherence_integral(PARAMS, OhmicDensity.from_ratio(1.0, 1.0, 1e-101), tp)
    f, f_err = f_dimensionless(1e-101, 2.0)
    assert abs(j - f) <= err + f_err
    for ratio in (1e-102, 1e-110, 1e-150):
        # Here J read 233.6063 (A F = 233.6068) at 1e-102 and 0.0 from
        # 1e-110, so sigma1x read -0.0 `ok`.
        with pytest.raises(DomainError, match=r"J's bath = 1e\+1.. must be below 1.6e\+101"):
            coherence_integral(PARAMS, OhmicDensity.from_ratio(1.0, 1.0, ratio), tp)
        for quantity in ("sigma1x", "sigma1x_fermion"):
            assert _one_cell(quantity, PARAMS, ratio)[-1] == "invalid-params"
    # At T = 0 the kernel 1 / (xi (xi + omega1)) overflows past 1.3e154:
    # J is -e^a Ei(-a), the zero-temperature F.
    cold = ThermalPoint(math.inf)
    j, err = coherence_integral(PARAMS, OhmicDensity.from_ratio(1.0, 1.0, 1e-150), cold)
    f, _ = f_dimensionless(1e-150, math.inf)
    assert abs(j - f) <= err
    with pytest.raises(DomainError, match=r"J's bath = 1e\+153 must be below 3.8e\+152"):
        coherence_integral(PARAMS, OhmicDensity.from_ratio(1.0, 1.0, 1e-153), cold)


def test_f_ends_where_its_kernel_overflows():
    # F rises by ln 10 per decade of 1/a up to its limit; past it x^2 - 1
    # overflows (x ~ 1.3e154) and F fell behind that trend (by 8e-8 at
    # a = 1e-153, 3.5 times its estimate) and read (0.0, 0.0) from 1e-160.
    (f151, err151), (f152, err152) = (f_dimensionless(a, 2.0) for a in (1e-151, 1e-152))
    assert abs(f152 - f151 - math.log(10.0)) <= err151 + err152
    for a in (1e-153, 1e-154, 1e-300):
        with pytest.raises(DomainError, match=r"omega_c/omega1 = 1e\+... must be below 3.8e\+152"):
            f_dimensionless(a, 2.0)
        assert _one_cell("normalized_spin", PARAMS, a)[-1] == "invalid-params"


def test_a_subnormal_cutoff_ratio_is_invalid_params():
    # omega1/omega_c = 1e-310 makes the tail scale 1/a infinite; the
    # integral's own check refuses it before any node is placed.
    with pytest.raises(DomainError, match="tail scale must be positive and finite"):
        f_dimensionless(1e-310, 2.0)
    small = ModelParams(1e-10, 3e-10, 1e-11, 0.1, 0.1)
    with pytest.raises(DomainError, match="tail scale must be positive and finite"):
        ratio_R(small, OhmicDensity(1.0, 1e300), ThermalPoint.from_beta_omega1(2.0, 1e-10))
    assert _one_cell("ratio_R", small, 1e-310)[-1] == "invalid-params"


def test_a_node_at_xi_zero_fails_only_its_cell():
    # The combined route's removable points sit at u ~ 1e-310, and
    # refinement drives first-panel nodes to u = 0, where bose_n diverges:
    # the cell reads kernel-error instead of the DomainError leaving run_sweep.
    small = ModelParams(1e-10, 3e-10, 1e-11, 0.1, 0.1)
    assert _one_cell("sigma2x_fermion", small, 1e-310)[-1] == "kernel-error"


HOT_PROBES = (1e-300, 1e-150, 1e-20, 1e-14, 1e-12, 1e-8, 1e-5, 1e-3, 1e-2)
# Each general-coupling quantity and its small-t reference at the same cell
# (None: the ratio, whose reference is 1).  At high temperature the
# coupling's effect fades, so the two agree to well under 1e-5.
HOT_REFERENCES = {
    "sigma1x_general": "sigma1x", "sigma2x_general": "sigma2x", "r1": None, "r2": None,
}


@pytest.mark.parametrize("bath", sorted(BATHS))
def test_the_general_forms_give_no_wrong_ok_at_the_hot_end(bath):
    def row(quantity, b):
        spec = SweepSpec(quantity, (AxisSpec("beta_omega1", b, b, 1),), BATHS[bath], PARAMS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (cells,) = run_sweep(spec).rows
        return cells

    bad = []
    for quantity, reference in HOT_REFERENCES.items():
        for b in HOT_PROBES:
            _, value, err, status = row(quantity, b)
            assert status == "ok" or b != 1e-2, quantity
            if status != "ok":
                assert status in ERROR_WORDS and value is None
                continue
            if reference is None:
                ref = 1.0
            else:
                _, ref, _, ref_status = row(reference, b)
                assert ref_status == "ok", (quantity, b)
            if not abs(value - ref) <= err + 1e-5 * abs(ref):
                bad.append(f"{quantity} at beta omega1 = {b:g}: {value!r} +- {err:.3g}, "
                           f"reference {ref!r}")
    assert bad == []


GENERAL = ("sigma1x_general", "sigma2x_general", "r1", "r2")
DECADES = tuple(10.0 ** -k for k in range(0, 161, 10))


def test_the_general_forms_hold_their_wide_bath_trend():
    # On a wide ohmic bath J grows by a constant step per decade of
    # omega_c/omega1, and so do the general coherences.  The printed kernels
    # overflowed from xi ~ 4.5e61: sigma1x_general read -4.96326 at 1e-70
    # (trend -4.87583), r2 and sigma2x_general 0.0 `ok` from 1e-90.  The
    # pole sums hold until xi^2 overflows (omega1/omega_c ~ 2.6e-153); r1 and
    # r2 end at J's own limit (6.25e-102).
    rows = {q: [_one_cell(q, PARAMS, ratio) for ratio in DECADES] for q in GENERAL}
    zeros = [(q, ratio) for q in GENERAL for ratio, row in zip(DECADES, rows[q])
             if row[-1] not in ERROR_WORDS and row[2] == 0.0]
    assert zeros == []
    for q in ("sigma1x_general", "sigma2x_general"):
        steps = np.diff([row[2] for row in rows[q][2:-1]])  # 1e-20 to 1e-150
        assert np.all(np.abs(steps - steps[0]) <= 1e-6 * abs(steps[0])), (q, steps)
        assert rows[q][-1][-1] == "invalid-params"
    for q in ("r1", "r2"):
        assert [row[-1] for row in rows[q]] == ["ok"] * 11 + ["invalid-params"] * 6, q
    wide = OhmicDensity.from_ratio(1.0, 1.0, 1e-160)
    with pytest.raises(DomainError, match=r"general-coupling bath = 1e\+160 must be below 3.8e\+152"):
        sigma2x_general(PARAMS, wide, ThermalPoint(2.0))


# The other registry quantities on the same decades: the index in DECADES
# of the first row that reads invalid-params (11 is 1e-110), None if none
# does, and how each value column moves per step from 1e-10 on.  A "step" grows
# by a constant step, as J and F do; a "factor" grows by 1e10, in
# proportion to omega_c; a normalized ratio converges; sigma2y is zero.
WIDE_BATH_TRENDS = {
    "sigma1x": (11, ("step",)),
    "sigma2x": (11, ("step",)),
    "sigma2y": (None, ("zero",)),
    "static_sigma2x": (None, ("factor",)),
    "sigma2x_low_T": (None, ("step",)),
    "normalized_output_ratio": (16, ("converge",)),
    "normalized_spin": (16, ("converge", "converge")),
    "static_compare": (11, ("step", "factor", "step")),
    "sigma1x_fermion": (11, ("factor",)),
    "sigma2x_fermion": (None, ("factor",)),
    "hartree_fock": (11, ("factor",) * 4),
    "normalized_fermion": (16, ("converge", "converge")),
    "ratio_R": (16, ("converge",)),
    "g_script": (None, ("factor",)),
    "fermion_high_T": (None, ("factor",)),
}


def test_every_quantity_is_probed_on_the_wide_bath_decades():
    assert set(WIDE_BATH_TRENDS) | set(GENERAL) == set(QUANTITIES)
    assert not set(WIDE_BATH_TRENDS) & set(GENERAL)


@pytest.mark.parametrize("quantity", sorted(WIDE_BATH_TRENDS))
def test_every_other_quantity_holds_its_wide_bath_trend(quantity):
    # What integrates J ends where J's tail scale passes 1.6e101 (1e-110 on),
    # the normalized ratios where F's passes 3.8e152 (1e-160); no row reads
    # a silent 0.0.
    fails_from, trends = WIDE_BATH_TRENDS[quantity]
    rows = [_one_cell(quantity, PARAMS, ratio) for ratio in DECADES]
    live = len(DECADES) if fails_from is None else fails_from
    assert [row[-1] for row in rows[live:]] == ["invalid-params"] * (len(DECADES) - live)
    assert not [row[-1] for row in rows[:live] if row[-1] in ERROR_WORDS]
    values = np.array([row[2:2 + len(trends)] for row in rows[:live]], dtype=float)
    for column, trend in enumerate(trends):
        v = values[1:, column]  # 1e-10 on
        if trend == "zero":
            assert np.all(values[:, column] == 0.0)
            continue
        assert np.all(values[:, column] != 0.0), (column, values[:, column])
        if trend == "step":
            steps = np.diff(v)
            assert np.all(np.abs(steps - steps[0]) <= 1e-6 * abs(steps[0])), (column, steps)
        elif trend == "factor":
            assert np.all(np.abs(v[1:] / v[:-1] - 1e10) <= 1e4), (column, v)
        else:
            moves = np.abs(np.diff(v))
            assert np.all(moves[1:] <= moves[:-1] + 1e-14), (column, moves)
            assert moves[-1] <= 1e-3 * abs(v[-1]), (column, moves)


HOT_BAND = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3)


@pytest.mark.parametrize("bath", sorted(BATHS))
def test_the_general_forms_are_ok_across_the_hot_band(bath):
    # Each status pinned, not only the `ok` rows checked: the printed
    # kernels cancelled from order 1 to order beta^2 and read
    # no-convergence below beta omega1 ~ 2e-3 after spending their panel
    # budget; the pole sums cancel nothing there.
    statuses = {}
    for quantity in GENERAL:
        for b in HOT_BAND:
            spec = SweepSpec(quantity, (AxisSpec("beta_omega1", b, b, 1),), BATHS[bath], PARAMS)
            (row,) = run_sweep(spec).rows
            statuses[quantity, b] = row[-1]
    assert statuses == {key: "ok" for key in statuses}


def test_the_general_forms_match_mpmath_across_the_hot_end():
    # tests/hot_references.json (tests/make_hot_references.py): ohmic bath
    # xi exp(-xi/10), beta omega1 from 1e-2 down to 1e-20.
    cells = json.loads(pathlib.Path(__file__).with_name("hot_references.json").read_text())
    bad = []
    for cell in cells["cells"]:
        b = cell["beta_omega1"]
        spec = SweepSpec(cell["quantity"], (AxisSpec("beta_omega1", b, b, 1),),
                         BATHS["ohmic"], PARAMS)
        (_, value, err, status) = run_sweep(spec).rows[0]
        ref = float(cell["reference"])
        if status != "ok" or not abs(value - ref) <= err:
            bad.append(f"{cell['quantity']} at beta omega1 = {b:g}: {value!r} +- {err!r} "
                       f"({status}), reference {ref!r}")
    assert bad == []
