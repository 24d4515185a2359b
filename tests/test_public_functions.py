"""One call shape and one result record for every registry quantity.

Each quantity of ``cohex.sweep.QUANTITIES`` has one public function.  It
takes (params, sd, tp, config=None) and runs the quantity's step alone,
so its ``CoherenceResult`` holds the values, estimate and flags of the
quantity's sweep row, and an error it raises is the one the row's status
word names.  The benchmark's tracer (``bench/tracing.py``) rebuilds the
registry entries and wraps the bath classes; a smoke test runs it on the
live package.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import cohex
from cohex import fermion, spin_detuned, spin_general
from cohex.errors import CohexError
from cohex.spectral import (
    DiscreteDensity,
    GeneralizedOhmicDensity,
    OhmicDensity,
    TabulatedDensity,
)
from cohex.spin_detuned import CoherenceResult, ModelParams, ThermalPoint
from cohex.sweep import _STATUS, QUANTITIES, AxisSpec, SweepSpec, run_sweep

#: The public function of each registry quantity.
PUBLIC = {
    "sigma1x": spin_detuned.sigma1x,
    "sigma2x": spin_detuned.sigma2x,
    "sigma2y": spin_detuned.sigma2y,
    "sigma1x_general": spin_general.sigma1x_general,
    "sigma2x_general": spin_general.sigma2x_general,
    "r1": spin_general.r1_value,
    "r2": spin_general.r2_value,
    "static_sigma2x": spin_detuned.static_sigma2x,
    "sigma2x_low_T": spin_detuned.sigma2x_low_T,
    "normalized_output_ratio": spin_detuned.normalized_output_ratio,
    "normalized_spin": spin_detuned.normalized_coherences_spin,
    "static_compare": spin_detuned.static_compare,
    "sigma1x_fermion": fermion.sigma1x_fermion,
    "sigma2x_fermion": fermion.sigma2x_fermion,
    "hartree_fock": fermion.hartree_fock,
    "normalized_fermion": fermion.normalized_fermion,
    "ratio_R": fermion.ratio_R,
    "g_script": fermion.g_script,
    "fermion_high_T": fermion.fermion_high_T,
}

PARAMS = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
_KNOTS = [(x, x * np.exp(-x / 10.0)) for x in np.linspace(0.0, 60.0, 40)]
BATHS = {
    "ohmic": OhmicDensity(1.0, 10.0),
    "generalized": GeneralizedOhmicDensity(1.0, 0.5, 10.0),
    "tabulated": TabulatedDensity(_KNOTS, 10.0),
}


def status_word(exc: CohexError) -> str:
    """The status word a sweep row gives the error ``exc``."""
    return next(word for kind, word in _STATUS if isinstance(exc, kind))


def public_status(name, params, sd, tp, config=None):
    """The status a sweep row would read for one public call: its flags,
    or the word of the error it raises."""
    try:
        result = PUBLIC[name](params, sd, tp, config)
    except CohexError as exc:
        return status_word(exc)
    return ";".join(result.flags) or "ok"


def test_every_registry_quantity_has_one_public_function():
    assert set(PUBLIC) == set(QUANTITIES)
    assert all(getattr(cohex, f.__name__) is f for f in PUBLIC.values())


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_functions_share_one_call_shape(name):
    parameters = list(inspect.signature(PUBLIC[name]).parameters.values())
    assert [p.name for p in parameters] == ["params", "sd", "tp", "config"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)
    assert [p.default for p in parameters] == [inspect.Parameter.empty] * 3 + [None]


def _cases():
    for bath in BATHS:
        for name, q in QUANTITIES.items():
            if bath == "ohmic" or not q.needs_ohmic:
                for beta_omega1 in (1e-3, 1.0):
                    yield bath, name, beta_omega1


@pytest.mark.parametrize("bath, name, beta_omega1", list(_cases()))
def test_the_public_record_is_the_sweep_row(bath, name, beta_omega1):
    sd = BATHS[bath]
    axis = AxisSpec("beta_omega1", beta_omega1, beta_omega1, 1)
    (row,) = run_sweep(SweepSpec(name, (axis,), sd, PARAMS)).rows
    tp = ThermalPoint.from_beta_omega1(beta_omega1, PARAMS.omega1)
    try:
        result = PUBLIC[name](PARAMS, sd, tp)
    except CohexError as exc:
        assert row[1:] == (None,) * (len(row) - 2) + (status_word(exc),)
        return
    assert isinstance(result, CoherenceResult)
    assert row[1:] == tuple(result.values) + (
        result.err_estimate, ";".join(result.flags) or "ok")


def test_the_floored_fermion_ratios_report_their_flag():
    # At beta omega1 = 1e-2 F_F's quadratic noise floor lifts rel_tol;
    # the public results carry the flag their rows carry.
    tp = ThermalPoint(1e-2)
    for name in ("ratio_R", "g_script", "normalized_fermion", "hartree_fock"):
        assert PUBLIC[name](PARAMS, BATHS["ohmic"], tp).flags == ("tolerance-floor",)


def test_one_valued_results_read_as_value():
    tp = ThermalPoint(2.0)
    ratio = PUBLIC["ratio_R"](PARAMS, BATHS["ohmic"], tp)
    assert ratio.value == ratio.values[0] and len(ratio.values) == 1
    pair = PUBLIC["normalized_spin"](PARAMS, BATHS["ohmic"], tp)
    assert len(pair.values) == 2
    with pytest.raises(ValueError):
        pair.value


def test_g_script_reads_its_ratios_from_the_bath_and_params():
    # G is dimensionless: omega1, A, f1 and f2 cancel, so a scaled model
    # at the same ratios gives the same G.
    base = PUBLIC["g_script"](PARAMS, OhmicDensity(1.0, 10.0), ThermalPoint(2.0))
    scaled = PUBLIC["g_script"](
        ModelParams(2.0, 6.0, 0.2, 0.3, 0.7), OhmicDensity(5.0, 20.0), ThermalPoint(1.0))
    assert scaled.value == pytest.approx(base.value, rel=1e-9)


def test_the_ohmic_forms_refuse_other_baths_before_integrating(monkeypatch):
    import cohex.numerics as nm

    monkeypatch.setattr(nm, "integrate_many", lambda requests: pytest.fail("integrated"))
    for sd in (BATHS["generalized"], DiscreteDensity([(0.1, 1.0)])):
        for name, q in QUANTITIES.items():
            if q.needs_ohmic:
                with pytest.raises(CohexError, match="uses the ohmic closed form"):
                    PUBLIC[name](PARAMS, sd, ThermalPoint(2.0))


def test_the_benchmark_tracer_installs_on_the_live_package():
    # The harness rebuilds every registry entry with
    # dataclasses.replace(q, evaluate=...), reads q.model, and wraps
    # weighted_integral on the four bath classes; uninstalling restores
    # all of it.
    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        import tracing
    finally:
        sys.path.remove(str(bench))
    classes = (cohex.OhmicDensity, cohex.GeneralizedOhmicDensity,
               cohex.TabulatedDensity, cohex.DiscreteDensity)
    entries = dict(QUANTITIES)
    own = {cls: cls.__dict__.get("weighted_integral") for cls in classes}
    plain = {name: run_sweep(_one_cell(name)).rows for name in QUANTITIES}
    tracer = tracing.Tracer()
    tracer.install(cohex)
    try:
        assert all(QUANTITIES[name] is not q for name, q in entries.items())
        traced = {name: run_sweep(_one_cell(name)).rows for name in QUANTITIES}
        tp = ThermalPoint(2.0)
        for name, q in QUANTITIES.items():
            assert isinstance(q.evaluate(PARAMS, BATHS["ohmic"], tp, None), CoherenceResult)
        BATHS["tabulated"].weighted_integral(lambda xi: np.exp(-xi))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(QUANTITIES[name] is q for name, q in entries.items())
    assert {cls: cls.__dict__.get("weighted_integral") for cls in classes} == own
    cells = [s[6] for s in tracer.spans if s[0] == "sweep.cell"]
    assert sorted(c["quantity"] for c in cells) == sorted(QUANTITIES)
    assert all(c["model"] == QUANTITIES[c["quantity"]].model for c in cells)
    assert any(s[0] == "spectral.weighted_integral" for s in tracer.spans)


def _one_cell(name):
    axis = AxisSpec("beta_omega1", 2.0, 2.0, 1)
    return SweepSpec(name, (axis,), BATHS["ohmic"], PARAMS)
