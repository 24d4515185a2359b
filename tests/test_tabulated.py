"""Tabulated baths: the engine integrates knot to knot.

A tabulated density is a monotone cubic between knots and only once
differentiable at them, so a Gauss-Kronrod panel that straddles a knot
neither converges fast nor bounds its own error.  The bath declares its
knots as breakpoints and every integral starts with a panel edge at each.
These tests hold J to stored mpmath references (``tabulated_references.json``,
written by ``make_tabulated_references.py``) and check the knot count
against the panel budget.
"""

import json
import pathlib

import numpy as np
import pytest

import cohex.numerics as nm
from cohex.errors import DomainError
from cohex.spectral import TabulatedDensity
from cohex.spin_detuned import ModelParams, ThermalPoint, coherence_integral, coherence_request
from cohex.sweep import AxisSpec, SweepSpec, run_sweep

_CORPUS = json.loads(
    pathlib.Path(__file__).with_name("tabulated_references.json").read_text()
)
PARAMS = ModelParams(_CORPUS["meta"]["omega1"], 3.0, 0.1, 0.1, 0.1)


def _bath(span, cutoff, tail, knots=40):
    xi = np.linspace(0.0, span, knots)
    return TabulatedDensity(np.column_stack([xi, xi * np.exp(-xi / cutoff)]), tail)


def _cell_id(cell):
    return "{quantity}-span{span}-wc{cutoff}-b{beta_omega1}".format(**cell)


def test_corpus_covers_the_tabulated_cells():
    cells = _CORPUS["cells"]
    assert len(cells) == 3 * 7
    assert all(cell["check_rel"] <= 1e-25 for cell in cells)


@pytest.mark.parametrize("cell", _CORPUS["cells"], ids=_cell_id)
def test_err_estimate_bounds_the_error(cell):
    sd = _bath(cell["span"], cell["cutoff"], cell["tail"])
    tp = ThermalPoint(cell["beta_omega1"] / PARAMS.omega1)
    value, err = coherence_integral(PARAMS, sd, tp)
    assert abs(value - float(cell["reference"])) <= err


def test_every_knot_starts_a_panel(monkeypatch):
    sd = _bath(60.0, 10.0, 10.0)
    request = coherence_request(PARAMS, sd, ThermalPoint(2.0))
    assert request.breakpoints == tuple(sd.knot_xi.tolist())
    first = []
    gk = nm._gk_evaluate

    def recorded(f, lo, hi):
        first.append(lo.copy())
        return gk(f, lo, hi)

    monkeypatch.setattr(nm, "_gk_evaluate", recorded)
    nm.integrate(request)
    scale = max(1.0, request.scale)
    edges = -np.expm1(-sd.knot_xi[1:] / scale)
    assert np.abs(first[0][None, :] - edges[:, None]).min(axis=1).max() < 1e-15
    # Requests that differ only in their breakpoints are different integrals.
    assert nm._request_key(request) == nm._request_key(
        coherence_request(PARAMS, sd, ThermalPoint(2.0)))
    for other in ((), request.breakpoints[:-1], request.breakpoints[:-1] + (61.0,)):
        moved = nm.Integral(request.kernel, request.columns, request.removable_points,
                            request.config, request.density, request.density_columns,
                            request.grade, other)
        assert nm._request_key(request) != nm._request_key(moved)


@pytest.mark.parametrize("knots, fails", [(40, False), (3_990, True), (5_000, True)])
def test_knots_that_fill_the_panel_budget_are_invalid_params(knots, fails):
    # 3,990 knots plus the engine's own breaks start 4,001 panels, one
    # over the default budget of 4,000; refinement would then stop at
    # once and end in no-convergence, so the request fails up front.
    sd = _bath(60.0, 10.0, 10.0, knots)
    tp = ThermalPoint(2.0)
    axis = AxisSpec("beta_omega1", 2.0, 2.0, 1)
    (row,) = run_sweep(SweepSpec("sigma2x", (axis,), sd, PARAMS)).rows
    if not fails:
        value, err = coherence_integral(PARAMS, sd, tp)
        assert err <= 1e-10 * abs(value)
        assert row[-1] == "ok"
        return
    with pytest.raises(DomainError, match=r"^%d breakpoints \(knots\).*budget "
                                          r"max_subdivisions = 4000$" % knots):
        coherence_integral(PARAMS, sd, tp)
    assert row[-1] == "invalid-params"
    # A budget that holds the knots' panels takes them.
    roomy = nm.DEFAULT_QUADRATURE.replace(max_subdivisions=2 * knots)
    value, err = coherence_integral(PARAMS, sd, tp, roomy)
    assert err <= 1e-10 * abs(value)
