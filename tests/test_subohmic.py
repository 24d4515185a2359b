"""Sub-ohmic baths, I(xi) = A xi^s exp(-xi/omega_c) with s < 1.

Their integrands go like xi^(s - 1) at 0, which the engine integrates in
a graded variable (``numerics.endpoint_grade``).  These tests hold the
graded results to stored mpmath references (``subohmic_references.json``,
written by ``make_subohmic_references.py``) and check which quantities
converge over the declared temperature range.
"""

import json
import pathlib
import warnings

import pytest

from cohex.errors import KernelError
from cohex.fermion import sigma2x_fermion
from cohex.spectral import GeneralizedOhmicDensity
from cohex.spin_detuned import ModelParams, ThermalPoint, coherence_integral
from cohex.spin_general import r1_value, sigma1x_general
from cohex.sweep import AxisSpec, SweepSpec, run_sweep

_CORPUS = json.loads(
    pathlib.Path(__file__).with_name("subohmic_references.json").read_text()
)
PARAMS = ModelParams(*_CORPUS["meta"]["params"])


def _computed(cell):
    """(value, err_estimate) of one corpus cell through the public function."""
    params = ModelParams(PARAMS.omega1, cell["omega2"], PARAMS.t, PARAMS.f1, PARAMS.f2)
    sd = GeneralizedOhmicDensity(1.0, cell["s"], cell["cutoff"])
    tp = ThermalPoint(cell["beta_omega1"] / params.omega1)
    if cell["quantity"] == "J":
        return coherence_integral(params, sd, tp)
    compute = {"sigma1x_general": sigma1x_general, "r1": r1_value,
               "sigma2x_fermion": sigma2x_fermion}[cell["quantity"]]
    result = compute(params, sd, tp)
    return result.value, result.err_estimate


def _cell_id(cell):
    return "{quantity}-s{s}-wc{cutoff}-b{beta_omega1}".format(**cell)


def test_corpus_covers_the_sub_ohmic_cells():
    cells = _CORPUS["cells"]
    assert len(cells) == 3 * 3 * 2 * 4 + 1
    assert all(cell["check_rel"] <= 1e-25 for cell in cells)


@pytest.mark.parametrize("cell", _CORPUS["cells"], ids=_cell_id)
def test_err_estimate_bounds_the_error(cell):
    value, err = _computed(cell)
    reference = float(cell["reference"])
    assert abs(value - reference) <= err


BETAS = (0.1, 0.3, 1.0, 1.73, 3.0, 10.0, 30.0)
_ERROR_WORDS = {"near-resonance", "degenerate-basis", "invalid-params",
                "no-convergence", "cross-form-disagreement", "kernel-error"}
_SPIN = ("sigma1x", "sigma1x_general", "sigma2x_general", "r1", "r2")


@pytest.mark.parametrize("exponent, quantities", [
    (0.75, _SPIN + ("sigma2x_fermion", "hartree_fock")),
    (0.5, _SPIN + ("sigma2x_fermion", "hartree_fock")),
    (0.25, _SPIN),  # the fermion kernels do not converge here (CHANGES.md)
])
def test_sub_ohmic_cells_converge_over_the_temperature_range(exponent, quantities):
    sd = GeneralizedOhmicDensity(1.0, exponent, 10.0)
    for name in quantities:
        for beta in BETAS:
            axis = AxisSpec("beta_omega1", beta, beta, 1)
            (row,) = run_sweep(SweepSpec(name, (axis,), sd, PARAMS)).rows
            assert row[1] is not None, (name, beta, row[-1])
            assert not set(row[-1].split(";")) & _ERROR_WORDS, (name, beta, row[-1])


def test_an_underflowing_grade_fails_its_own_integral():
    # s = 0.01 takes k = 64: panels a few levels deep at v = 0 have nodes
    # where v^64 underflows, and the kernel must not see xi = 0.
    sd = GeneralizedOhmicDensity(1.0, 0.01, 10.0)
    with pytest.raises(KernelError, match="a quadrature node reaches xi = 0"):
        coherence_integral(PARAMS, sd, ThermalPoint(1.0))
    axis = AxisSpec("beta_omega1", 0.5, 2.0, 2)
    table = run_sweep(SweepSpec("r1", (axis,), sd, PARAMS))
    assert [row[-1] for row in table.rows] == ["kernel-error"] * 2


@pytest.mark.parametrize("quantity", ["sigma2x_fermion", "sigma1x_general", "hartree_fock"])
def test_an_overflowing_kernel_fails_its_cell_without_a_warning(quantity):
    # At s = 0.01 the kernels can overflow near xi = 0 (the fermion ones
    # do); the engine's non-finite check must turn that into the cell's
    # status, not a numpy RuntimeWarning escaping run_sweep.
    sd = GeneralizedOhmicDensity(1.0, 0.01, 10.0)
    axis = AxisSpec("beta_omega1", 1.0, 1.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_sweep(SweepSpec(quantity, (axis,), sd, PARAMS))
    assert [row[-1] for row in table.rows] == ["kernel-error"]
