"""Work budgets: the engine work of every registry quantity's sweep.

For each case of ``test_registry_digests`` (the same 18-cell sweeps, on
a fresh bath so that no Omega is carried over from another case) a spy
counts the kernel calls (``numerics._Engine._integrand``), the kernel
nodes those calls evaluate, and the engine runs (``integrate_many``).
The digests pin the bytes; these budgets pin the work, so a change that
sends pooled integrals back to lone ones, or doubles the panels, fails
here instead of showing up only as a slower benchmark.  The spy also
counts the ``QuadratureConfig`` objects a sweep builds: none, since each
integral carries its own tail scale (a per-request rebuild of the config
made 964 over these sweeps).

Any difference fails, a saving too, so the table never lags behind the
engine; the failure prints the measured table line to paste.  Lowering a
budget is a CHANGES.md line; raising one needs a CHANGES.md entry that
says why, as a digest re-freeze does.
"""

import pytest

import cohex.numerics as nm
from cohex.sweep import AxisSpec, SweepSpec, run_sweep

from test_registry_digests import AXES, BATH_MAKERS, CASES, DIGESTS, PARAMS

#: (kernel calls, kernel nodes, engine runs) per case.
BUDGETS = {
    "ohmic/sigma1x": (7, 2502, 1),
    "ohmic/sigma2x": (7, 2502, 1),
    "ohmic/sigma2y": (0, 0, 0),
    "ohmic/sigma1x_general": (8, 16269, 1),
    "ohmic/sigma2x_general": (7, 10356, 1),
    "ohmic/r1": (133, 18771, 19),
    "ohmic/r2": (133, 18036, 19),
    "ohmic/static_sigma2x": (0, 0, 0),
    "ohmic/sigma2x_low_T": (0, 0, 0),
    "ohmic/normalized_output_ratio": (7, 2502, 1),
    "ohmic/normalized_spin": (7, 2502, 1),
    "ohmic/static_compare": (7, 2502, 1),
    "ohmic/sigma1x_fermion": (14, 5004, 1),
    "ohmic/sigma2x_fermion": (12, 8382, 1),
    "ohmic/hartree_fock": (40, 19959, 1),
    "ohmic/normalized_fermion": (13, 6693, 1),
    "ohmic/ratio_R": (13, 6693, 1),
    "ohmic/g_script": (12, 8382, 1),
    "ohmic/fermion_high_T": (0, 0, 0),
    "generalized/sigma1x": (7, 2502, 1),
    "generalized/sigma2x": (7, 2502, 1),
    "generalized/sigma2y": (0, 0, 0),
    "generalized/sigma1x_general": (8, 16149, 1),
    "generalized/sigma2x_general": (7, 10116, 1),
    "generalized/r1": (121, 18651, 19),
    "generalized/r2": (121, 17916, 19),
    "generalized/static_sigma2x": (0, 0, 0),
    "generalized/sigma1x_fermion": (7, 2502, 1),
    "generalized/sigma2x_fermion": (7, 5151, 1),
    "generalized/hartree_fock": (29, 15786, 1),
    "tabulated/sigma1x": (4, 3057, 1),
    "tabulated/sigma2x": (4, 3057, 1),
    "tabulated/sigma2y": (0, 0, 0),
    "tabulated/sigma1x_general": (7, 19959, 1),
    "tabulated/sigma2x_general": (6, 12816, 1),
    "tabulated/r1": (76, 23016, 19),
    "tabulated/r2": (76, 22281, 19),
    "tabulated/static_sigma2x": (4, 1050, 1),
    "tabulated/sigma1x_fermion": (8, 4107, 2),
    "tabulated/sigma2x_fermion": (10, 8031, 2),
    "tabulated/hartree_fock": (25, 21486, 2),
}

#: Engine runs of one 72-cell grid, the sweep_T benchmark's 24 beta
#: omega1 x 3 cutoff ratios on an ohmic bath.  A lockstep block holds 144
#: integral requests: 72 cells of one or two integrals are one block,
#: hartree_fock's six a cell make three.  Every block pays the engine's
#: fixed cost per pass, so a change that cuts smaller blocks fails here.
GRID_RUNS = {"sigma2x": 1, "sigma2x_fermion": 1, "hartree_fock": 3}
GRID_AXES = (
    AxisSpec("beta_omega1", 0.1, 30.0, 24, "log"),
    AxisSpec("omega1_over_omegac", 0.1, 1.6, 3, "log"),
)


def work(monkeypatch, bath, quantity, axes=AXES):
    """(kernel calls, kernel nodes, engine runs) of one registry sweep, and
    the number of ``QuadratureConfig`` objects it builds."""
    counts = [0, 0, 0, 0]
    integrand, many = nm._Engine._integrand, nm.integrate_many
    post_init = nm.QuadratureConfig.__post_init__

    def counted_integrand(engine, group, xi, own):
        counts[0] += 1
        counts[1] += xi.size
        return integrand(engine, group, xi, own)

    def counted_many(requests):
        counts[2] += 1
        return many(requests)

    def counted_post_init(config):
        counts[3] += 1
        post_init(config)

    monkeypatch.setattr(nm._Engine, "_integrand", counted_integrand)
    monkeypatch.setattr(nm, "integrate_many", counted_many)
    monkeypatch.setattr(nm.QuadratureConfig, "__post_init__", counted_post_init)
    run_sweep(SweepSpec(quantity, axes, BATH_MAKERS[bath](), PARAMS))
    return tuple(counts[:3]), counts[3]


def test_budgets_cover_the_registry():
    assert set(BUDGETS) == set(DIGESTS)


@pytest.mark.parametrize("bath, quantity", CASES)
def test_work_stays_within_budget(monkeypatch, bath, quantity):
    spent, configs = work(monkeypatch, bath, quantity)
    key = f"{bath}/{quantity}"
    assert spent == BUDGETS[key], (
        f"(calls, nodes, runs) {spent} against the budget {BUDGETS[key]}; "
        f"measured table line:\n    \"{key}\": {spent},"
    )
    assert configs == 0, f"{configs} QuadratureConfig objects built"


@pytest.mark.parametrize("quantity", sorted(GRID_RUNS))
def test_a_72_cell_grid_runs_in_whole_blocks(monkeypatch, quantity):
    (_, _, runs), _ = work(monkeypatch, "ohmic", quantity, GRID_AXES)
    assert runs == GRID_RUNS[quantity]
