"""Work budgets: the engine work of every registry quantity's sweep.

For each case of ``test_registry_digests`` (the same 18-cell sweeps, on
a fresh bath so that no Omega is carried over from another case) a spy
counts the kernel calls (``numerics._Engine._integrand``), the kernel
nodes those calls evaluate, and the engine runs (``integrate_many``).
The digests pin the bytes; these budgets pin the work, so a change that
sends pooled integrals back to lone ones, or doubles the panels, fails
here instead of showing up only as a slower benchmark.

Any difference fails, a saving too, so the table never lags behind the
engine; the failure prints the measured table line to paste.  Lowering a
budget is a CHANGES.md line; raising one needs a CHANGES.md entry that
says why, as a digest re-freeze does.
"""

import pytest

import cohex.numerics as nm
from cohex.sweep import SweepSpec, run_sweep

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


def work(monkeypatch, bath, quantity):
    """(kernel calls, kernel nodes, engine runs) of one registry sweep."""
    counts = [0, 0, 0]
    integrand, many = nm._Engine._integrand, nm.integrate_many

    def counted_integrand(engine, group, xi, own):
        counts[0] += 1
        counts[1] += xi.size
        return integrand(engine, group, xi, own)

    def counted_many(requests):
        counts[2] += 1
        return many(requests)

    monkeypatch.setattr(nm._Engine, "_integrand", counted_integrand)
    monkeypatch.setattr(nm, "integrate_many", counted_many)
    run_sweep(SweepSpec(quantity, AXES, BATH_MAKERS[bath](), PARAMS))
    return tuple(counts)


def test_budgets_cover_the_registry():
    assert set(BUDGETS) == set(DIGESTS)


@pytest.mark.parametrize("bath, quantity", CASES)
def test_work_stays_within_budget(monkeypatch, bath, quantity):
    spent = work(monkeypatch, bath, quantity)
    key = f"{bath}/{quantity}"
    assert spent == BUDGETS[key], (
        f"(calls, nodes, runs) {spent} against the budget {BUDGETS[key]}; "
        f"measured table line:\n    \"{key}\": {spent},"
    )
