"""Pooled quadrature: many integrals refined together, each as if alone.

The engine (``numerics.integrate_many``) refines every requested integral
by its own rule and shares only the kernel calls, so an integral has the
same bits alone or in any batch, a failure stays with its owner, and a
sweep of stepped quantities (whose cells run in lockstep) equals the
public functions cell by cell.  The step driver integrates identical
requests once.
"""

import math
import traceback
import types

import numpy as np
import pytest

import cohex.fermion as fermion
import cohex.numerics as nm
import cohex.spin_detuned as spin_detuned
import cohex.sweep as sweep
from cohex.errors import CohexError, ConvergenceError, KernelError
from cohex.numerics import (
    DEFAULT_QUADRATURE,
    Integral,
    fermi_n,
    integrate_many,
    thermal_tanh_half,
)
from cohex.spectral import GeneralizedOhmicDensity, OhmicDensity, TabulatedDensity
from cohex.spin_detuned import (
    ModelParams,
    ThermalPoint,
    coherence_request,
    f_request,
)
from cohex.spin_general import (
    _first_spin_request,
    _second_spin_request,
    mixing,
)
from cohex.sweep import (
    MAP_QUADRATURE,
    QUANTITIES,
    AxisSpec,
    SweepSpec,
    _sweep_cells,
    run_sweep,
)
from cohex.table import SweepTable, emit_csv

import oracles
from test_public_functions import PUBLIC

PARAMS = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
_KNOTS = [(x, x * np.exp(-x / 10.0)) for x in np.linspace(0.0, 60.0, 40)]
BATHS = (
    OhmicDensity(1.0, 1.0),
    OhmicDensity(1.0, 10.0),
    GeneralizedOhmicDensity(1.0, 0.75, 10.0),
    GeneralizedOhmicDensity(1.0, 0.5, 10.0),
    TabulatedDensity(_KNOTS, 10.0),
)
# Owners of the generalized density's group with grades 8, 1 and 4: the
# ungraded one runs through the graded map at k = 1.
GRADED_J_BATHS = (
    GeneralizedOhmicDensity(1.0, 0.125, 10.0),
    GeneralizedOhmicDensity(1.0, 1.0, 10.0),
    GeneralizedOhmicDensity(1.0, 0.25, 0.625),
)
# A validity-map cell past the surface t^2 = omega1 omega2, where epsilon >
# omega (the other requests have epsilon < omega): the residues' gap
# omega - epsilon and the second spin's gap weight are negative.  Its
# requests are stated at the map's tolerance.
MAP_CELL = (ModelParams(1.0, 5.0, 4.0, 0.1, 0.1), OhmicDensity(1.0, 1.0), ThermalPoint(1.0))


def _decay(xi, rate):
    return np.exp(-rate * xi)


def _mixed_requests():
    """J, both spin_general kernels, the combined and both Fock kernels on
    five baths (two of them graded), J on three more generalized baths, F
    and the folded kernel on the ohmic cutoffs, both spin_general kernels
    at T = 0 (a beta column holding inf) and on the map cell, and
    exponentials that converge in the first pass."""
    requests = []
    cfg = DEFAULT_QUADRATURE
    w1, w2 = PARAMS.omega1, PARAMS.omega2
    mix = mixing(PARAMS)
    for beta in (0.3, 2.0, 9.0):
        n1, n2 = fermi_n(w1, beta), fermi_n(w2, beta)
        th1 = math.tanh(0.5 * beta * w1)
        for sd in BATHS:
            requests.append(coherence_request(PARAMS, sd, ThermalPoint(beta)))
            requests.append(_first_spin_request(sd, ThermalPoint(beta), mix, cfg))
            requests.append(_second_spin_request(sd, ThermalPoint(beta), mix, cfg))
            requests.append(sd.integral(fermion._combined_second_kernel,
                                        (w1, w2, beta, n1, n2), (w1, w2 - w1), cfg))
            requests.append(sd.integral(fermion._first_fock_kernel,
                                        (w1, beta, n1, th1), (w1,), cfg))
            requests.append(sd.integral(fermion._second_fock_kernel,
                                        (w1, w2, beta, th1, n1, n2), (w1, w2 - w1), cfg))
        for sd in GRADED_J_BATHS:
            requests.append(coherence_request(PARAMS, sd, ThermalPoint(beta)))
        for a in (1.0, 0.1):
            requests.append(f_request(a, beta, cfg))
            requests.append(Integral(fermion._folded_x_kernel, (a, beta, 3.0, n1, n2),
                                     (1.0, 2.0), cfg, scale=1.0 / a))
    cold = ThermalPoint(math.inf)
    requests.append(_first_spin_request(BATHS[0], cold, mix, cfg))
    requests.append(_second_spin_request(BATHS[0], cold, mix, cfg))
    params, sd, tp = MAP_CELL
    for stated in (_first_spin_request, _second_spin_request):
        requests.append(stated(sd, tp, mixing(params), MAP_QUADRATURE))
    requests += [Integral(_decay, (rate,), (), cfg, scale=1.0 / rate) for rate in (0.5, 2.0)]
    return requests


def _batches_alone(request, monkeypatch):
    count = []
    gk = nm._gk_evaluate

    def counting(f, lo, hi):
        count.append(lo.size)
        return gk(f, lo, hi)

    monkeypatch.setattr(nm, "_gk_evaluate", counting)
    (outcome,) = integrate_many([request])
    monkeypatch.setattr(nm, "_gk_evaluate", gk)
    return outcome, len(count)


def test_an_integral_has_the_same_bits_alone_or_in_any_batch(monkeypatch):
    requests = _mixed_requests()
    assert all(isinstance(r, Integral) for r in requests)
    assert len({r.kernel for r in requests}) >= 3
    assert {r.grade for r in requests} == {1, 2, 4, 8}
    pooled = integrate_many(requests)
    reordered = integrate_many(requests[::-1])[::-1]
    passes = []
    for request, together, backwards in zip(requests, pooled, reordered):
        alone, batches = _batches_alone(request, monkeypatch)
        passes.append(batches)
        for outcome in (together, backwards):
            assert np.array_equal(np.array(outcome), np.array(alone))
    # Owners that converge in the first pass and owners that take many.
    assert min(passes) == 1 and max(passes) >= 5


def _mixed_set_ups():
    """Owners with 0, 1, 2, 3 and 121 removable points: a pair within
    ``_CLUSTER_RTOL`` (one window), neighbours that shrink each other's
    windows, a long cluster whose widened window merges with its
    neighbour's, a graded owner, a knotted tabulated owner, one whose
    knots start more panels than its budget (dead at set-up, the eighth),
    an owner sharing the second's set-up and one that differs from it only
    in its tail scale."""
    cfg = DEFAULT_QUADRATURE
    w1, w2, beta = PARAMS.omega1, PARAMS.omega2, 2.0
    n1, n2 = fermi_n(w1, beta), fermi_n(w2, beta)
    chain = tuple(1.0 + 9e-7 * k for k in range(120)) + (1.00055,)
    combined = (fermion._combined_second_kernel, (w1, w2, beta, n1, n2), (w1, w2 - w1))
    return [
        Integral(_decay, (1.0,), (), cfg),
        Integral(_decay, (0.5,), (2.0,), cfg),
        Integral(_decay, (0.7,), (3.0 + 2e-6, 0.5, 3.0), cfg),
        Integral(_decay, (0.9,), (1.0, 1.002, 4.0), cfg),
        Integral(_decay, (1.1,), chain[::-1], cfg),
        BATHS[3].integral(*combined, cfg),
        BATHS[-1].integral(*combined, cfg),
        BATHS[-1].integral(*combined, cfg.replace(max_subdivisions=40)),
        Integral(_decay, (0.6,), (2.0,), cfg),
        Integral(_decay, (0.6,), (2.0,), cfg, scale=3.0),
    ]


def test_a_mixed_run_sets_up_every_owner_as_alone(monkeypatch):
    requests = _mixed_set_ups()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        engine = nm._Engine(requests)
    assert max(len(r.removable_points) for r in requests) == 121
    assert sorted(engine.w_count.tolist()) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    for owner, i in enumerate(engine.order):
        r = requests[i]
        lo, hi, nodes = oracles.first_panels(r.removable_points, r.breakpoints, nm._WINDOW,
                                             max(1.0, r.scale), r.grade)
        first, count = engine.w_start[owner], engine.w_count[owner]
        assert np.array_equal(engine.w_nodes[first:first + count], nodes)
        assert np.array_equal(engine.panels[owner][0], lo)
        assert np.array_equal(engine.panels[owner][1], hi)
        assert engine.dead[owner] == (i == 7)
        # Each window's integral joins its owner's sum in order.
        assert engine.bridged[owner] == sum(engine.w_integral[first:first + count].tolist())
    assert {r.grade for r in requests} == {1, 2}
    # Every owner's outcome, its set-up failure included, is its lone run's.
    nodes = []
    integrand = nm._Engine._integrand

    def counted(engine, group, xi, own):
        nodes.append(xi.size)
        return integrand(engine, group, xi, own)

    monkeypatch.setattr(nm._Engine, "_integrand", counted)
    outcomes = integrate_many(requests)
    pooled_nodes = sum(nodes)
    for request, outcome in zip(requests, outcomes):
        (alone,) = integrate_many([request])
        if isinstance(alone, Exception):
            assert type(outcome) is type(alone) and str(outcome) == str(alone)
        else:
            assert np.array_equal(np.array(outcome).view(np.int64),
                                  np.array(alone).view(np.int64))
    assert "over the panel budget" in str(outcomes[7])
    # Pooled, the owners evaluate the nodes they evaluate alone: the dead
    # owner's panels none.
    assert sum(nodes) == 2 * pooled_nodes


@pytest.mark.parametrize("pooled", [False, True], ids=["lone", "pooled"])
def test_no_node_of_any_pass_lies_inside_a_window(monkeypatch, pooled):
    # A spy on every kernel call: no node is handed to a kernel strictly
    # inside one of its owner's windows, while nodes do come between the
    # windows' outer fit nodes (the fit nodes on the edges among them).
    requests = _mixed_requests() + _mixed_set_ups()
    near, integrand = [0], nm._Engine._integrand

    def spied(engine, group, xi, own):
        owners = np.broadcast_to(own, xi.shape)
        for o in np.unique(owners).tolist():
            first, count = engine.w_start[o], engine.w_count[o]
            fit = engine.w_nodes[first:first + count]
            x = xi[owners == o][:, None]
            assert not ((x > fit[:, 1]) & (x < fit[:, 2])).any()
            near[0] += int(((x >= fit[:, 0]) & (x <= fit[:, 3])).sum())
        return integrand(engine, group, xi, own)

    monkeypatch.setattr(nm._Engine, "_integrand", spied)
    if pooled:
        integrate_many(requests)
    else:
        for request in requests:
            integrate_many([request])
    assert near[0] > 4 * len(requests)


def _tripwire(xi, trip):
    return np.where(xi > trip, np.nan, np.exp(-xi))


def test_a_failing_integral_fails_alone():
    trips = (math.inf, 3.0, math.inf, 6.0)
    requests = [Integral(_tripwire, (trip,)) for trip in trips]
    outcomes = integrate_many(requests)
    for trip, request, outcome in zip(trips, requests, outcomes):
        if math.isinf(trip):
            assert outcome == integrate_many([request])[0]
        else:
            assert isinstance(outcome, KernelError)
            assert "non-finite" in str(outcome)


def _scaled_decay(xi, *factors):
    """e^(-xi) times the product of its columns."""
    out = np.exp(-xi)
    for factor in factors:
        out = out * factor
    return out


@pytest.mark.parametrize("side", ["kernel", "density"])
def test_one_function_with_two_column_counts_keeps_every_column(side):
    # The engine shares a call between integrals of one kernel and density
    # only when their column counts match too: pooled with a 1-column
    # request, a 2-column one keeps its second column.
    def stated(*factors):
        if side == "kernel":
            return Integral(_scaled_decay, factors)
        return Integral(_scaled_decay, (1.0,), density=_scaled_decay, density_columns=factors)

    requests = [stated(2.0), stated(2.0, 3.0)]
    exact = (2.0, 6.0) if side == "kernel" else (1.0, 3.0)
    for order in (requests, requests[::-1]):
        pooled = integrate_many(order)
        for request, outcome in zip(order, pooled):
            (alone,) = integrate_many([request])
            assert np.array_equal(np.array(outcome), np.array(alone))
    for request, value in zip(requests, exact):
        (alone,) = integrate_many([request])
        assert alone[0] == pytest.approx(value, rel=1e-12)


def test_a_failing_cell_fails_alone_in_a_sweep(monkeypatch):
    axes = (AxisSpec("beta_omega1", 1.0, 8.0, 4, "log"),)
    spec = SweepSpec("sigma2x_fermion", axes, OhmicDensity(1.0, 10.0), PARAMS)
    clean = emit_csv(run_sweep(spec)).splitlines()
    real = fermion._combined_second_kernel

    def hot_cells_fail(xi, w1, w2, beta, n1, n2):
        # Non-finite only in the cells at beta omega1 = 8.
        return np.where((beta > 7.0) & (xi > 5.0), np.nan, real(xi, w1, w2, beta, n1, n2))

    monkeypatch.setattr(fermion, "_combined_second_kernel", hot_cells_fail)
    table = run_sweep(spec)
    assert [row[-1] for row in table.rows] == ["ok", "ok", "ok", "kernel-error"]
    lines = emit_csv(table).splitlines()
    assert lines[:-1] == clean[:-1]


def _count_kernel_calls(monkeypatch):
    sizes = []
    for module, names in (
        (spin_detuned, ("_j_kernel", "_j_kernel_zero", "_f_kernel")),
        (fermion, ("_folded_x_kernel", "_combined_second_kernel",
                   "_first_fock_kernel", "_second_fock_kernel")),
    ):
        for name in names:
            real = getattr(module, name)

            def counted(xi, *columns, real=real):
                sizes.append(xi.size)
                return real(xi, *columns)

            monkeypatch.setattr(module, name, counted)
    return sizes


@pytest.mark.parametrize("name, calls, nodes", [
    ("hartree_fock", 140, 317_232),  # 2,722 kernel calls one integral at a time
    ("sigma2x_fermion", 34, 101_952),  # 48 in three 24-cell blocks
])
def test_pooled_kernel_calls_on_the_benchmark_grid(monkeypatch, name, calls, nodes):
    # The fermion grid of the sweep_T benchmark at seed 0: 24 beta omega1
    # on a log grid from 0.1 to 30 shifted up by a quarter step, times
    # omega1/omega_c = 0.1, 0.4, 1.6, on an ohmic bath with A = 1.
    shift = ((30.0 / 0.1) ** (1.0 / 23.0)) ** 0.25
    axes = (
        AxisSpec("beta_omega1", 0.1 * shift, 30.0 * shift, 24, "log"),
        AxisSpec("omega1_over_omegac", 0.1, 1.6, 3, "log"),
    )
    sizes = _count_kernel_calls(monkeypatch)
    table = run_sweep(SweepSpec(name, axes, OhmicDensity(1.0, 1.0), PARAMS))
    assert all(row[-1] == "ok" for row in table.rows)
    assert (len(sizes), sum(sizes)) == (calls, nodes)
    assert max(sizes) <= nm._MAX_NODES


def _public_row(name, p, sd, tp):
    """(values, err, flags) of one cell through the public function."""
    result = PUBLIC[name](p, sd, tp)
    return result.values, result.err_estimate, result.flags


_AXES = (
    AxisSpec("T_over_omega1", 0.0, 5.0, 4),
    AxisSpec("omega2_over_omega1", 1.0, 3.0, 3),
    AxisSpec("omega1_over_omegac", 0.1, 1.0, 2, "log"),
)
# One pooled block of general-coupling cells: the degenerate corner
# (t = 0, omega2 = omega1), a cell on the surface t^2 = omega1 omega2
# (t = omega2 = omega1, mixing-regularized) and ordinary cells.
_GENERAL_AXES = (
    AxisSpec("T_over_omega1", 0.0, 0.5, 2),
    AxisSpec("omega2_over_omega1", 1.0, 2.0, 2),
    AxisSpec("t_over_omega1", 0.0, 1.0, 3),
)


# The spin quantities run as steps too.
@pytest.mark.parametrize("name", [
    "sigma1x_fermion", "sigma2x_fermion", "hartree_fock",
    "normalized_fermion", "ratio_R", "g_script", "r1", "r2",
    "sigma1x", "sigma2x", "normalized_spin", "normalized_output_ratio",
    "static_compare", "sigma1x_general", "sigma2x_general",
])
def test_every_fermion_row_equals_its_public_function(name):
    axes = _GENERAL_AXES if name.endswith("_general") else _AXES
    table = run_sweep(SweepSpec(name, axes, OhmicDensity(1.0, 1.0), PARAMS))
    statuses = set()
    n = len(axes)
    for row in table.rows:
        cell = dict(zip(table.columns, row))
        p = ModelParams(1.0, cell["omega2_over_omega1"], cell.get("t_over_omega1", PARAMS.t),
                        PARAMS.f1, PARAMS.f2)
        sd = OhmicDensity(1.0, 1.0 / cell.get("omega1_over_omegac", 1.0))
        tp = ThermalPoint.from_T_over_omega1(cell["T_over_omega1"], 1.0)
        statuses.add(row[-1])
        try:
            values, err, flags = _public_row(name, p, sd, tp)
        except CohexError:
            assert row[n] is None and row[-1] != "ok"
            continue
        assert row[n:-1] == tuple(values) + (err,)
        assert row[-1] == (";".join(flags) or "ok")
    assert "ok" in statuses
    if axes is _GENERAL_AXES:
        assert {"degenerate-basis", "mixing-regularized"} <= statuses


def _spy_engine(monkeypatch):
    """The request count of every engine run, and the count of integrals
    made alone through ``numerics.integrate_semi_infinite``."""
    runs, lone = [], []
    many, semi = nm.integrate_many, nm.integrate_semi_infinite

    def counted_many(requests):
        runs.append(len(requests))
        return many(requests)

    def counted_lone(*args, **kwargs):
        lone.append(1)
        return semi(*args, **kwargs)

    monkeypatch.setattr(nm, "integrate_many", counted_many)
    monkeypatch.setattr(nm, "integrate_semi_infinite", counted_lone)
    return runs, lone


def _assert_pooled_by_block(monkeypatch, name):
    # The spin grid of the sweep_T benchmark: 24 beta omega1 x 3 cutoffs,
    # 72 different integrals, stated by one block.
    axes = (
        AxisSpec("beta_omega1", 0.1, 30.0, 24, "log"),
        AxisSpec("omega1_over_omegac", 0.1, 1.6, 3, "log"),
    )
    runs, lone = _spy_engine(monkeypatch)
    table = run_sweep(SweepSpec(name, axes, OhmicDensity(1.0, 1.0), PARAMS))
    assert all(row[2] is not None for row in table.rows)
    assert runs == [72]
    assert lone == []


@pytest.mark.parametrize("name", ["sigma2x", "normalized_spin"])
def test_detuned_spin_cells_pool_by_block(monkeypatch, name):
    _assert_pooled_by_block(monkeypatch, name)


@pytest.mark.parametrize("name", ["sigma1x_general", "sigma2x_general"])
def test_general_spin_cells_pool_by_block(monkeypatch, name):
    _assert_pooled_by_block(monkeypatch, name)


# Integrals a cell of these quantities still makes alone, through
# ``numerics.integrate``: the numerators of the ratios.  Every other
# integral goes to the sweep's lockstep block.  Pooling these waits for
# the benchmark harness to stop keeping every result (ROADMAP item 1).
_LONE_PER_CELL = {"r1": 1, "r2": 1}
# Quantities whose steps yield no request: the closed forms.
_NOTHING_POOLED = ("sigma2y", "sigma2x_low_T", "static_sigma2x", "fermion_high_T")


@pytest.mark.parametrize("name", sorted(QUANTITIES))
def test_every_registry_entry_is_a_step(monkeypatch, name):
    quantity = QUANTITIES[name]
    step = quantity.step(PARAMS, OhmicDensity(1.0, 1.0), ThermalPoint(2.0), None)
    assert isinstance(step, types.GeneratorType)
    step.close()
    runs, lone = _spy_engine(monkeypatch)
    axes = (AxisSpec("beta_omega1", 1.0, 4.0, 3, "log"),)
    table = run_sweep(SweepSpec(name, axes, OhmicDensity(1.0, 1.0), PARAMS))
    assert all(row[1] is not None for row in table.rows)
    assert len(lone) == 3 * _LONE_PER_CELL.get(name, 0)
    # A lone integral is an engine run of its own; the block's requests
    # make one more.
    assert len(runs) - len(lone) == (name not in _NOTHING_POOLED)


def _cells_in_blocks(monkeypatch, spec, points, max_requests):
    monkeypatch.setattr(nm, "_BLOCK_REQUESTS", max_requests)
    return _sweep_cells((spec, points))


def _cells_in_24_cell_blocks(spec, points):
    """The cells of a grid cut into blocks of 24 cells, whatever their
    requests, each handing its outcomes on to the next."""
    known, out = {}, []
    for i in range(0, len(points), 24):
        steps = [sweep._cell_step(spec, point) for point in points[i:i + 24]]
        out += [(r.values, r.err_estimate, ";".join(r.flags) or "ok")
                for r in nm.run_steps(steps, known)]
    return out


def test_lockstep_blocks_cut_anywhere_give_the_same_cells(monkeypatch):
    axis = AxisSpec("beta_omega1", 0.5, 8.0, 7, "log")
    spec = SweepSpec("hartree_fock", (axis,), OhmicDensity(1.0, 10.0), PARAMS)
    points = [{"beta_omega1": float(b)} for b in axis.values()]
    whole = _cells_in_blocks(monkeypatch, spec, points, math.inf)
    # Blocks of 1, 3 and 4 cells (6 requests a cell), and a bound below
    # one cell's requests, which runs every cell alone.
    for max_requests in (6, 18, 24, 1):
        assert _cells_in_blocks(monkeypatch, spec, points, max_requests) == whole


@pytest.mark.parametrize("name, runs", [("hartree_fock", 18), ("sigma2x", 3)])
def test_432_cell_sweeps_hand_no_run_more_than_144_requests(monkeypatch, name, runs):
    # 144 requests are 24 hartree_fock cells or 144 sigma2x cells; the
    # table equals the one cut into 24-cell blocks byte for byte.
    axis = AxisSpec("beta_omega1", 0.5, 8.0, 432, "log")
    spec = SweepSpec(name, (axis,), OhmicDensity(1.0, 10.0), PARAMS)
    points = [{"beta_omega1": float(b)} for b in axis.values()]
    counts, _ = _spy_engine(monkeypatch)
    table = run_sweep(spec)
    assert nm._BLOCK_REQUESTS == 144
    assert counts == [144] * runs
    monkeypatch.undo()
    cells = _cells_in_24_cell_blocks(spec, points)
    assert all(status == "ok" for _, _, status in cells)
    rows = [(point["beta_omega1"],) + values + (err, status)
             for point, (values, err, status) in zip(points, cells)]
    assert emit_csv(table) == emit_csv(SweepTable(table.columns, rows, table.meta))


def test_integrals_failing_at_their_bridges_leave_no_work():
    def broken(xi, shift):
        return np.full(xi.shape, np.nan) + shift

    def also_broken(xi):
        return np.full(xi.shape, np.inf)

    outcomes = integrate_many([Integral(broken, (0.0,), (1.0,)),
                               Integral(also_broken, (), (2.0,))])
    assert all(isinstance(o, KernelError) and "bridging nodes" in str(o) for o in outcomes)


def _oscillating(xi, freq):
    return np.exp(-xi) * np.cos(freq * xi) * xi * xi


def test_panel_budgets_run_out_alike_alone_and_pooled():
    # Small budgets end in the partial split (the worst panels get 8
    # children, one more gets what still fits) or in ConvergenceError.
    requests = [
        Integral(_oscillating, (freq,), (), DEFAULT_QUADRATURE.replace(max_subdivisions=budget))
        for budget in (8, 16, 40, 100, 4000)
        for freq in (3.0, 40.0)
    ]

    def key(outcome):
        if isinstance(outcome, nm.ConvergenceError):
            return ("no-convergence", outcome.partial, outcome.err_estimate)
        return outcome

    pooled = [key(o) for o in integrate_many(requests)]
    alone = [key(integrate_many([r])[0]) for r in requests]
    assert pooled == alone
    assert sum(isinstance(o[0], str) for o in pooled) >= 3


def test_zero_temperature_owners_pooled_with_warm_ones_match_the_step_kernels():
    # The engine hands a zero-temperature owner beta = inf as a column
    # entry, and a lone call as a scalar; both take the finite-temperature
    # formulas, which saturate to the step functions, to the same bits.
    w1, w2 = PARAMS.omega1, PARAMS.omega2
    sd = OhmicDensity(1.0, 1.0)
    cfg = DEFAULT_QUADRATURE

    def stated(beta):
        n1, n2, th1 = fermi_n(w1, beta), fermi_n(w2, beta), thermal_tanh_half(beta, w1)
        return [
            (fermion._first_fock_kernel, (w1, beta, n1, th1), (w1,)),
            (fermion._second_fock_kernel, (w1, w2, beta, th1, n1, n2), (w1, w2 - w1)),
            (fermion._combined_second_kernel, (w1, w2, beta, n1, n2), (w1, w2 - w1)),
        ]

    pooled = integrate_many([
        sd.integral(kernel, columns, points, cfg)
        for beta in (math.inf, 2.0, 0.5) for kernel, columns, points in stated(beta)
    ])
    for (kernel, columns, points), outcome in zip(stated(math.inf), pooled):
        step = sd.weighted_integral(lambda x: kernel(x, *columns), points, cfg)
        assert np.array_equal(np.array(outcome), np.array(step))
    axis = AxisSpec("T_over_omega1", 0.0, 2.0, 3)
    table = run_sweep(SweepSpec("hartree_fock", (axis,), sd, PARAMS))
    zero = table.rows[0]
    assert zero[0] == 0.0 and zero[-1] == "ok"
    values, err, _ = _public_row("hartree_fock", PARAMS, sd, ThermalPoint(math.inf))
    assert zero[1:-1] == tuple(values) + (err,)


def _noise(xi, *columns):
    return np.random.default_rng(7).standard_normal(xi.shape) * np.exp(-xi)


def _nan(xi, *columns):
    return np.full(xi.shape, np.nan)


@pytest.mark.parametrize("name, status", [
    ("normalized_fermion", "kernel-error"),  # F is computed before F_F
    ("ratio_R", "no-convergence"),  # F_F is computed before F
])
def test_the_first_failing_integral_of_a_cell_names_its_status(monkeypatch, name, status):
    # F's kernel turns non-finite and F_F's never converges.
    monkeypatch.setattr(spin_detuned, "_f_kernel", _nan)
    monkeypatch.setattr(fermion, "_folded_x_kernel", _noise)
    p, sd, tp = PARAMS, OhmicDensity(1.0, 1.0), ThermalPoint(2.0)
    error = nm.KernelError if status == "kernel-error" else nm.ConvergenceError
    with pytest.raises(error):
        _public_row(name, p, sd, tp)
    axis = AxisSpec("beta_omega1", 2.0, 2.0, 1)
    table = run_sweep(SweepSpec(name, (axis,), sd, p))
    assert table.rows[0][-1] == status


def _taking_step(requests):
    outcomes = yield requests
    return [nm.take(outcome) for outcome in outcomes]


def test_identical_requests_of_a_block_are_integrated_once(monkeypatch):
    # Every step states its own request objects; J comes three times, a
    # failing integral twice, F once.
    sd, tp = OhmicDensity(1.0, 10.0), ThermalPoint(2.0)

    def j():
        return coherence_request(PARAMS, sd, tp)

    def failing():
        return Integral(_tripwire, (3.0,))

    def f():
        return f_request(0.5, 2.0, DEFAULT_QUADRATURE)

    alone = [integrate_many([request()])[0] for request in (j, failing, f)]
    stated = [[j(), f()], [j(), failing()], [j()], [failing()]]
    runs = []

    def counted(requests):
        runs.append(requests)
        return integrate_many(requests)

    monkeypatch.setattr(nm, "integrate_many", counted)
    known = {}
    results = nm.run_steps([_taking_step(requests) for requests in stated], known)
    assert [len(run) for run in runs] == [3]
    assert len(known) == 3
    first, second, third, fourth = results
    for outcome, expected in zip(first, (alone[0], alone[2])):
        assert np.array_equal(np.array(outcome), np.array(expected))
    assert np.array_equal(np.array(third[0]), np.array(alone[0]))
    for result in (second, fourth):
        assert isinstance(result, KernelError) and "non-finite" in str(result)
    # A next run finds its requests among the outcomes of the last one.
    again = nm.run_steps([_taking_step([j()])], known)
    assert [len(run) for run in runs] == [3, 0]
    assert np.array_equal(np.array(again[0][0]), np.array(alone[0]))
    assert len(known) == 1


def test_a_shared_failure_keeps_a_short_traceback():
    results = nm.run_steps([_taking_step([Integral(_tripwire, (3.0,))]) for _ in range(1000)])
    assert all(result is results[0] for result in results)
    assert isinstance(results[0], KernelError)
    assert len(traceback.extract_tb(results[0].__traceback__)) < 10


def _wiggle(xi, amplitude):
    return np.exp(-xi) * (1.0 + amplitude * np.sin(3e5 * xi))


@pytest.mark.parametrize("amplitude, converges", [(3e-13, True), (1e-12, False)])
def test_a_spent_budget_near_the_rounding_floor(amplitude, converges):
    # rel_tol = 1e-300 is never met, so eight panels spend the budget.  An
    # estimate within 10x the rounding floor 50 eps integral |f| is still a
    # success (3.96x here), the only one whose estimate is above its
    # target; 13.2x the floor fails.  Alone and pooled give the same bits.
    cfg = DEFAULT_QUADRATURE.replace(rel_tol=1e-300, max_subdivisions=8)
    request = Integral(_wiggle, (amplitude,), (), cfg)
    (alone,) = integrate_many([request])
    pooled, _ = integrate_many([request, Integral(_decay, (2.0,))])
    if converges:
        value, err = alone
        floor = 50.0 * np.finfo(float).eps * value
        assert floor < err <= 10.0 * floor
        assert np.array_equal(np.array(pooled), np.array(alone))
    else:
        assert isinstance(alone, ConvergenceError)
        assert isinstance(pooled, ConvergenceError)
        assert (pooled.partial, pooled.err_estimate) == (alone.partial, alone.err_estimate)
        assert pooled.err_estimate > 10.0 * 50.0 * np.finfo(float).eps * alone.partial


def test_f_and_j_requests_carry_their_own_tail_scale():
    # The tail scale is the integrand's own decay (1/a for F and F_F, the
    # cutoff for J), and the engine maps the tail at the wider of 1 and it.
    (f_f,) = next(fermion._f_fermion_parts_step(0.5, 2.0, 3.0, None))
    j = coherence_request(PARAMS, OhmicDensity(1.0, 2.0), ThermalPoint(2.0))
    f = f_request(0.5, 2.0)
    for request in (f, f_f, j):
        assert request.scale == 2.0
    narrow = f_request(4.0, 2.0)
    assert narrow.scale == 0.25
    assert nm._Engine([narrow, f]).scale.tolist() == [1.0, 2.0]
    # Mapped at a wider scale, F agrees within its estimates.
    wide = Integral(f.kernel, f.columns, f.removable_points, f.config, scale=5.0)
    (narrow_f, narrow_err), (wide_f, wide_err) = integrate_many([f, wide])
    assert abs(wide_f - narrow_f) <= narrow_err + wide_err
