"""Grid sweeps: axis grids, quantity registry, and deterministic tables."""

import math

import numpy as np
import pytest

from cohex import sweep
from cohex.errors import ConvergenceError, DomainError
from cohex.fermion import (
    fock_term,
    g_script,
    hartree_static,
    normalized_fermion,
    sigma2x_fermion,
)
from cohex.spectral import DiscreteDensity, OhmicDensity
from cohex.spin_detuned import (
    ModelParams,
    ThermalPoint,
    normalized_coherences_spin,
    sigma2x,
    sigma2x_low_T,
    static_chain,
)
from cohex.sweep import (
    AXIS_NAMES,
    FERMION_QUANTITIES,
    MAP_QUADRATURE,
    QUANTITIES,
    SPIN_QUANTITIES,
    AxisSpec,
    SweepSpec,
    quantity_names,
    r1_map,
    r2_map,
    run_sweep,
)
from cohex.table import STATUS_OK, emit_csv

PARAMS = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
BATH = OhmicDensity(1.0, 10.0)


def beta_axis(points=1, start=2.0, stop=2.0, spacing="linear"):
    return AxisSpec("beta_omega1", start, stop, points, spacing)


class TestAxisSpec:
    def test_linear_values(self):
        axis = AxisSpec("t_over_omega1", 0.0, 1.0, 5)
        assert np.array_equal(axis.values(), np.linspace(0.0, 1.0, 5))

    def test_log_values(self):
        axis = AxisSpec("beta_omega1", 0.1, 10.0, 3, "log")
        assert np.allclose(axis.values(), [0.1, 1.0, 10.0], rtol=1e-14)

    def test_single_point(self):
        axis = AxisSpec("T_over_omega1", 0.7, 0.7, 1)
        assert axis.values().tolist() == [0.7]

    def test_describe_is_compact(self):
        axis = AxisSpec("beta_omega1", 0.5, 8.0, 4, "log")
        assert axis.describe() == "0.5:8.0:4:log"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="nope", start=0.0, stop=1.0, points=2),
            dict(name="beta_omega1", start=0.0, stop=1.0, points=0),
            dict(name="beta_omega1", start=0.0, stop=1.0, points=1),
            dict(name="beta_omega1", start=0.0, stop=1.0, points=3, spacing="log"),
            dict(name="beta_omega1", start=1.0, stop=2.0, points=3, spacing="cubic"),
            dict(name="beta_omega1", start=math.inf, stop=2.0, points=3),
        ],
    )
    def test_rejects_bad_axes(self, kwargs):
        with pytest.raises(DomainError):
            AxisSpec(**kwargs)


class TestSweepSpecValidation:
    def test_unknown_quantity_lists_names(self):
        with pytest.raises(DomainError, match="sigma2x"):
            SweepSpec("nope", (beta_axis(),), BATH, PARAMS)

    def test_needs_at_least_one_axis(self):
        with pytest.raises(DomainError, match="at least one axis"):
            SweepSpec("sigma2x", (), BATH, PARAMS)

    def test_duplicate_axis_names(self):
        with pytest.raises(DomainError, match="unique"):
            SweepSpec("sigma2x", (beta_axis(), beta_axis()), BATH, PARAMS)

    def test_missing_temperature_axis(self):
        axis = AxisSpec("t_over_omega1", 0.0, 1.0, 3)
        with pytest.raises(DomainError, match="temperature"):
            SweepSpec("sigma2x", (axis,), BATH, PARAMS)

    def test_double_temperature_axis(self):
        other = AxisSpec("T_over_omega1", 1.0, 1.0, 1)
        with pytest.raises(DomainError, match="not both"):
            SweepSpec("sigma2x", (beta_axis(), other), BATH, PARAMS)

    def test_ohmic_only_quantity_rejects_discrete_bath(self):
        discrete = DiscreteDensity([(0.05, 0.8)])
        with pytest.raises(DomainError, match="ohmic"):
            SweepSpec("ratio_R", (beta_axis(),), discrete, PARAMS)

    def test_cutoff_axis_rejects_discrete_bath(self):
        discrete = DiscreteDensity([(0.05, 0.8)])
        axes = (beta_axis(), AxisSpec("omega1_over_omegac", 0.1, 10.0, 3, "log"))
        with pytest.raises(DomainError, match="ohmic"):
            SweepSpec("sigma2x", axes, discrete, PARAMS)

    def test_general_quantity_accepts_discrete_bath(self):
        discrete = DiscreteDensity([(0.05, 0.8)])
        spec = SweepSpec("sigma1x", (beta_axis(),), discrete, PARAMS)
        table = run_sweep(spec)
        assert table.all_ok()


class TestRegistry:
    def test_partition_covers_registry(self):
        assert set(SPIN_QUANTITIES) | set(FERMION_QUANTITIES) == set(QUANTITIES)
        assert not set(SPIN_QUANTITIES) & set(FERMION_QUANTITIES)

    def test_quantity_names_filter(self):
        assert quantity_names() == tuple(QUANTITIES)
        assert quantity_names("spin") == SPIN_QUANTITIES
        assert quantity_names("fermion") == FERMION_QUANTITIES
        with pytest.raises(DomainError):
            quantity_names("boson")

    def test_axis_names_are_fixed(self):
        assert AXIS_NAMES == (
            "T_over_omega1",
            "beta_omega1",
            "omega2_over_omega1",
            "t_over_omega1",
            "omega1_over_omegac",
        )


class TestRunSweep:
    def test_single_point_matches_library_call(self):
        spec = SweepSpec("sigma2x", (beta_axis(),), BATH, PARAMS)
        table = run_sweep(spec)
        direct = sigma2x(PARAMS, BATH, ThermalPoint.from_beta_omega1(2.0, 1.0))
        assert table.columns == (
            "beta_omega1", "sigma2x", "err_estimate", "status",
        )
        assert table.rows == [
            (2.0, direct.value, direct.err_estimate, STATUS_OK),
        ]

    def test_row_count_and_grid_order(self):
        axes = (
            beta_axis(points=3, start=1.0, stop=4.0),
            AxisSpec("omega2_over_omega1", 2.0, 4.0, 2),
        )
        table = run_sweep(SweepSpec("sigma2x", axes, BATH, PARAMS))
        assert len(table.rows) == 6
        # first axis varies slowest
        assert [r[0] for r in table.rows] == [1.0, 1.0, 2.5, 2.5, 4.0, 4.0]
        assert [r[1] for r in table.rows] == [2.0, 4.0] * 3

    def test_parallel_output_is_identical(self):
        axes = (
            beta_axis(points=4, start=0.5, stop=8.0, spacing="log"),
            AxisSpec("t_over_omega1", 0.0, 0.3, 3),
        )
        spec = SweepSpec("sigma2x", axes, BATH, PARAMS)
        serial = run_sweep(spec)
        pooled = run_sweep(spec, jobs=3)
        assert emit_csv(serial) == emit_csv(pooled)

    @pytest.mark.parametrize(
        "jobs, cpus, cells, workers",
        [
            (500, 64, 4, 4),  # never more workers than cells
            (500, 2, 12, 2),  # nor than usable CPUs
            (3, 64, 12, 3),
            (2, 2, 12, 2),
            (1, 64, 12, None),  # serial: no pool at all
            (None, 64, 12, None),
            (8, 1, 12, None),
            (8, 64, 1, None),
        ],
    )
    def test_pool_size_is_clamped(self, monkeypatch, jobs, cpus, cells, workers):
        import concurrent.futures

        started = []

        class RecordingExecutor:
            """Stands in for the process pool; runs cells in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
        axis = beta_axis(points=cells, start=0.5, stop=8.0 if cells > 1 else 0.5)
        spec = SweepSpec("sigma2x", (axis,), BATH, PARAMS)
        table = run_sweep(spec, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert emit_csv(table) == emit_csv(run_sweep(spec))

    def test_omega2_axis_matches_direct_calls(self):
        axes = (beta_axis(), AxisSpec("omega2_over_omega1", 2.0, 4.0, 2))
        table = run_sweep(SweepSpec("sigma2x", axes, BATH, PARAMS))
        tp = ThermalPoint.from_beta_omega1(2.0, 1.0)
        for row, ratio in zip(table.rows, (2.0, 4.0)):
            expected = sigma2x(
                ModelParams(1.0, ratio, 0.1, 0.1, 0.1), BATH, tp
            ).value
            assert row[2] == expected

    def test_cutoff_axis_rebuilds_bath(self):
        axes = (beta_axis(), AxisSpec("omega1_over_omegac", 0.5, 2.0, 2, "log"))
        table = run_sweep(SweepSpec("sigma1x", axes, BATH, PARAMS))
        tp = ThermalPoint.from_beta_omega1(2.0, 1.0)
        from cohex.spin_detuned import sigma1x

        for row, ratio in zip(table.rows, (0.5, 2.0)):
            expected = sigma1x(PARAMS, OhmicDensity(1.0, 1.0 / ratio), tp).value
            assert row[2] == expected

    def test_zero_temperature_row(self):
        axis = AxisSpec("T_over_omega1", 0.0, 0.0, 1)
        table = run_sweep(SweepSpec("sigma2x", (axis,), BATH, PARAMS))
        expected = sigma2x(PARAMS, BATH, ThermalPoint(math.inf)).value
        assert table.rows[0][1] == expected

    def test_zero_hopping_closes_output(self):
        axes = (beta_axis(), AxisSpec("t_over_omega1", 0.0, 0.0, 1))
        table = run_sweep(SweepSpec("sigma2x", axes, BATH, PARAMS))
        assert table.rows[0][2] == 0.0

    def test_flagged_cells_keep_the_run_alive(self):
        axes = (
            AxisSpec("T_over_omega1", 0.0, 2.0, 2),
            AxisSpec("omega2_over_omega1", 0.5, 1.5, 3),
        )
        table = run_sweep(SweepSpec("sigma2x_fermion", axes, BATH, PARAMS))
        assert not table.all_ok()
        by_point = {(r[0], r[1]): r for r in table.rows}
        resonant = by_point[(0.0, 1.0)]
        assert resonant[2] is None and resonant[3] is None
        assert resonant[4] == "near-resonance"
        ok_cell = by_point[(2.0, 1.5)]
        assert ok_cell[2] is not None
        assert "near-resonance" in ok_cell[4].split(";")

    def test_invalid_cell_status(self):
        axis = AxisSpec("T_over_omega1", 0.0, 100.0, 2)
        table = run_sweep(SweepSpec("fermion_high_T", (axis,), BATH, PARAMS))
        assert table.rows[0][1] is None
        assert table.rows[0][-1] == "invalid-params"
        assert table.rows[1][-1] == STATUS_OK

    def test_normalized_spin_columns(self):
        bath = OhmicDensity(1.0, 100.0)
        table = run_sweep(
            SweepSpec("normalized_spin", (beta_axis(start=5.0, stop=5.0),), bath, PARAMS)
        )
        assert table.columns[1:3] == ("normalized_sigma1x", "normalized_sigma2x")
        expected = normalized_coherences_spin(0.01, 5.0, 3.0)
        assert table.rows[0][1:3] == expected

    def test_static_compare_columns(self):
        table = run_sweep(
            SweepSpec("static_compare", (beta_axis(start=8.0, stop=8.0),), BATH, PARAMS)
        )
        tp = ThermalPoint.from_beta_omega1(8.0, 1.0)
        full = sigma2x(PARAMS, BATH, tp)
        chain = static_chain(PARAMS, BATH, tp)
        low = sigma2x_low_T(PARAMS, BATH.coupling, BATH.cutoff, tp)
        assert table.rows[0][1:4] == (full.value, chain.sigma2x_st, low.value)

    def test_hartree_fock_columns(self):
        table = run_sweep(
            SweepSpec("hartree_fock", (beta_axis(),), BATH, PARAMS)
        )
        tp = ThermalPoint.from_beta_omega1(2.0, 1.0)
        h1, h2 = hartree_static(PARAMS, BATH, tp)
        k1, k2 = fock_term(PARAMS, BATH, tp)
        assert table.rows[0][1:5] == (h1, h2, k1, k2)

    def test_g_script_cell_matches_direct_call(self):
        bath = OhmicDensity(1.0, 0.1)
        axes = (beta_axis(points=2, start=1.0, stop=5.0),)
        table = run_sweep(SweepSpec("g_script", axes, bath, PARAMS))
        for row in table.rows:
            assert row[1] == g_script(row[0], 10.0, 3.0, 0.1)

    def test_normalized_fermion_err_is_zero(self):
        table = run_sweep(
            SweepSpec("normalized_fermion", (beta_axis(),), BATH, PARAMS)
        )
        pair = normalized_fermion(PARAMS, 1.0, 10.0, ThermalPoint(2.0))
        assert table.rows[0][1:3] == pair
        assert table.rows[0][3] == 0.0

    def test_meta_includes_axes_and_extra(self):
        spec = SweepSpec("sigma1x", (beta_axis(4, 1.0, 8.0, "log"),), BATH, PARAMS)
        table = run_sweep(spec, extra_meta={"run": 7})
        assert table.meta["quantity"] == "sigma1x"
        assert table.meta["model"] == "spin"
        assert table.meta["axis beta_omega1"] == "1.0:8.0:4:log"
        assert table.meta["run"] == "7"
        assert "OhmicDensity" in table.meta["bath"]


# An (omega2, t) plane that holds the omega2 = 0 row.
PLANE = (
    AxisSpec("omega2_over_omega1", 0.0, 4.0, 11),
    AxisSpec("t_over_omega1", 0.0, 2.0, 11),
)


@pytest.fixture
def j_calls(monkeypatch):
    """Every call of the reference integral J the sweep engine makes."""
    calls = []
    real = sweep.coherence_integral

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sweep, "coherence_integral", counted)
    return calls


class TestSharedReferenceIntegral:
    def test_plane_sweep_computes_j_once(self, j_calls):
        table = run_sweep(SweepSpec("r1", (beta_axis(),) + PLANE, BATH, PARAMS))
        assert len(table.rows) == 121
        assert len(j_calls) == 1

    @pytest.mark.parametrize("plane", [(), PLANE[:1]])
    def test_temperature_axis_computes_j_per_point(self, j_calls, plane):
        axes = (beta_axis(points=3, start=1.0, stop=4.0),) + plane
        run_sweep(SweepSpec("r2", axes, BATH, PARAMS, MAP_QUADRATURE))
        assert len(j_calls) == 3

    def test_map_computes_j_once(self, j_calls):
        r1_map(0.1, 2.0, np.linspace(0.0, 4.0, 3), np.linspace(0.0, 2.0, 3))
        assert len(j_calls) == 1

    @pytest.mark.parametrize("plane", [(), PLANE])
    def test_failed_j_fails_exactly_the_cells_that_need_it(self, monkeypatch, plane):
        def failing(*args):
            raise ConvergenceError("J did not converge")

        monkeypatch.setattr(sweep, "coherence_integral", failing)
        axes = (beta_axis(points=2, start=1.0, stop=4.0),) + plane
        table = run_sweep(SweepSpec("r1", axes, BATH, PARAMS))
        # omega2 = 0 cells fail on their inputs before they need J.
        assert [row[-1] for row in table.rows] == [
            "invalid-params" if plane and row[1] == 0.0 else "no-convergence"
            for row in table.rows
        ]
        table = r1_map(0.1, 2.0, [0.0, 2.0], [0.5])
        assert [row[-1] for row in table.rows] == ["invalid-params", "no-convergence"]


@pytest.mark.parametrize("which, mapper", [("r1", r1_map), ("r2", r2_map)])
@pytest.mark.parametrize(
    "beta_omega1, temperature",
    [
        (2.0, AxisSpec("beta_omega1", 2.0, 2.0, 1)),
        (math.inf, AxisSpec("T_over_omega1", 0.0, 0.0, 1)),
    ],
)
def test_map_equals_sweep_cell_by_cell(which, mapper, beta_omega1, temperature):
    grid = (
        AxisSpec("omega2_over_omega1", 0.0, 4.0, 5),
        AxisSpec("t_over_omega1", 0.0, 2.0, 5),
    )
    table = mapper(0.1, beta_omega1, grid[0].values(), grid[1].values())
    spec = SweepSpec(which, (temperature,) + grid, BATH, PARAMS, MAP_QUADRATURE)
    assert table.rows == [row[1:] for row in run_sweep(spec).rows]
