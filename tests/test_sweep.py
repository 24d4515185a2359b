"""Grid sweeps: axis grids, quantity registry, and deterministic tables."""

import math

import numpy as np
import pytest

import cohex.numerics as nm
from cohex import fermion, spin_detuned, sweep
from cohex.errors import ConvergenceError, DomainError
from cohex.fermion import (
    fock_term,
    g_script,
    hartree_static,
    normalized_fermion,
    sigma2x_fermion,
)
from cohex.numerics import DEFAULT_QUADRATURE
from cohex.spectral import (
    DiscreteDensity,
    GeneralizedOhmicDensity,
    OhmicDensity,
    TabulatedDensity,
)
from cohex.spin_detuned import (
    ModelParams,
    ThermalPoint,
    normalized_coherences_spin,
    sigma2x,
    sigma2x_low_T,
    static_chain,
)
from cohex.spin_general import mixing
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

from test_public_functions import PUBLIC

PARAMS = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
BATH = OhmicDensity(1.0, 10.0)


def _requests_per_cell(name):
    """The integral requests one cell of ``name`` states."""
    step = QUANTITIES[name].step(PARAMS, BATH, ThermalPoint(2.0), None)
    try:
        stated = step.send(None)
    except StopIteration:
        return 0
    step.close()
    return sum(isinstance(r, nm.Integral) for r in stated)


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
            dict(name="beta_omega1", start=1.0, stop=2.0, points=2.5),
            dict(name="beta_omega1", start=1.0, stop=1.0, points=True),
            dict(name="beta_omega1", start=True, stop=True, points=1),
            dict(name="beta_omega1", start=0.0, stop=True, points=2),
            dict(name="beta_omega1", start="1.0", stop=2.0, points=2),
            dict(name="beta_omega1", start=1.0, stop="2.0", points=2),
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

    def test_ohmic_only_functions_are_the_flagged_quantities(self):
        # Each registry quantity's public function, given the bath: an
        # ohmic-only one refuses a generalized and a tabulated bath with
        # DomainError, every other one accepts both.
        knots = [(x, x * math.exp(-x / 10.0)) for x in np.linspace(0.0, 60.0, 40)]
        baths = (GeneralizedOhmicDensity(1.0, 0.5, 10.0), TabulatedDensity(knots, 10.0))
        tp = ThermalPoint(2.0)
        for name, function in PUBLIC.items():
            for sd in baths:
                if QUANTITIES[name].needs_ohmic:
                    with pytest.raises(DomainError, match="uses the ohmic closed form"):
                        function(PARAMS, sd, tp)
                else:
                    function(PARAMS, sd, tp)

    def test_axis_names_are_fixed(self):
        assert AXIS_NAMES == (
            "T_over_omega1",
            "beta_omega1",
            "omega2_over_omega1",
            "t_over_omega1",
            "omega1_over_omegac",
        )


def _recording_pool(monkeypatch, cpus):
    """Stand in for the process pool on ``cpus`` usable CPUs: tasks run in
    this process, and the pool sizes and task lengths are recorded."""
    import concurrent.futures

    record = {"started": [], "tasks": []}

    class RecordingExecutor:
        def __init__(self, max_workers):
            record["started"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            record["tasks"].extend(len(task[1]) for task in tasks)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
    return record


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
        # Fermion cells run in lockstep blocks, which a 7-cell grid cuts
        # differently for every job count.
        axis = beta_axis(points=7, start=0.5, stop=8.0, spacing="log")
        for name in ("hartree_fock", "g_script", "ratio_R"):
            spec = SweepSpec(name, (axis,), BATH, PARAMS)
            outputs = {emit_csv(run_sweep(spec, jobs=jobs)) for jobs in (1, 2, 3)}
            assert len(outputs) == 1

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
        pool = _recording_pool(monkeypatch, cpus)
        axis = beta_axis(points=cells, start=0.5, stop=8.0 if cells > 1 else 0.5)
        spec = SweepSpec("sigma2x", (axis,), BATH, PARAMS)
        table = run_sweep(spec, jobs=jobs)
        assert pool["started"] == ([] if workers is None else [workers])
        assert emit_csv(table) == emit_csv(run_sweep(spec))

    @pytest.mark.parametrize("cells, sizes", [
        (72, [24, 24, 24]),  # an eighth of a worker's share is 4 cells
        (30, [24, 6]),
        (400, [48] * 8 + [16]),  # 25 cells rounded up to two task units
    ])
    def test_pool_tasks_are_whole_lockstep_blocks(self, monkeypatch, cells, sizes):
        # A task unit is the cells of one full block of the heaviest
        # cells, so every hartree_fock task is whole blocks.
        heaviest = max(_requests_per_cell(name) for name in QUANTITIES)
        assert sweep._TASK_CELLS * heaviest == nm._BLOCK_REQUESTS
        pool = _recording_pool(monkeypatch, 2)
        axis = beta_axis(points=cells, start=0.5, stop=8.0)
        run_sweep(SweepSpec("sigma2x", (axis,), BATH, PARAMS), jobs=2)
        assert pool["tasks"] == sizes

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

    def test_cross_form_disagreement_status(self, monkeypatch):
        # A wrong direct Fock kernel makes the two Fock routes disagree.
        monkeypatch.setattr(
            fermion,
            "_first_fock_kernel",
            lambda xi, *columns: 1.0 / (1.0 + xi * xi),
        )
        table = run_sweep(SweepSpec("hartree_fock", (beta_axis(),), BATH, PARAMS))
        assert table.rows[0][1:] == (None,) * 5 + ("cross-form-disagreement",)

    def test_kernel_error_status(self, monkeypatch):
        # A kernel that turns non-finite away from its removable points.
        monkeypatch.setattr(
            fermion,
            "_combined_second_kernel",
            lambda xi, *columns: np.where(xi > 5.0, np.nan, 1.0),
        )
        table = run_sweep(SweepSpec("sigma2x_fermion", (beta_axis(),), BATH, PARAMS))
        assert table.rows[0][1:] == (None, None, "kernel-error")

    def test_normalized_spin_columns(self):
        bath = OhmicDensity(1.0, 100.0)
        table = run_sweep(
            SweepSpec("normalized_spin", (beta_axis(start=5.0, stop=5.0),), bath, PARAMS)
        )
        assert table.columns[1:3] == ("normalized_sigma1x", "normalized_sigma2x")
        n1, n2 = normalized_coherences_spin(PARAMS, bath, ThermalPoint(5.0)).values
        assert table.rows[0][1:3] == (n1, n2)

    def test_static_compare_columns(self):
        table = run_sweep(
            SweepSpec("static_compare", (beta_axis(start=8.0, stop=8.0),), BATH, PARAMS)
        )
        tp = ThermalPoint.from_beta_omega1(8.0, 1.0)
        full = sigma2x(PARAMS, BATH, tp)
        chain = static_chain(PARAMS, BATH, tp).values
        low = sigma2x_low_T(PARAMS, BATH, tp)
        assert table.rows[0][1:4] == (full.value, chain.sigma2x_st, low.value)

    def test_hartree_fock_columns(self):
        table = run_sweep(
            SweepSpec("hartree_fock", (beta_axis(),), BATH, PARAMS)
        )
        tp = ThermalPoint.from_beta_omega1(2.0, 1.0)
        h1, h2 = hartree_static(PARAMS, BATH, tp).values
        (k1, k2), _ = fock_term(PARAMS, BATH, tp)
        assert table.rows[0][1:5] == (h1, h2, k1, k2)

    def test_hartree_fock_cell_states_its_hartree_parts_once(self, monkeypatch):
        calls = []
        real = fermion.hartree_static

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fermion, "hartree_static", counting)
        monkeypatch.setattr(sweep, "hartree_static", counting, raising=False)
        run_sweep(SweepSpec("hartree_fock", (beta_axis(),), BATH, PARAMS))
        assert len(calls) == 1

    def test_g_script_cell_matches_direct_call(self):
        bath = OhmicDensity(1.0, 0.1)
        axes = (beta_axis(points=2, start=1.0, stop=5.0),)
        table = run_sweep(SweepSpec("g_script", axes, bath, PARAMS))
        for row in table.rows:
            g_val = g_script(PARAMS, bath, ThermalPoint(row[0])).value
            assert row[1] == g_val

    def test_g_script_sweep_passes_its_config(self, monkeypatch):
        cfg = DEFAULT_QUADRATURE.replace(rel_tol=1e-6)
        real = fermion._sigma2x_fermion_step
        seen = []

        def spy(params, sd, tp, config):
            seen.append(config)
            return real(params, sd, tp, config)

        monkeypatch.setattr(fermion, "_sigma2x_fermion_step", spy)
        axes = (beta_axis(points=2, start=1.0, stop=5.0),)
        table = run_sweep(SweepSpec("g_script", axes, OhmicDensity(1.0, 0.1), PARAMS, cfg))
        assert seen == [cfg, cfg]
        # g_script's unit-weight model at this cell: omega2/omega1 = 3,
        # t/omega1 = 0.1, omega_c = 0.1 omega1.
        unit = ModelParams(1.0, 3.0, 0.1, 1.0, 1.0)
        scale = 2.0 * mixing(unit).cos_theta
        for row in table.rows:
            direct = fermion.sigma2x_fermion(
                unit, OhmicDensity(1.0, 0.1), ThermalPoint(row[0]), cfg
            )
            assert row[1] == direct.value / scale

    def test_normalized_fermion_cell_carries_err_estimate(self):
        table = run_sweep(
            SweepSpec("normalized_fermion", (beta_axis(),), BATH, PARAMS)
        )
        n1, n2 = normalized_fermion(PARAMS, BATH, ThermalPoint(2.0)).values
        assert table.rows[0][1:3] == (n1, n2)
        assert table.rows[0][3] > 0.0

    @pytest.mark.parametrize("name", [
        "hartree_fock", "g_script", "normalized_fermion", "ratio_R",
        "normalized_spin", "normalized_output_ratio",
    ])
    def test_quadrature_backed_rows_carry_err_estimate(self, name):
        # Each of these is built on adaptive integrals; a finite-T row
        # reports their estimate, carried to first order, not 0.
        for b in (0.5, 2.0, 7.0):
            result = QUANTITIES[name].evaluate(
                PARAMS, BATH, ThermalPoint(b), DEFAULT_QUADRATURE
            )
            values, err = result.values, result.err_estimate
            assert 0.0 < err < 1e-8 * max(abs(v) for v in values)

    @pytest.mark.parametrize("name, n_linear", [
        ("static_sigma2x", 1), ("hartree_fock", 2),
    ])
    def test_tabulated_omega_estimate_reaches_the_row(self, name, n_linear):
        # The first n_linear columns are proportional to Omega, which a
        # tabulated bath gets by quadrature: the row reports at least
        # Omega's relative estimate on them.
        xi = np.linspace(1e-3, 18.0, 200)
        bath = TabulatedDensity(np.column_stack([xi, xi * np.exp(-xi)]), 1.0)
        omega, omega_err = bath.reorganization_omega()
        result = QUANTITIES[name].evaluate(
            PARAMS, bath, ThermalPoint(2.0), DEFAULT_QUADRATURE
        )
        values, err = result.values, result.err_estimate
        share = max(abs(v) for v in values[:n_linear]) * omega_err / omega
        assert 0.0 < share <= err

    @pytest.mark.parametrize("name", ["static_sigma2x", "hartree_fock"])
    def test_tabulated_omega_is_integrated_once_per_bath(self, monkeypatch, name):
        # Omega is the weighted integral of 1/xi.  Each cell reads it
        # several times; the bath integrates it once for the whole sweep.
        xi = np.linspace(1e-3, 18.0, 200)
        bath = TabulatedDensity(np.column_stack([xi, xi * np.exp(-xi)]), 1.0)
        real = TabulatedDensity.weighted_integral
        probe = np.array([0.618, 1.414])
        omega_calls = []

        def spy(self, kernel, *args, **kwargs):
            with np.errstate(all="ignore"):
                if np.array_equal(kernel(probe), 1.0 / probe):
                    omega_calls.append(self)
            return real(self, kernel, *args, **kwargs)

        monkeypatch.setattr(TabulatedDensity, "weighted_integral", spy)
        spec = SweepSpec(name, (beta_axis(4, 0.5, 8.0, "log"),), bath, PARAMS)
        assert len(run_sweep(spec).rows) == 4
        assert omega_calls == [bath]

    @pytest.mark.parametrize("name", [
        "static_sigma2x", "hartree_fock", "sigma1x_fermion", "sigma2x_fermion",
    ])
    def test_tabulated_omega_takes_the_sweep_config(self, name):
        # 6,001 knots start over 6,000 panels, past the default budget: Omega
        # converges only with the sweep's raised budget, as J does.
        xi = np.linspace(1e-3, 18.0, 6000)
        bath = TabulatedDensity(np.column_stack([xi, xi * np.exp(-xi)]), 1.0)
        roomy = DEFAULT_QUADRATURE.replace(max_subdivisions=8000)
        for config, status in ((None, "invalid-params"), (roomy, STATUS_OK)):
            (row,) = run_sweep(SweepSpec(name, (beta_axis(),), bath, PARAMS, config)).rows
            assert row[-1] == status
        assert bath.reorganization_omega(roomy) is bath.reorganization_omega(roomy)
        with pytest.raises(DomainError):
            bath.reorganization_omega()

    def test_meta_includes_axes_and_extra(self):
        spec = SweepSpec("sigma1x", (beta_axis(4, 1.0, 8.0, "log"),), BATH, PARAMS)
        table = run_sweep(spec)
        assert table.meta["quantity"] == "sigma1x"
        assert table.meta["model"] == "spin"
        assert table.meta["axis beta_omega1"] == "1.0:8.0:4:log"
        assert "OhmicDensity" in table.meta["bath"]


# An (omega2, t) plane that holds the omega2 = 0 row.
PLANE = (
    AxisSpec("omega2_over_omega1", 0.0, 4.0, 11),
    AxisSpec("t_over_omega1", 0.0, 2.0, 11),
)


def _is_j(request):
    return request.kernel in (spin_detuned._j_kernel, spin_detuned._j_kernel_zero)


@pytest.fixture
def j_runs(monkeypatch):
    """The J requests of every engine run a sweep makes, one list per run."""
    runs = []
    real = nm.integrate_many

    def counted(requests):
        runs.append([r for r in requests if _is_j(r)])
        return real(requests)

    monkeypatch.setattr(nm, "integrate_many", counted)
    return runs


class TestSharedReferenceIntegral:
    def test_plane_sweep_computes_j_once(self, j_runs):
        table = run_sweep(SweepSpec("r1", (beta_axis(),) + PLANE, BATH, PARAMS))
        assert len(table.rows) == 121
        assert sum(map(len, j_runs)) == 1

    @pytest.mark.parametrize("plane", [(), PLANE[:1]])
    def test_temperature_axis_computes_j_per_point(self, j_runs, plane):
        axes = (beta_axis(points=3, start=1.0, stop=4.0),) + plane
        run_sweep(SweepSpec("r2", axes, BATH, PARAMS, MAP_QUADRATURE))
        assert sum(map(len, j_runs)) == 3

    def test_map_computes_j_once(self, j_runs):
        r1_map(0.1, 2.0, np.linspace(0.0, 4.0, 3), np.linspace(0.0, 2.0, 3))
        assert sum(map(len, j_runs)) == 1

    def test_distinct_j_pool_by_block(self, j_runs):
        # 72 cells with 72 different J: one block states all 72 in one
        # engine run.
        axes = (
            beta_axis(points=24, start=0.1, stop=30.0, spacing="log"),
            AxisSpec("omega1_over_omegac", 0.1, 1.6, 3, "log"),
        )
        run_sweep(SweepSpec("r1", axes, BATH, PARAMS))
        assert [len(run) for run in j_runs if run] == [72]
        assert len({nm._request_key(r) for run in j_runs for r in run}) == 72

    @pytest.mark.parametrize("plane", [(), PLANE])
    def test_failed_j_fails_exactly_the_cells_that_need_it(self, monkeypatch, plane):
        real = nm.integrate_many

        def failing(requests):
            rest = iter(real([r for r in requests if not _is_j(r)]))
            return [ConvergenceError("J did not converge") if _is_j(r) else next(rest)
                    for r in requests]

        monkeypatch.setattr(nm, "integrate_many", failing)
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


@pytest.mark.parametrize("name", [n for n, q in QUANTITIES.items() if not q.needs_ohmic])
def test_an_empty_bath_sums_to_zero(name):
    # Every sum over an empty mode list is 0.0 with estimate 0.0, as the
    # early returns an empty bath once took gave: the coherences are 0 (at
    # T = 0 too), and the ratios r1 and r2 have no reference integral.
    axes = (AxisSpec("T_over_omega1", 0.0, 0.5, 2), AxisSpec("t_over_omega1", 0.0, 0.2, 2))
    table = run_sweep(SweepSpec(name, axes, DiscreteDensity([]), PARAMS))
    zeros = (0.0,) * len(QUANTITIES[name].columns)
    detuned = {"sigma1x", "sigma2x", "sigma1x_fermion", "sigma2x_fermion"}
    for row in table.rows:
        t = row[1]
        if name in ("r1", "r2"):
            expected = (None,) * len(zeros) + (None, "invalid-params")
        else:
            status = "detuned-coupling" if name in detuned and t > 0.0 else STATUS_OK
            expected = zeros + (0.0, status)
        assert row[2:] == expected
