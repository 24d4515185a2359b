"""Parameter sweeps over the closed-form coherence quantities.

A sweep walks a cartesian grid of dimensionless axes (temperature, level
splitting ratio, hopping, cutoff ratio), evaluates one named quantity at
every grid point, and collects the results in a :class:`~cohex.table.SweepTable`.
Cells where a formula refuses to evaluate (degenerate bases, resonance
guards, cross-form disagreement) are kept in the table with an empty value
and a status word instead of aborting the whole grid, so a sweep across a
validity boundary stays useful.

Evaluation order over the grid is fixed by the axis order, and workers only
compute pure functions of their cell, so the assembled table is identical
whether the grid is evaluated serially or on a process pool.

Every registry quantity is the step (see ``numerics.run_steps``) that
its public function runs alone, and cells run in lockstep blocks of
contiguous cells: every cell of a block starts and hands its integral
requests to one engine run for the whole block, and then every cell
assembles and cross-checks its own result.  A closed form is a step that
states no integral.  A block closes at 144 integral requests, which
bounds its memory: 144 cells of a one-integral quantity, 72 of a
two-integral fermion quantity, 24 of ``hartree_fock``.  A serial sweep
cuts its grid this way, and under ``jobs`` so does each pool task.  An
integral has the same bits in any block, so the table does not depend on
how the grid is cut.  Every integral of a cell pools this way (J, the
shape factor F, the fermion and general-coupling spin integrals, and the
reference integral J of R1 and R2), except the numerators of R1 and R2,
which are still computed one at a time inside their cells.

Identical requests are integrated once, and each block hands its outcomes
on to the next one of its task.  So the small-t reference integral J that
every R1 and R2 cell states is integrated once for all cells that state
the same J, whichever axes they differ in, and once more only where a
pool task starts.  The validity maps ``r1_map`` and ``r2_map`` run on the
same engine over explicit (omega2/omega1, t/omega1) points.
"""

from __future__ import annotations

import itertools
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CohexError,
    ConvergenceError,
    CrossFormError,
    DegenerateBasisError,
    DomainError,
    KernelError,
    NearResonanceError,
)
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, run_steps, runs_alone
from .spectral import OhmicDensity, SpectralDensity
from .spin_detuned import (
    ModelParams,
    ThermalPoint,
    normalized_coherences_spin,
    normalized_output_ratio,
    sigma1x,
    sigma2x,
    sigma2x_low_T,
    sigma2y,
    static_compare,
    static_sigma2x,
)
from .spin_general import r1_value, r2_value, sigma1x_general, sigma2x_general
from .fermion import (
    fermion_high_T,
    g_script,
    hartree_fock,
    normalized_fermion,
    ratio_R,
    sigma1x_fermion,
    sigma2x_fermion,
)
from .table import STATUS_OK, SweepTable

__all__ = [
    "AXIS_NAMES",
    "TEMPERATURE_AXES",
    "AxisSpec",
    "SweepSpec",
    "SweepQuantity",
    "QUANTITIES",
    "SPIN_QUANTITIES",
    "FERMION_QUANTITIES",
    "quantity_names",
    "run_sweep",
    "MAP_QUADRATURE",
    "r1_map",
    "r2_map",
]

#: Axes a sweep may walk; every axis is dimensionless.
AXIS_NAMES = (
    "T_over_omega1",
    "beta_omega1",
    "omega2_over_omega1",
    "t_over_omega1",
    "omega1_over_omegac",
)

#: The two mutually exclusive ways of spelling the temperature axis.
TEMPERATURE_AXES = ("T_over_omega1", "beta_omega1")

# Default map axes: omega2/omega1 in [0, 10], t/omega1 in [0, 5].
MAP_OMEGA2_MAX = 10.0
MAP_T_MAX = 5.0
MAP_POINTS = 101

# Pool tasks are whole multiples of 24 cells, the cells of one full
# hartree_fock block (``numerics._BLOCK_REQUESTS`` = 144 requests, 6 a
# cell), so a task of any quantity fills at least one block of the
# heaviest cells.
_TASK_CELLS = 24

# Maps trade accuracy for speed; 1e-7 is far below the 1e-3 scale at
# which the ratio maps are read, and keeps cells near the omega = epsilon
# surface from chasing cancellation noise.
MAP_QUADRATURE = DEFAULT_QUADRATURE.replace(rel_tol=1e-7)


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: a named grid of dimensionless values.

    Attributes
    ----------
    name : str
        One of :data:`AXIS_NAMES`.
    start, stop : float
        Grid endpoints (inclusive).
    points : int
        Number of grid points; a single-point axis pins the value.
    spacing : str
        ``"linear"`` or ``"log"``; log spacing needs positive endpoints.
    """

    name: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise DomainError(
                f"unknown axis {self.name!r}; valid axes: {', '.join(AXIS_NAMES)}"
            )
        for label, v in (("start", self.start), ("stop", self.stop)):
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not np.isfinite(v):
                raise DomainError(f"axis {self.name}: {label} must be a finite number")
        if (isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral)
                or self.points < 1):
            raise DomainError(f"axis {self.name}: points must be an integer of at least 1")
        if self.points == 1 and self.start != self.stop:
            raise DomainError(
                f"axis {self.name}: a single-point axis needs start == stop"
            )
        if self.spacing not in ("linear", "log"):
            raise DomainError(
                f"axis {self.name}: spacing must be 'linear' or 'log'"
            )
        if self.spacing == "log" and not (self.start > 0.0 and self.stop > 0.0):
            raise DomainError(
                f"axis {self.name}: log spacing needs positive endpoints"
            )

    def values(self) -> np.ndarray:
        """The grid as a float array, in axis order."""
        if self.points == 1:
            return np.array([float(self.start)])
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)

    def describe(self) -> str:
        """Compact ``start:stop:points:spacing`` form for table metadata."""
        return f"{self.start!r}:{self.stop!r}:{self.points}:{self.spacing}"


@dataclass(frozen=True)
class SweepQuantity:
    """Registry entry tying a quantity name to its step.

    ``step(params, sd, tp, config)`` is the step (see ``numerics.run_steps``)
    that the quantity's public function runs alone; its ``CoherenceResult``
    has one value per entry in ``columns``.  ``evaluate`` runs the step
    alone too.  It is derived from ``step`` and kept as a field only
    because the benchmark's tracer (``bench/tracing.py``) rebuilds entries
    with ``dataclasses.replace(q, evaluate=...)``.
    """

    name: str
    columns: tuple
    model: str
    needs_ohmic: bool
    step: object = field(repr=False)
    evaluate: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.evaluate is None:
            object.__setattr__(self, "evaluate", runs_alone(self.step))


QUANTITIES = {q.name: q for q in (
    SweepQuantity("sigma1x", ("sigma1x",), "spin", False, sigma1x.step),
    SweepQuantity("sigma2x", ("sigma2x",), "spin", False, sigma2x.step),
    SweepQuantity("sigma2y", ("sigma2y",), "spin", False, sigma2y.step),
    SweepQuantity("sigma1x_general", ("sigma1x_general",), "spin", False,
                  sigma1x_general.step),
    SweepQuantity("sigma2x_general", ("sigma2x_general",), "spin", False,
                  sigma2x_general.step),
    SweepQuantity("r1", ("r1",), "spin", False, r1_value.step),
    SweepQuantity("r2", ("r2",), "spin", False, r2_value.step),
    SweepQuantity("static_sigma2x", ("static_sigma2x",), "spin", False, static_sigma2x.step),
    SweepQuantity("sigma2x_low_T", ("sigma2x_low_T",), "spin", True, sigma2x_low_T.step),
    SweepQuantity("normalized_output_ratio", ("normalized_output_ratio",), "spin", True,
                  normalized_output_ratio.step),
    SweepQuantity("normalized_spin", ("normalized_sigma1x", "normalized_sigma2x"),
                  "spin", True, normalized_coherences_spin.step),
    SweepQuantity("static_compare", ("sigma2x_full", "sigma2x_static", "sigma2x_low_T"),
                  "spin", True, static_compare.step),
    SweepQuantity("sigma1x_fermion", ("sigma1x_fermion",), "fermion", False,
                  sigma1x_fermion.step),
    SweepQuantity("sigma2x_fermion", ("sigma2x_fermion",), "fermion", False,
                  sigma2x_fermion.step),
    SweepQuantity("hartree_fock", ("hartree1", "hartree2", "fock1", "fock2"), "fermion",
                  False, hartree_fock.step),
    SweepQuantity("normalized_fermion", ("normalized_fermion1", "normalized_fermion2"),
                  "fermion", True, normalized_fermion.step),
    SweepQuantity("ratio_R", ("ratio_R",), "fermion", True, ratio_R.step),
    SweepQuantity("g_script", ("g_script",), "fermion", True, g_script.step),
    SweepQuantity("fermion_high_T", ("fermion_high_T",), "fermion", True,
                  fermion_high_T.step),
)}
SPIN_QUANTITIES = tuple(n for n, q in QUANTITIES.items() if q.model == "spin")
FERMION_QUANTITIES = tuple(
    n for n, q in QUANTITIES.items() if q.model == "fermion"
)


def quantity_names(model: str | None = None) -> tuple:
    """Registered quantity names, optionally restricted to one model."""
    if model is None:
        return tuple(QUANTITIES)
    if model == "spin":
        return SPIN_QUANTITIES
    if model == "fermion":
        return FERMION_QUANTITIES
    raise DomainError("model must be 'spin' or 'fermion'")


@dataclass(frozen=True)
class SweepSpec:
    """A complete sweep request: quantity, grid, bath, and base parameters.

    The base ``params`` fix ``omega1`` and the bath weights ``f1, f2``;
    axes override ``omega2``, ``t`` and the cutoff per cell.  Exactly one
    temperature axis is required, which keeps temperature an explicit
    column of every table rather than a hidden default.
    """

    quantity: str
    axes: tuple
    bath: SpectralDensity
    params: ModelParams
    config: QuadratureConfig | None = None

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise DomainError(
                f"unknown quantity {self.quantity!r}; valid quantities: "
                + ", ".join(QUANTITIES)
            )
        if not self.axes:
            raise DomainError("a sweep needs at least one axis")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise DomainError("axis names must be unique")
        n_temp = sum(name in TEMPERATURE_AXES for name in names)
        if n_temp == 0:
            raise DomainError(
                "a sweep needs an explicit temperature axis "
                "(T_over_omega1 or beta_omega1), even a single-point one"
            )
        if n_temp > 1:
            raise DomainError(
                "give the temperature as either T_over_omega1 or "
                "beta_omega1, not both"
            )
        needs_ohmic = QUANTITIES[self.quantity].needs_ohmic
        if "omega1_over_omegac" in names:
            needs_ohmic = True
        if needs_ohmic and not isinstance(self.bath, OhmicDensity):
            raise DomainError(
                f"quantity {self.quantity!r} (or a cutoff-ratio axis) "
                "needs an ohmic bath"
            )

    def axis_names(self) -> tuple:
        return tuple(a.name for a in self.axes)

    def columns(self) -> tuple:
        """Column names of the resulting table."""
        value_cols = QUANTITIES[self.quantity].columns
        return self.axis_names() + value_cols + ("err_estimate", "status")


def _cell_inputs(spec: SweepSpec, point: dict):
    """Model parameters, bath, and thermal point for one grid cell."""
    p = spec.params
    w1 = p.omega1
    if "omega2_over_omega1" in point:
        p = replace(p, omega2=point["omega2_over_omega1"] * w1)
    if "t_over_omega1" in point:
        p = replace(p, t=point["t_over_omega1"] * w1)
    sd = spec.bath
    if "omega1_over_omegac" in point:
        sd = OhmicDensity.from_ratio(sd.coupling, w1, point["omega1_over_omegac"])
    temperature = next(name for name in TEMPERATURE_AXES if name in point)
    return p, sd, ThermalPoint.from_axis(temperature, point[temperature], w1)


def _cell_step(spec: SweepSpec, point: dict):
    """One grid cell as a step returning its quantity's result."""
    args = _cell_inputs(spec, point) + (spec.config,)
    return (yield from QUANTITIES[spec.quantity].step(*args))


_STATUS = (
    (NearResonanceError, "near-resonance"),
    (DegenerateBasisError, "degenerate-basis"),
    (DomainError, "invalid-params"),
    (ConvergenceError, "no-convergence"),
    (CrossFormError, "cross-form-disagreement"),
    (KernelError, "kernel-error"),
)


def _sweep_cells(task):
    """(values, err, status) of each cell of a task. Picklable for pools.

    ``task`` is ``(spec, points)``; the cells run in lockstep blocks of at
    most 144 integral requests (see ``numerics.run_steps``), each handing
    its integrals' outcomes on to the next.
    """
    spec, points = task
    blank = (None,) * len(QUANTITIES[spec.quantity].columns)
    steps = (_cell_step(spec, point) for point in points)
    out = []
    for result in run_steps(steps):
        if isinstance(result, CohexError):
            status = next((word for kind, word in _STATUS if isinstance(result, kind)), None)
            if status is None:
                raise result
            out.append((blank, None, status))
        else:
            out.append((result.values, result.err_estimate,
                        ";".join(result.flags) or STATUS_OK))
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _rows(spec: SweepSpec, points: list, keys: tuple, jobs: int | None) -> list:
    """One row per cell point (axis name -> value), in order: the point's
    ``keys`` values, then the cell's values, err and status.

    The pool gets the smallest of ``jobs``, the cell count and the usable
    CPU count as workers: a fork-based pool starts every worker at its
    first task, whether or not there is work for it.  Each pool task is a
    contiguous run of about an eighth of a worker's share of the cells,
    rounded up to whole ``_TASK_CELLS``, and cut into lockstep blocks as
    a serial run is.
    """
    workers = min(jobs or 1, len(points), _usable_cpus())
    if workers > 1:
        # Imported here: serial runs skip the pool machinery's import cost.
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, len(points) // (8 * workers))
        size = -(-size // _TASK_CELLS) * _TASK_CELLS
        tasks = [(spec, points[i:i + size]) for i in range(0, len(points), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = [cell for part in pool.map(_sweep_cells, tasks) for cell in part]
    else:
        cells = _sweep_cells((spec, points))
    return [
        tuple(point[key] for key in keys) + values + (err, status)
        for point, (values, err, status) in zip(points, cells)
    ]


def run_sweep(spec: SweepSpec, jobs: int | None = None) -> SweepTable:
    """Evaluate a sweep and return its table.

    Parameters
    ----------
    spec : SweepSpec
        Quantity, axes, bath, and base parameters.
    jobs : int, optional
        Process count for parallel evaluation, capped at the number of
        cells and of usable CPUs; below 2 the grid runs serially.  The
        output is identical for any value because rows are assembled in
        grid order.

    Returns
    -------
    SweepTable
        One row per grid cell: axis values, value columns, ``err_estimate``,
        and a ``status`` word (``ok``, advisory flags joined with ``;``, or
        an error word with empty value cells).  Its metadata names the
        quantity, model, bath, params and axes; the command line appends
        its resolved config to it.
    """
    names = spec.axis_names()
    points = [
        dict(zip(names, map(float, combo)))
        for combo in itertools.product(*(axis.values() for axis in spec.axes))
    ]
    rows = _rows(spec, points, names, jobs)
    meta = {
        "quantity": spec.quantity,
        "model": QUANTITIES[spec.quantity].model,
        "bath": repr(spec.bath),
        "params": repr(spec.params),
    }
    for axis in spec.axes:
        meta[f"axis {axis.name}"] = axis.describe()
    return SweepTable(spec.columns(), rows, meta)


# ---------------------------------------------------------------------------
# Validity maps
# ---------------------------------------------------------------------------

def _ratio_map(which, omega2_over_omega1, t_over_omega1, omega1_over_omegac,
               beta_omega1, config, jobs):
    bath = OhmicDensity.from_ratio(1.0, 1.0, omega1_over_omegac)
    w2 = (
        np.linspace(0.0, MAP_OMEGA2_MAX, MAP_POINTS)
        if omega2_over_omega1 is None
        else np.asarray(omega2_over_omega1, dtype=float)
    )
    ts = (
        np.linspace(0.0, MAP_T_MAX, MAP_POINTS)
        if t_over_omega1 is None
        else np.asarray(t_over_omega1, dtype=float)
    )
    tp = ThermalPoint.from_beta_omega1(beta_omega1, 1.0)
    # A beta_omega1 axis must be finite, so T = 0 is spelled T_over_omega1 = 0.
    if tp.is_zero_temperature:
        temperature = ("T_over_omega1", 0.0)
    else:
        temperature = ("beta_omega1", tp.beta)
    spec = SweepSpec(
        which,
        (AxisSpec(temperature[0], temperature[1], temperature[1], 1),),
        bath,
        ModelParams(1.0, 1.0, 0.0, 1.0, 1.0),  # f1, f2 cancel in the ratio
        MAP_QUADRATURE if config is None else config,
    )
    points = [
        dict((temperature, ("omega2_over_omega1", float(a)), ("t_over_omega1", float(b))))
        for a in w2
        for b in ts
    ]
    rows = _rows(spec, points, ("omega2_over_omega1", "t_over_omega1"), jobs)
    meta = {
        "map": which,
        "omega1_over_omegac": repr(float(omega1_over_omegac)),
        "beta_omega1": repr(float(beta_omega1)),
        "grid": "%d x %d" % (len(w2), len(ts)),
    }
    return SweepTable(
        ("omega2_over_omega1", "t_over_omega1", which, "err_estimate", "status"),
        rows,
        meta,
    )


def r1_map(
    omega1_over_omegac: float,
    beta_omega1: float,
    omega2_over_omega1=None,
    t_over_omega1=None,
    config: QuadratureConfig | None = None,
    jobs: int | None = None,
) -> SweepTable:
    """Map of R1 over the (omega2/omega1, t/omega1) plane, ohmic bath.

    Cells where the ratio is undefined (omega2 = 0, or the degenerate
    t = 0, omega1 = omega2 corner) are flagged, not failed.
    """
    return _ratio_map("r1", omega2_over_omega1, t_over_omega1,
                      omega1_over_omegac, beta_omega1, config, jobs)


def r2_map(
    omega1_over_omegac: float,
    beta_omega1: float,
    omega2_over_omega1=None,
    t_over_omega1=None,
    config: QuadratureConfig | None = None,
    jobs: int | None = None,
) -> SweepTable:
    """Map of R2 over the (omega2/omega1, t/omega1) plane, ohmic bath."""
    return _ratio_map("r2", omega2_over_omega1, t_over_omega1,
                      omega1_over_omegac, beta_omega1, config, jobs)
