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

Every registry quantity is a step (see ``numerics.run_steps``), and
cells run in lockstep blocks of contiguous cells: every cell of a block
starts and hands its integral requests to one engine run for the whole
block, and then every cell assembles and cross-checks its own results.
A closed form is a step that states no integral.  A serial sweep cuts
its grid into blocks of ``_LOCKSTEP_CELLS`` cells; under ``jobs`` each
pool task is cut the same way.  An integral has the same bits in any
block, so the table does not depend on how the grid is cut.  Every
integral of a cell pools this way (J, the shape factor F, the fermion
and general-coupling spin integrals, and the reference integral J of R1
and R2), except the numerators of R1 and R2, which are still computed
one at a time inside their cells.

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
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, run_step, run_steps
from .spectral import OhmicDensity, SpectralDensity
from .spin_detuned import (
    ModelParams,
    ThermalPoint,
    _normalized_coherences_spin_step,
    _normalized_output_ratio_step,
    _sigma1x_step,
    _sigma2x_step,
    sigma2x_low_T,
    sigma2y,
    static_chain,
    static_chain_flags,
)
from .spin_general import _general_step, _r1_step, _r2_step
from .fermion import (
    _fock_step,
    _g_script_step,
    _normalized_fermion_step,
    _ratio_r_step,
    _sigma1x_fermion_step,
    _sigma2x_fermion_step,
    fermion_high_T,
    hartree_static,
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

# Cells that run in one lockstep block.  The engine keeps the panels of
# every integral of a block alive at once, so the block bounds its memory:
# three 72-cell fermion sweeps raise a fresh process's peak RSS by 2.0 MB
# as whole-grid blocks and by 0.8 MB in 24-cell blocks (0.26 MB one
# integral at a time), at the same time per cell, since most kernel calls
# of a 24-cell block already carry the full 4,096 nodes.
_LOCKSTEP_CELLS = 24

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

    ``steps(params, sd, tp, config)`` is a step (see
    ``numerics.run_steps``) returning ``(values, err, flags)``, where
    ``values`` has one float per entry in ``columns``: a sweep runs the
    steps of a block in lockstep, and a closed form is a step that yields
    nothing.  ``evaluate`` runs one step alone.  It is derived from
    ``steps`` (see ``_stepped``) and kept as a field only because the
    benchmark's tracer (``bench/tracing.py``) rebuilds entries with
    ``dataclasses.replace(q, evaluate=...)``.
    """

    name: str
    columns: tuple
    model: str
    needs_ohmic: bool
    evaluate: object = field(repr=False)
    steps: object = field(repr=False)


def _stepped(name, columns, model, needs_ohmic, steps):
    """The registry entry of a quantity whose cells run ``steps``."""
    return SweepQuantity(name, columns, model, needs_ohmic,
                         lambda *args: run_step(steps(*args)), steps=steps)


def _now(function, *args):
    """Step stating no integral: it yields nothing and returns function(*args)."""
    yield from ()
    return function(*args)


def _one(step):
    """Adapt a step's CoherenceResult to the (values, err, flags) protocol."""
    result = yield from step
    return (result.value,), result.err_estimate, result.flags


def _estimated(step):
    """Adapt a step's quadrature-backed values (one value or a tuple of
    them), an error estimate that bounds each of them, and any flags."""
    values, err, *flags = yield from step
    values = values if isinstance(values, tuple) else (values,)
    return values, err, flags[0] if flags else ()


def _hartree_fock_steps(p, sd, tp, cfg):
    hartree, _ = hartree_static(p, sd, tp, cfg)
    # Each Fock estimate already carries the Hartree one, so it bounds both.
    fock, errs, flags = yield from _fock_step(p, sd, tp, cfg)
    return hartree + fock, max(errs), flags


def _static_sigma2x_steps(p, sd, tp, cfg):
    chain, err = yield from _now(static_chain, p, sd, tp, cfg)
    return (chain.sigma2x_st,), err, static_chain_flags(p, sd, tp, cfg)


def _static_compare_steps(p, sd, tp, cfg):
    full = yield from _sigma2x_step(p, sd, tp, cfg)
    chain, _ = static_chain(p, sd, tp)  # ohmic: Omega is exact
    low = sigma2x_low_T(p, sd.coupling, sd.cutoff, tp)
    flags = []
    for f in full.flags + static_chain_flags(p, sd, tp) + low.flags:
        if f not in flags:
            flags.append(f)
    values = (full.value, chain.sigma2x_st, low.value)
    return values, full.err_estimate, tuple(flags)


def _fermion_high_T_steps(p, sd, tp, cfg):
    value = yield from _now(fermion_high_T, p, sd.coupling, sd.cutoff, tp)
    return (value,), 0.0, ()


# Only the closed forms (sigma2y, sigma2x_low_T, static_chain,
# hartree_static, fermion_high_T) call public functions, looked up here at
# call time, so one rebound on this module (by a tracer, say) is the one a
# sweep calls.  Every quantity that integrates yields its integral
# requests, except the numerators of r1 and r2, which still integrate
# alone inside their cells.
QUANTITIES = {q.name: q for q in (
    _stepped("sigma1x", ("sigma1x",), "spin", False,
             lambda p, sd, tp, cfg: _one(_sigma1x_step(p, sd, tp, cfg))),
    _stepped("sigma2x", ("sigma2x",), "spin", False,
             lambda p, sd, tp, cfg: _one(_sigma2x_step(p, sd, tp, cfg))),
    _stepped("sigma2y", ("sigma2y",), "spin", False,
             lambda p, sd, tp, cfg: _one(_now(sigma2y, p, sd, tp))),
    _stepped("sigma1x_general", ("sigma1x_general",), "spin", False,
             lambda p, sd, tp, cfg: _one(_general_step(p, sd, tp, cfg))),
    _stepped("sigma2x_general", ("sigma2x_general",), "spin", False,
             lambda p, sd, tp, cfg: _one(_general_step(p, sd, tp, cfg, second=True))),
    _stepped("r1", ("r1",), "spin", False,
             lambda p, sd, tp, cfg: _one(_r1_step(p, sd, tp, cfg))),
    _stepped("r2", ("r2",), "spin", False,
             lambda p, sd, tp, cfg: _one(_r2_step(p, sd, tp, cfg))),
    _stepped("static_sigma2x", ("static_sigma2x",), "spin", False,
             _static_sigma2x_steps),
    _stepped("sigma2x_low_T", ("sigma2x_low_T",), "spin", True,
             lambda p, sd, tp, cfg: _one(_now(
                 sigma2x_low_T, p, sd.coupling, sd.cutoff, tp))),
    _stepped("normalized_output_ratio", ("normalized_output_ratio",), "spin", True,
             lambda p, sd, tp, cfg: _estimated(_normalized_output_ratio_step(
                 p, sd, tp, cfg))),
    _stepped("normalized_spin", ("normalized_sigma1x", "normalized_sigma2x"),
             "spin", True,
             lambda p, sd, tp, cfg: _estimated(_normalized_coherences_spin_step(
                 p.omega1 / sd.cutoff, tp.beta_omega1(p.omega1),
                 p.omega2 / p.omega1, cfg))),
    _stepped("static_compare", ("sigma2x_full", "sigma2x_static", "sigma2x_low_T"),
             "spin", True, _static_compare_steps),
    _stepped("sigma1x_fermion", ("sigma1x_fermion",), "fermion", False,
             lambda p, sd, tp, cfg: _one(_sigma1x_fermion_step(p, sd, tp, cfg))),
    _stepped("sigma2x_fermion", ("sigma2x_fermion",), "fermion", False,
             lambda p, sd, tp, cfg: _one(_sigma2x_fermion_step(p, sd, tp, cfg))),
    _stepped("hartree_fock", ("hartree1", "hartree2", "fock1", "fock2"), "fermion", False,
             _hartree_fock_steps),
    _stepped("normalized_fermion", ("normalized_fermion1", "normalized_fermion2"),
             "fermion", True,
             lambda p, sd, tp, cfg: _estimated(_normalized_fermion_step(
                 p, sd.coupling, sd.cutoff, tp, cfg))),
    _stepped("ratio_R", ("ratio_R",), "fermion", True,
             lambda p, sd, tp, cfg: _estimated(_ratio_r_step(
                 p, sd.coupling, sd.cutoff, tp, cfg))),
    _stepped("g_script", ("g_script",), "fermion", True,
             lambda p, sd, tp, cfg: _estimated(_g_script_step(
                 tp.beta_omega1(p.omega1), p.omega1 / sd.cutoff,
                 p.omega2 / p.omega1, p.t / p.omega1, cfg))),
    _stepped("fermion_high_T", ("fermion_high_T",), "fermion", True,
             _fermion_high_T_steps),
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
    """One grid cell as a step returning (values, err, flags)."""
    args = _cell_inputs(spec, point) + (spec.config,)
    return (yield from QUANTITIES[spec.quantity].steps(*args))


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

    ``task`` is ``(spec, points)``; the cells run in lockstep blocks of
    ``_LOCKSTEP_CELLS`` cells, each handing its integrals' outcomes on to
    the next.
    """
    spec, points = task
    known = {}
    return [cell for i in range(0, len(points), _LOCKSTEP_CELLS)
            for cell in _sweep_block(spec, points[i:i + _LOCKSTEP_CELLS], known)]


def _sweep_block(spec: SweepSpec, points: list, known: dict) -> list:
    """(values, err, status) of each cell of one lockstep block.

    ``known`` holds the outcomes of the previous block (see
    ``numerics.run_steps``) and is left holding this block's.
    """
    blank = (None,) * len(QUANTITIES[spec.quantity].columns)
    out = []
    for result in run_steps([_cell_step(spec, point) for point in points], known):
        if isinstance(result, CohexError):
            status = next((word for kind, word in _STATUS if isinstance(result, kind)), None)
            if status is None:
                raise result
            out.append((blank, None, status))
        else:
            cell_values, err, flags = result
            out.append((cell_values, err, ";".join(flags) or STATUS_OK))
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _evaluate_cells(spec: SweepSpec, points: list, jobs: int | None) -> list:
    """(values, err, status) of every cell point (axis name -> value), in order.

    The pool gets the smallest of ``jobs``, the cell count and the usable
    CPU count as workers: a fork-based pool starts every worker at its
    first task, whether or not there is work for it.  Each pool task is a
    contiguous run of about an eighth of a worker's share of the cells,
    rounded up to whole lockstep blocks so a task pools its cells' kernel
    calls as a serial run does.
    """
    workers = min(jobs or 1, len(points), _usable_cpus())
    if workers > 1:
        # Imported here: serial runs skip the pool machinery's import cost.
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, len(points) // (8 * workers))
        size = -(-size // _LOCKSTEP_CELLS) * _LOCKSTEP_CELLS
        tasks = [(spec, points[i:i + size]) for i in range(0, len(points), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [cell for part in pool.map(_sweep_cells, tasks) for cell in part]
    return _sweep_cells((spec, points))


def run_sweep(
    spec: SweepSpec,
    jobs: int | None = None,
    extra_meta: dict | None = None,
) -> SweepTable:
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
    extra_meta : dict, optional
        Additional metadata merged into the table (all values coerced to
        strings); used by the command line to embed its resolved config.

    Returns
    -------
    SweepTable
        One row per grid cell: axis values, value columns, ``err_estimate``,
        and a ``status`` word (``ok``, advisory flags joined with ``;``, or
        an error word with empty value cells).
    """
    names = spec.axis_names()
    points = [
        dict(zip(names, map(float, combo)))
        for combo in itertools.product(*(axis.values() for axis in spec.axes))
    ]
    cells = _evaluate_cells(spec, points, jobs)
    rows = [
        tuple(point.values()) + values + (err, status)
        for point, (values, err, status) in zip(points, cells)
    ]
    meta = {
        "quantity": spec.quantity,
        "model": QUANTITIES[spec.quantity].model,
        "bath": repr(spec.bath),
        "params": repr(spec.params),
    }
    for axis in spec.axes:
        meta[f"axis {axis.name}"] = axis.describe()
    if extra_meta:
        for key, value in extra_meta.items():
            meta[str(key)] = str(value)
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
    cells = _evaluate_cells(spec, points, jobs)
    rows = [
        (point["omega2_over_omega1"], point["t_over_omega1"]) + values + (err, status)
        for point, (values, err, status) in zip(points, cells)
    ]
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
