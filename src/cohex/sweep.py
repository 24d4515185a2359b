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

The validity maps ``r1_map`` and ``r2_map`` run on the same engine over
explicit (omega2/omega1, t/omega1) points.  For the ratio quantities the
engine computes the small-t reference integral J, which depends only on
omega1, the bath and the temperature, once for every (temperature, cutoff
ratio) key that several cells share; the shared value has the same bits
as a per-cell one.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
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
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig
from .spectral import OhmicDensity, SpectralDensity
from .spin_detuned import (
    ModelParams,
    ThermalPoint,
    coherence_integral,
    normalized_coherences_spin,
    normalized_output_ratio,
    sigma1x,
    sigma2x,
    sigma2x_low_T,
    sigma2y,
    static_chain,
    static_chain_flags,
)
from .spin_general import _r1_core, _r2_core, sigma1x_general, sigma2x_general
from . import fermion as _fermion
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

# The axes that fix the small-t reference integral J of a cell: J depends
# only on omega1 (fixed by the base parameters), the bath and T.
_J_AXES = TEMPERATURE_AXES + ("omega1_over_omegac",)

# Default map axes: omega2/omega1 in [0, 10], t/omega1 in [0, 5].
MAP_OMEGA2_MAX = 10.0
MAP_T_MAX = 5.0
MAP_POINTS = 101

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
            if not np.isfinite(v):
                raise DomainError(f"axis {self.name}: {label} must be finite")
        if self.points < 1:
            raise DomainError(f"axis {self.name}: points must be at least 1")
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
    """Registry entry tying a quantity name to its evaluator.

    ``evaluate(params, sd, tp, config)`` returns ``(values, err, flags)``
    where ``values`` has one float per entry in ``columns``.  A quantity
    with ``shares_j`` is built on the small-t reference integral J and
    takes ``(j_val, j_err)`` as a fifth argument, which the engine computes
    once for every cell key that several cells share.
    """

    name: str
    columns: tuple
    model: str
    needs_ohmic: bool
    evaluate: object = field(repr=False)
    shares_j: bool = False


def _one(result):
    """Adapt a CoherenceResult to the (values, err, flags) protocol."""
    return (result.value,), result.err_estimate, result.flags


def _exact(*values):
    """Adapt closed-form values, which carry no error estimate or flags."""
    return values, 0.0, ()


def _eval_static_compare(p, sd, tp, cfg):
    full = sigma2x(p, sd, tp, cfg)
    chain = static_chain(p, sd, tp)
    low = sigma2x_low_T(p, sd.coupling, sd.cutoff, tp)
    flags = []
    for f in full.flags + static_chain_flags(p, sd, tp) + low.flags:
        if f not in flags:
            flags.append(f)
    values = (full.value, chain.sigma2x_st, low.value)
    return values, full.err_estimate, tuple(flags)


# Evaluators look their functions up at call time, so a function rebound
# on its module (by a tracer, say) is the one a sweep calls.
QUANTITIES = {q.name: q for q in (
    SweepQuantity("sigma1x", ("sigma1x",), "spin", False,
                  lambda p, sd, tp, cfg: _one(sigma1x(p, sd, tp, cfg))),
    SweepQuantity("sigma2x", ("sigma2x",), "spin", False,
                  lambda p, sd, tp, cfg: _one(sigma2x(p, sd, tp, cfg))),
    SweepQuantity("sigma2y", ("sigma2y",), "spin", False,
                  lambda p, sd, tp, cfg: _one(sigma2y(p, sd, tp))),
    SweepQuantity("sigma1x_general", ("sigma1x_general",), "spin", False,
                  lambda p, sd, tp, cfg: _one(sigma1x_general(p, sd, tp, cfg))),
    SweepQuantity("sigma2x_general", ("sigma2x_general",), "spin", False,
                  lambda p, sd, tp, cfg: _one(sigma2x_general(p, sd, tp, cfg))),
    SweepQuantity("r1", ("r1",), "spin", False,
                  lambda p, sd, tp, cfg, j: _one(_r1_core(p, sd, tp, cfg, *j)),
                  shares_j=True),
    SweepQuantity("r2", ("r2",), "spin", False,
                  lambda p, sd, tp, cfg, j: _one(_r2_core(p, sd, tp, cfg, *j)),
                  shares_j=True),
    SweepQuantity("static_sigma2x", ("static_sigma2x",), "spin", False,
                  lambda p, sd, tp, cfg: ((static_chain(p, sd, tp).sigma2x_st,), 0.0,
                                          static_chain_flags(p, sd, tp))),
    SweepQuantity("sigma2x_low_T", ("sigma2x_low_T",), "spin", True,
                  lambda p, sd, tp, cfg: _one(sigma2x_low_T(
                      p, sd.coupling, sd.cutoff, tp))),
    SweepQuantity("normalized_output_ratio", ("normalized_output_ratio",), "spin", True,
                  lambda p, sd, tp, cfg: _exact(normalized_output_ratio(p, sd, tp, cfg))),
    SweepQuantity("normalized_spin", ("normalized_sigma1x", "normalized_sigma2x"),
                  "spin", True,
                  lambda p, sd, tp, cfg: _exact(*normalized_coherences_spin(
                      p.omega1 / sd.cutoff, tp.beta_omega1(p.omega1),
                      p.omega2 / p.omega1, cfg))),
    SweepQuantity("static_compare", ("sigma2x_full", "sigma2x_static", "sigma2x_low_T"),
                  "spin", True, _eval_static_compare),
    SweepQuantity("sigma1x_fermion", ("sigma1x_fermion",), "fermion", False,
                  lambda p, sd, tp, cfg: _one(_fermion.sigma1x_fermion(p, sd, tp, cfg))),
    SweepQuantity("sigma2x_fermion", ("sigma2x_fermion",), "fermion", False,
                  lambda p, sd, tp, cfg: _one(_fermion.sigma2x_fermion(p, sd, tp, cfg))),
    SweepQuantity("hartree_fock", ("hartree1", "hartree2", "fock1", "fock2"), "fermion", False,
                  lambda p, sd, tp, cfg: _exact(*_fermion.hartree_static(p, sd, tp),
                                                *_fermion.fock_term(p, sd, tp, cfg))),
    SweepQuantity("normalized_fermion", ("normalized_fermion1", "normalized_fermion2"),
                  "fermion", True,
                  lambda p, sd, tp, cfg: _exact(*_fermion.normalized_fermion(
                      p, sd.coupling, sd.cutoff, tp, cfg))),
    SweepQuantity("ratio_R", ("ratio_R",), "fermion", True,
                  lambda p, sd, tp, cfg: _exact(_fermion.ratio_R(
                      p, sd.coupling, sd.cutoff, tp, cfg))),
    SweepQuantity("g_script", ("g_script",), "fermion", True,
                  lambda p, sd, tp, cfg: _exact(_fermion.g_script(
                      tp.beta_omega1(p.omega1), p.omega1 / sd.cutoff,
                      p.omega2 / p.omega1, p.t / p.omega1))),
    SweepQuantity("fermion_high_T", ("fermion_high_T",), "fermion", True,
                  lambda p, sd, tp, cfg: _exact(_fermion.fermion_high_T(
                      p, sd.coupling, sd.cutoff, tp))),
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
        ratio = point["omega1_over_omegac"]
        if not (ratio > 0.0):
            raise DomainError("omega1_over_omegac must be positive")
        sd = OhmicDensity(spec.bath.coupling, w1 / ratio)
    if "beta_omega1" in point:
        tp = ThermalPoint.from_beta_omega1(point["beta_omega1"], w1)
    else:
        tp = ThermalPoint.from_T_over_omega1(point["T_over_omega1"], w1)
    return p, sd, tp


def _j_key(point: dict) -> tuple:
    return tuple((name, point[name]) for name in _J_AXES if name in point)


def _shared_j(spec: SweepSpec, points: list) -> dict:
    """J, or the error it raised, for every key that several cells share.

    A key used by one cell is left out, and that cell computes J itself.
    """
    counts = Counter(_j_key(point) for point in points)
    shared = {}
    for key, n in counts.items():
        if n < 2:
            continue
        try:
            shared[key] = coherence_integral(
                *_cell_inputs(spec, dict(key)), spec.config
            )
        except CohexError as exc:
            shared[key] = exc
    return shared


def _sweep_cell(task):
    """One grid cell; returns (values, err, status). Picklable for pools.

    ``task`` is ``(spec, point, j)``: ``j`` is the cell's shared J, the
    error computing it raised, or None if the cell computes J itself.
    """
    spec, point, j = task
    quantity = QUANTITIES[spec.quantity]
    blank = (None,) * len(quantity.columns)
    try:
        args = _cell_inputs(spec, point) + (spec.config,)
        if quantity.shares_j:
            if isinstance(j, CohexError):
                raise j.with_traceback(None)
            args += (coherence_integral(*args) if j is None else j,)
        cell_values, err, flags = quantity.evaluate(*args)
        return cell_values, err, ";".join(flags) or STATUS_OK
    except NearResonanceError:
        return blank, None, "near-resonance"
    except DegenerateBasisError:
        return blank, None, "degenerate-basis"
    except DomainError:
        return blank, None, "invalid-params"
    except ConvergenceError:
        return blank, None, "no-convergence"
    except CrossFormError:
        return blank, None, "cross-form-disagreement"
    except KernelError:
        return blank, None, "kernel-error"


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
    first task, whether or not there is work for it.
    """
    shared = _shared_j(spec, points) if QUANTITIES[spec.quantity].shares_j else {}
    tasks = [(spec, point, shared.get(_j_key(point))) for point in points]
    workers = min(jobs or 1, len(tasks), _usable_cpus())
    if workers > 1:
        # Imported here: serial runs skip the pool machinery's import cost.
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_cell, tasks, chunksize=chunk))
    return [_sweep_cell(t) for t in tasks]


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
    if not (omega1_over_omegac > 0.0):
        raise DomainError("omega1_over_omegac must be positive")
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
        OhmicDensity(1.0, 1.0 / omega1_over_omegac),
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
