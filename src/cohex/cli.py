"""Command line front end: sweeps, validity maps, oracle checks.

The interface is a small set of subcommands sharing one configuration
mechanism: defaults, overridden by an optional ``--config`` file of
``key = value`` lines ('#' starts a comment), overridden by repeatable
``--set key=value`` flags.  Grid-capable keys accept either a plain
number (fixed value) or an axis ``min:max:points[:spacing]`` with
spacing ``linear`` or ``log``.  The temperature must always be given
explicitly, as either ``T_over_omega1`` or ``beta_omega1``; there is no
silent default.  ``t`` and ``T`` are accepted as shorthand for
``t_over_omega1`` and ``T_over_omega1``.

Output is a plot-ready table (CSV with a '#'-prefixed metadata preamble,
or JSON with ``meta`` and ``rows``) written to stdout or ``--out``.  The
metadata echoes the fully resolved configuration, its SHA-256 hash, and
the package version, so an emitted file identifies the run that made it.
Repeated runs with the same configuration produce byte-identical output
for any ``--jobs`` value.

Exit codes: 0 success, 1 usage or configuration error, 2 numeric or
convergence error, 3 validity flags present (data still emitted).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import CohexError, DomainError
from .numerics import DEFAULT_QUADRATURE, thermal_tanh_half
from .oracle import (
    FERMION_OBSERVABLES,
    OBSERVABLES,
    SPIN_OBSERVABLES,
    OracleSpec,
    compare_perturbative,
    convergence_order,
    exact_average,
)
from .spectral import DiscreteDensity, OhmicDensity
from .spin_detuned import (
    ModelParams,
    ThermalPoint,
    normalized_coherences_spin,
    sigma1x,
    sigma2x,
    static_dynamical_split,
)
from .spin_general import r1_value
from .fermion import sigma1x_fermion, sigma2x_fermion
from .sweep import (
    MAP_QUADRATURE,
    AxisSpec,
    SweepSpec,
    quantity_names,
    r1_map,
    r2_map,
    run_sweep,
)
from .table import STATUS_OK, SweepTable, emit, emit_csv, parse_csv

__all__ = ["main"]


class _UsageError(Exception):
    """Bad flags, keys, or values; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Configuration schema and parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Key:
    """One config key: how to parse it and its default (None = unset)."""

    kind: str
    default: object = None
    choices: tuple = ()
    help: str = ""


#: Shorthand accepted on the command line and in config files.
_ALIASES = {"t": "t_over_omega1", "T": "T_over_omega1"}

_QUADRATURE_KEYS = {
    "rel_tol": _Key("scalar", None, (), "quadrature relative tolerance"),
    "abs_tol": _Key("scalar", None, (), "quadrature absolute tolerance"),
    "max_subdivisions": _Key("int", None, (), "quadrature subdivision cap"),
    "singularity_window": _Key("scalar", None, (), "width skirted around kernel singularities"),
    "tail_decay_scale": _Key("scalar", None, (), "decay scale assumed for infinite tails"),
}


def _sweep_schema(model):
    schema = {
        "quantity": _Key("choice", None, quantity_names(model), "quantity to evaluate (required)"),
        "omega1": _Key("scalar", 1.0, (), "first splitting; sets the energy unit"),
        "omega2_over_omega1": _Key("axis", 3.0, (), "second splitting over the first"),
        "t_over_omega1": _Key("axis", 0.1, (), "hopping over the first splitting"),
        "f1": _Key("scalar", 0.1, (), "longitudinal bath weight"),
        "f2": _Key("scalar", 0.1, (), "transverse bath weight"),
        "bath_coupling": _Key("scalar", 1.0, (), "ohmic amplitude A"),
        "omega1_over_omegac": _Key("axis", 1.0, (), "first splitting over the bath cutoff"),
        "T_over_omega1": _Key("axis", None, (), "temperature axis (or fixed value)"),
        "beta_omega1": _Key("axis", None, (), "inverse-temperature axis (or fixed value)"),
    }
    schema.update(_QUADRATURE_KEYS)
    return schema


def _static_compare_schema():
    schema = _sweep_schema("spin")
    del schema["quantity"]
    return schema


_MAP_SCHEMA = {
    "omega1_over_omegac": _Key("scalar", 1.0, (), "first splitting over the bath cutoff"),
    "T_over_omega1": _Key("scalar", None, (), "fixed temperature"),
    "beta_omega1": _Key("scalar", None, (), "fixed inverse temperature"),
    "omega2_max": _Key("scalar", 10.0, (), "upper edge of the omega2/omega1 axis"),
    "t_max": _Key("scalar", 5.0, (), "upper edge of the t/omega1 axis"),
    "points": _Key("int", 101, (), "grid points per axis"),
}
_MAP_SCHEMA.update(_QUADRATURE_KEYS)

_ORACLE_SCHEMA = {
    "omega1": _Key("scalar", 1.0, (), "first splitting; sets the energy unit"),
    "omega2_over_omega1": _Key("scalar", 3.0, (), "second splitting over the first"),
    "t_over_omega1": _Key("scalar", 0.001, (), "hopping over the first splitting"),
    "f1": _Key("scalar", 0.1, (), "longitudinal bath weight"),
    "f2": _Key("scalar", 0.1, (), "transverse bath weight"),
    "mode_coupling": _Key("floats", (0.05,), (), "discrete mode couplings (comma separated)"),
    "mode_frequency_over_omega1": _Key("floats", (0.8,), (), "discrete mode frequencies (comma separated)"),
    "fock_cutoff": _Key("int", 14, (), "bosonic occupation cutoff per mode"),
    "T_over_omega1": _Key("scalar", None, (), "fixed temperature"),
    "beta_omega1": _Key("scalar", None, (), "fixed inverse temperature"),
    "scale_factors": _Key("floats", (1.0, 0.5, 0.25), (), "coupling rescalings for the convergence fit"),
}

_SELFTEST_SCHEMA = {}


def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"config key {key}: cannot parse {text!r} as a number") from None
    if math.isnan(value):
        raise _UsageError(f"config key {key}: NaN is not a usable value")
    return value


def _parse_int(key, text):
    try:
        return int(text, 10)
    except ValueError:
        raise _UsageError(f"config key {key}: cannot parse {text!r} as an integer") from None


def _job_count(text):
    """The ``--jobs`` value: an integer of at least 1."""
    try:
        jobs = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as an integer") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _parse_axis(key, text):
    if ":" not in text:
        return _parse_float(key, text)
    parts = [p.strip() for p in text.split(":")]
    if len(parts) not in (3, 4):
        raise _UsageError(f"config key {key}: axis syntax is min:max:points[:spacing]")
    start = _parse_float(key, parts[0])
    stop = _parse_float(key, parts[1])
    points = _parse_int(key, parts[2])
    spacing = parts[3] if len(parts) == 4 else "linear"
    try:
        return AxisSpec(key, start, stop, points, spacing)
    except DomainError as exc:
        raise _UsageError(f"config key {key}: {exc}") from None


def _parse_floats(key, text):
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise _UsageError(f"config key {key}: expected a comma-separated list of numbers")
    return tuple(_parse_float(key, s) for s in items)


def _parse_value(name, keyspec, text):
    if keyspec.kind == "scalar":
        return _parse_float(name, text)
    if keyspec.kind == "axis":
        return _parse_axis(name, text)
    if keyspec.kind == "int":
        return _parse_int(name, text)
    if keyspec.kind == "floats":
        return _parse_floats(name, text)
    if keyspec.kind == "choice":
        if text not in keyspec.choices:
            raise _UsageError(
                f"config key {name}: must be one of {', '.join(keyspec.choices)}"
            )
        return text
    raise AssertionError(f"unhandled key kind {keyspec.kind!r}")


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def _resolve_config(schema, ns):
    """Defaults <- config file <- --set overrides, with typed parsing."""
    values = {name: keyspec.default for name, keyspec in schema.items()}
    pairs = []
    if ns.config is not None:
        pairs.extend(_load_config_file(ns.config))
    for item in ns.set:
        if "=" not in item:
            raise _UsageError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        pairs.append((key.strip(), value.strip()))
    for key, text in pairs:
        name = _ALIASES.get(key, key)
        if name not in schema:
            valid = ", ".join(sorted(schema)) if schema else "(this command takes none)"
            raise _UsageError(f"unknown config key {key!r}; valid keys: {valid}")
        values[name] = _parse_value(name, schema[name], text)
    return values


def _temperature_value(values):
    """The explicitly chosen temperature key and value; never a default."""
    t_set = values.get("T_over_omega1") is not None
    b_set = values.get("beta_omega1") is not None
    if t_set and b_set:
        raise _UsageError("set either T_over_omega1 or beta_omega1, not both")
    if not (t_set or b_set):
        raise _UsageError(
            "the temperature must be set explicitly: "
            "give T_over_omega1 or beta_omega1"
        )
    if t_set:
        return "T_over_omega1", values["T_over_omega1"]
    return "beta_omega1", values["beta_omega1"]


def _quadrature_config(values, base):
    overrides = {
        name: values[name]
        for name in _QUADRATURE_KEYS
        if values.get(name) is not None
    }
    if not overrides:
        return None
    if "max_subdivisions" in overrides:
        overrides["max_subdivisions"] = int(overrides["max_subdivisions"])
    return base.replace(**overrides)


# ---------------------------------------------------------------------------
# Config echo and metadata
# ---------------------------------------------------------------------------

def _canonical(value):
    if value is None:
        return "unset"
    if isinstance(value, AxisSpec):
        return value.describe()
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    return str(value)


def _config_meta(command, values, extra=None):
    """Metadata block: resolved config echo, its hash, and the version."""
    canon = {name: _canonical(values[name]) for name in sorted(values)}
    digest = hashlib.sha256(
        "".join(f"{name} = {text}\n" for name, text in canon.items()).encode("utf-8")
    ).hexdigest()
    meta = {"command": command, "version": __version__}
    if extra:
        meta.update(extra)
    for name, text in canon.items():
        meta[f"config {name}"] = text
    meta["config_sha256"] = digest
    return meta


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _assemble_sweep(schema, values):
    """Axes, base parameters, bath, and quadrature from resolved keys."""
    temp_name, temp_value = _temperature_value(values)
    if isinstance(temp_value, AxisSpec):
        axes = [temp_value]
    else:
        axes = [AxisSpec(temp_name, temp_value, temp_value, 1)]
    fixed = {}
    for name in ("omega2_over_omega1", "t_over_omega1", "omega1_over_omegac"):
        value = values[name]
        if isinstance(value, AxisSpec):
            axes.append(value)
            fixed[name] = schema[name].default
        else:
            fixed[name] = value
    omega1 = values["omega1"]
    params = ModelParams(
        omega1,
        fixed["omega2_over_omega1"] * omega1,
        fixed["t_over_omega1"] * omega1,
        values["f1"],
        values["f2"],
    )
    ratio = fixed["omega1_over_omegac"]
    if not (ratio > 0.0):
        raise DomainError("omega1_over_omegac must be positive")
    bath = OhmicDensity(values["bath_coupling"], omega1 / ratio)
    config = _quadrature_config(values, DEFAULT_QUADRATURE)
    return tuple(axes), params, bath, config


def _sweep_command(ns, model, fixed_quantity=None):
    if fixed_quantity is None:
        schema = _sweep_schema(model)
    else:
        schema = _static_compare_schema()
    values = _resolve_config(schema, ns)
    quantity = fixed_quantity or values["quantity"]
    if quantity is None:
        raise _UsageError(
            "config key 'quantity' is required; valid quantities: "
            + ", ".join(quantity_names(model))
        )
    axes, params, bath, config = _assemble_sweep(schema, values)
    spec = SweepSpec(quantity, axes, bath, params, config)
    meta = _config_meta(ns.command, values)
    table = run_sweep(spec, jobs=ns.jobs, extra_meta=meta)
    return emit(table, ns.format), (0 if table.all_ok() else 3)


def _cmd_spin_sweep(ns):
    return _sweep_command(ns, "spin")


def _cmd_fermion_sweep(ns):
    return _sweep_command(ns, "fermion")


def _cmd_static_compare(ns):
    return _sweep_command(ns, "spin", fixed_quantity="static_compare")


def _cmd_validity_map(ns):
    values = _resolve_config(_MAP_SCHEMA, ns)
    temp_name, temp_value = _temperature_value(values)
    if temp_name == "beta_omega1":
        beta_omega1 = ThermalPoint.from_beta_omega1(temp_value, 1.0).beta
    else:
        beta_omega1 = ThermalPoint.from_T_over_omega1(temp_value, 1.0).beta
    points = values["points"]
    if points < 1:
        raise _UsageError("config key points: must be at least 1")
    omega2 = np.linspace(0.0, values["omega2_max"], points)
    hopping = np.linspace(0.0, values["t_max"], points)
    config = _quadrature_config(values, MAP_QUADRATURE)
    mapper = r1_map if ns.which == "r1" else r2_map
    table = mapper(
        values["omega1_over_omegac"],
        beta_omega1,
        omega2,
        hopping,
        config=config,
        jobs=ns.jobs,
    )
    meta = dict(table.meta)
    meta.update(_config_meta("validity-map", values, extra={"which": ns.which}))
    table = SweepTable(table.columns, table.rows, meta)
    return emit(table, ns.format), (0 if table.all_ok() else 3)


def _cmd_oracle_check(ns):
    values = _resolve_config(_ORACLE_SCHEMA, ns)
    valid = SPIN_OBSERVABLES if ns.model == "spin" else FERMION_OBSERVABLES
    if ns.observable not in valid:
        raise _UsageError(
            f"observable {ns.observable!r} is not available for model "
            f"'{ns.model}'; valid observables: {', '.join(valid)}"
        )
    couplings = values["mode_coupling"]
    frequencies = values["mode_frequency_over_omega1"]
    if len(couplings) != len(frequencies):
        raise _UsageError(
            "mode_coupling and mode_frequency_over_omega1 need the same "
            "number of entries"
        )
    omega1 = values["omega1"]
    bath = DiscreteDensity(
        [(lam, freq * omega1) for lam, freq in zip(couplings, frequencies)]
    )
    params = ModelParams(
        omega1,
        values["omega2_over_omega1"] * omega1,
        values["t_over_omega1"] * omega1,
        values["f1"],
        values["f2"],
    )
    temp_name, temp_value = _temperature_value(values)
    if temp_name == "beta_omega1":
        beta = ThermalPoint.from_beta_omega1(temp_value, omega1).beta
    else:
        beta = ThermalPoint.from_T_over_omega1(temp_value, omega1).beta
    spec = OracleSpec(bath, values["fock_cutoff"], ns.model, params, beta)
    exact, formula, rel_dev = compare_perturbative(spec, ns.observable)
    fit = convergence_order(spec, ns.observable, values["scale_factors"])
    if fit.inconclusive or not math.isfinite(fit.order):
        order, status = None, "inconclusive-fit"
    else:
        order, status = fit.order, STATUS_OK
    meta = _config_meta(
        "oracle-check",
        values,
        extra={"model": ns.model, "observable": ns.observable},
    )
    table = SweepTable(
        ("exact", "formula", "rel_dev", "order", "status"),
        [(exact, formula, rel_dev, order, status)],
        meta,
    )
    return emit(table, ns.format), (0 if status == STATUS_OK else 3)


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

class _CheckFailure(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise _CheckFailure(message)


def _check_transfer_ohmic():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = OhmicDensity(0.7, 1.3)
    tp = ThermalPoint(2.0)
    s1 = sigma1x(p, sd, tp).value
    s2 = sigma2x(p, sd, tp).value
    resid = abs(s2 + (p.t / p.omega2) * thermal_tanh_half(tp.beta, p.omega2) * s1)
    _require(resid <= 1e-12 * abs(s2), f"transfer residual {resid:.3e}")


def _check_transfer_discrete_zero_T():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = DiscreteDensity([(0.05, 0.8), (0.02, 1.7)])
    tp = ThermalPoint(math.inf)
    s1 = sigma1x(p, sd, tp).value
    s2 = sigma2x(p, sd, tp).value
    resid = abs(s2 + (p.t / p.omega2) * s1)
    _require(resid <= 1e-12 * abs(s2), f"transfer residual {resid:.3e}")


def _check_spin_fermion_identity():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = OhmicDensity(0.7, 1.3)
    tp = ThermalPoint(2.0)
    spin = sigma1x(p, sd, tp).value
    ferm = sigma1x_fermion(p, sd, tp).value
    shift = 4.0 * p.f1 * p.f2 * sd.reorganization_omega()
    mapped = 2.0 * ferm - shift * thermal_tanh_half(tp.beta, p.omega1) / p.omega1
    resid = abs(spin - mapped)
    _require(resid <= 1e-12 * abs(spin), f"identity residual {resid:.3e}")


def _check_fermion_zero_T_transfer():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = OhmicDensity(0.7, 1.3)
    tp = ThermalPoint(math.inf)
    s2 = sigma2x_fermion(p, sd, tp).value
    s1 = sigma1x_fermion(p, sd, tp).value
    _require(s2 == (p.t / p.omega2) * s1, "zero-T transfer is not exact")


def _check_fermion_dual_form():
    p = ModelParams(1.0, 3.0, 0.1, 1.0, 1.0)
    result = sigma2x_fermion(p, OhmicDensity(1.0, 1.0), ThermalPoint(2.0))
    reference = 2.444942159528389e-02
    rel = abs(result.value - reference) / abs(reference)
    _require(rel <= 1e-9, f"reference value off by {rel:.3e}")
    _require(result.flags == (), f"unexpected flags {result.flags}")


def _check_ratio_edge():
    p = ModelParams(1.0, 2.0, 1e-4, 1.0, 1.0)
    r = r1_value(p, OhmicDensity(1.0, 1.0), ThermalPoint(1.0)).value
    _require(abs(r - 1.0) <= 1e-3, f"small-hopping ratio {r!r}")


def _check_static_bound():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = OhmicDensity(0.7, 1.3)
    static, dynamical = static_dynamical_split(p, sd, None)
    full = sigma2x(p, sd, ThermalPoint(math.inf)).value
    _require(dynamical <= 0.0, f"dynamical term {dynamical!r} is positive")
    resid = abs(static + dynamical - full)
    _require(resid <= 1e-10 * abs(full), f"split residual {resid:.3e}")


def _check_low_T_saturation():
    n1, n2 = normalized_coherences_spin(1.0, 60.0)
    _require(abs(n1 - 1.0) <= 0.02, f"normalized internal coherence {n1!r}")
    _require(abs(n2 - 1.0) <= 0.02, f"normalized output coherence {n2!r}")


def _check_oracle_sigma2y():
    spec = OracleSpec(
        DiscreteDensity([(0.05, 0.8)]), 8, "spin",
        ModelParams(1.0, 3.0, 0.05, 0.1, 0.1), 2.0,
    )
    value = exact_average(spec, "sigma2y")
    _require(abs(value) <= 1e-10, f"sigma2y = {value!r}")


def _check_oracle_sigma1x():
    spec = OracleSpec(
        DiscreteDensity([(0.05, 0.8)]), 10, "spin",
        ModelParams(1.0, 3.0, 0.05, 0.1, 0.1), 2.0,
    )
    _, _, rel_dev = compare_perturbative(spec, "sigma1x")
    _require(rel_dev <= 5e-3, f"relative deviation {rel_dev:.3e}")


def _check_table_round_trip():
    table = SweepTable(
        ("a", "b", "status"),
        [(1.0, None, "kernel-error"), (0.5, -2.0e-7, STATUS_OK)],
        {"note": "round trip"},
    )
    data = emit_csv(table)
    again = emit_csv(parse_csv(data))
    _require(data == again, "CSV round trip changed the table")


_SELFTEST_CHECKS = (
    ("transfer relation, ohmic bath", _check_transfer_ohmic),
    ("transfer relation, discrete bath at T=0", _check_transfer_discrete_zero_T),
    ("spin-fermion internal coherence identity", _check_spin_fermion_identity),
    ("fermion zero-T transfer", _check_fermion_zero_T_transfer),
    ("fermion dual-form reference point", _check_fermion_dual_form),
    ("general/detuned ratio at small hopping", _check_ratio_edge),
    ("static term bounds the zero-T output", _check_static_bound),
    ("normalized coherences saturate at low T", _check_low_T_saturation),
    ("oracle: sigma2y vanishes", _check_oracle_sigma2y),
    ("oracle: sigma1x matches exact diagonalization", _check_oracle_sigma1x),
    ("table CSV round trip", _check_table_round_trip),
)


def _cmd_selftest(ns):
    _resolve_config(_SELFTEST_SCHEMA, ns)
    lines = []
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        try:
            check()
        except Exception as exc:
            failures += 1
            lines.append(f"FAIL - {name}: {exc}")
        else:
            lines.append(f"ok - {name}")
    total = len(_SELFTEST_CHECKS)
    lines.append(f"{total - failures}/{total} checks passed")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    return data, (0 if failures == 0 else 2)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _config_epilog(schema):
    if not schema:
        return "This command takes no config keys."
    lines = ["config keys (see --set and --config):"]
    for name in sorted(schema):
        keyspec = schema[name]
        default = _canonical(keyspec.default)
        lines.append(f"  {name} (default {default}): {keyspec.help}")
    return "\n".join(lines)


def _build_parser():
    parser = _Parser(
        prog="cohex",
        description="Steady-state coherence sweeps, validity maps, and oracle checks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command", parser_class=_Parser
    )

    def add(name, summary, schema):
        p = sub.add_parser(
            name,
            help=summary,
            description=summary,
            epilog=_config_epilog(schema),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", metavar="PATH", help="key = value file; '#' starts a comment")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        p.add_argument(
            "--jobs", type=_job_count, default=None, metavar="N",
            help="worker processes for grid cells (at most one per cell and per CPU)",
        )
        return p

    add(
        "spin-sweep",
        "sweep a spin-model quantity over a parameter grid",
        _sweep_schema("spin"),
    )
    add(
        "fermion-sweep",
        "sweep a fermionized-chain quantity over a parameter grid",
        _sweep_schema("fermion"),
    )
    mapper = add(
        "validity-map",
        "map a general-to-leading-order coherence ratio over (omega2, t)",
        _MAP_SCHEMA,
    )
    mapper.add_argument("--which", choices=("r1", "r2"), required=True, help="which ratio to map")
    oracle = add(
        "oracle-check",
        "compare a closed form against single-mode exact diagonalization",
        _ORACLE_SCHEMA,
    )
    oracle.add_argument("--model", choices=("spin", "fermion"), required=True)
    oracle.add_argument("--observable", choices=OBSERVABLES, required=True)
    add(
        "static-compare",
        "emit full, static, and low-T output coherence side by side",
        _static_compare_schema(),
    )
    add("selftest", "run fast invariant checks, one line per check", _SELFTEST_SCHEMA)
    return parser


_COMMANDS = {
    "spin-sweep": _cmd_spin_sweep,
    "fermion-sweep": _cmd_fermion_sweep,
    "validity-map": _cmd_validity_map,
    "oracle-check": _cmd_oracle_check,
    "static-compare": _cmd_static_compare,
    "selftest": _cmd_selftest,
}


def _write_output(data, out):
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _UsageError(f"cannot write output file {out}: {exc}") from None


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        data, code = _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CohexError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    try:
        _write_output(data, ns.out)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code
