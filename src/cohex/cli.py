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

Only the command that runs pays for its imports.  The parser, the
top-level help, ``--version`` and usage errors load no numpy and no
numerical module; a command's config keys and flag choices, which come
from those modules, load when argv names the command, and its runner
imports what it evaluates when it runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import namedtuple

from . import __version__
from .errors import CohexError, DomainError

__all__ = ["main"]


class _UsageError(Exception):
    """Bad flags, keys, or values; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Configuration schema and parsing
# ---------------------------------------------------------------------------

#: One config key: its parser ``parse(name, text)``, its default (None =
#: unset) and its help line.
_Key = namedtuple("_Key", "parse default help")


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
    from .sweep import AxisSpec

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


def _choice(names):
    """The parser of a key whose value is one of ``names``."""

    def parse(key, text):
        if text not in names:
            raise _UsageError(f"config key {key}: must be one of {', '.join(names)}")
        return text

    return parse


#: Shorthand accepted on the command line and in config files.
_ALIASES = {"t": "t_over_omega1", "T": "T_over_omega1"}

_QUADRATURE_KEYS = {
    "rel_tol": _Key(_parse_float, None, "quadrature relative tolerance"),
    "max_subdivisions": _Key(_parse_int, None, "quadrature subdivision cap"),
}


def _sweep_schema(model):
    from .sweep import quantity_names

    schema = {
        "quantity": _Key(_choice(quantity_names(model)), None, "quantity to evaluate (required)"),
        "omega1": _Key(_parse_float, 1.0, "first splitting; sets the energy unit"),
        "omega2_over_omega1": _Key(_parse_axis, 3.0, "second splitting over the first"),
        "t_over_omega1": _Key(_parse_axis, 0.1, "hopping over the first splitting"),
        "f1": _Key(_parse_float, 0.1, "longitudinal bath weight"),
        "f2": _Key(_parse_float, 0.1, "transverse bath weight"),
        "bath_coupling": _Key(_parse_float, 1.0, "ohmic amplitude A"),
        "omega1_over_omegac": _Key(_parse_axis, 1.0, "first splitting over the bath cutoff"),
        "T_over_omega1": _Key(_parse_axis, None, "temperature axis (or fixed value)"),
        "beta_omega1": _Key(_parse_axis, None, "inverse-temperature axis (or fixed value)"),
    }
    schema.update(_QUADRATURE_KEYS)
    return schema


def _static_compare_schema():
    schema = _sweep_schema("spin")
    del schema["quantity"]
    return schema


def _map_schema():
    from .sweep import MAP_OMEGA2_MAX, MAP_POINTS, MAP_T_MAX

    schema = {
        "omega1_over_omegac": _Key(_parse_float, 1.0, "first splitting over the bath cutoff"),
        "T_over_omega1": _Key(_parse_float, None, "fixed temperature"),
        "beta_omega1": _Key(_parse_float, None, "fixed inverse temperature"),
        "omega2_max": _Key(_parse_float, MAP_OMEGA2_MAX, "upper edge of the omega2/omega1 axis"),
        "t_max": _Key(_parse_float, MAP_T_MAX, "upper edge of the t/omega1 axis"),
        "points": _Key(_parse_int, MAP_POINTS, "grid points per axis"),
    }
    schema.update(_QUADRATURE_KEYS)
    return schema


_ORACLE_SCHEMA = {
    "omega1": _Key(_parse_float, 1.0, "first splitting; sets the energy unit"),
    "omega2_over_omega1": _Key(_parse_float, 3.0, "second splitting over the first"),
    "t_over_omega1": _Key(_parse_float, 0.001, "hopping over the first splitting"),
    "f1": _Key(_parse_float, 0.1, "longitudinal bath weight"),
    "f2": _Key(_parse_float, 0.1, "transverse bath weight"),
    "mode_coupling": _Key(_parse_floats, (0.05,), "discrete mode couplings (comma separated)"),
    "mode_frequency_over_omega1": _Key(_parse_floats, (0.8,), "discrete mode frequencies (comma separated)"),
    "fock_cutoff": _Key(_parse_int, 14, "bosonic occupation cutoff per mode"),
    "T_over_omega1": _Key(_parse_float, None, "fixed temperature"),
    "beta_omega1": _Key(_parse_float, None, "fixed inverse temperature"),
    "scale_factors": _Key(_parse_floats, (1.0, 0.5, 0.25), "coupling rescalings for the convergence fit"),
}

_SELFTEST_SCHEMA = {}


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
        values[name] = schema[name].parse(name, text)
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
    return base.replace(**overrides)


# ---------------------------------------------------------------------------
# Config echo and metadata
# ---------------------------------------------------------------------------

def _canonical(value):
    if value is None:
        return "unset"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, str)):
        return str(value)
    return value.describe()  # an AxisSpec: only sweep commands load its module


def _config_meta(command, values, extra=None):
    """Metadata block: resolved config echo, its hash, and the version."""
    import hashlib

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


def _emitted(ns, values, table, extra=None):
    """(output bytes, exit code) of ``table`` with the config block
    appended to its metadata; the code is 3 when a row is flagged."""
    from .table import emit

    table.meta.update(_config_meta(ns.command, values, extra))
    return emit(table, ns.format), (0 if table.all_ok() else 3)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _assemble_sweep(schema, values):
    """Axes, base parameters, bath, and quadrature from resolved keys."""
    from .numerics import DEFAULT_QUADRATURE
    from .spectral import OhmicDensity
    from .spin_detuned import ModelParams
    from .sweep import AxisSpec

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
    bath = OhmicDensity.from_ratio(values["bath_coupling"], omega1, fixed["omega1_over_omegac"])
    config = _quadrature_config(values, DEFAULT_QUADRATURE)
    return tuple(axes), params, bath, config


def _sweep_command(ns, model, fixed_quantity=None):
    from .sweep import SweepSpec, quantity_names, run_sweep

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
    return _emitted(ns, values, run_sweep(spec, jobs=ns.jobs))


def _cmd_validity_map(ns):
    import numpy as np

    from .spin_detuned import ThermalPoint
    from .sweep import MAP_QUADRATURE, r1_map, r2_map

    values = _resolve_config(_map_schema(), ns)
    beta_omega1 = ThermalPoint.from_axis(*_temperature_value(values), 1.0).beta
    points = values["points"]
    if points < 1:
        raise _UsageError("config key points: must be at least 1")
    for name in ("omega2_max", "t_max"):
        if not math.isfinite(values[name]):
            raise _UsageError(f"config key {name}: must be finite")
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
    return _emitted(ns, values, table, extra={"which": ns.which})


def _cmd_oracle_check(ns):
    from .oracle import OracleSpec, _checked_scale_factors, compare_perturbative, convergence_order
    from .spectral import DiscreteDensity
    from .spin_detuned import ModelParams, ThermalPoint
    from .table import STATUS_OK, SweepTable

    values = _resolve_config(_ORACLE_SCHEMA, ns)
    factors = _checked_scale_factors(values["scale_factors"])
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
    beta = ThermalPoint.from_axis(*_temperature_value(values), omega1).beta
    spec = OracleSpec(bath, values["fock_cutoff"], ns.model, params, beta)
    exact, formula, rel_dev = compare_perturbative(spec, ns.observable)
    fit = convergence_order(spec, ns.observable, factors)
    if fit.inconclusive or not math.isfinite(fit.order):
        order, status = None, "inconclusive-fit"
    else:
        order, status = fit.order, STATUS_OK
    table = SweepTable(
        ("exact", "formula", "rel_dev", "order", "status"),
        [(exact, formula, rel_dev, order, status)],
    )
    return _emitted(ns, values, table, extra={"model": ns.model, "observable": ns.observable})


def _cmd_selftest(ns):
    _resolve_config(_SELFTEST_SCHEMA, ns)
    from .selftest import run

    return run()


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


def _which_flag(parser):
    parser.add_argument("--which", choices=("r1", "r2"), required=True, help="which ratio to map")


def _oracle_flags(parser):
    from .oracle import _MODELS, OBSERVABLES

    parser.add_argument("--model", choices=tuple(_MODELS), required=True)
    parser.add_argument("--observable", choices=OBSERVABLES, required=True)


#: One subcommand.  ``schema()`` (its config keys) and ``flags(parser)``
#: (its own options) run only once argv names it, since both may import
#: the numerical modules; ``run(ns)`` returns (output bytes, exit code).
_Command = namedtuple(
    "_Command", "summary schema run flags", defaults=(lambda parser: None,)
)


_COMMANDS = {
    "spin-sweep": _Command(
        "sweep a spin-model quantity over a parameter grid",
        lambda: _sweep_schema("spin"),
        functools.partial(_sweep_command, model="spin"),
    ),
    "fermion-sweep": _Command(
        "sweep a fermionized-chain quantity over a parameter grid",
        lambda: _sweep_schema("fermion"),
        functools.partial(_sweep_command, model="fermion"),
    ),
    "validity-map": _Command(
        "map a general-to-leading-order coherence ratio over (omega2, t)",
        _map_schema,
        _cmd_validity_map,
        _which_flag,
    ),
    "oracle-check": _Command(
        "compare a closed form against single-mode exact diagonalization",
        lambda: _ORACLE_SCHEMA,
        _cmd_oracle_check,
        _oracle_flags,
    ),
    "static-compare": _Command(
        "emit full, static, and low-T output coherence side by side",
        _static_compare_schema,
        functools.partial(_sweep_command, model="spin", fixed_quantity="static_compare"),
    ),
    "selftest": _Command(
        "run fast invariant checks, one line per check",
        lambda: _SELFTEST_SCHEMA,
        _cmd_selftest,
    ),
}


def _build_parser(argv):
    """The parser, with the epilog and own flags of the command argv names.

    Both come from the numerical modules (quantity names, map defaults,
    observable ids), so the top-level help, ``--version`` and a usage
    error that names no command load none of them.  The top-level
    options both exit, so a command that runs is argv[0].
    """
    parser = _Parser(
        prog="cohex",
        description="Steady-state coherence sweeps, validity maps, and oracle checks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command", parser_class=_Parser,
    )
    named = argv[0] if argv else None
    for name, command in _COMMANDS.items():
        p = sub.add_parser(
            name,
            help=command.summary,
            description=command.summary,
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
        if name == named:
            p.epilog = _config_epilog(command.schema())
            command.flags(p)
    return parser


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
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        ns = parser.parse_args(argv)
        data, code = _COMMANDS[ns.command].run(ns)
        _write_output(data, ns.out)
    except (_UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CohexError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    return code
