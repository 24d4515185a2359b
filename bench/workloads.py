"""The four benchmark workloads: inputs made from a seed, and one round of each.

A seed picks one entry from a few small menus per workload (a shift of the
temperature grid, the plane extents, the oracle temperature, the CLI grid
ends).  Every input any seed can produce is therefore finite and listed by
``all_variants``, and ``make_reference.py`` stores a reference result for
each of them.  The program only ever sees the generated inputs.

A round is the workload's fixed list of requests (a sweep, a map, an
oracle check or a CLI command), run closed-loop one after another in this
process.  Each request returns its operations (grid cells, oracle checks or
CLI commands) as ``(op_id, result)`` pairs in the reference format of
``checks.py``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep_T", "map_plane", "oracle_dims", "cli_cold")

# Worker processes for the map calls and the CLI validity map.
JOBS = 2

# Base model of every grid workload: the CLI defaults.
BASE_PARAMS = (1.0, 3.0, 0.1, 0.1, 0.1)  # omega1, omega2, t, f1, f2

# --- sweep_T -------------------------------------------------------------
# beta*omega1 log grid; a seed shifts it by k/4 of one grid step.
SWEEP_BETA = (0.1, 30.0, 24)
SWEEP_BETA_SHIFTS = 4
# omega1/omegac axis: start, 4 start, 16 start.  The second axis is the
# bath cutoff, not omega2: J and F do not depend on omega2, so on a
# (T, omega2) grid a cell-invariant cache would hit and this workload would
# stop being the one that bypasses such a cache.  Not on the seed menu:
# a start of 0.2 makes fermion cells 15% cheaper than 0.1.
SWEEP_CUTOFF_START = 0.1
SWEEP_OHMIC = (
    ("sigma2x", "light"),
    ("normalized_spin", "light"),
    ("sigma1x_general", "light"),
    ("r1", "light"),
    ("sigma2x_fermion", "heavy"),
    ("hartree_fock", "heavy"),
    ("g_script", "heavy"),
)
GENERALIZED_EXPONENT = 0.5
TABULATED_KNOTS = 40

# --- map_plane -----------------------------------------------------------
# beta*omega1 and omega1/omegac of the plane, as in the README's example.
# Fixed: map throughput differs by ~25% between such conditions, so a
# seeded condition would show up as run-to-run spread.
MAP_BETA, MAP_CUTOFF_RATIO = 1.0, 1.0
# (omega2/omega1 max, t/omega1 max) of the plane; a seed picks one.  The
# two differ by 1-2%: every cell off the axes moves, the cost does not
# (extents of (9, 4.5) already cost 7% more per map cell than (10, 5)).
MAP_EXTENTS = ((10.0, 5.0), (9.9, 4.9))
MAP_POINTS = 31
PLANE_POINTS = 11

# --- oracle_dims -----------------------------------------------------------
ORACLE_BATHS = {
    "1": ((0.05, 0.8),),
    "2": ((0.05, 0.8), (0.04, 1.3)),
    "2s": ((0.025, 0.8), (0.02, 1.3)),
    "3": ((0.05, 0.8), (0.04, 1.3), (0.03, 1.9)),
    "3s": ((0.025, 0.8), (0.02, 1.3), (0.015, 1.9)),
}
# (model, bath, fock_cutoff, observable).  A check eigensolves at the
# cutoff and at twice the cutoff; it is small when the larger dimension
# is at most 300 and large when it is at least 500.
ORACLE_SMALL = (
    ("spin", "1", 8, "sigma1x"),  # dims 36, 68
    ("spin", "1", 8, "sigma2x"),
    ("fermion", "1", 8, "fermion_coh1"),  # dims 72, 136
    ("fermion", "1", 8, "fermion_coh2"),
    ("spin", "2s", 3, "sigma1x"),  # dims 64, 196
    ("fermion", "2", 2, "fermion_coh2"),  # dims 72, 200
)
ORACLE_LARGE = (
    ("fermion", "2", 4, "fermion_coh1"),  # dims 200, 648
    ("fermion", "2", 4, "fermion_coh2"),
    ("fermion", "3", 2, "fermion_coh2"),  # dims 216, 1000
    ("spin", "3s", 3, "sigma1x"),  # dims 256, 1372
)
# Small checks are ~30x cheaper than large ones; repeating them keeps
# both classes a real share of a round.
ORACLE_SMALL_REPEATS = 8
ORACLE_BETAS = (4.0, 5.0)
ORACLE_OMEGA2 = (3.0, 3.5)
ORACLE_SMALL_MAX_DIM = 300
ORACLE_LARGE_MIN_DIM = 500

# --- cli_cold ------------------------------------------------------------
CLI_MENUS = {
    "ns_cutoff": (100.0, 50.0),
    "ns_tmax": (0.4, 0.45),
    "fs_betamax": (8.0, 10.0),
    "vm_beta": (1.0, 1.5),
    "oc_beta": (2.0, 3.0),
    "sc_tmax": (0.3, 0.35),
}
CLI_MAP_POINTS = 21
CLI_HELP_REPEATS = 3
CLI_TIMEOUT_S = 120

MENUS = {
    "sweep_T": {"beta_shift": tuple(range(SWEEP_BETA_SHIFTS))},
    "map_plane": {"extent": tuple(range(len(MAP_EXTENTS)))},
    "oracle_dims": {"beta": ORACLE_BETAS, "omega2": ORACLE_OMEGA2},
    "cli_cold": CLI_MENUS,
}

AXIS_COLUMNS = (
    "T_over_omega1",
    "beta_omega1",
    "omega2_over_omega1",
    "t_over_omega1",
    "omega1_over_omegac",
)


def variant(workload: str, seed: int) -> dict:
    """The menu entries a seed selects; the same seed always gives the same."""
    rng = random.Random(f"{workload}/{seed}")
    return {key: rng.choice(options) for key, options in MENUS[workload].items()}


def all_variants(workload: str) -> list:
    """Every variant any seed can select, for reference generation."""
    keys = list(MENUS[workload])
    combos = itertools.product(*(MENUS[workload][k] for k in keys))
    return [dict(zip(keys, combo)) for combo in combos]


def fmt(x) -> str:
    """Stable text form of an input coordinate for operation ids."""
    return "%.10g" % float(x)


@dataclass
class Request:
    """One request of a round: a sweep, a map, an oracle check or a command.

    ``run()`` returns the request's operations as ``(op_id, result)`` pairs.
    ``cls`` is ``"light"`` or ``"heavy"``: the two request classes whose
    per-operation time each workload reports separately.
    """

    kind: str
    label: str
    cls: str
    run: object = field(repr=False)
    cells: int = 0
    serial: object = field(default=None, repr=False)  # map calls: same map, no pool
    inputs: tuple = field(default=(), repr=False)  # oracle checks: (spec, observable)
    # Interpreter-bound requests are scaled by the speed calibration; those
    # bound by dense linear algebra or by process start-up are not (see
    # speed.py).
    scaled: bool = True


@dataclass
class RequestResult:
    request: Request
    seconds: float
    ops: list
    calib_s: float  # mean calibrate() time just before and just after

    @property
    def scaled_seconds(self) -> float:
        """``seconds`` at the nominal machine speed of ``speed.py``, if scaled."""
        if not self.request.scaled:
            return self.seconds
        return self.seconds * speed.NOMINAL_S / self.calib_s


def import_cohex():
    if not (SRC / "cohex" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cohex package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cohex

    if Path(cohex.__file__).resolve().parent != (SRC / "cohex").resolve():
        raise ImportError(f"cohex imported from {cohex.__file__}, not from {SRC}")
    return cohex


def _cells_of(table, n_axes, tag):
    ops = []
    for row in table.rows:
        values = [None if v is None else float(v) for v in row[n_axes:-2]]
        err = None if row[-2] is None else float(row[-2])
        key = tag + "|" + "|".join(fmt(v) for v in row[:n_axes])
        ops.append((key, [values, err, row[-1]]))
    return ops


# ---------------------------------------------------------------------------
# sweep_T
# ---------------------------------------------------------------------------

def _sweep_requests(cohex, v):
    AxisSpec, SweepSpec = cohex.AxisSpec, cohex.SweepSpec
    lo, hi, n = SWEEP_BETA
    shift = ((hi / lo) ** (1.0 / (n - 1))) ** (v["beta_shift"] / SWEEP_BETA_SHIFTS)
    beta = AxisSpec("beta_omega1", lo * shift, hi * shift, n, "log")
    c0 = SWEEP_CUTOFF_START
    cutoff = AxisSpec("omega1_over_omegac", c0, 16.0 * c0, 3, "log")
    params = cohex.ModelParams(*BASE_PARAMS)
    ohmic = cohex.OhmicDensity(1.0, 1.0)
    requests = []
    for quantity, cls in SWEEP_OHMIC:
        spec = SweepSpec(quantity, (beta, cutoff), ohmic, params)
        requests.append(_sweep_request(cohex, spec, f"{quantity}@ohmic", cls))
    for ratio in cutoff.values():
        wc = 1.0 / float(ratio)
        baths = (
            ("generalized", cohex.GeneralizedOhmicDensity(1.0, GENERALIZED_EXPONENT, wc)),
            ("tabulated", _tabulated(cohex, wc)),
        )
        for name, bath in baths:
            spec = SweepSpec("sigma2x", (beta,), bath, params)
            tag = f"sigma2x@{name}(omegac={fmt(wc)})"
            requests.append(_sweep_request(cohex, spec, tag, "light"))
    return requests


def _tabulated(cohex, wc):
    """Ohmic-shaped knots on [0, 8 omegac] with an exponential tail."""
    xi = np.linspace(0.0, 8.0 * wc, TABULATED_KNOTS)
    return cohex.TabulatedDensity(np.column_stack([xi, xi * np.exp(-xi / wc)]), wc)


def _sweep_request(cohex, spec, tag, cls):
    n_axes = len(spec.axes)

    def run():
        table = cohex.run_sweep(spec)
        cohex.emit_csv(table)
        return _cells_of(table, n_axes, tag)

    cells = math.prod(a.points for a in spec.axes)
    return Request("sweep", tag, cls, run, cells)


# ---------------------------------------------------------------------------
# map_plane
# ---------------------------------------------------------------------------

def _map_requests(cohex, v):
    AxisSpec, SweepSpec = cohex.AxisSpec, cohex.SweepSpec
    b, a = MAP_BETA, MAP_CUTOFF_RATIO
    w2_max, t_max = MAP_EXTENTS[v["extent"]]
    w2 = np.linspace(0.0, w2_max, MAP_POINTS)
    ts = np.linspace(0.0, t_max, MAP_POINTS)
    requests = [_map_request(cohex, which, b, a, w2, ts) for which in ("r1", "r2")]
    axes = (
        AxisSpec("beta_omega1", b, b, 1),
        AxisSpec("omega1_over_omegac", a, a, 1),
        AxisSpec("omega2_over_omega1", 0.0, w2_max, PLANE_POINTS),
        AxisSpec("t_over_omega1", 0.0, t_max, PLANE_POINTS),
    )
    params = cohex.ModelParams(*BASE_PARAMS)
    for which in ("r1", "r2"):
        spec = SweepSpec(which, axes, cohex.OhmicDensity(1.0, 1.0), params)
        tag = f"{which}@plane(beta={fmt(b)},a={fmt(a)})"
        requests.append(_sweep_request(cohex, spec, tag, "heavy"))
    return requests


def _map_request(cohex, which, b, a, w2, ts):
    name = f"{which}_map"  # looked up per call, so a traced round sees the wrapper
    tag = f"{name}(beta={fmt(b)},a={fmt(a)})"

    def run():
        table = getattr(cohex, name)(a, b, w2, ts, jobs=JOBS)
        cohex.emit_csv(table)
        return _cells_of(table, 2, tag)

    def serial():
        getattr(cohex, name)(a, b, w2, ts)

    return Request("map", tag, "light", run, len(w2) * len(ts), serial)


# ---------------------------------------------------------------------------
# oracle_dims
# ---------------------------------------------------------------------------

def oracle_spec(cohex, model, bath_key, cutoff, beta, omega2):
    bath = cohex.DiscreteDensity(ORACLE_BATHS[bath_key])
    params = cohex.ModelParams(1.0, omega2, 0.001, 0.1, 0.1)
    return cohex.OracleSpec(bath, cutoff, model, params, beta)


def oracle_dims(model, bath_key, cutoff):
    """Hilbert dimensions a check eigensolves: at the cutoff and twice it."""
    system = 4 if model == "spin" else 8
    modes = len(ORACLE_BATHS[bath_key])
    return system * (cutoff + 1) ** modes, system * (2 * cutoff + 1) ** modes


def oracle_dim_sets() -> tuple:
    """(dimensions of the small checks, dimensions of every check)."""
    def dims(checks):
        return sorted({d for model, bath, cutoff, _ in checks for d in oracle_dims(model, bath, cutoff)})

    return dims(ORACLE_SMALL), dims(ORACLE_SMALL + ORACLE_LARGE)


def oracle_result(cohex, spec, observable):
    """What ``cohex oracle-check`` computes for one spec, as a result dict."""
    exact, formula, rel_dev = cohex.compare_perturbative(spec, observable)
    fit = cohex.convergence_order(spec, observable)
    ok = not fit.inconclusive and math.isfinite(fit.order)
    return {
        "exact": exact,
        "formula": formula,
        "rel_dev": rel_dev,
        "order": fit.order if ok else None,
        "status": "ok" if ok else "inconclusive-fit",
    }


def _oracle_requests(cohex, v):
    requests = []
    checks = [(c, "light") for c in ORACLE_SMALL] * ORACLE_SMALL_REPEATS
    checks += [(c, "heavy") for c in ORACLE_LARGE]
    for (model, bath_key, cutoff, observable), cls in checks:
        spec = oracle_spec(cohex, model, bath_key, cutoff, v["beta"], v["omega2"])
        tag = (
            f"{model}|bath={bath_key}|cutoff={cutoff}|{observable}"
            f"|beta={fmt(v['beta'])}|omega2={fmt(v['omega2'])}"
        )
        requests.append(_oracle_request(cohex, spec, observable, tag, cls))
    return requests


def _oracle_request(cohex, spec, observable, tag, cls):
    def run():
        return [(tag, oracle_result(cohex, spec, observable))]

    # Large checks are eigensolver-bound, small ones interpreter-bound.
    return Request(
        "check", tag, cls, run, 1, inputs=(spec, observable), scaled=cls == "light"
    )


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def cli_commands(v) -> list:
    """(subcommand, argv) of one session: the README's commands, seeded.

    ``--help`` runs ``CLI_HELP_REPEATS`` times: it is the start-up probe,
    and one fresh process is too noisy a sample.
    """
    return [("help", ["--help"])] * CLI_HELP_REPEATS + [
        ("selftest", ["selftest"]),
        ("spin-sweep", [
            "spin-sweep", "--set", "quantity=normalized_spin",
            "--set", f"omega1_over_omegac={fmt(v['ns_cutoff'])}",
            "--set", f"T=0.05:{fmt(v['ns_tmax'])}:24:log",
            "--set", "omega2_over_omega1=3",
        ]),
        ("fermion-sweep", [
            "fermion-sweep", "--set", "quantity=sigma2x_fermion",
            "--set", f"beta_omega1=0.5:{fmt(v['fs_betamax'])}:12:log",
            "--set", "omega2_over_omega1=2:4:3",
        ]),
        ("validity-map", [
            "validity-map", "--which", "r2", "--set", "omega1_over_omegac=1",
            "--set", f"beta_omega1={fmt(v['vm_beta'])}",
            "--set", f"points={CLI_MAP_POINTS}", "--jobs", str(JOBS),
        ]),
        ("oracle-check", [
            "oracle-check", "--model", "spin", "--observable", "sigma1x",
            "--set", f"beta_omega1={fmt(v['oc_beta'])}",
        ]),
        ("static-compare", [
            "static-compare", "--set", f"T_over_omega1=0.05:{fmt(v['sc_tmax'])}:12:log",
        ]),
    ]


def cli_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_cli(argv) -> tuple:
    """Run ``python -m cohex argv`` as a fresh process: (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "cohex", *argv],
        cwd=ROOT,
        env=cli_env(),
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.decode("utf-8", "replace")


def parse_cli_output(sub: str, code: int, stdout: str) -> dict:
    """The CLI result in reference form: exit code plus parsed content."""
    if sub == "help":
        return {"code": code, "usage": stdout.startswith("usage:")}
    if sub == "selftest":
        return {"code": code, "lines": stdout.splitlines()}
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if not rows:
        return {"code": code, "rows": {}}
    header, body = rows[0], rows[1:]
    axes = [i for i, name in enumerate(header) if name in AXIS_COLUMNS]
    cells = {}
    for row in body:
        rec = dict(zip(header, row))
        key = "|".join(fmt(row[i]) for i in axes) or "row"
        if sub == "oracle-check":
            cells[key] = {
                name: (None if rec[name] == "" else float(rec[name]))
                for name in ("exact", "formula", "rel_dev", "order")
            }
            cells[key]["status"] = rec["status"]
            continue
        value_cols = [
            i for i, name in enumerate(header)
            if i not in axes and name not in ("err_estimate", "status")
        ]
        values = [None if row[i] == "" else float(row[i]) for i in value_cols]
        err = rec.get("err_estimate", "")
        cells[key] = [values, None if err == "" else float(err), rec["status"]]
    return {"code": code, "rows": cells}


def _cli_requests(v):
    requests = []
    for sub, argv in cli_commands(v):
        tag = sub + "|" + " ".join(argv[1:])
        cls = "light" if sub == "help" else "heavy"
        requests.append(Request("command", tag, cls, _cli_request(sub, argv, tag), 1, scaled=False))
    return requests


def _cli_request(sub, argv, tag):
    def run():
        code, stdout = run_cli(argv)
        return [(tag, parse_cli_output(sub, code, stdout))]

    return run


# ---------------------------------------------------------------------------
# Building, warming up and measuring
# ---------------------------------------------------------------------------

def build(workload: str, v: dict, cohex) -> list:
    """The requests of one round for the given variant."""
    if workload == "cli_cold":
        return _cli_requests(v)
    if workload == "sweep_T":
        return _sweep_requests(cohex, v)
    if workload == "map_plane":
        return _map_requests(cohex, v)
    if workload == "oracle_dims":
        return _oracle_requests(cohex, v)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, cohex) -> None:
    """One cheap operation of each kind, so lazy set-up is not timed."""
    if workload == "cli_cold":
        import cohex.cli  # noqa: F401  (the CLI's own imports)
        return
    AxisSpec, SweepSpec = cohex.AxisSpec, cohex.SweepSpec
    params = cohex.ModelParams(*BASE_PARAMS)
    ohmic = cohex.OhmicDensity(1.0, 1.0)
    beta = AxisSpec("beta_omega1", 2.0, 2.0, 1)
    if workload == "sweep_T":
        for quantity, _ in SWEEP_OHMIC:
            cohex.emit_csv(cohex.run_sweep(SweepSpec(quantity, (beta,), ohmic, params)))
        for bath in (cohex.GeneralizedOhmicDensity(1.0, 0.5, 1.0), _tabulated(cohex, 1.0)):
            cohex.run_sweep(SweepSpec("sigma2x", (beta,), bath, params))
    elif workload == "map_plane":
        cohex.emit_csv(cohex.r1_map(1.0, 1.0, [0.0, 2.0], [0.0, 1.0]))
        cohex.r2_map(1.0, 1.0, [2.0], [1.0])
        for which in ("r1", "r2"):
            cohex.run_sweep(SweepSpec(which, (beta,), ohmic, params))
    elif workload == "oracle_dims":
        spec = oracle_spec(cohex, *ORACLE_SMALL[0][:3], ORACLE_BETAS[0], ORACLE_OMEGA2[0])
        oracle_result(cohex, spec, ORACLE_SMALL[0][3])


def setup(workload: str, seed: int):
    """Import the program, build the seed's inputs and warm them up."""
    cohex = import_cohex()
    requests = build(workload, variant(workload, seed), cohex)
    warm_up(workload, cohex)
    return requests


SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.setup(sys.argv[2], int(sys.argv[3]))"
)


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that only sets the workload up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(BENCH), workload, str(seed)],
        cwd=ROOT,
        check=True,
        timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - start


def run_round(requests, tracer=None) -> list:
    """Run every request once, closed-loop; the timing covers only the call.

    A machine-speed calibration runs between requests, outside the timing.
    """
    results = []
    before = speed.calibrate()
    for req in requests:
        if tracer is not None:
            tracer.begin_request(req)
        start = time.perf_counter()
        try:
            ops = req.run()
        except Exception as exc:  # a raising request fails all its operations
            ops = [(req.label, {"raised": repr(exc)})] * max(req.cells, 1)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request(req, ops)
        after = speed.calibrate()
        results.append(RequestResult(req, seconds, ops, 0.5 * (before + after)))
        before = after
    return results


def class_times(workload: str, requests, seconds, ops) -> dict:
    """Per class: (seconds, operations) of a round, given each request's time.

    On ``cli_cold`` the light class is the ``--help`` start-up and the
    heavy class is the whole session, as one operation.
    """
    if workload == "cli_cold":
        helps = [s for req, s in zip(requests, seconds) if req.cls == "light"]
        return {"light": (sum(helps), len(helps)), "heavy": (sum(seconds), 1)}
    out = {"light": [0.0, 0], "heavy": [0.0, 0]}
    for req, s, n in zip(requests, seconds, ops):
        out[req.cls][0] += s
        out[req.cls][1] += n
    return {k: tuple(v) for k, v in out.items()}
