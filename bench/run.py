#!/usr/bin/env python3
"""cohex benchmark: one workload, measured end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload sweep_T --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout.  Rounds of the
workload run closed-loop for ``--seconds``; every operation is checked
against ``bench/reference/<workload>.json``.  With ``--trace 0`` the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
rounds alternate and the per-layer metrics are reported.  A full
report (machine record, sample counts, failures, notes) is printed first
and written to ``bench/out/``; the last line of standard output is the
result object.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

import checks
import tracing
import workloads as wl
from stats import median

SETUP_REPEATS = 3
PROBE_REPEATS = 3
MIN_ROUNDS = 2
# A traced run stops at this length even if a percentile lacks samples.
TRACE_CAP_S = 100.0
SWEEP_CELL_TARGET = 1000  # traced sweep cells for a p99 with ten beyond it
ORACLE_DIM_TARGET = 100  # traced solves per small-check dimension for a p90
MAX_FAILURES_SHOWN = 20
OUT_DIR = wl.BENCH / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "light_op_ms": "ms",
    "heavy_op_ms": "ms",
    "ops_ok_frac": "1",
    "peak_rss_mb": "MB",
}

CLI_SUBCOMMANDS = tuple(dict.fromkeys(sub for sub, _ in wl.cli_commands(wl.variant("cli_cold", 0))))
SMALL_DIMS, ALL_DIMS = wl.oracle_dim_sets()

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cohex.cli; "
    "print(time.perf_counter() - t)"
)


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "numerics.integrals": "count",
        "numerics.gk_batches": "count",
        "numerics.kernel_points": "count",
        "numerics.points_per_integral": "count",
        "numerics.self_s": "s",
        "numerics.overhead_us_per_batch": "us",
        "kernel.self_s": "s",
        "kernel.ns_per_point": "ns",
        "spectral.weighted_integral_calls": "count",
        "spectral.self_s": "s",
        "spin_detuned.calls": "count",
        "spin_detuned.self_s": "s",
        "spin_general.calls": "count",
        "spin_general.self_s": "s",
        "fermion.calls": "count",
        "fermion.self_s": "s",
        "spin_general.j_integrals_per_cell": "count",
        "fermion.integrals_per_cell": "count",
        "spin_general.map_parallel_efficiency": "1",
        "sweep.cells": "count",
        "sweep.cell_p50_ms": "ms",
        "sweep.cell_p99_ms": "ms",
        "sweep.self_s": "s",
        "table.emit_s": "s",
        "table.bytes": "B",
        "oracle.exact_calls": "count",
    }
    for dim in ALL_DIMS:
        units[f"oracle.exact_p50_ms.dim{dim}"] = "ms"
    for dim in SMALL_DIMS:
        units[f"oracle.exact_p90_ms.dim{dim}"] = "ms"
    units["oracle.formula_s"] = "s"
    units["cli.interpreter_s"] = "s"
    units["cli.import_s"] = "s"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.command_s.{sub}"] = "s"
    units["trace.overhead_frac"] = "1"
    units["trace.self_time_share"] = "1"
    return units


def machine_record() -> dict:
    """What a result depends on beyond the code: cores, versions, BLAS, threads."""
    from importlib import metadata

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Checker:
    """Counts operations and failures against the workload's reference."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = checks.load_reference(workload)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check_round(self, results):
        for r in results:
            for op_id, got in r.ops:
                self.attempted += 1
                why = checks.op_failure(self.workload, op_id, got, self.reference)
                if why:
                    self.failed += 1
                    if len(self.failures) < MAX_FAILURES_SHOWN:
                        self.failures.append(f"{op_id}: {why}")


def run_rounds(requests, checker, seconds):
    """Whole rounds until ``seconds`` have passed, at least ``MIN_ROUNDS``.

    Checking happens between rounds and is not timed.
    """
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(wl.run_round(requests))
        checker.check_round(rounds[-1])
    return rounds


def busy(results) -> float:
    return sum(r.seconds for r in results)


def round_figures(workload, rounds, scaled=True) -> dict:
    """Throughput and per-class time per operation of one composed round.

    Each request's time is its median over the rounds, scaled to nominal
    machine speed (``speed.py``) unless ``scaled`` is false.
    """
    requests = [r.request for r in rounds[0]]
    seconds = [
        median([rnd[i].scaled_seconds if scaled else rnd[i].seconds for rnd in rounds])
        for i in range(len(requests))
    ]
    ops = [len(r.ops) for r in rounds[0]]
    classes = wl.class_times(workload, requests, seconds, ops)
    return {
        "ops_per_s": sum(ops) / sum(seconds),
        "light_op_ms": 1e3 * classes["light"][0] / classes["light"][1],
        "heavy_op_ms": 1e3 * classes["heavy"][0] / classes["heavy"][1],
    }


def end_to_end(workload, rounds, setup_times, checker) -> tuple:
    """End-to-end metrics of the measured rounds, and their sample counts."""
    values = {
        "setup_s": median(setup_times),
        **round_figures(workload, rounds),
        "ops_ok_frac": 1.0 - checker.failed / checker.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {name: len(rounds) for name in ("ops_per_s", "light_op_ms", "heavy_op_ms")}
    samples.update(setup_s=len(setup_times), ops_ok_frac=checker.attempted, peak_rss_mb=1)
    return values, samples


def named_view(workload, values, checker) -> dict:
    """The end-to-end figures under the names each workload was specified with."""
    view = {
        "setup_s": values["setup_s"],
        "ops_failed_frac": checker.failed / checker.attempted,
        "peak_rss_mb": values["peak_rss_mb"],
    }
    light, heavy = values["light_op_ms"], values["heavy_op_ms"]
    if workload == "sweep_T":
        view["sweep_cells_per_s"] = values["ops_per_s"]
    elif workload == "map_plane":
        view["map_cells_per_s"] = 1e3 / light
        view["plane_sweep_cells_per_s"] = 1e3 / heavy
    elif workload == "oracle_dims":
        view["oracle_small_p50_ms"] = light
        view["oracle_large_p50_ms"] = heavy
    else:
        view["cli_startup_p50_s"] = light / 1e3
        view["cli_session_s"] = heavy / 1e3
    return view


def time_python(code, repeats) -> list:
    """Seconds a fresh interpreter takes for ``code``.

    If ``code`` prints a number, that number is the sample; otherwise the
    wall time of the whole process is.
    """
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=wl.ROOT, env=wl.cli_env(),
            capture_output=True, check=True, timeout=wl.CLI_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        text = proc.stdout.decode().strip()
        out.append(float(text) if text else wall)
    return out


def measured_run(args, requests, checker):
    setup_times = [wl.time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    rounds = run_rounds(requests, checker, args.seconds)
    values, samples = end_to_end(args.workload, rounds, setup_times, checker)
    extra = {
        "rounds": len(rounds),
        "named": named_view(args.workload, values, checker),
        "unscaled": round_figures(args.workload, rounds, scaled=False),
        "setup_samples_s": setup_times,
        "calibrate_s": median([r.calib_s for rnd in rounds for r in rnd]),
    }
    return values, END_TO_END_UNITS, samples, [], extra


def traced_run(args, requests, checker):
    tracer = tracing.Tracer()
    cohex = wl.import_cohex()

    def done():
        cells = sum(1 for s in tracer.spans if s[0] == "sweep.cell")
        if 0 < cells < SWEEP_CELL_TARGET:
            return False
        dims = [s[6]["dim"] for s in tracer.spans if s[0] == "oracle.exact_average" and s[6]]
        return not dims or all(dims.count(d) >= ORACLE_DIM_TARGET for d in SMALL_DIMS)

    # Untraced and traced rounds alternate, so drift in the machine's speed
    # hits both sides of trace.overhead_frac alike.
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(wl.run_round(requests))
        checker.check_round(untraced[-1])
        tracer.install(cohex)
        try:
            traced.append(wl.run_round(requests, tracer))
        finally:
            tracer.uninstall()
        checker.check_round(traced[-1])
        elapsed = time.perf_counter() - start
        if len(traced) < MIN_ROUNDS:
            continue
        if elapsed >= TRACE_CAP_S or (elapsed >= args.seconds and done()):
            break

    probes, samples, notes = {}, {}, []
    if args.workload == "map_plane":
        maps = [r for r in requests if r.kind == "map"]
        start = time.perf_counter()
        for req in maps:
            req.serial()
        serial = time.perf_counter() - start
        pooled = median([busy([r for r in rnd if r.request.kind == "map"]) for rnd in untraced])
        probes["spin_general.map_parallel_efficiency"] = serial / (wl.JOBS * pooled)
        notes.append(
            "map calls run on a process pool: their cells are traced at the "
            "map-call boundary only; map_parallel_efficiency compares the "
            "untraced pooled maps with the same maps run serially"
        )
    if args.workload == "cli_cold":
        interpreter = time_python("pass", PROBE_REPEATS)
        imports = time_python(IMPORT_PROBE, PROBE_REPEATS)
        probes["cli.interpreter_s"] = median(interpreter)
        probes["cli.import_s"] = median(imports)
        samples["cli.interpreter_s"] = len(interpreter)
        samples["cli.import_s"] = len(imports)
        notes.append(
            "CLI commands run as fresh processes: they are traced at the "
            "command boundary, and in-process layer metrics are 0 here"
        )

    values, pct_samples, pct_notes = tracing.layer_metrics(tracer, len(traced), ALL_DIMS, SMALL_DIMS)
    samples.update(pct_samples)
    notes += pct_notes
    cmd_values, cmd_samples = tracing.command_metrics(tracer, CLI_SUBCOMMANDS)
    values.update(cmd_values)
    samples.update(cmd_samples)
    for name in ("spin_general.map_parallel_efficiency", "cli.interpreter_s", "cli.import_s"):
        values[name] = probes.get(name, 0.0)
    values["trace.overhead_frac"] = (
        round_figures(args.workload, untraced)["ops_per_s"]
        / round_figures(args.workload, traced)["ops_per_s"] - 1.0
    )
    samples["trace.overhead_frac"] = len(untraced) + len(traced)
    layer_self = sum(tracer.self_time[layer] for layer in tracing.PROGRAM_LAYERS)
    values["trace.self_time_share"] = layer_self / sum(busy(rnd) for rnd in traced)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    extra = {
        "untraced_rounds": len(untraced),
        "traced_rounds": len(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(wl.ROOT)),
    }
    return values, per_layer_units(), samples, notes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        checker = Checker(args.workload)
        requests = wl.setup(args.workload, args.seed)
    except (OSError, ImportError) as exc:
        print(f"error: cannot set the benchmark up: {exc}", file=sys.stderr)
        return 2

    run = traced_run if args.trace else measured_run
    values, units, samples, notes, extra = run(args, requests, checker)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": wl.variant(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "metrics": values,
        "samples": samples,
        "notes": notes,
        "failures": checker.failures,
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=1))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
