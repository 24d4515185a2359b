"""Compare the output rows of two source trees, digest by digest.

Runs, in each tree, the 41 registry sweeps of ``test_registry_digests``,
the two validity maps of ``test_cli.MAP_SHA256`` and the close-pair grid
(an ohmic bath with omega1/omega_c in {1, 1e-6}, beta omega1 in {0.1, 1,
10} and nine log-spaced omega2/omega1 in [1e-6, 1e-2], for hartree_fock,
sigma2x_fermion, r1 and r2), and prints one line per table: its SHA-256
in each tree, the rows whose bytes moved, the largest |delta| /
err_estimate over their values (against the first tree's estimate) and
every status word that changed.  Re-freezing a digest under the
north-star rule needs that ratio below 1 and no status change.

    python tests/compare_rows.py OLD_ROOT NEW_ROOT

Each root is a checkout holding ``src/cohex``; the cases are read from
this file's own ``tests`` directory, so both trees run the same cases.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

CLOSE_PAIR_QUANTITIES = ("hartree_fock", "sigma2x_fermion", "r1", "r2")


def _tables():
    """(name, csv bytes, number of axis columns) of every compared table,
    computed with the ``cohex`` on ``sys.path``."""
    from cohex.spectral import OhmicDensity
    from cohex.spin_detuned import ModelParams
    from cohex.sweep import AxisSpec, SweepSpec, run_sweep
    from cohex.table import emit_csv
    from test_cli import MAP_ARGS
    from test_registry_digests import AXES, BATH_MAKERS, CASES, PARAMS

    for bath, quantity in CASES:
        table = run_sweep(SweepSpec(quantity, AXES, BATH_MAKERS[bath](), PARAMS))
        yield f"{bath}/{quantity}", emit_csv(table), len(AXES)
    for which in ("r1", "r2"):
        proc = subprocess.run(
            [sys.executable, "-m", "cohex", "validity-map", "--which", which, *MAP_ARGS],
            capture_output=True, check=False,
        )
        yield f"map/{which}", proc.stdout, 2
    axes = (
        AxisSpec("beta_omega1", 0.1, 10.0, 3, "log"),
        AxisSpec("omega1_over_omegac", 1e-6, 1.0, 2, "log"),
        AxisSpec("omega2_over_omega1", 1e-6, 1e-2, 9, "log"),
    )
    params = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    for quantity in CLOSE_PAIR_QUANTITIES:
        table = run_sweep(SweepSpec(quantity, axes, OhmicDensity(1.0, 1.0), params))
        yield f"close-pair/{quantity}", emit_csv(table), len(axes)


def emit():
    """Print every table of this tree as one JSON line each."""
    sys.path.insert(0, HERE)
    for name, data, n_axes in _tables():
        rows = [line for line in data.decode().splitlines() if not line.startswith("#")]
        print(json.dumps({"name": name, "rows": rows, "axes": n_axes}), flush=True)


def _run(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--emit"],
        env=env, capture_output=True, check=True, text=True,
    ).stdout
    return {t["name"]: t for t in map(json.loads, out.splitlines())}


def _digest(rows):
    return hashlib.sha256("".join(r + "\n" for r in rows).encode()).hexdigest()


def _cells(line):
    return [None if c == "" else c for c in line.split(",")]


def compare(old, new):
    """(rows moved, max |delta|/err_estimate, status changes) of one table."""
    header = _cells(old["rows"][0])
    err_at = header.index("err_estimate")
    moved, worst, statuses = 0, 0.0, []
    for a, b in zip(old["rows"][1:], new["rows"][1:]):
        if a == b:
            continue
        moved += 1
        ca, cb = _cells(a), _cells(b)
        if ca[-1] != cb[-1]:
            statuses.append(f"{','.join(ca[:old['axes']])}: {ca[-1]} -> {cb[-1]}")
        err = float(ca[err_at]) if ca[err_at] is not None else math.nan
        for x, y in zip(ca[old["axes"]:err_at], cb[old["axes"]:err_at]):
            if x is None or y is None:
                continue
            delta = abs(float(y) - float(x))
            if delta:
                worst = max(worst, delta / err if err > 0 else math.inf)
    if len(old["rows"]) != len(new["rows"]):
        statuses.append(f"{len(old['rows'])} -> {len(new['rows'])} lines")
    return moved, worst, statuses


def main(argv):
    if argv[1:] == ["--emit"]:
        emit()
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = _run(argv[1]), _run(argv[2])
    print("| table | rows | sha256 before | sha256 after | rows moved "
          "| max abs(delta)/err_estimate | status changes |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    changed = 0
    for name, table in old.items():
        moved, worst, statuses = compare(table, new[name])
        changed += bool(statuses)
        print(f"| {name} | {len(table['rows']) - 1} | {_digest(table['rows'])[:12]} "
              f"| {_digest(new[name]['rows'])[:12]} | {moved} | {worst:.3g} "
              f"| {'; '.join(statuses) or 'none'} |")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
