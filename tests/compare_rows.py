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

It then runs the oracle check of ``bench/workloads.py`` (compare and
fit, as ``cohex oracle-check`` does) on each spec of the benchmark's
oracle_dims checks, for both coherences of the spec's model, and prints
whether each of exact, formula, rel_dev and order moved any bits, and
every status that changed.

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
BENCH = os.path.join(os.path.dirname(HERE), "bench")

CLOSE_PAIR_QUANTITIES = ("hartree_fock", "sigma2x_fermion", "r1", "r2")
ORACLE_COHERENCES = {"spin": ("sigma1x", "sigma2x"), "fermion": ("fermion_coh1", "fermion_coh2")}
ORACLE_FIELDS = ("exact", "formula", "rel_dev", "order")


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


def _oracle_checks():
    """(name, result) of every compared oracle check, as float.hex strings
    and a status, computed with the ``cohex`` on ``sys.path``."""
    import cohex
    from cohex.errors import CohexError
    from workloads import (
        ORACLE_BETAS, ORACLE_LARGE, ORACLE_OMEGA2, ORACLE_SMALL, oracle_result, oracle_spec,
    )

    specs = dict.fromkeys(check[:3] for check in ORACLE_SMALL + ORACLE_LARGE)
    for model, bath_key, cutoff in specs:
        spec = oracle_spec(cohex, model, bath_key, cutoff, ORACLE_BETAS[0], ORACLE_OMEGA2[0])
        for observable in ORACLE_COHERENCES[model]:
            name = f"{model}/bath={bath_key}/cutoff={cutoff}/{observable}"
            try:
                result = oracle_result(cohex, spec, observable)
            except CohexError as exc:
                yield name, {"status": type(exc).__name__}
                continue
            values = {f: None if result[f] is None else float.hex(result[f]) for f in ORACLE_FIELDS}
            yield name, {**values, "status": result["status"]}


def emit():
    """Print every table and oracle check of this tree as one JSON line each."""
    sys.path[:0] = [HERE, BENCH]
    for name, data, n_axes in _tables():
        rows = [line for line in data.decode().splitlines() if not line.startswith("#")]
        print(json.dumps({"name": name, "rows": rows, "axes": n_axes}), flush=True)
    for name, result in _oracle_checks():
        print(json.dumps({"name": f"oracle/{name}", "oracle": result}), flush=True)


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


def compare_oracle(old, new):
    """(one cell per ORACLE_FIELDS entry, status change or None) of one check."""
    cells = []
    for field in ORACLE_FIELDS:
        a, b = old.get(field), new.get(field)
        if a == b:
            cells.append("same")
        elif a is None or b is None:
            cells.append(f"{a} -> {b}")
        else:
            x, y = float.fromhex(a), float.fromhex(b)
            cells.append(f"moved (rel {abs(y - x) / max(abs(x), abs(y)):.3g})")
    status = None if old["status"] == new["status"] else f"{old['status']} -> {new['status']}"
    return cells, status


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
    tables = {name: t for name, t in old.items() if "rows" in t}
    for name, table in tables.items():
        moved, worst, statuses = compare(table, new[name])
        changed += bool(statuses)
        print(f"| {name} | {len(table['rows']) - 1} | {_digest(table['rows'])[:12]} "
              f"| {_digest(new[name]['rows'])[:12]} | {moved} | {worst:.3g} "
              f"| {'; '.join(statuses) or 'none'} |")
    print()
    print("| oracle check | " + " | ".join(ORACLE_FIELDS) + " | status change |")
    print("| --- |" + " --- |" * (len(ORACLE_FIELDS) + 1))
    for name in (name for name in old if name not in tables):
        cells, status = compare_oracle(old[name]["oracle"], new[name]["oracle"])
        changed += status is not None
        print(f"| {name} | " + " | ".join(cells) + f" | {status or 'none'} |")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
