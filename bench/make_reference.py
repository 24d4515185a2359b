#!/usr/bin/env python3
"""Write the per-operation references the benchmark checks results against.

    python3 bench/make_reference.py [workload ...]

Runs one round of every variant a seed can select (``workloads.all_variants``)
and stores each operation's result in ``bench/reference/<workload>.json``.
Run it only at a commit whose results are trusted; a later change that
moves a value by more than its ``err_estimate`` or changes a status word is
then reported as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
import sys

import checks
import workloads as wl

SCALE_FACTORS = (1.0, 0.5, 0.25)  # convergence_order's default

# The oracle-check defaults of the CLI, for the in-process tolerance of its row.
CLI_ORACLE = {
    "omega2": 3.0, "t": 0.001, "f": 0.1, "modes": ((0.05, 0.8),), "fock_cutoff": 14,
    "model": "spin", "observable": "sigma1x",
}


def _dev_and_tol(cohex, spec, observable):
    """(exact, exact_tol, formula, formula_tol, rel_dev, rel_dev_tol) of a spec.

    The exact value's error is its shift when the boson cutoff doubles,
    the figure the oracle admits a value on.  rel_dev = |e - f| / max(|e|, |f|)
    moves by at most twice the summed errors over the scale.
    """
    base = cohex.exact_average(spec, observable)
    refined = cohex.exact_average(
        dataclasses.replace(spec, fock_cutoff=2 * spec.fock_cutoff), observable
    )
    formula = cohex.formula_value(spec, observable)
    exact_tol = 2.0 * abs(refined - base) + checks.REL_FLOOR * abs(refined)
    formula_tol = checks.REL_FLOOR * abs(formula)
    scale = max(abs(refined), abs(formula))
    rel_dev = abs(refined - formula) / scale
    return refined, exact_tol, formula, formula_tol, rel_dev, 2.0 * (exact_tol + formula_tol) / scale


def oracle_reference(cohex, spec, observable) -> dict:
    """The oracle result of a spec with a tolerance for each of its numbers."""
    result = wl.oracle_result(cohex, spec, observable)
    _, exact_tol, _, formula_tol, _, rel_dev_tol = _dev_and_tol(cohex, spec, observable)
    # order is the least-squares slope of log(rel_dev) against log(s).
    xs = [math.log(s) for s in SCALE_FACTORS]
    mean = sum(xs) / len(xs)
    sxx = sum((x - mean) ** 2 for x in xs)
    order_tol = 0.0
    for s, x in zip(SCALE_FACTORS, xs):
        p = spec.params
        scaled = dataclasses.replace(
            spec, params=dataclasses.replace(p, f1=s * p.f1, f2=s * p.f2)
        )
        dev, dev_tol = _dev_and_tol(cohex, scaled, observable)[4:]
        order_tol += abs(x - mean) / sxx * dev_tol / dev
    result.update(
        exact_tol=exact_tol, formula_tol=formula_tol,
        rel_dev_tol=rel_dev_tol, order_tol=order_tol,
    )
    return result


def cli_reference(cohex, sub, result, v) -> dict:
    if sub != "oracle-check":
        return result
    c = CLI_ORACLE
    spec = cohex.OracleSpec(
        cohex.DiscreteDensity(c["modes"]), c["fock_cutoff"], c["model"],
        cohex.ModelParams(1.0, c["omega2"], c["t"], c["f"], c["f"]), v["oc_beta"],
    )
    ref = oracle_reference(cohex, spec, c["observable"])
    row = result["rows"]["row"]
    why = checks.oracle_failure(ref, row)
    if why:
        raise SystemExit(f"oracle-check output disagrees with the in-process spec: {why}")
    ref.update(row)
    result["rows"]["row"] = ref
    return result


def make(workload: str, cohex) -> dict:
    ops = {}
    variants = wl.all_variants(workload)
    for v in variants:
        requests = wl.build(workload, v, cohex)
        for req in requests:
            if req.kind in ("check", "command") and req.label in ops:
                continue  # the same check or command in another variant
            if workload == "oracle_dims":
                results = [(req.label, oracle_reference(cohex, *req.inputs))]
            else:
                results = req.run()
            for op_id, result in results:
                if workload == "oracle_dims" and result["status"] != "ok":
                    raise SystemExit(f"{op_id}: oracle status {result['status']}")
                if workload == "cli_cold":
                    result = cli_reference(cohex, op_id.split("|", 1)[0], result, v)
                previous = ops.get(op_id)
                if previous is not None and checks.op_failure(
                    workload, op_id, result, {"ops": {op_id: previous}}
                ):
                    raise SystemExit(f"{op_id}: two variants disagree")
                ops[op_id] = result
        print(f"{workload} {v}: {len(ops)} operations so far", file=sys.stderr)
    import numpy

    return {
        "workload": workload,
        "made_with": {
            "cohex": cohex.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "variants": variants,
        "ops": ops,
    }


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(wl.WORKLOADS)
    cohex = wl.import_cohex()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        reference = make(name, cohex)
        path = checks.reference_path(name)
        path.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(reference['ops'])} operations)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
