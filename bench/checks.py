"""Correctness of benchmark results against the stored references.

References hold, per operation, what the program returned when the
references were made (see ``make_reference.py``).  A result passes when its
status word and exit code match and every value lies within the error the
two results declare, so a refactor that only changes summation order still
passes while a wrong value or a changed status does not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Some values come back with err_estimate 0 although quadrature made them
# (normalized ratios, Hartree/Fock parts, g_script).  Each integral behind
# them meets the requested relative tolerance, so ten times that tolerance
# is their error floor: 1e-10 by default, 1e-7 for the validity maps.
REL_FLOOR = 1e-9
MAP_REL_FLOOR = 1e-6


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def rel_floor(op_id: str) -> float:
    return MAP_REL_FLOOR if ("_map(" in op_id or op_id.startswith("validity-map")) else REL_FLOOR


def cell_failure(ref, got, floor: float = REL_FLOOR):
    """Why a grid cell ``[values, err, status]`` fails its reference, or None."""
    ref_values, ref_err, ref_status = ref
    values, err, status = got
    if status != ref_status:
        return f"status {status!r}, reference {ref_status!r}"
    if len(values) != len(ref_values):
        return f"{len(values)} value columns, reference {len(ref_values)}"
    for r, g in zip(ref_values, values):
        if r is None or g is None:
            if r is not g:
                return f"value {g!r}, reference {r!r}"
            continue
        tol = (ref_err or 0.0) + (err or 0.0) + floor * abs(r)
        if not math.isfinite(g) or abs(g - r) > tol:
            return f"value {g!r} is off reference {r!r} by more than {tol:.3g}"
    return None


def oracle_failure(ref: dict, got: dict):
    """Why an oracle result fails its reference, or None.

    The reference stores a tolerance per number: the exact side's error is
    its cutoff-doubling shift, and rel_dev and the fitted order carry the
    propagated errors of the exact and formula values behind them.
    """
    if got["status"] != ref["status"]:
        return f"status {got['status']!r}, reference {ref['status']!r}"
    for name in ("exact", "formula", "rel_dev", "order"):
        r, g = ref[name], got[name]
        if r is None or g is None:
            if r is not g:
                return f"{name} {g!r}, reference {r!r}"
            continue
        tol = ref[name + "_tol"]
        if not math.isfinite(g) or abs(g - r) > tol:
            return f"{name} {g!r} is off reference {r!r} by more than {tol:.3g}"
    return None


def cli_failure(ref: dict, got: dict, op_id: str):
    """Why a CLI command's result fails its reference, or None."""
    if got["code"] != ref["code"]:
        return f"exit code {got['code']}, reference {ref['code']}"
    if "usage" in ref:
        return None if got["usage"] else "help text does not start with 'usage:'"
    if "lines" in ref:
        return None if got["lines"] == ref["lines"] else "selftest lines differ"
    if set(got["rows"]) != set(ref["rows"]):
        return "row set differs from reference"
    for key, ref_row in ref["rows"].items():
        row = got["rows"][key]
        if isinstance(ref_row, dict):
            why = oracle_failure(ref_row, row)
        else:
            why = cell_failure(ref_row, row, rel_floor(op_id))
        if why:
            return f"row {key}: {why}"
    return None


def op_failure(workload: str, op_id: str, got, reference: dict):
    """Why one operation fails, or None when it matches its reference."""
    if isinstance(got, dict) and "raised" in got:
        return "raised " + got["raised"]
    ref = reference["ops"].get(op_id)
    if ref is None:
        return "no reference for this operation"
    if workload == "oracle_dims":
        return oracle_failure(ref, got)
    if workload == "cli_cold":
        return cli_failure(ref, got, op_id)
    return cell_failure(ref, got, rel_floor(op_id))
