"""Tests of the benchmark itself (not of cohex).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from stats import median, percentile  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    names = list(run.END_TO_END_UNITS) + list(run.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_lists_what_the_runs_print():
    spec = benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_units()[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_checker_accepts_a_value_within_its_error():
    ref = [[1.0, 2.0], 1e-6, "ok"]
    assert checks.cell_failure(ref, [[1.0 + 1.5e-6, 2.0], 1e-6, "ok"]) is None


def test_checker_flags_a_value_beyond_its_error():
    ref = [[1.0, 2.0], 1e-6, "ok"]
    why = checks.cell_failure(ref, [[1.0, 2.0 + 3e-6], 1e-6, "ok"])
    assert why and "off reference" in why


def test_checker_flags_a_value_reported_without_error_beyond_the_floor():
    ref = [[0.5], 0.0, "ok"]
    assert checks.cell_failure(ref, [[0.5 * (1 + 0.5 * checks.REL_FLOOR)], 0.0, "ok"]) is None
    assert checks.cell_failure(ref, [[0.5 * (1 + 2 * checks.REL_FLOOR)], 0.0, "ok"])


def test_checker_flags_a_changed_status_word():
    ref = [[None], None, "invalid-params"]
    assert checks.cell_failure(ref, [[None], None, "invalid-params"]) is None
    why = checks.cell_failure(ref, [[0.1], 0.0, "ok"])
    assert why and "status" in why


def test_checker_flags_a_blank_where_a_value_was():
    ref = [[0.25], 1e-12, "ok"]
    assert checks.cell_failure(ref, [[None], None, "ok"])


def test_oracle_checker_uses_the_stored_tolerances():
    ref = {
        "exact": 1.0, "exact_tol": 1e-9, "formula": 1.1, "formula_tol": 1e-9,
        "rel_dev": 0.09, "rel_dev_tol": 1e-8, "order": 2.0, "order_tol": 0.01,
        "status": "ok",
    }
    got = {k: ref[k] for k in ("exact", "formula", "rel_dev", "order", "status")}
    assert checks.oracle_failure(ref, got) is None
    assert checks.oracle_failure(ref, dict(got, exact=1.0 + 2e-9))
    assert checks.oracle_failure(ref, dict(got, order=2.02))
    assert checks.oracle_failure(ref, dict(got, status="inconclusive-fit", order=None))


def test_checker_flags_a_wrong_exit_code_and_a_raising_request():
    ref = {"code": 0, "usage": True}
    assert checks.cli_failure(ref, {"code": 0, "usage": True}, "help|") is None
    assert checks.cli_failure(ref, {"code": 1, "usage": True}, "help|")
    reference = {"ops": {"x": [[1.0], 0.0, "ok"]}}
    assert checks.op_failure("sweep_T", "x", {"raised": "ValueError()"}, reference)
    assert checks.op_failure("sweep_T", "unknown", [[1.0], 0.0, "ok"], reference)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_one_seed_always_gives_the_same_inputs(workload):
    assert wl.variant(workload, 7) == wl.variant(workload, 7)
    assert wl.variant(workload, 7) in wl.all_variants(workload)
    cohex = wl.import_cohex()
    first = wl.build(workload, wl.variant(workload, 7), cohex)
    again = wl.build(workload, wl.variant(workload, 7), cohex)
    assert [(r.kind, r.label, r.cls, r.cells) for r in first] == [
        (r.kind, r.label, r.cls, r.cells) for r in again
    ]


def test_every_seed_input_has_a_reference():
    cohex = wl.import_cohex()
    for workload in ("oracle_dims", "cli_cold"):
        ops = checks.load_reference(workload)["ops"]
        for v in wl.all_variants(workload):
            for req in wl.build(workload, v, cohex):
                assert req.label in ops, req.label


def test_oracle_check_classes_match_their_dimension_limits():
    for model, bath, cutoff, _ in wl.ORACLE_SMALL:
        assert max(wl.oracle_dims(model, bath, cutoff)) <= wl.ORACLE_SMALL_MAX_DIM
    for model, bath, cutoff, _ in wl.ORACLE_LARGE:
        assert max(wl.oracle_dims(model, bath, cutoff)) >= wl.ORACLE_LARGE_MIN_DIM


def test_percentiles_need_ten_samples_beyond_them():
    assert percentile(list(range(91)), 0.9) is None  # 9 samples above position 81
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert percentile([5.0], 0.5) == 5.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_T", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
