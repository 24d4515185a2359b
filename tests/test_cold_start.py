"""Import graph: scipy and the process pool load only where they are used.

scipy costs about 0.6 s to import and the CLI is import-bound, so the
command line and every code path that does not build a tabulated bath
must run without it; the process-pool machinery loads only for a pooled
grid.  Each check runs in a fresh interpreter so the test process's own
imports cannot hide a regression.
"""

import subprocess
import sys

from cohex.sweep import _usable_cpus

SCRIPT = r"""
import sys

def heavy():
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] == "scipy" or name == "concurrent.futures.process"
    )

import cohex.cli
from cohex.oracle import OracleSpec, compare_perturbative
from cohex.spectral import (
    DiscreteDensity, GeneralizedOhmicDensity, OhmicDensity, TabulatedDensity,
)
from cohex.spin_detuned import ModelParams
from cohex.sweep import AxisSpec, SweepSpec, run_sweep
from cohex.table import emit_csv

params = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
beta = (AxisSpec("beta_omega1", 2.0, 2.0, 1),)
assert heavy() == [], ("import", heavy())

for quantity in ("sigma2x", "sigma2x_fermion"):
    table = run_sweep(SweepSpec(quantity, beta, OhmicDensity(1.0, 10.0), params))
    assert table.all_ok(), quantity
    assert heavy() == [], (quantity, heavy())

assert GeneralizedOhmicDensity(1.0, 0.5, 2.0).reorganization_omega() > 0.0
spec = OracleSpec(DiscreteDensity([(0.05, 0.8)]), 6, "spin", params, 2.0)
compare_perturbative(spec, "sigma2y")
assert heavy() == [], ("scipy-free paths", heavy())

TabulatedDensity([(0.5, 0.2), (1.0, 0.3), (2.0, 0.1)], tail_decay=1.0)
assert "scipy.interpolate" in sys.modules

grid = SweepSpec(
    "sigma2x",
    (AxisSpec("beta_omega1", 0.5, 4.0, 4, "log"),),
    OhmicDensity(1.0, 10.0),
    params,
)
assert emit_csv(run_sweep(grid, jobs=2)) == emit_csv(run_sweep(grid))
print("pooled" if "concurrent.futures.process" in sys.modules else "serial")
"""


def test_scipy_and_pool_load_only_where_used():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    # A pool starts only when this process may use more than one CPU.
    expected = "pooled" if _usable_cpus() > 1 else "serial"
    assert proc.stdout.split() == [expected]
