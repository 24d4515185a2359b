"""Import graph: scipy never loads, numpy and each command's modules only
where used, and the process pool only for a pooled grid.

scipy costs about 0.6 s to import and the CLI is import-bound, so the
command line and every bath family, tabulated baths included, must run
without it.  The CLI's help, ``--version`` and usage errors, and a bare
``import cohex``, load no numpy and no numerical module; a command loads
the modules it runs.  Each check runs in a fresh interpreter so the test
process's own imports cannot hide a regression.
"""

import json
import os
import subprocess
import sys

import pytest

import cohex
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

assert GeneralizedOhmicDensity(1.0, 0.5, 2.0).reorganization_omega()[0] > 0.0
spec = OracleSpec(DiscreteDensity([(0.05, 0.8)]), 6, "spin", params, 2.0)
compare_perturbative(spec, "sigma2y")
assert heavy() == [], ("scipy-free paths", heavy())

tabulated = TabulatedDensity([(0.5, 0.2), (1.0, 0.3), (2.0, 0.1)], tail_decay=1.0)
table = run_sweep(SweepSpec("sigma2x", beta, tabulated, params))
assert table.all_ok()
assert heavy() == [], ("tabulated bath", heavy())

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


FRONT_END = {"cohex", "cohex.__main__", "cohex.cli", "cohex.errors"}

# Runs ``python -m cohex <args>`` (or, given ``--import``, only ``import
# cohex``) and reports its exit code and every module it loaded, however
# loaded: ``-X importtime`` misses modules imported through importlib.
LOADED = r"""
import json, runpy, sys
code = 0
if sys.argv[1:] == ["--import"]:
    import cohex
else:
    try:
        runpy.run_module("cohex", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""


def _loaded(*args):
    """(exit code, modules loaded) of one fresh run of ``LOADED``."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, names = json.loads(proc.stderr.splitlines()[-1])
    return code, set(names)


@pytest.mark.parametrize("args, code", [
    (("--help",), 0),
    (("--version",), 0),
    ((), 1),
    (("no-such-command",), 1),
    (("--import",), 0),
])
def test_front_end_loads_no_numpy(args, code):
    returncode, names = _loaded(*args)
    assert returncode == code
    assert "numpy" not in names
    assert {n for n in names if n.split(".")[0] == "cohex"} <= FRONT_END


def test_oracle_check_loads_no_sweep():
    code, names = _loaded(
        "oracle-check", "--model", "spin", "--observable", "sigma1x",
        "--set", "beta_omega1=2",
    )
    assert code == 0
    assert "cohex.oracle" in names
    assert not names & {"cohex.sweep", "cohex.spin_general", "cohex.selftest"}


def test_sweep_command_loads_no_oracle():
    # The registry imports the public functions it names from their modules;
    # a bare ``from . import fermion`` would go through the package's lazy
    # lookup, which loads every module of the table for any name outside
    # ``errors``.
    code, names = _loaded("spin-sweep", "--set", "quantity=sigma2x", "--set", "beta_omega1=2")
    assert code == 0
    assert "cohex.sweep" in names
    assert not names & {"cohex.oracle", "cohex.selftest"}


LOOKUP = r"""
import json, sys
import cohex
cohex.CohexError, cohex.DomainError
first = sorted(sys.modules)
cohex.ModelParams
print(json.dumps([first, sorted(sys.modules)]))
"""


def test_an_exception_name_loads_only_its_module():
    proc = subprocess.run(
        [sys.executable, "-c", LOOKUP], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    first, then = (set(names) for names in json.loads(proc.stdout))
    assert "numpy" not in first
    assert {n for n in first if n.split(".")[0] == "cohex"} == {"cohex", "cohex.errors"}
    # Any other name still loads the whole table.
    assert {f"cohex.{module}" for module in cohex._EXPORTS} <= then


def test_every_public_name_resolves():
    for name in cohex.__all__:
        assert getattr(cohex, name) is not None
        assert name in dir(cohex)
    for module, names in cohex._EXPORTS.items():
        for name in names:
            assert getattr(cohex, name) is getattr(getattr(cohex, module), name)
    with pytest.raises(AttributeError):
        cohex.no_such_name


# The traced cli_cold benchmark installs its tracer (``bench/tracing.py``)
# in a process that has imported only ``cohex.cli``, before any numerical
# module is loaded: ``install`` then reaches ``cohex.numerics`` through the
# package's lookup, reads seven modules from ``sys.modules``, the four
# density classes' ``weighted_integral`` and every registry entry's
# ``evaluate``.  A change to the lookup or to any of those names fails here.
TRACER = r"""
import sys
sys.path.insert(0, sys.argv[1])
import cohex.cli
assert "numpy" not in sys.modules and "cohex.numerics" not in sys.modules
import cohex
from tracing import Tracer

before = dict(cohex.sweep.QUANTITIES)
tracer = Tracer()
tracer.install(cohex)
assert tracer._restore
assert all(cohex.sweep.QUANTITIES[n] is not q for n, q in before.items())
tracer.uninstall()
assert cohex.sweep.QUANTITIES == before
"""


def test_the_benchmark_tracer_installs_on_a_cli_only_import():
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    proc = subprocess.run(
        [sys.executable, "-c", TRACER, bench], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
