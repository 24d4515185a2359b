"""Fast invariant checks behind ``cohex selftest``, one line per check.

Each check evaluates a relation the closed forms satisfy exactly (or to
a stated tolerance) at one small fixed point: the transfer relation,
the spin-fermion identity, the static bound, an oracle comparison and
a table round trip.
"""

from __future__ import annotations

import math

from .fermion import sigma1x_fermion, sigma2x_fermion
from .numerics import thermal_tanh_half
from .oracle import OracleSpec, compare_perturbative, exact_average
from .spectral import DiscreteDensity, OhmicDensity
from .spin_detuned import (
    ModelParams,
    ThermalPoint,
    normalized_coherences_spin,
    sigma1x,
    sigma2x,
    static_dynamical_split,
)
from .spin_general import r1_value
from .table import STATUS_OK, SweepTable, emit_csv, parse_csv

__all__ = ["run"]


class _CheckFailure(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise _CheckFailure(message)


def _check_transfer_ohmic():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = OhmicDensity(0.7, 1.3)
    tp = ThermalPoint(2.0)
    s1 = sigma1x(p, sd, tp).value
    s2 = sigma2x(p, sd, tp).value
    resid = abs(s2 + (p.t / p.omega2) * thermal_tanh_half(tp.beta, p.omega2) * s1)
    _require(resid <= 1e-12 * abs(s2), f"transfer residual {resid:.3e}")


def _check_transfer_discrete_zero_T():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = DiscreteDensity([(0.05, 0.8), (0.02, 1.7)])
    tp = ThermalPoint(math.inf)
    s1 = sigma1x(p, sd, tp).value
    s2 = sigma2x(p, sd, tp).value
    resid = abs(s2 + (p.t / p.omega2) * s1)
    _require(resid <= 1e-12 * abs(s2), f"transfer residual {resid:.3e}")


def _check_spin_fermion_identity():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = OhmicDensity(0.7, 1.3)
    tp = ThermalPoint(2.0)
    spin = sigma1x(p, sd, tp).value
    ferm = sigma1x_fermion(p, sd, tp).value
    omega, _ = sd.reorganization_omega()  # closed form: exact
    shift = 4.0 * p.f1 * p.f2 * omega
    mapped = 2.0 * ferm - shift * thermal_tanh_half(tp.beta, p.omega1) / p.omega1
    resid = abs(spin - mapped)
    _require(resid <= 1e-12 * abs(spin), f"identity residual {resid:.3e}")


def _check_fermion_zero_T_transfer():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = OhmicDensity(0.7, 1.3)
    tp = ThermalPoint(math.inf)
    s2 = sigma2x_fermion(p, sd, tp).value
    s1 = sigma1x_fermion(p, sd, tp).value
    _require(s2 == (p.t / p.omega2) * s1, "zero-T transfer is not exact")


def _check_fermion_dual_form():
    p = ModelParams(1.0, 3.0, 0.1, 1.0, 1.0)
    result = sigma2x_fermion(p, OhmicDensity(1.0, 1.0), ThermalPoint(2.0))
    reference = 2.444942159528389e-02
    rel = abs(result.value - reference) / abs(reference)
    _require(rel <= 1e-9, f"reference value off by {rel:.3e}")
    _require(result.flags == (), f"unexpected flags {result.flags}")


def _check_ratio_edge():
    p = ModelParams(1.0, 2.0, 1e-4, 1.0, 1.0)
    r = r1_value(p, OhmicDensity(1.0, 1.0), ThermalPoint(1.0)).value
    _require(abs(r - 1.0) <= 1e-3, f"small-hopping ratio {r!r}")


def _check_static_bound():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    sd = OhmicDensity(0.7, 1.3)
    static, dynamical = static_dynamical_split(p, sd, None).values
    full = sigma2x(p, sd, ThermalPoint(math.inf)).value
    _require(dynamical <= 0.0, f"dynamical term {dynamical!r} is positive")
    resid = abs(static + dynamical - full)
    _require(resid <= 1e-10 * abs(full), f"split residual {resid:.3e}")


def _check_low_T_saturation():
    p = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
    n1, n2 = normalized_coherences_spin(p, OhmicDensity(1.0, 1.0), ThermalPoint(60.0)).values
    _require(abs(n1 - 1.0) <= 0.02, f"normalized internal coherence {n1!r}")
    _require(abs(n2 - 1.0) <= 0.02, f"normalized output coherence {n2!r}")


def _check_oracle_sigma2y():
    spec = OracleSpec(
        DiscreteDensity([(0.05, 0.8)]), 8, "spin",
        ModelParams(1.0, 3.0, 0.05, 0.1, 0.1), 2.0,
    )
    value = exact_average(spec, "sigma2y")
    _require(abs(value) <= 1e-10, f"sigma2y = {value!r}")


def _check_oracle_sigma1x():
    spec = OracleSpec(
        DiscreteDensity([(0.05, 0.8)]), 10, "spin",
        ModelParams(1.0, 3.0, 0.05, 0.1, 0.1), 2.0,
    )
    _, _, rel_dev = compare_perturbative(spec, "sigma1x")
    _require(rel_dev <= 5e-3, f"relative deviation {rel_dev:.3e}")


def _check_table_round_trip():
    table = SweepTable(
        ("a", "b", "status"),
        [(1.0, None, "kernel-error"), (0.5, -2.0e-7, STATUS_OK)],
        {"note": "round trip"},
    )
    data = emit_csv(table)
    again = emit_csv(parse_csv(data))
    _require(data == again, "CSV round trip changed the table")


CHECKS = (
    ("transfer relation, ohmic bath", _check_transfer_ohmic),
    ("transfer relation, discrete bath at T=0", _check_transfer_discrete_zero_T),
    ("spin-fermion internal coherence identity", _check_spin_fermion_identity),
    ("fermion zero-T transfer", _check_fermion_zero_T_transfer),
    ("fermion dual-form reference point", _check_fermion_dual_form),
    ("general/detuned ratio at small hopping", _check_ratio_edge),
    ("static term bounds the zero-T output", _check_static_bound),
    ("normalized coherences saturate at low T", _check_low_T_saturation),
    ("oracle: sigma2y vanishes", _check_oracle_sigma2y),
    ("oracle: sigma1x matches exact diagonalization", _check_oracle_sigma1x),
    ("table CSV round trip", _check_table_round_trip),
)


def run():
    """Run every check: (report bytes, exit code 0 or 2)."""
    lines = []
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:
            failures += 1
            lines.append(f"FAIL - {name}: {exc}")
        else:
            lines.append(f"ok - {name}")
    total = len(CHECKS)
    lines.append(f"{total - failures}/{total} checks passed")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    return data, (0 if failures == 0 else 2)
