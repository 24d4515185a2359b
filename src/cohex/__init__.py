"""Closed-form steady-state coherences of a two-spin chain and its
fermionized image, with cross-validation against exact small systems.

The package evaluates the stationary coherences of two coupled spins
where the first one talks to a bosonic bath, in both the original spin
variables and the fermion variables reached by a Jordan-Wigner
transformation.  Alongside the closed forms it carries validity
diagnostics, parameter sweeps, and a brute-force single-mode oracle
used to check every formula against exact diagonalization.

``import cohex`` loads no numpy: the public names below bind on first
use (PEP 562).  An exception name (``cohex.CohexError``) loads ``errors``
alone, with no numpy.  Any other name, or a submodule such as
``cohex.numerics``, imports every module of the table at once, so the
package namespace is then the one an eager import would have built (the
benchmark's tracer, ``bench/tracing.py``, relies on it).
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them, in import order.
_EXPORTS = {
    "errors": (
        "CohexError",
        "ConvergenceError",
        "CrossFormError",
        "DegenerateBasisError",
        "DomainError",
        "EigensolverError",
        "HermiticityError",
        "KernelError",
        "NearResonanceError",
        "OracleSizeError",
        "SectorError",
        "UnsupportedOperationError",
    ),
    # configuration and baths
    "numerics": ("DEFAULT_QUADRATURE", "QuadratureConfig"),
    "spectral": (
        "SpectralDensity",
        "OhmicDensity",
        "GeneralizedOhmicDensity",
        "DiscreteDensity",
        "TabulatedDensity",
    ),
    # model and spin coherences
    "spin_detuned": (
        "ModelParams",
        "ThermalPoint",
        "CoherenceResult",
        "sigma1x",
        "sigma2x",
        "sigma2y",
        "sigma2x_low_T",
        "high_T_asymptotes",
        "static_chain",
        "static_sigma2x",
        "static_compare",
        "static_dynamical_split",
        "normalized_output_ratio",
        "normalized_coherences_spin",
    ),
    "spin_general": ("sigma1x_general", "sigma2x_general", "r1_value", "r2_value"),
    # fermionized chain
    "fermion": (
        "sigma1x_fermion",
        "sigma2x_fermion",
        "hartree_fock",
        "ratio_R",
        "g_script",
        "fermion_high_T",
        "normalized_fermion",
    ),
    "oracle": (
        "OracleSpec",
        "exact_average",
        "formula_value",
        "compare_perturbative",
        "convergence_order",
        "jw_residual",
    ),
    # sweeps and tables
    "sweep": ("AxisSpec", "SweepSpec", "run_sweep", "r1_map", "r2_map"),
    "table": ("SweepTable", "emit", "emit_csv", "emit_json", "parse_csv"),
}

__all__ = ["__version__"] + [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    if not (name in __all__ or name in _EXPORTS):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    alone = name == "errors" or name in _EXPORTS["errors"]
    for module in ("errors",) if alone else _EXPORTS:
        loaded = importlib.import_module(f"{__name__}.{module}")
        for public in _EXPORTS[module]:
            namespace[public] = getattr(loaded, public)
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
