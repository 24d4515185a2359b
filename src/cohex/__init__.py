"""Closed-form steady-state coherences of a two-spin chain and its
fermionized image, with cross-validation against exact small systems.

The package evaluates the stationary coherences of two coupled spins
where the first one talks to a bosonic bath, in both the original spin
variables and the fermion variables reached by a Jordan-Wigner
transformation.  Alongside the closed forms it carries validity
diagnostics, parameter sweeps, and a brute-force single-mode oracle
used to check every formula against exact diagonalization.
"""

from .errors import (
    CohexError,
    ConvergenceError,
    CrossFormError,
    DegenerateBasisError,
    DomainError,
    EigensolverError,
    HermiticityError,
    KernelError,
    NearResonanceError,
    OracleSizeError,
    UnsupportedOperationError,
)
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig
from .spectral import (
    DiscreteDensity,
    GeneralizedOhmicDensity,
    OhmicDensity,
    SpectralDensity,
    TabulatedDensity,
)
from .spin_detuned import (
    CoherenceResult,
    ModelParams,
    ThermalPoint,
    high_T_asymptotes,
    normalized_coherences_spin,
    normalized_output_ratio,
    sigma1x,
    sigma2x,
    sigma2x_low_T,
    sigma2y,
    static_chain,
    static_dynamical_split,
)
from .spin_general import r1_value, r2_value, sigma1x_general, sigma2x_general
from .fermion import (
    fermion_high_T,
    g_script,
    normalized_fermion,
    ratio_R,
    sigma1x_fermion,
    sigma2x_fermion,
)
from .oracle import (
    OracleSpec,
    compare_perturbative,
    convergence_order,
    exact_average,
    formula_value,
    jw_residual,
)
from .sweep import AxisSpec, SweepSpec, r1_map, r2_map, run_sweep
from .table import SweepTable, emit, emit_csv, emit_json, parse_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
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
    "UnsupportedOperationError",
    # configuration and baths
    "DEFAULT_QUADRATURE",
    "QuadratureConfig",
    "SpectralDensity",
    "OhmicDensity",
    "GeneralizedOhmicDensity",
    "DiscreteDensity",
    "TabulatedDensity",
    # model and spin coherences
    "ModelParams",
    "ThermalPoint",
    "CoherenceResult",
    "sigma1x",
    "sigma2x",
    "sigma2y",
    "sigma2x_low_T",
    "high_T_asymptotes",
    "static_chain",
    "static_dynamical_split",
    "normalized_output_ratio",
    "normalized_coherences_spin",
    "sigma1x_general",
    "sigma2x_general",
    "r1_value",
    "r2_value",
    "r1_map",
    "r2_map",
    # fermionized chain
    "sigma1x_fermion",
    "sigma2x_fermion",
    "ratio_R",
    "g_script",
    "fermion_high_T",
    "normalized_fermion",
    # oracle
    "OracleSpec",
    "exact_average",
    "formula_value",
    "compare_perturbative",
    "convergence_order",
    "jw_residual",
    # sweeps and tables
    "AxisSpec",
    "SweepSpec",
    "run_sweep",
    "SweepTable",
    "emit",
    "emit_csv",
    "emit_json",
    "parse_csv",
]
