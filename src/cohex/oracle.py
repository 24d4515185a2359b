"""Exact diagonalization of desk-scale spin-boson and fermion-boson models.

Dense truncated Hamiltonians over a finite discrete bath give
non-perturbative thermal averages against which every closed-form
coherence in the package can be checked.  The check is quantitative:
the relative deviation between formula and exact value must shrink
quadratically when both bath couplings are rescaled, because the
formulas are second order in f1, f2 and the first neglected
contribution is fourth order.

Both models are system x bath products whose system factor declares its
conserved sectors: the spin model has one (all four states), the
fermion model one per particle number n0 + n1 + n2 (1, 3, 3 and 1 of
its eight states).  Every system operator is checked to be exactly zero
between sectors, so the Hamiltonian is block diagonal and each block is
eigensolved on its own; observables are contracted on the system factor
of each block's eigenvectors, never expanded into ``O x 1``.

Matrices are dense per sector on purpose.  At the guarded sizes the
eigendecomposition dominates anyway, and dense construction keeps each
block manifestly Hermitian: every term is either symmetric by
construction or added together with its exact transpose, so
``max|H - H^dagger|`` is identically zero, not merely small.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from functools import reduce

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EigensolverError,
    HermiticityError,
    OracleSizeError,
    SectorError,
)
from .numerics import thermal_tanh_half
from .spectral import DiscreteDensity
from .spin_detuned import ModelParams, ThermalPoint, sigma1x, sigma2x, sigma2y
from .fermion import sigma1x_fermion, sigma2x_fermion

DIMENSION_GUARD = 20000
SPIN_OBSERVABLES = ("sigma1x", "sigma2x", "sigma1z", "sigma2z", "sigma2y")
FERMION_OBSERVABLES = ("fermion_coh1", "fermion_coh2")
OBSERVABLES = SPIN_OBSERVABLES + FERMION_OBSERVABLES

_CUTOFF_STABILITY_ABS = 1e-8
_IMAG_RESIDUE_ABS = 1e-10

# The last comparison, (key, (exact, formula, rel_dev)); see compare_perturbative.
_last_comparison = None

_I2 = np.eye(2)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.diag([1.0, -1.0])
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]])  # sigma-: |up> -> |down>

_S1X = np.kron(_SX, _I2)
_S1Z = np.kron(_SZ, _I2)
_S2X = np.kron(_I2, _SX)
_S2Y = np.kron(_I2, _SY)
_S2Z = np.kron(_I2, _SZ)
_HOP = np.kron(_LOWER.T, _I2) @ np.kron(_I2, _LOWER)  # sigma1+ sigma2-


def _kron_chain(factors):
    return reduce(np.kron, factors)


def _jw_modes():
    """Three fermion annihilators on an 8-dimensional space.

    The auxiliary mode a0 carries no energy of its own; a1 and a2 carry
    the level energies.  Jordan-Wigner strings make the trio
    anticommute exactly: a0 = s- x 1 x 1, a1 = Z x s- x 1,
    a2 = Z x Z x s-, with s- annihilating the filled state.
    """
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])  # annihilator, n = diag(0, 1)
    a0 = _kron_chain((sm, _I2, _I2))
    a1 = _kron_chain((_SZ, sm, _I2))
    a2 = _kron_chain((_SZ, _SZ, sm))
    return a0, a1, a2


_A0, _A1, _A2 = _jw_modes()

_SPIN_SECTORS = (np.arange(4),)
# One sector per total particle number n0 + n1 + n2 of the JW basis states.
_FERMION_NUMBER = np.diag(_A0.T @ _A0 + _A1.T @ _A1 + _A2.T @ _A2)
_FERMION_SECTORS = tuple(np.flatnonzero(_FERMION_NUMBER == n) for n in range(4))


@dataclass(frozen=True)
class OracleSpec:
    """One exact-diagonalization run: bath, truncation, model, state.

    The bath must be a DiscreteDensity with 1 to 3 modes; fock_cutoff is
    the largest boson occupancy kept per mode.  The total Hilbert
    dimension, 4 (spin) or 8 (fermion) times (fock_cutoff + 1) per
    mode, is capped at a desk-scale guard because the dense
    eigendecomposition is the whole point of this module.
    """

    bath: DiscreteDensity
    fock_cutoff: int
    model: str  # "spin" or "fermion"
    params: ModelParams
    beta: float

    def __post_init__(self):
        if not isinstance(self.bath, DiscreteDensity):
            raise DomainError(
                "the oracle needs a bath with finitely many modes "
                "(DiscreteDensity)"
            )
        if not 1 <= self.n_modes <= 3:
            raise DomainError("the oracle bath must have 1 to 3 modes")
        if int(self.fock_cutoff) != self.fock_cutoff or self.fock_cutoff < 1:
            raise DomainError("fock_cutoff must be an integer >= 1")
        if self.model not in ("spin", "fermion"):
            raise DomainError("model must be 'spin' or 'fermion'")
        if not (self.beta > 0.0) or not math.isfinite(self.beta):
            raise DomainError(
                "beta must be positive and finite: the truncated trace "
                "has no zero-temperature limit to offer"
            )
        if self.dimension > DIMENSION_GUARD:
            raise OracleSizeError(
                f"Hilbert dimension {self.dimension} exceeds the "
                f"desk-scale guard {DIMENSION_GUARD}"
            )

    @property
    def n_modes(self) -> int:
        return int(self.bath.frequencies.size)

    @property
    def dimension(self) -> int:
        system = 4 if self.model == "spin" else 8
        return system * (int(self.fock_cutoff) + 1) ** self.n_modes


def _bath_matrices(bath: DiscreteDensity, fock_cutoff: int):
    """(H_B, coupling operator) on the joint truncated boson space.

    H_B = sum_k Omega_k b_k^dagger b_k and the coupling operator is
    sum_k lambda_k (b_k + b_k^dagger).
    """
    d = int(fock_cutoff) + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    number = np.diag(np.arange(d, dtype=float))
    position = ladder + ladder.T
    eye = np.eye(d)
    n_modes = bath.frequencies.size
    dim = d ** n_modes
    h_b = np.zeros((dim, dim))
    coupling_op = np.zeros((dim, dim))
    for k in range(n_modes):
        factors_n = [eye] * n_modes
        factors_x = [eye] * n_modes
        factors_n[k] = number
        factors_x[k] = position
        h_b += bath.frequencies[k] * _kron_chain(factors_n)
        coupling_op += bath.couplings[k] * _kron_chain(factors_x)
    return h_b, coupling_op


def _two_spin_hamiltonian(params: ModelParams) -> np.ndarray:
    """The bare 4x4 two-spin block: level terms plus the t hopping."""
    return (
        0.5 * params.omega1 * _S1Z
        + 0.5 * params.omega2 * _S2Z
        + params.t * (_HOP + _HOP.T)
    )


def _fermion_system(params: ModelParams):
    """(system Hamiltonian, bath-coupling operator) on the 8-dim space.

    The printed sign conventions of the fermionized model are built in:
    the hopping enters as -t and the auxiliary-level coupling as -f2,
    which is what makes this Hamiltonian the image of the spin model at
    the same positive parameters.
    """
    n1 = _A1.T @ _A1
    n2 = _A2.T @ _A2
    hop = _A1.T @ _A2
    mix = _A1.T @ _A0
    h_sys = (
        params.omega1 * n1
        + params.omega2 * n2
        - params.t * (hop + hop.T)
    )
    c_sys = 2.0 * params.f1 * n1 - params.f2 * (mix + mix.T)
    return h_sys, c_sys


def _system(spec: OracleSpec):
    """(system Hamiltonian, coupling operator, conserved sectors).

    The coupling operator multiplies sum_k lambda_k (b_k + b_k^dagger):
    f1 sigma1z + f2 sigma1x for the spin system, 2 f1 n1 - f2
    (a1^dagger a0 + a0^dagger a1) for the fermion system.  The sectors
    are index arrays partitioning the system states; every system
    operator of the model is exactly zero between two of them.
    """
    if spec.model == "spin":
        h_sys = _two_spin_hamiltonian(spec.params)
        c_sys = spec.params.f1 * _S1Z + spec.params.f2 * _S1X
        return h_sys, c_sys, _SPIN_SECTORS
    h_sys, c_sys = _fermion_system(spec.params)
    return h_sys, c_sys, _FERMION_SECTORS


def _check_observable(spec: OracleSpec, observable: str) -> None:
    if observable not in OBSERVABLES:
        raise DomainError(
            f"unknown observable '{observable}'; valid ids: "
            + ", ".join(OBSERVABLES)
        )
    valid = FERMION_OBSERVABLES if spec.model == "fermion" else SPIN_OBSERVABLES
    if observable not in valid:
        raise DomainError(
            f"observable '{observable}' is not available for model "
            f"'{spec.model}'; valid observables: {', '.join(valid)}"
        )


def _system_operator(spec: OracleSpec, observable: str) -> np.ndarray:
    """The named observable on the system factor alone."""
    _check_observable(spec, observable)
    if observable in FERMION_OBSERVABLES:
        mode = _A1 if observable == "fermion_coh1" else _A2
        mix = mode.T @ _A0
        return -(mix + mix.T)
    return {
        "sigma1x": _S1X,
        "sigma2x": _S2X,
        "sigma1z": _S1Z,
        "sigma2z": _S2Z,
        "sigma2y": _S2Y,
    }[observable]


def _check_sectors(sectors, operators: dict) -> None:
    """Refuse any named operator with a nonzero entry between two sectors."""
    labels = np.empty(sum(states.size for states in sectors), dtype=int)
    for label, states in enumerate(sectors):
        labels[states] = label
    crossing = labels[:, None] != labels[None, :]
    for name, operator in operators.items():
        if np.any(operator[crossing] != 0):
            raise SectorError(f"the {name} connects two conserved sectors")


def _eigh(h: np.ndarray):
    """(energies, eigenvectors) of an exactly Hermitian matrix."""
    if not np.array_equal(h, h.conj().T):
        raise HermiticityError("the Hamiltonian is not exactly Hermitian")
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}") from exc


def _diagonal(states: np.ndarray, sys_op: np.ndarray) -> np.ndarray:
    """<n| sys_op x 1 |n> for every eigenvector column n.

    Column n reshaped to (k, d) is the system x bath amplitude matrix
    psi_n, and <n| O x 1 |n> = sum_ai conj(psi_n)_ai (O psi_n)_ai, so the
    k x k operator acts on the system index alone.
    """
    amplitudes = states.reshape(sys_op.shape[0], -1)
    products = amplitudes.conj() * (sys_op @ amplitudes)
    return products.reshape(-1, states.shape[1]).sum(axis=0)


def _boltzmann_mean(energies, diagonal, beta: float) -> float:
    """sum_n e^(-beta E_n) O_nn / sum_n e^(-beta E_n) over all eigenstates.

    The ground energy is subtracted before exponentiating so large beta
    never overflows.  The result must be real; an imaginary residue
    beyond 1e-10 means a non-Hermitian observable slipped in.
    """
    weights = np.exp(-beta * (energies - energies.min()))
    value = complex(np.sum(weights * diagonal) / np.sum(weights))
    if abs(value.imag) > _IMAG_RESIDUE_ABS:
        raise HermiticityError(
            f"thermal average has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def thermal_average(h: np.ndarray, observable: np.ndarray, beta: float) -> float:
    """Tr[e^(-beta H) O] / Tr[e^(-beta H)] by full eigendecomposition."""
    if not (beta > 0.0) or not math.isfinite(beta):
        raise DomainError("thermal_average needs finite beta > 0")
    energies, states = _eigh(h)
    return _boltzmann_mean(energies, _diagonal(states, observable), beta)


def _sector_hamiltonian(h_sys, c_sys, h_b, coupling_op) -> np.ndarray:
    """kron(h_sys, 1) + kron(1, H_B) + kron(c_sys, X) for one sector.

    Filled one system block at a time, H[a,:,b,:] = h_ab 1 + delta_ab H_B
    + c_ab X, with the sums in the kron order, so the entries equal the
    kron sum's without building three full-size products.
    """
    k, d = h_sys.shape[0], h_b.shape[0]
    eye_b = np.eye(d)
    h = np.empty((k, d, k, d), dtype=np.result_type(h_sys, c_sys, h_b))
    for a in range(k):
        for b in range(k):
            block = h_sys[a, b] * eye_b
            if a == b:
                block += h_b
            block += c_sys[a, b] * coupling_op
            h[a, :, b, :] = block
    return h.reshape(k * d, k * d)


def exact_average(spec: OracleSpec, observable: str) -> float:
    """Exact thermal average of one named observable for this spec.

    Each conserved sector's block kron(h_sys[S,S], 1) + kron(1_S, H_B) +
    kron(c_sys[S,S], X) is eigensolved on its own.
    """
    sys_op = _system_operator(spec, observable)
    h_sys, c_sys, sectors = _system(spec)
    _check_sectors(sectors, {
        "system Hamiltonian": h_sys,
        "bath-coupling operator": c_sys,
        f"observable '{observable}'": sys_op,
    })
    h_b, coupling_op = _bath_matrices(spec.bath, spec.fock_cutoff)
    energies, diagonals = [], []
    for states in sectors:
        block = np.ix_(states, states)
        h = _sector_hamiltonian(h_sys[block], c_sys[block], h_b, coupling_op)
        sector_energies, vectors = _eigh(h)
        energies.append(sector_energies)
        diagonals.append(_diagonal(vectors, sys_op[block]))
    return _boltzmann_mean(
        np.concatenate(energies), np.concatenate(diagonals), spec.beta
    )


def _comparison_key(spec: OracleSpec, observable: str) -> tuple:
    """The values that define a comparison, copied out of the spec.

    The bath arrays and the floats enter as bytes, so a bath changed in
    place no longer matches and 0.0 and -0.0 stay apart.
    """
    return (
        spec.bath.couplings.tobytes(),
        spec.bath.frequencies.tobytes(),
        int(spec.fock_cutoff),
        spec.model,
        np.array(astuple(spec.params) + (spec.beta,), dtype=float).tobytes(),
        observable,
    )


def _stable_exact(spec: OracleSpec, observable: str) -> float:
    """The exact value, after a cutoff-doubling stability check.

    The bath truncation is this module's own approximation; a value is
    only admitted into a comparison after doubling the cutoff moves it
    by less than 1e-8.  The doubled-cutoff value is the one returned.
    """
    # Built first, so its dimension guard fires before any solve.
    refined_spec = replace(spec, fock_cutoff=2 * int(spec.fock_cutoff))
    base = exact_average(spec, observable)
    refined = exact_average(refined_spec, observable)
    shift = abs(refined - base)
    if shift >= _CUTOFF_STABILITY_ABS:
        raise ConvergenceError(
            f"exact value moves by {shift:.2e} when the boson cutoff "
            "doubles; raise fock_cutoff",
            partial=refined,
            err_estimate=shift,
        )
    return refined


def formula_value(spec: OracleSpec, observable: str) -> float:
    """The closed-form counterpart evaluated on the same discrete bath.

    Coherences use the second-order formulas of the spin and fermion
    modules.  The z observables use the bath-free hybridized two-level
    thermal value, exact at f1 = f2 = 0, so their measured deviation is
    purely the bath correction.
    """
    _check_observable(spec, observable)
    tp = ThermalPoint(spec.beta)
    p = spec.params
    if observable == "sigma1x":
        return sigma1x(p, spec.bath, tp).value
    if observable == "sigma2x":
        return sigma2x(p, spec.bath, tp).value
    if observable == "sigma2y":
        return sigma2y(p, spec.bath, tp).value
    if observable == "fermion_coh1":
        return sigma1x_fermion(p, spec.bath, tp).value
    if observable == "fermion_coh2":
        return sigma2x_fermion(p, spec.bath, tp).value
    h12 = _two_spin_hamiltonian(p)
    sys_op = _S1Z if observable == "sigma1z" else _S2Z
    return thermal_average(h12, sys_op, spec.beta)


def compare_perturbative(spec: OracleSpec, observable: str):
    """(exact, formula, rel_dev) for one observable.

    The exact side passes the cutoff-doubling stability check first.
    rel_dev is |exact - formula| over the larger magnitude, 0 when both
    vanish.  The formulas are trustworthy when the dimensionless
    coupling 4 f1 f2 Omega is well below omega1; no error is raised
    outside that regime, the deviation simply grows.

    The module keeps one entry and nothing else: the last comparison,
    keyed by the bath couplings and frequencies, the cutoff, the model,
    the params, beta and the observable.  A call with the same values
    returns it without solving or evaluating anything, which is how a
    convergence fit that follows its own comparison gets its s = 1
    point.  A failure is never kept, and a comparison of other values
    replaces the entry.
    """
    global _last_comparison
    key = _comparison_key(spec, observable)
    if _last_comparison is not None and _last_comparison[0] == key:
        return _last_comparison[1]
    exact = _stable_exact(spec, observable)
    formula = formula_value(spec, observable)
    scale = max(abs(exact), abs(formula))
    rel_dev = abs(exact - formula) / scale if scale > 0.0 else 0.0
    _last_comparison = (key, (exact, formula, rel_dev))
    return exact, formula, rel_dev


@dataclass(frozen=True)
class ConvergenceFit:
    """Fitted convergence order with the underlying data.

    inconclusive is set when the deviations fail to shrink monotonically
    as the couplings shrink (usually a truncation- or rounding-limited
    comparison); the data are still returned for inspection.
    """

    order: float
    scales: tuple
    deviations: tuple
    inconclusive: bool


def _checked_scale_factors(scale_factors) -> tuple:
    """The scale factors of a convergence fit, largest first, or raise."""
    factors = sorted((float(s) for s in scale_factors), reverse=True)
    if len(factors) < 2:
        raise DomainError("need at least two scale factors to fit a slope")
    if len(set(factors)) < len(factors):
        raise DomainError(
            "scale factors must be distinct: a repeated factor solves the "
            "same spec again and adds no point to the fit"
        )
    if factors[-1] <= 0.0:
        raise DomainError(
            "scale factors must be positive: at s = 0 both sides vanish "
            "and the relative deviation is 0/0"
        )
    return tuple(factors)


def convergence_order(
    spec: OracleSpec,
    observable: str,
    scale_factors=(1.0, 0.5, 0.25),
) -> ConvergenceFit:
    """Fit the order of formula/exact agreement under coupling rescaling.

    Both f1 and f2 are multiplied by each scale factor s, so the
    coherences scale as s^2 and the first neglected term as s^4: the
    relative deviation must fall as s^2 and the fitted log-log slope
    should sit near 2.  Each point is one ``compare_perturbative``, so
    the s = 1 point is the module's one stored comparison when the last
    comparison was this spec and observable, as it is right after
    ``compare_perturbative(spec, observable)``: a check then solves and
    evaluates each point once.
    """
    factors = _checked_scale_factors(scale_factors)
    deviations = []
    for s in factors:
        scaled_params = replace(
            spec.params, f1=s * spec.params.f1, f2=s * spec.params.f2
        )
        scaled = replace(spec, params=scaled_params)
        _, _, rel_dev = compare_perturbative(scaled, observable)
        deviations.append(rel_dev)
    if min(deviations) <= 0.0:
        return ConvergenceFit(
            order=math.nan,
            scales=factors,
            deviations=tuple(deviations),
            inconclusive=True,
        )
    slope, _ = np.polyfit(np.log(factors), np.log(deviations), 1)
    monotone = all(
        later < earlier for earlier, later in zip(deviations, deviations[1:])
    )
    return ConvergenceFit(
        order=float(slope),
        scales=factors,
        deviations=tuple(deviations),
        inconclusive=not monotone,
    )


def jw_residual(spec: OracleSpec):
    """(spin value, mapped fermion value, residual) for the input coherence.

    Builds both exact models at the same parameters and compares
    <sigma1x> against 2 <coh1>_F - 4 f1 f2 Omega tanh(beta omega1/2) /
    omega1, the affine correspondence the closed forms satisfy order by
    order.  The fermionization drops operator-valued shifts whose effect
    on thermal averages is claimed small but never zero; this measures
    it instead of assuming it away.
    """
    spin_value = exact_average(replace(spec, model="spin"), "sigma1x")
    coh1 = exact_average(replace(spec, model="fermion"), "fermion_coh1")
    p = spec.params
    omega, _ = spec.bath.reorganization_omega()  # a finite sum: exact
    offset = (
        4.0
        * p.f1
        * p.f2
        * omega
        * thermal_tanh_half(spec.beta, p.omega1)
        / p.omega1
    )
    mapped = 2.0 * coh1 - offset
    return spin_value, mapped, abs(spin_value - mapped)
