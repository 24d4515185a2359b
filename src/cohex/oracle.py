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
eigensolved on its own.  A solve yields the reduced thermal state
rho_S = Tr_B e^(-beta H) / Z, one k x k block per sector, and every
system observable is Tr(O rho_S): never expanded into ``O x 1``, and
never a reason to solve the same spec again.

The module keeps, for the spec of the last public call, the states of
every solve made for it (the scaled and doubled-cutoff solves of its
comparison and fit) and the bath operators of each cutoff they used.
So a check builds the bath operators of its cutoff and twice it once
each, and a second observable of that spec is contracted, not solved.
A call with another spec empties both stores together.  Nothing that
does not depend on the spec is rebuilt per solve either: each model's
sector mask is built, and each observable checked against it, once at
import.

Matrices are dense per sector on purpose.  At the guarded sizes the
eigendecomposition dominates anyway, and dense construction keeps each
block manifestly Hermitian: every term is either symmetric by
construction or added together with its exact transpose, so
``max|H - H^dagger|`` is identically zero, not merely small.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import reduce, wraps

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

_CUTOFF_STABILITY_ABS = 1e-8
_IMAG_RESIDUE_ABS = 1e-10

# The reduced states solved for one caller spec, by solve key (_spec_key),
# the bath operators those solves used, by _bath_key, and that caller
# spec's key; _serving is set while a public call runs, so the calls it
# makes keep the stores.  See _serves_one_spec.
_store = {}
_bath_store = {}
_store_spec = None
_serving = False

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
        cutoff = self.fock_cutoff
        if (isinstance(cutoff, bool) or not isinstance(cutoff, numbers.Real)
                or not math.isfinite(cutoff) or int(cutoff) != cutoff or cutoff < 1):
            raise DomainError("fock_cutoff must be an integer >= 1")
        if self.model not in _MODELS:
            raise DomainError("model must be " + " or ".join(map(repr, _MODELS)))
        if (not isinstance(self.beta, numbers.Real)
                or not (self.beta > 0.0) or not math.isfinite(self.beta)):
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
        system = sum(states.size for states in _MODELS[self.model][1])
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


def _spin_system(params: ModelParams):
    """(system Hamiltonian, bath-coupling operator) on the 4-dim space."""
    return _two_spin_hamiltonian(params), params.f1 * _S1Z + params.f2 * _S1X


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


class _Sectors(tuple):
    """Index arrays partitioning the system states, one per conserved sector.

    ``crossing`` masks the (i, j) entries whose states lie in two
    different sectors; it is built once, with the partition.
    """

    def __new__(cls, sectors):
        self = super().__new__(cls, sectors)
        labels = np.empty(sum(states.size for states in self), dtype=int)
        for label, states in enumerate(self):
            labels[states] = label
        self.crossing = labels[:, None] != labels[None, :]
        return self


# One sector per total particle number n0 + n1 + n2 of the JW basis states.
_FERMION_NUMBER = np.diag(_A0.T @ _A0 + _A1.T @ _A1 + _A2.T @ _A2)

#: model -> (system builder, conserved sectors).  The builder maps params to
#: (system Hamiltonian, the operator multiplying sum_k lambda_k (b_k +
#: b_k^dagger)); the sectors are index arrays partitioning the system
#: states, and every system operator of the model is zero between two.
_MODELS = {
    "spin": (_spin_system, _Sectors((np.arange(4),))),
    "fermion": (_fermion_system, _Sectors(
        np.flatnonzero(_FERMION_NUMBER == n) for n in range(4)
    )),
}

#: observable -> (model, operator on the system factor, closed form of
#: (params, bath, ThermalPoint), or None for the bath-free thermal value).
_OBSERVABLES = {
    "sigma1x": ("spin", _S1X, sigma1x),
    "sigma2x": ("spin", _S2X, sigma2x),
    "sigma1z": ("spin", _S1Z, None),
    "sigma2z": ("spin", _S2Z, None),
    "sigma2y": ("spin", _S2Y, sigma2y),
    "fermion_coh1": ("fermion", -(_A1.T @ _A0 + _A0.T @ _A1), sigma1x_fermion),
    "fermion_coh2": ("fermion", -(_A2.T @ _A0 + _A0.T @ _A2), sigma2x_fermion),
}
OBSERVABLES = tuple(_OBSERVABLES)
SPIN_OBSERVABLES = tuple(o for o in OBSERVABLES if _OBSERVABLES[o][0] == "spin")
FERMION_OBSERVABLES = tuple(o for o in OBSERVABLES if _OBSERVABLES[o][0] == "fermion")


def _observable(spec: OracleSpec, observable: str):
    """The observable's (model, system operator, closed form), or raise."""
    if observable not in _OBSERVABLES:
        raise DomainError(
            f"unknown observable '{observable}'; valid ids: "
            + ", ".join(OBSERVABLES)
        )
    row = _OBSERVABLES[observable]
    if row[0] != spec.model:
        valid = (o for o in OBSERVABLES if _OBSERVABLES[o][0] == spec.model)
        raise DomainError(
            f"observable '{observable}' is not available for model "
            f"'{spec.model}'; valid observables: {', '.join(valid)}"
        )
    return row


def _check_sectors(sectors: _Sectors, operators: dict) -> None:
    """Refuse any named operator with a nonzero entry between two sectors."""
    for name, operator in operators.items():
        if np.any(operator[sectors.crossing] != 0):
            raise SectorError(f"the {name} connects two conserved sectors")


# The observables are constants, so each is checked once, here; the
# params-dependent system operators are checked on every solve.
for _name, (_model, _operator, _) in _OBSERVABLES.items():
    _check_sectors(_MODELS[_model][1], {f"observable '{_name}'": _operator})


def _eigh(h: np.ndarray):
    """(energies, eigenvectors) of an exactly Hermitian matrix."""
    if not np.array_equal(h, h.conj().T):
        raise HermiticityError("the Hamiltonian is not exactly Hermitian")
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}") from exc


def _thermal_state(sectors, spectra, beta: float) -> np.ndarray:
    """Tr_B e^(-beta H) / Z from each sector's (energies, eigenvectors).

    A sector eigenvector reshaped to (k, d) is the system x bath
    amplitude matrix psi_n of its k system states, so the sector's block
    sum_n w_n psi_n psi_n^dagger is one matrix product over its
    eigenvectors.  The weights w_n = e^(-beta (E_n - E_min)) take the
    ground energy of every sector, so large beta never overflows.
    """
    ground = min(energies.min() for energies, _ in spectra)
    size = sum(states.size for states in sectors)
    rho = np.zeros((size, size), dtype=np.result_type(*(v for _, v in spectra)))
    partition = 0.0
    for states, (energies, vectors) in zip(sectors, spectra):
        weights = np.exp(-beta * (energies - ground))
        partition += weights.sum()
        weighted = (vectors * weights).reshape(states.size, -1)
        rho[np.ix_(states, states)] = weighted @ vectors.conj().reshape(states.size, -1).T
    return rho / partition


def _contract(rho: np.ndarray, sys_op: np.ndarray) -> float:
    """Tr(O rho), which must be real.

    An imaginary residue beyond 1e-10 means a non-Hermitian observable
    slipped in.
    """
    value = complex(np.sum(sys_op * rho.T))
    if abs(value.imag) > _IMAG_RESIDUE_ABS:
        raise HermiticityError(
            f"thermal average has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def thermal_average(h: np.ndarray, observable: np.ndarray, beta: float) -> float:
    """Tr[e^(-beta H) O] / Tr[e^(-beta H)] by full eigendecomposition."""
    if not (beta > 0.0) or not math.isfinite(beta):
        raise DomainError("thermal_average needs finite beta > 0")
    state = _thermal_state((np.arange(h.shape[0]),), (_eigh(h),), beta)
    return _contract(state, observable)


def _sector_hamiltonian(h_sys, c_sys, h_b, coupling_op) -> np.ndarray:
    """kron(h_sys, 1) + kron(1, H_B) + kron(c_sys, X) for one sector.

    The system blocks H[a,:,b,:] = h_ab 1 + delta_ab H_B + c_ab X are
    broadcast as one contiguous (k, k, d, d) array, with the sums in the
    kron order, so the entries equal the kron sum's without building
    three full-size products.  H_B is added to the diagonal blocks only:
    adding zeros elsewhere would turn a -0.0 into 0.0.
    """
    k, d = h_sys.shape[0], h_b.shape[0]
    blocks = h_sys[:, :, None, None] * np.eye(d)
    for a in range(k):
        blocks[a, a] += h_b
    blocks += c_sys[:, :, None, None] * coupling_op
    return blocks.transpose(0, 2, 1, 3).reshape(k * d, k * d)


def _solve(spec: OracleSpec) -> np.ndarray:
    """The reduced thermal state rho_S of this spec, by exact diagonalization.

    Each conserved sector's block kron(h_sys[S,S], 1) + kron(1_S, H_B) +
    kron(c_sys[S,S], X) is eigensolved on its own, and rho_S holds each
    sector's reduced state as its diagonal block.
    """
    build, sectors = _MODELS[spec.model]
    h_sys, c_sys = build(spec.params)
    _check_sectors(sectors, {
        "system Hamiltonian": h_sys,
        "bath-coupling operator": c_sys,
    })
    bath_key = _bath_key(spec)
    operators = _bath_store.get(bath_key)
    if operators is None:
        operators = _bath_store[bath_key] = _bath_matrices(spec.bath, spec.fock_cutoff)
    h_b, coupling_op = operators
    spectra = []
    for states in sectors:
        block = np.ix_(states, states)
        h = _sector_hamiltonian(h_sys[block], c_sys[block], h_b, coupling_op)
        spectra.append(_eigh(h))
    return _thermal_state(sectors, spectra, spec.beta)


def _bath_key(spec: OracleSpec) -> tuple:
    """The values that define the bath operators of a solve."""
    return (
        spec.bath.couplings.tobytes(),
        spec.bath.frequencies.tobytes(),
        int(spec.fock_cutoff),
    )


def _spec_key(spec: OracleSpec) -> tuple:
    """The values that define a solve, copied out of the spec.

    The bath arrays and the floats enter as bytes, so a bath changed in
    place no longer matches and 0.0 and -0.0 stay apart.
    """
    p = spec.params
    return _bath_key(spec) + (
        spec.model,
        np.array((p.omega1, p.omega2, p.t, p.f1, p.f2, spec.beta), dtype=float).tobytes(),
    )


def _serves_one_spec(function):
    """Make a public call of (spec, ...) bring its spec to the stores.

    The stores empty unless they hold solves made for that spec.  The
    calls made while it runs, for scaled or doubled-cutoff specs, bring
    nothing, so every solve of the caller's spec is kept.
    """

    @wraps(function)
    def call(spec, *args, **kwargs):
        global _store_spec, _serving
        if _serving:
            return function(spec, *args, **kwargs)
        key = _spec_key(spec)
        if key != _store_spec:
            _store.clear()
            _bath_store.clear()
            _store_spec = key
        _serving = True
        try:
            return function(spec, *args, **kwargs)
        finally:
            _serving = False

    return call


@_serves_one_spec
def exact_average(spec: OracleSpec, observable: str) -> float:
    """Exact thermal average Tr(O rho_S) of one named observable.

    rho_S is the spec's stored reduced state, or is solved and stored.
    A solve that raises stores nothing.
    """
    _, sys_op, _ = _observable(spec, observable)
    key = _spec_key(spec)
    rho = _store.get(key)
    if rho is None:
        rho = _store[key] = _solve(spec)
    return _contract(rho, sys_op)


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
    _, sys_op, closed_form = _observable(spec, observable)
    if closed_form is None:
        return thermal_average(_two_spin_hamiltonian(spec.params), sys_op, spec.beta)
    return closed_form(spec.params, spec.bath, ThermalPoint(spec.beta)).value


@_serves_one_spec
def compare_perturbative(spec: OracleSpec, observable: str):
    """(exact, formula, rel_dev) for one observable.

    The exact side passes the cutoff-doubling stability check first.
    rel_dev is |exact - formula| over the larger magnitude, 0 when both
    vanish.  The formulas are trustworthy when the dimensionless
    coupling 4 f1 f2 Omega is well below omega1; no error is raised
    outside that regime, the deviation simply grows.

    The module keeps the reduced states of every solve made for the spec
    of the last public call, keyed by the bath couplings and
    frequencies, the cutoff, the model, the params and beta.  So another
    observable of the same spec, or a fit right after this comparison,
    contracts its exact side from stored states instead of solving.  A
    failed solve is never kept, and a call with another spec empties
    the store.
    """
    exact = _stable_exact(spec, observable)
    formula = formula_value(spec, observable)
    scale = max(abs(exact), abs(formula))
    rel_dev = abs(exact - formula) / scale if scale > 0.0 else 0.0
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
    factors = [float(s) for s in scale_factors]
    # Checked before sorting: a NaN compares false and would sort anywhere.
    if not all(math.isfinite(s) for s in factors):
        raise DomainError(f"scale factors must be finite, got {factors}")
    factors.sort(reverse=True)
    if len(factors) < 2:
        raise DomainError("need at least two scale factors to fit a slope")
    if len(set(factors)) < len(factors):
        raise DomainError(
            "scale factors must be distinct: a repeated factor adds no "
            "point to the fit"
        )
    if factors[-1] <= 0.0:
        raise DomainError(
            "scale factors must be positive: at s = 0 both sides vanish "
            "and the relative deviation is 0/0"
        )
    return tuple(factors)


@_serves_one_spec
def convergence_order(
    spec: OracleSpec,
    observable: str,
    scale_factors=(1.0, 0.5, 0.25),
) -> ConvergenceFit:
    """Fit the order of formula/exact agreement under coupling rescaling.

    Both f1 and f2 are multiplied by each scale factor s, so the
    coherences scale as s^2 and the first neglected term as s^4: the
    relative deviation must fall as s^2 and the fitted log-log slope
    should sit near 2.  Each point is one ``compare_perturbative`` whose
    exact side comes from the reduced states stored for this spec, so
    after ``compare_perturbative(spec, observable)`` a check solves each
    point once, and a fit of another observable of the same spec solves
    nothing.
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


@_serves_one_spec
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
