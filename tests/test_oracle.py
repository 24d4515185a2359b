import math
from dataclasses import replace

import numpy as np
import pytest

from cohex.errors import (
    ConvergenceError,
    DomainError,
    EigensolverError,
    HermiticityError,
    OracleSizeError,
    SectorError,
)
from cohex import oracle
from cohex.oracle import (
    FERMION_OBSERVABLES,
    SPIN_OBSERVABLES,
    OracleSpec,
    compare_perturbative,
    convergence_order,
    exact_average,
    formula_value,
    jw_residual,
    thermal_average,
    _A0,
    _A1,
    _A2,
)
from cohex.spectral import DiscreteDensity, OhmicDensity
from cohex.spin_detuned import ModelParams, ThermalPoint
from cohex.spin_general import sigma1x_general, sigma2x_general

from oracles import build_hamiltonian, observable_matrix


BATH = DiscreteDensity([(0.05, 0.8)])
PARAMS = ModelParams(omega1=1.0, omega2=3.0, t=0.05, f1=0.1, f2=0.1)
SPIN = OracleSpec(BATH, 14, "spin", PARAMS, 2.0)
FERMION = OracleSpec(BATH, 14, "fermion", PARAMS, 2.0)


def test_spec_validation():
    with pytest.raises(DomainError):
        OracleSpec(OhmicDensity(1.0, 1.0), 14, "spin", PARAMS, 2.0)
    with pytest.raises(DomainError):
        OracleSpec(DiscreteDensity([]), 14, "spin", PARAMS, 2.0)
    four = DiscreteDensity([(0.1, w) for w in (0.5, 0.9, 1.7, 2.4)])
    with pytest.raises(DomainError):
        OracleSpec(four, 4, "spin", PARAMS, 2.0)
    with pytest.raises(DomainError):
        OracleSpec(BATH, 0, "spin", PARAMS, 2.0)
    with pytest.raises(DomainError):
        OracleSpec(BATH, True, "spin", PARAMS, 2.0)  # not cutoff 1
    for cutoff in (None, math.inf, math.nan, "8"):
        with pytest.raises(DomainError, match="fock_cutoff"):
            OracleSpec(BATH, cutoff, "spin", PARAMS, 2.0)
    for beta in (None, "2", 2 + 0j):
        with pytest.raises(DomainError, match="beta"):
            OracleSpec(BATH, 14, "spin", PARAMS, beta)
    with pytest.raises(DomainError):
        OracleSpec(BATH, 14, "bosonic", PARAMS, 2.0)
    with pytest.raises(DomainError):
        OracleSpec(BATH, 14, "spin", PARAMS, math.inf)
    with pytest.raises(DomainError):
        OracleSpec(BATH, 14, "spin", PARAMS, -2.0)


def test_dimension_guard():
    three = DiscreteDensity([(0.05, 0.8), (0.05, 1.3), (0.05, 2.1)])
    inside = OracleSpec(three, 16, "spin", PARAMS, 2.0)  # 4 * 17^3 = 19652
    assert inside.dimension == 19652
    with pytest.raises(OracleSizeError):
        OracleSpec(three, 17, "spin", PARAMS, 2.0)  # 4 * 18^3 = 23328


def test_jordan_wigner_algebra():
    modes = (_A0, _A1, _A2)
    eye = np.eye(8)
    for i, ai in enumerate(modes):
        for j, aj in enumerate(modes):
            anti = ai @ aj.T + aj.T @ ai
            expected = eye if i == j else np.zeros((8, 8))
            assert np.array_equal(anti, expected)
            assert np.array_equal(ai @ aj + aj @ ai, np.zeros((8, 8)))


def test_fermion_sectors_are_particle_number_sectors():
    # JW basis index 4 b0 + 2 b1 + b2, so the particle number is its popcount
    number = np.array([bin(i).count("1") for i in range(8)])
    build, sectors = oracle._MODELS["fermion"]
    assert [states.size for states in sectors] == [1, 3, 3, 1]
    for n, states in enumerate(sectors):
        assert np.array_equal(states, np.flatnonzero(number == n))
    off_sector = number[:, None] != number[None, :]
    rng = np.random.default_rng(11)
    for _ in range(5):
        params = ModelParams(*rng.uniform(0.05, 3.0, size=5))
        h_sys, c_sys = build(params)
        coherences = [oracle._OBSERVABLES[o][1] for o in FERMION_OBSERVABLES]
        for op in [h_sys, c_sys] + coherences:
            assert np.all(op[off_sector] == 0.0)


def test_off_sector_entry_is_refused(monkeypatch):
    fermion_system, sectors = oracle._MODELS["fermion"]

    def leaky(params):
        h_sys, c_sys = fermion_system(params)
        return h_sys, c_sys + 1e-300 * (_A0 + _A0.T)

    monkeypatch.setitem(oracle._MODELS, "fermion", (leaky, sectors))
    with pytest.raises(SectorError):
        exact_average(FERMION, "fermion_coh1")


@pytest.mark.parametrize("modes, cutoff", [(1, 4), (2, 3), (3, 2)])
def test_sector_solve_matches_dense_reference(modes, cutoff):
    bath = DiscreteDensity([(0.2, 0.8), (0.15, 1.3), (0.1, 1.9)][:modes])
    params = ModelParams(1.0, 3.0, 0.3, 0.3, 0.2)
    for model, observables in (
        ("spin", SPIN_OBSERVABLES),
        ("fermion", FERMION_OBSERVABLES),
    ):
        for beta in (0.5, 2.0, 5.0):
            spec = OracleSpec(bath, cutoff, model, params, beta)
            h = build_hamiltonian(spec)
            for obs in observables:
                value = exact_average(spec, obs)
                dense = thermal_average(h, observable_matrix(spec, obs), beta)
                assert value == pytest.approx(dense, abs=1e-12)
                if obs == "sigma2y":
                    assert value == 0.0


@pytest.mark.parametrize("model", ["spin", "fermion"])
@pytest.mark.parametrize("cutoff", [3, 6])
def test_sector_blocks_equal_dense_kron_reference(model, cutoff):
    bath = DiscreteDensity([(0.2, 0.8), (0.15, 1.3)])
    spec = OracleSpec(bath, cutoff, model, ModelParams(1.0, 3.0, 0.3, 0.3, 0.2), 2.0)
    dense = build_hamiltonian(spec)
    build, sectors = oracle._MODELS[model]
    h_sys, c_sys = build(spec.params)
    h_b, coupling_op = oracle._bath_matrices(bath, cutoff)
    d = h_b.shape[0]
    for states in sectors:
        rows = (states[:, None] * d + np.arange(d)).ravel()
        block = np.ix_(states, states)
        h = oracle._sector_hamiltonian(h_sys[block], c_sys[block], h_b, coupling_op)
        assert np.array_equal(h, dense[np.ix_(rows, rows)])


def _counted_solves(monkeypatch):
    """(f1, fock_cutoff) of every spec eigensolved from here on."""
    solved = []
    real = oracle._solve

    def counting(spec):
        solved.append((spec.params.f1, spec.fock_cutoff))
        return real(spec)

    monkeypatch.setattr(oracle, "_solve", counting)
    return solved


def _counted_bath_builds(monkeypatch):
    """fock_cutoff of every bath-operator build from here on."""
    built = []
    real = oracle._bath_matrices

    def counting(bath, fock_cutoff):
        built.append(fock_cutoff)
        return real(bath, fock_cutoff)

    monkeypatch.setattr(oracle, "_bath_matrices", counting)
    return built


def test_a_check_builds_the_bath_operators_of_each_cutoff_once(monkeypatch):
    spec = OracleSpec(BATH, 8, "spin", PARAMS, 2.0)
    cold = (compare_perturbative(spec, "sigma1x"), convergence_order(spec, "sigma1x"))
    oracle._store.clear()
    oracle._bath_store.clear()
    built = _counted_bath_builds(monkeypatch)
    warm = (compare_perturbative(spec, "sigma1x"), convergence_order(spec, "sigma1x"))
    assert sorted(built) == [8, 16]
    assert warm == cold
    # a spec with another cutoff empties the stores with the states
    exact_average(replace(spec, fock_cutoff=9), "sigma1x")
    assert list(oracle._bath_store) == [oracle._bath_key(replace(spec, fock_cutoff=9))]
    assert sorted(built) == [8, 9, 16]


def test_a_fit_after_its_comparison_reuses_the_unit_scale_solve(monkeypatch):
    cold = convergence_order(SPIN, "sigma1x")
    oracle._store.clear()
    solved = _counted_solves(monkeypatch)
    formulas = []
    real_formula = oracle.formula_value

    def counting_formula(spec, observable):
        formulas.append(spec.params.f1)
        return real_formula(spec, observable)

    monkeypatch.setattr(oracle, "formula_value", counting_formula)
    comparison = compare_perturbative(SPIN, "sigma1x")
    fit = convergence_order(SPIN, "sigma1x")
    assert fit == cold
    assert fit.deviations[0] == comparison[2]
    assert sorted(solved) == [
        (f1, cutoff) for f1 in (0.025, 0.05, 0.1) for cutoff in (14, 28)
    ]
    # the store keeps states, not comparisons: the s = 1 formula runs twice
    assert sorted(formulas) == [0.025, 0.05, 0.1, 0.1]


@pytest.mark.parametrize(
    "pair",
    [
        (OracleSpec(BATH, 8, "spin", PARAMS, 2.0), "sigma1x", "sigma2x"),
        (OracleSpec(BATH, 8, "fermion", PARAMS, 2.0), "fermion_coh1", "fermion_coh2"),
    ],
    ids=["sigma", "coh"],
)
def test_a_second_observable_of_a_fitted_spec_solves_nothing(monkeypatch, pair):
    spec, first, second = pair
    cold = (compare_perturbative(spec, second), convergence_order(spec, second))
    oracle._store.clear()
    solved = _counted_solves(monkeypatch)
    convergence_order(spec, first)
    assert len(solved) == 6
    warm = (compare_perturbative(spec, second), convergence_order(spec, second))
    assert len(solved) == 6
    assert warm == cold


@pytest.mark.parametrize(
    "other", [(SPIN, "sigma2x", 2, 6), (replace(SPIN, beta=1.0), "sigma1x", 4, 10)]
)
def test_another_solve_replaces_the_stored_one(monkeypatch, other):
    # Another observable of the stored spec solves nothing; another spec
    # empties the store, so the fit that follows solves all six points.
    spec, observable, after_compare, after_fit = other
    solved = _counted_solves(monkeypatch)
    compare_perturbative(SPIN, "sigma1x")
    compare_perturbative(spec, observable)
    assert len(solved) == after_compare
    convergence_order(SPIN, "sigma1x")
    assert len(solved) == after_fit


@pytest.mark.parametrize("change", ["beta", "bath in place", "model"])
def test_another_spec_empties_the_store(monkeypatch, change):
    bath = DiscreteDensity([(0.05, 0.8)])
    spec = OracleSpec(bath, 8, "spin", PARAMS, 2.0)
    convergence_order(spec, "sigma1x")
    assert len(oracle._store) == 6
    if change == "beta":
        other, observable = replace(spec, beta=1.0), "sigma1x"
    elif change == "model":
        other, observable = replace(spec, model="fermion"), "fermion_coh1"
    else:
        bath.couplings[0] = 0.04
        other, observable = spec, "sigma1x"
    solved = _counted_solves(monkeypatch)
    exact_average(other, observable)
    assert len(solved) == 1
    assert list(oracle._store) == [oracle._spec_key(other)]


def test_a_failed_solve_is_never_stored(monkeypatch):
    fermion_system, sectors = oracle._MODELS["fermion"]
    a, b = sectors[2][:2]

    def one_sided(params):
        # non-Hermitian in the third sector, after two sectors solved
        h_sys, c_sys = fermion_system(params)
        h_sys[a, b] += 1e-3
        return h_sys, c_sys

    def leaky(params):
        h_sys, c_sys = fermion_system(params)
        return h_sys, c_sys + 1e-300 * (_A0 + _A0.T)

    for builder, error in ((one_sided, HermiticityError), (leaky, SectorError)):
        monkeypatch.setitem(oracle._MODELS, "fermion", (builder, sectors))
        with pytest.raises(error):
            compare_perturbative(FERMION, "fermion_coh1")
        assert oracle._store == {}
    monkeypatch.setitem(oracle._MODELS, "fermion", (fermion_system, sectors))
    solved = _counted_solves(monkeypatch)
    compare_perturbative(FERMION, "fermion_coh1")
    assert len(solved) == 2


def test_an_unconverged_comparison_is_refused_from_stored_states(monkeypatch):
    # the CLI's unconverged case: fock_cutoff=1, mode_coupling=0.6
    bath = DiscreteDensity([(0.6, 0.8)])
    params = ModelParams(1.0, 3.0, 0.001, 0.5, 0.5)
    spec = OracleSpec(bath, 1, "spin", params, 2.0)
    solved = _counted_solves(monkeypatch)
    for call in (compare_perturbative, compare_perturbative, convergence_order):
        with pytest.raises(ConvergenceError):
            call(spec, "sigma1x")
    assert solved == [(0.5, 1), (0.5, 2)]


def test_a_bath_changed_in_place_is_solved_again(monkeypatch):
    bath = DiscreteDensity([(0.05, 0.8)])
    spec = OracleSpec(bath, 14, "spin", PARAMS, 2.0)
    solved = _counted_solves(monkeypatch)
    built = _counted_bath_builds(monkeypatch)
    first = compare_perturbative(spec, "sigma1x")
    bath.couplings[0] = 0.04
    second = compare_perturbative(spec, "sigma1x")
    assert len(solved) == 4
    assert sorted(built) == [14, 14, 28, 28]
    assert second[0] != first[0]
    # an equal bath in a new object is the same solve
    fresh = OracleSpec(DiscreteDensity([(0.04, 0.8)]), 14, "spin", PARAMS, 2.0)
    assert compare_perturbative(fresh, "sigma1x") == second
    assert len(solved) == 4


def test_non_finite_scale_factors_fail_before_any_solve(monkeypatch):
    solved = _counted_solves(monkeypatch)
    for factors in ((1.0, math.nan), (math.nan, 0.5, 1.0), (math.inf, 1.0)):
        with pytest.raises(DomainError, match="scale factors must be finite"):
            convergence_order(SPIN, "sigma1x", scale_factors=factors)
    assert solved == []


@pytest.mark.parametrize(
    "model, observable, system_sizes",
    [("fermion", "fermion_coh1", (1, 3, 3, 1)), ("spin", "sigma1x", (4,))],
)
def test_each_sector_is_solved_on_its_own(monkeypatch, model, observable, system_sizes):
    solved = []
    eigh = np.linalg.eigh

    def recording(h):
        solved.append(h.shape[0])
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    spec = OracleSpec(BATH, 8, model, PARAMS, 2.0)
    compare_perturbative(spec, observable)
    expected = [k * (c + 1) for c in (8, 16) for k in system_sizes]
    assert sorted(solved) == sorted(expected)
    assert max(solved) == max(system_sizes) * 17


def test_doubled_cutoff_is_refused_before_any_solve(monkeypatch):
    def unreachable(*args):
        raise AssertionError("nothing may be built or solved")

    monkeypatch.setattr(oracle, "_bath_matrices", unreachable)
    monkeypatch.setattr(np.linalg, "eigh", unreachable)
    spec = OracleSpec(BATH, 2600, "spin", PARAMS, 2.0)  # 4 * 2601 = 10404
    with pytest.raises(OracleSizeError):  # doubled: 4 * 5201 = 20804
        compare_perturbative(spec, "sigma1x")
    with pytest.raises(OracleSizeError):
        convergence_order(spec, "sigma1x")


def test_hamiltonians_exactly_hermitian():
    for spec in (SPIN, FERMION):
        h = build_hamiltonian(spec)
        assert h.shape == (spec.dimension, spec.dimension)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_noninteracting_spin_spectrum():
    p = ModelParams(1.0, 3.0, 0.0, 0.0, 0.0)
    spec = OracleSpec(BATH, 3, "spin", p, 2.0)
    levels = np.linalg.eigvalsh(build_hamiltonian(spec))
    expected = sorted(
        0.5 * s1 * 1.0 + 0.5 * s2 * 3.0 + n * 0.8
        for s1 in (1, -1)
        for s2 in (1, -1)
        for n in range(4)
    )
    assert levels == pytest.approx(expected, abs=1e-13)


def test_noninteracting_fermion_spectrum():
    # the auxiliary mode carries no energy, so every level is doubled
    p = ModelParams(1.0, 3.0, 0.0, 0.0, 0.0)
    spec = OracleSpec(BATH, 1, "fermion", p, 2.0)
    levels = np.linalg.eigvalsh(build_hamiltonian(spec))
    expected = sorted(
        e + n * 0.8 for e in (0.0, 1.0, 3.0, 4.0) for _ in range(2) for n in (0, 1)
    )
    assert levels == pytest.approx(expected, abs=1e-13)


def test_decoupled_hamiltonian_is_diagonal():
    p = ModelParams(1.0, 3.0, 0.0, 0.0, 0.0)
    spec = OracleSpec(BATH, 1, "spin", p, 2.0)
    h = build_hamiltonian(spec)
    assert h.shape == (8, 8)
    assert np.array_equal(h, np.diag(np.diag(h)))


def test_thermal_average_basics():
    h2 = np.diag([0.5, -0.5])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert thermal_average(h2, np.eye(2), 2.0) == pytest.approx(1.0, rel=1e-15)
    assert thermal_average(h2, sx, 2.0) == 0.0
    gapped = np.diag([0.0, 1.0])
    obs = np.diag([3.0, 7.0])
    assert thermal_average(gapped, obs, 30.0) == pytest.approx(3.0, abs=1e-11)


def test_thermal_average_guards():
    sym = np.eye(2)
    with pytest.raises(DomainError):
        thermal_average(sym, sym, math.inf)
    with pytest.raises(HermiticityError):
        thermal_average(np.array([[0.0, 1.0], [0.0, 0.0]]), sym, 2.0)
    skew = np.array([[1.0j, 0.0], [0.0, 0.0]])
    with pytest.raises(HermiticityError):
        thermal_average(sym, skew, 2.0)


def test_eigensolver_failure_is_wrapped(monkeypatch):
    def broken(matrix):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(EigensolverError):
        thermal_average(np.eye(2), np.eye(2), 2.0)


def test_observable_validation():
    with pytest.raises(DomainError):
        observable_matrix(SPIN, "sigma3x")
    with pytest.raises(DomainError):
        observable_matrix(SPIN, "fermion_coh1")
    with pytest.raises(DomainError):
        observable_matrix(FERMION, "sigma1x")
    with pytest.raises(DomainError):
        formula_value(FERMION, "sigma2y")


def test_formula_side_agrees_with_canonical_exact_values():
    # couplings are weak here, so formula and exact diagonalization agree
    # to a small fraction of a percent
    for spec, obs in (
        (SPIN, "sigma1x"),
        (SPIN, "sigma2x"),
        (FERMION, "fermion_coh1"),
        (FERMION, "fermion_coh2"),
    ):
        exact, formula, rel_dev = compare_perturbative(spec, obs)
        assert exact != 0.0 and formula != 0.0
        assert rel_dev < 5e-3
    for obs in ("sigma1z", "sigma2z"):
        _, _, rel_dev = compare_perturbative(SPIN, obs)
        assert rel_dev < 1e-3


def test_sigma2y_vanishes_exactly():
    assert abs(exact_average(SPIN, "sigma2y")) <= 1e-10


def test_cutoff_doubling_stability():
    # the canonical spec is cutoff-converged long before 14
    v10 = exact_average(OracleSpec(BATH, 10, "spin", PARAMS, 2.0), "sigma1x")
    v14 = exact_average(SPIN, "sigma1x")
    assert abs(v14 - v10) < 1e-8


def test_unconverged_truncation_is_refused():
    strong = ModelParams(1.0, 3.0, 0.05, 0.5, 0.5)
    tight = OracleSpec(DiscreteDensity([(0.6, 0.8)]), 1, "spin", strong, 2.0)
    with pytest.raises(ConvergenceError):
        compare_perturbative(tight, "sigma1x")


def test_convergence_order_near_two_for_all_coherences():
    # The closed forms are leading order in the hopping as well, so the
    # deviation has an s-independent O(t^2) floor; at t = 1e-3 that floor
    # sits far below the O(f^2) scaling window being measured.
    small_t = ModelParams(1.0, 3.0, 0.001, 0.1, 0.1)
    spin = OracleSpec(BATH, 14, "spin", small_t, 2.0)
    fermi = OracleSpec(BATH, 14, "fermion", small_t, 2.0)
    for spec, obs in (
        (spin, "sigma1x"),
        (spin, "sigma2x"),
        (fermi, "fermion_coh1"),
        (fermi, "fermion_coh2"),
    ):
        fit = convergence_order(spec, obs)
        assert not fit.inconclusive
        assert 1.7 <= fit.order <= 2.3
        assert fit.deviations[0] > fit.deviations[-1]


def test_convergence_order_z_reference_is_hopping_exact():
    # the z reference is the bare hybridized two-level value, so its fit
    # is clean even at the canonical t = 0.05
    fit = convergence_order(SPIN, "sigma1z")
    assert not fit.inconclusive
    assert fit.order == pytest.approx(2.0, abs=0.05)


def test_convergence_order_guards_and_inconclusive_path():
    with pytest.raises(DomainError):
        convergence_order(SPIN, "sigma1x", scale_factors=(1.0,))
    with pytest.raises(DomainError):
        convergence_order(SPIN, "sigma1x", scale_factors=(1.0, 0.0))
    # A repeated factor adds no abscissa: (1, 1) leaves polyfit singular.
    for factors in ((1.0, 1.0), (0.5, 0.5, 1.0)):
        with pytest.raises(DomainError, match="distinct"):
            convergence_order(SPIN, "sigma1x", scale_factors=factors)
    # a symmetry-protected zero has no order to fit
    fit = convergence_order(SPIN, "sigma2y")
    assert fit.inconclusive


def test_jw_correspondence_is_small_and_measured():
    spin_value, mapped, residual = jw_residual(SPIN)
    assert spin_value != 0.0
    assert residual < 1e-6
    assert residual < 1e-2 * abs(spin_value)


def test_plateau_in_deviation_scales_with_hopping():
    # halving t quarters the s-independent part of the deviation,
    # confirming it is the detuned formulas' own truncation
    devs = []
    for t in (0.05, 0.025):
        p = ModelParams(1.0, 3.0, t, 0.025, 0.025)
        _, _, rel = compare_perturbative(
            OracleSpec(BATH, 14, "spin", p, 2.0), "sigma1x"
        )
        devs.append(rel)
    assert devs[0] / devs[1] == pytest.approx(4.0, abs=0.7)


# The arbitrary-t forms against the oracle, whose two-spin Hamiltonian is
# exact in t.  With omega1 = 1 and omega2 = 2.5, f = 0.3 keeps the smallest
# deviation (about 1e-13 absolute, at s = 0.25) far above the eigensolver's
# round-off; at f = 0.1 the hot one-mode cells meet that floor.
GENERAL_FORMS = {"sigma1x": sigma1x_general, "sigma2x": sigma2x_general}
ONE_MODE = DiscreteDensity([(0.05, 1.7)])
TWO_MODES = DiscreteDensity([(0.05, 1.7), (0.04, 0.9)])
SCALES = (1.0, 0.5, 0.25)


def _general_deviations(spec, observable):
    """(relative deviation, result) of the general form at each scale of f.

    The exact side passes the same cutoff-doubling check as every oracle
    comparison.
    """
    out = []
    for s in SCALES:
        params = replace(spec.params, f1=s * spec.params.f1, f2=s * spec.params.f2)
        scaled = replace(spec, params=params)
        exact = oracle._stable_exact(scaled, observable)
        result = GENERAL_FORMS[observable](params, scaled.bath, ThermalPoint(scaled.beta))
        out.append((abs(exact - result.value) / max(abs(exact), abs(result.value)), result))
    return out


def _order(deviations):
    return float(np.polyfit(np.log(SCALES), np.log(deviations), 1)[0])


@pytest.mark.parametrize("t", [0.3, 0.8, 1.5])
@pytest.mark.parametrize("beta", [0.5, 2.0, 8.0])
def test_general_forms_converge_as_f_squared_on_one_mode(t, beta):
    spec = OracleSpec(ONE_MODE, 24, "spin", ModelParams(1.0, 2.5, t, 0.3, 0.3), beta)
    for observable in GENERAL_FORMS:
        deviations = [d for d, _ in _general_deviations(spec, observable)]
        assert deviations[0] > deviations[1] > deviations[2]
        assert _order(deviations) == pytest.approx(2.0, abs=0.05)


# At beta = 0.5 cutoff 8 does not hold two modes: doubling it moves the
# exact value by about 1e-6, so only the colder cells are fitted.
@pytest.mark.parametrize("beta, observable", [(2.0, "sigma1x"), (8.0, "sigma2x")])
def test_general_forms_converge_as_f_squared_on_two_modes(beta, observable):
    spec = OracleSpec(TWO_MODES, 8, "spin", ModelParams(1.0, 2.5, 0.8, 0.3, 0.3), beta)
    deviations = [d for d, _ in _general_deviations(spec, observable)]
    assert deviations[0] > deviations[1] > deviations[2]
    assert _order(deviations) == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("beta", [0.5, 2.0, 8.0])
def test_nudged_general_forms_stay_inside_their_error_estimate(side, beta):
    # At |t/sqrt(omega1 omega2) - 1| = 1e-6 the forms nudge t off the
    # surface t^2 = omega1 omega2; the oracle has no such surface.  The
    # deviation is the nudge's bias, flat in f, so no order is fitted:
    # it must stay inside the relative err_estimate the nudge declares.
    t = math.sqrt(2.5) * (1.0 + side * 1e-6)
    spec = OracleSpec(ONE_MODE, 24, "spin", ModelParams(1.0, 2.5, t, 0.1, 0.1), beta)
    for observable in GENERAL_FORMS:
        for deviation, result in _general_deviations(spec, observable):
            assert "mixing-regularized" in result.flags
            assert deviation <= result.err_estimate / abs(result.value)
