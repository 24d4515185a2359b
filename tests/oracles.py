"""Independent reference implementations used only by the test suite.

These deliberately avoid the code paths under test: the exponential
integral is summed from its power series at high precision, integrals are
done either with mpmath's quadrature or a brute-force midpoint rule, and
the double Ei series is summed term by term with a high-order tail.
"""

import math

import mpmath
import numpy as np

from cohex import oracle
from cohex.fermion import _f_fermion_parts_step
from cohex.numerics import run_step


def ei_reference(x, dps=50):
    """Ei(x) from the defining power series gamma + ln|x| + sum x^n/(n n!).

    For x < 0 the series cancels down from terms of size e^{|x|} to a result
    of size e^{-|x|}, so the working precision grows with |x|.  Independent
    of both the package code and mpmath.ei.
    """
    work = dps + (int(math.ceil(0.9 * abs(x))) + 10 if x < 0 else 0)
    with mpmath.workdps(work):
        xm = mpmath.mpf(x)
        total = mpmath.euler + mpmath.log(abs(xm))
        term = mpmath.mpf(1)
        tol = mpmath.mpf(10) ** (-work + 5)
        for n in range(1, 10000):
            term *= xm / n
            contrib = term / n
            total += contrib
            if abs(contrib) < tol * abs(total) and n > abs(x):
                break
        return float(total)


def quad_reference(kernel, points=(), upper=None, dps=30):
    """mpmath quadrature of a scalar kernel over (0, inf) split at ``points``."""
    with mpmath.workdps(dps):
        split = [0] + sorted(float(p) for p in points)
        split.append(mpmath.inf if upper is None else upper)
        val = mpmath.quad(lambda t: kernel(float(t)), split)
        return float(val)


def shape_factor_reference(a, b, dps=30):
    """Ohmic shape factor F(a, b) by mpmath quadrature.

    F = int_0^inf e^{-a x} [x coth(b x/2) - coth(b/2)] / (x^2 - 1) dx, split
    at the removable point x = 1; the kernel is evaluated at twice the
    working precision, so the cancellation next to x = 1 stays harmless.
    """
    with mpmath.workdps(dps):
        am, bm = mpmath.mpf(a), mpmath.mpf(b)

        def kernel(x):
            with mpmath.workdps(2 * dps):
                num = x * mpmath.coth(bm * x / 2) - mpmath.coth(bm / 2)
                return mpmath.exp(-am * x) * num / (x * x - 1)

        return float(mpmath.quad(kernel, [0, 1, mpmath.inf]))


def fermion_shape_factor_reference(a, b, g, dps=30):
    """Fermion output shape factor F_F(a, b, g) by mpmath quadrature.

    F_F = n(1) (1 - 2 n(g)) / (a g) + int_0^inf e^{-a x} [W(x) + W(-x)] dx
    with Fermi and Bose factors n(y) = 1/(e^{b y} + 1), N(y) = 1/(e^{b y} - 1),
    r = g - 1 and the one-sided weight

        W(x) = (N(x) + n(1)) [x r / (2 g (x - 1)) - n(1 - x) r / ((x - 1)(x + r))
                              + n(g) x / (g (x + r))],

    removable at x = 1 and x = |r|; evaluated as ``shape_factor_reference``.
    """
    with mpmath.workdps(dps):
        am, bm, gm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(g)
        r = gm - 1

        def fermi(y):
            return 1 / (mpmath.exp(bm * y) + 1)

        def weight(x):
            braces = (
                x * r / (2 * gm * (x - 1))
                - fermi(1 - x) * r / ((x - 1) * (x + r))
                + fermi(gm) * x / (gm * (x + r))
            )
            return (1 / mpmath.expm1(bm * x) + fermi(1)) * braces

        def kernel(x):
            with mpmath.workdps(2 * dps):
                return mpmath.exp(-am * x) * (weight(x) + weight(-x))

        split = sorted({mpmath.mpf(0), mpmath.mpf(1), abs(r)}) + [mpmath.inf]
        integral = mpmath.quad(kernel, split)
        term0 = fermi(1) * (1 - 2 * fermi(gm)) / (am * gm)
        return float(term0 + integral)


def f_fermion_dimensionless(omega1_over_omegac, beta_omega1, omega2_over_omega1,
                            config=None):
    """The package's output-coherence shape factor F_F(omega1/omegac, beta
    omega1, omega2/omega1) as (F_F, err_estimate): the occupation term
    plus the folded kernel integral its sweeps compute.

    <sigma2x>_F = -(4 t f1 f2 A / (omega2 - omega1)) F_F for the ohmic
    bath; F_F vanishes as (beta omega1)^2 at high temperature.  Not an
    independent reference: it runs the package's own step alone, so the
    tests can check that step's limits.
    """
    term0, xint, err, _ = run_step(_f_fermion_parts_step(
        omega1_over_omegac, beta_omega1, omega2_over_omega1, config
    ))
    return term0 + xint, err


def midpoint_reference(kernel, upper, n=10_000_000, skip_points=(), skip_rel=1e-6):
    """Brute-force midpoint rule on (0, upper), masking removable points.

    Abscissae within ``skip_rel`` (relative) of any skip point are replaced
    by the average of their neighbours' kernel values, which is accurate
    enough at the ~1e-5 level this oracle is used for.
    """
    h = upper / n
    x = (np.arange(n) + 0.5) * h
    vals = np.asarray(kernel(x), dtype=float)
    for p in skip_points:
        mask = np.abs(x - p) < skip_rel * p
        if np.any(mask):
            idx = np.where(mask)[0]
            lo = max(idx.min() - 1, 0)
            hi = min(idx.max() + 1, n - 1)
            vals[mask] = 0.5 * (vals[lo] + vals[hi])
    return float(np.sum(vals) * h)


def double_ei_series_reference(a, b, n_explicit=3000, dps=40):
    """-sum_{n>=1} [e^c Ei(-c) + e^{-c} Ei(c)], c = a + b n, at high precision.

    Explicit terms to ``n_explicit``, then a polygamma tail through the
    1/c^10 order of the asymptotic pair expansion.
    """
    with mpmath.workdps(dps):
        am, bm = mpmath.mpf(a), mpmath.mpf(b)
        s = mpmath.mpf(0)
        for n in range(1, n_explicit + 1):
            c = am + bm * n
            s -= mpmath.exp(c) * mpmath.ei(-c) + mpmath.exp(-c) * mpmath.ei(c)
        z = n_explicit + 1 + am / bm
        tail = mpmath.mpf(0)
        for j in (1, 3, 5, 7, 9):
            tail += mpmath.polygamma(j, z) / bm ** (j + 1)
        s -= 2 * tail
        return float(s)


def pv_reference(a):
    """v.p. integral of e^{-a x}/(x^2 - 1) over (0, inf) via the Ei pair."""
    with mpmath.workdps(40):
        am = mpmath.mpf(a)
        val = (mpmath.exp(am) * mpmath.ei(-am) - mpmath.exp(-am) * mpmath.ei(am)) / 2
        return float(val)


def thermal_average_reference(hamiltonian, observable, beta):
    """<O> = tr(O e^{-beta H}) / tr(e^{-beta H}) at high precision via mpmath.

    Small matrices only; used to cross-check the eigh-based implementation.
    """
    with mpmath.workdps(30):
        H = mpmath.matrix(hamiltonian.tolist())
        E, V = mpmath.eigsy(H)
        shift = min(E[i] for i in range(len(E)))
        weights = [mpmath.exp(-beta * (E[i] - shift)) for i in range(len(E))]
        z = sum(weights)
        O = mpmath.matrix(observable.tolist())
        total = mpmath.mpf(0)
        for i in range(len(E)):
            vi = V[:, i]
            total += weights[i] * (vi.T * O * vi)[0]
        return float(total / z)


def build_hamiltonian(spec):
    """Dense full-space Hamiltonian H_sys x 1 + 1 x H_B + C_sys x X.

    The kron reference for the sector-split solve: one matrix over every
    system state, with no sector structure assumed.
    """
    h_sys, c_sys = oracle._MODELS[spec.model][0](spec.params)
    h_b, coupling_op = oracle._bath_matrices(spec.bath, spec.fock_cutoff)
    return (
        np.kron(h_sys, np.eye(h_b.shape[0]))
        + np.kron(np.eye(h_sys.shape[0]), h_b)
        + np.kron(c_sys, coupling_op)
    )


def observable_matrix(spec, observable):
    """The named observable expanded to sys_op x 1 on the full space."""
    _, sys_op, _ = oracle._observable(spec, observable)
    return np.kron(sys_op, np.eye((int(spec.fock_cutoff) + 1) ** spec.n_modes))


def _simplex_transform(corr, xi, beta, n=64):
    """n(xi) T(xi) + (1 + n(xi)) T(-xi) for a two-time correlator.

    T(s) = int_0^beta dtau int_0^tau dtau' exp(s (tau - tau')) corr(tau, tau'),
    evaluated by nested Gauss-Legendre rules on the triangle; n(xi) is the
    Bose factor 1/(e^{beta xi} - 1).  This is the anti-transcription check
    for the closed-form xi-space kernels: the correlators are short and
    the transform is mechanical, so both sides are independent.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    tau = 0.5 * beta * (x + 1.0)
    wt = 0.5 * beta * w
    total_p = 0.0
    total_m = 0.0
    for ti, wi in zip(tau, wt):
        tp = 0.5 * ti * (x + 1.0)
        wp = 0.5 * ti * w
        c = corr(ti, tp)
        d = ti - tp
        total_p += wi * np.sum(wp * np.exp(xi * d) * c)
        total_m += wi * np.sum(wp * np.exp(-xi * d) * c)
    nb = 1.0 / math.expm1(beta * xi)
    return nb * total_p + (1.0 + nb) * total_m


def printed_g_parts(xi, cothb, omega, epsilon, chw, che, shw, she):
    """The three first-spin kernels g0, g1, g2 as printed, for given
    hyperbolic values cosh bw, cosh be, sinh bw, sinh be.

    cothb is coth(beta xi / 2) at the same xi.  Plain arithmetic, so it
    runs on floats, numpy arrays, ``mpmath.mpf`` and sympy symbols alike:
    the reference that ``spin_general``'s pole sums are checked against
    (``tests/derive_pole_sums.py`` symbolically, ``tests/test_spin_general.py``
    at 50 digits) and that the mpmath reference files integrate.  The kernels are linear in the hyperbolic values, so
    weights divided by cosh(beta omega) + cosh(beta epsilon) divide the
    kernels by the same factor.
    """
    w2 = omega * omega
    e2 = epsilon * epsilon
    x2 = xi * xi
    wpe = omega + epsilon
    wme = omega - epsilon
    d2 = (x2 - wpe * wpe) * (x2 - wme * wme)
    we = w2 - e2
    x2m4e = x2 - 4.0 * e2
    g0 = (-1.0 / (we * d2)) * (
        4.0 * omega * chw * (we * we - x2 * w2) / xi
        - 4.0 * omega * che * (
            x2 * w2 * (x2 - w2)
            + e2 * e2 * (3.0 * x2 - 4.0 * w2)
            + 2.0 * e2 * (x2 * w2 - x2 * x2 + w2 * w2)
            + 2.0 * e2 * e2 * e2
        ) / (xi * x2m4e)
        - 2.0 * cothb * (
            omega * epsilon * she * (
                -7.0 * x2 * w2 + x2 * x2 + 2.0 * w2 * w2
                + e2 * (3.0 * x2 + 8.0 * w2) - 10.0 * e2 * e2
            ) / x2m4e
            - shw * (2.0 * w2 * (x2 - w2) + e2 * (w2 - x2) + e2 * e2)
        )
    )
    g1 = (
        4.0 * epsilon * (x2 + w2 - e2) * (chw + che)
        - 4.0 * xi * cothb * (2.0 * omega * epsilon * shw + she * (x2 - w2 - e2))
    ) / (xi * d2)
    g2 = (-2.0 * epsilon / (we * d2)) * (
        -2.0 * xi * omega * epsilon * chw
        + 2.0 * che * omega * epsilon * (
            x2 * x2 + 2.0 * (w2 * w2 - 2.0 * w2 * (x2 + e2) + e2 * e2)
        ) / (xi * x2m4e)
        + cothb * (
            epsilon * shw * (x2 + w2 - e2)
            + omega * she * (
                3.0 * x2 * w2 - x2 * x2 - 2.0 * w2 * w2
                + e2 * (x2 + 8.0 * w2) - 6.0 * e2 * e2
            ) / x2m4e
        )
    )
    return g0, g1, g2


def printed_f_parts(xi, cothb, omega, epsilon, shw, she, dch):
    """The two second-spin kernels f1k, f2k as printed; same conventions
    as ``printed_g_parts``, with dch = chw - che, the cosh difference,
    passed as a value of its own."""
    w2 = omega * omega
    e2 = epsilon * epsilon
    x2 = xi * xi
    we = w2 - e2
    wme = omega - epsilon
    wpe = omega + epsilon
    den = we * (x2 - wme * wme) * (x2 - wpe * wpe)
    sq = we * we - x2 * (w2 + e2)
    f1k = (
        8.0 * epsilon * (shw / xi) * sq
        + 16.0 * xi * omega * e2 * she
        + 8.0 * epsilon * omega * cothb * (x2 - w2 + e2) * dch
    ) / den
    f2k = (
        8.0 * epsilon * (she / xi) * sq
        + 16.0 * xi * omega * e2 * shw
        - 8.0 * e2 * cothb * (x2 + w2 - e2) * dch
    ) / den
    return f1k, f2k


def g2_combo_tau_reference(xi, omega, epsilon, sin_theta, beta, n=64):
    """First-spin kernel combination from the imaginary-time correlator.

    Equals g0 + sin(theta) g1 + cos(2 theta) g2 of the closed forms
    (the 4 f1 f2 prefactor is stripped on both sides).
    """
    c2t = 1.0 - 2.0 * sin_theta * sin_theta
    w, e, b = omega, epsilon, beta

    def corr(tau, tp):
        t1 = np.sinh(tp * w) * (np.cosh(e * (b - 2 * tau + tp)) - np.cosh(e * (tp - b)))
        t2 = math.sinh(w * (b - tau)) * (np.cosh(e * (tau - 2 * tp)) - math.cosh(tau * e))
        s1 = math.cosh(tau * w) * math.sinh(e * (b - tau)) - math.sinh(tau * e) * math.cosh(w * (b - tau))
        s2 = np.sinh(tp * e) * np.cosh(w * (tp - b)) + np.cosh(tp * w) * np.sinh(e * (tp - b))
        h1 = np.sinh(tp * w) * (np.cosh(e * (b - 2 * tau + tp)) + np.cosh(e * (tp - b)))
        h2 = math.sinh(w * (b - tau)) * (np.cosh(e * (tau - 2 * tp)) + math.cosh(tau * e))
        h3 = 2.0 * np.cosh(tp * e) * np.sinh(w * (tp - b)) - 2.0 * math.sinh(tau * w) * math.cosh(e * (b - tau))
        return 0.5 * c2t * (t1 + t2) + sin_theta * (s1 + s2) + 0.5 * (h1 + h2 + h3)

    return _simplex_transform(corr, xi, beta, n)


def f2_combo_tau_reference(xi, omega, epsilon, sin_theta, cos_theta, beta, n=64):
    """Second-spin kernel combination from the imaginary-time correlator.

    Equals cos(theta) (f1k - sin(theta) f2k) of the closed forms
    (the 2 f1 f2 prefactor is stripped on both sides).
    """
    w, e, b = omega, epsilon, beta

    def corr(tau, tp):
        a1 = np.cosh(e * (tp + b - 2 * tau) - tp * w)
        a2 = np.cosh(e * (tp + b - 2 * tau) + tp * w)
        a3 = np.cosh(2 * e * tp - e * tau - b * w + tau * w)
        a4 = np.cosh(2 * e * tp - e * tau + b * w - tau * w)
        sym = (2.0 * np.sinh(e * tp) * np.sinh(w * (b - tp))
               + 2.0 * math.sinh(tau * w) * math.sinh(e * (b - tau)))
        csym = (2.0 * np.cosh(w * tp) * np.cosh(e * (b - tp))
                + 2.0 * math.cosh(tau * e) * math.cosh(w * (b - tau)))
        return (cos_theta * ((a1 - a2) + (a3 - a4) + sym)
                - cos_theta * sin_theta * ((a1 + a2) + (a3 + a4) - csym))

    return _simplex_transform(corr, xi, beta, n)


# The quadrature engine's set-up of one integral, owner by owner in Python
# loops: the reference for the engine's set-up in arrays
# (``numerics._plan``), which must give every owner exactly these values.

def bridge_points(removable_points, window, cluster_rtol=1e-6):
    """Removable points to bridge and each one's relative window width."""
    raw = sorted(float(p) for p in removable_points if p > 0.0 and math.isfinite(p))
    clusters = []
    for q in raw:
        if clusters and q - clusters[-1][-1] <= cluster_rtol * q:
            clusters[-1].append(q)
        else:
            clusters.append([q])
    pts = [0.5 * (g[0] + g[-1]) for g in clusters]
    spreads = [g[-1] - g[0] for g in clusters]
    deltas = []
    for p, spread in zip(pts, spreads):
        delta = window
        near = [abs(q - p) / max(q, p) for q in pts if q != p]
        near = [g for g in near if g > 0.0]
        if near:
            delta = min(delta, 0.2 * min(near))
        deltas.append(max(delta, 3.0 * spread / p))
    return pts, deltas


def merged_windows(points, deltas):
    """[lo, hi] of the bridged windows around ascending removable points."""
    merged = []
    for p, d in zip(points, deltas):
        lo, hi = p - d * p, p + d * p
        if merged and lo - (hi - lo) / 2.0 <= merged[-1][1]:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return merged


def first_u_breaks(removable_points, breakpoints, window, scale):
    """The u-breaks an integral's first panels start from."""
    pts, deltas = bridge_points(removable_points, window)
    interior = list(breakpoints)
    for p, delta in zip(pts, deltas):
        h = delta * p
        interior.extend([p - h, p, p + h, p + 2 * h, max(p - 2 * h, p / 2)])
    u_pts = [0.0, 1.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97]
    for x in interior:
        if x > 0.0 and math.isfinite(x):
            u = -math.expm1(-x / scale)
            if 1e-14 < u < 1.0 - 1e-14:
                u_pts.append(u)
    return np.array(sorted(set(u_pts)))


def split_counts(err, n_pan, starts, total_err, budget, split=8):
    """Children per panel of owner-sorted panels, ranked by ``np.lexsort``:
    the reference for the engine's ranking (``numerics._split_counts``)."""
    pos = np.repeat(np.arange(n_pan.size), n_pan)
    rank = np.lexsort((-err, pos))
    r = np.arange(err.size) - starts[pos]
    sorted_err = np.zeros((n_pan.size, int(n_pan.max())))
    sorted_err[pos, r] = err[rank]
    cum = np.cumsum(sorted_err, axis=1)
    n_split = np.count_nonzero(cum < (0.9 * total_err)[:, None], axis=1) + 1
    n_full, rest = np.divmod(budget, split - 1)
    n_sel = np.minimum(np.minimum(n_split, n_full), n_pan)
    extra = (n_sel < np.minimum(n_split, n_pan)) & (rest > 0)
    n_sel, extra, rest = n_sel[pos], extra[pos], rest[pos]
    by_rank = np.where(r < n_sel, split, np.where(extra & (r == n_sel), rest + 1, 1))
    counts = np.empty_like(by_rank)
    counts[rank] = by_rank
    return counts
