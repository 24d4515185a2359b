"""Write ``tests/subohmic_references.json``: mpmath references for
integrals over sub-ohmic generalized baths, I(xi) = A xi^s exp(-xi/omega_c).

Run from the repository root (about four minutes on one core):

    PYTHONPATH=src python tests/make_subohmic_references.py

Cells (A = 1, params (omega1, omega2, t, f1, f2) = (1, 3, 0.1, 0.1, 0.1)):

* J (``coherence_integral``), ``sigma1x_general`` and ``r1_value`` for
  s in {0.25, 0.5, 0.75}, omega_c in {10, 0.625} and beta omega1 in
  {0.1, 1, 4.48, 30};
* ``sigma2x_fermion`` at s = 0.5, omega_c = 10, beta omega1 = 4.48 and
  omega2/omega1 = 4, a cell whose error estimate once under-bounded its
  error.

Each reference is mpmath's tanh-sinh quadrature, split at the kernel's
removable points, with the kernel evaluated at twice the working
precision, in the variable y = xi^(1/4); it is computed at 45 digits and
checked at 60, and the script stops if the two differ by more than 1e-25
relative.  J and the fermion kernel are written out
here; the spin kernels are the printed ones, ``oracles.printed_g_parts``
and ``printed_f_parts``, evaluated on mpmath numbers, so these references
check the package's pole sums, the quadrature and its error estimate,
while ``tests/test_spin_general.py`` checks the printed kernels' algebra
against imaginary-time oracles.  The second-spin references serve
``tests/make_hot_references.py``.
"""

import json
import pathlib

import mpmath

from oracles import printed_f_parts, printed_g_parts

OUT = pathlib.Path(__file__).with_name("subohmic_references.json")
PARAMS = (1.0, 3.0, 0.1, 0.1, 0.1)
EXPONENTS = (0.25, 0.5, 0.75)
CUTOFFS = (10.0, 0.625)
BETAS = (0.1, 1.0, 4.48, 30.0)
FERMION_CELL = {"s": 0.5, "cutoff": 10.0, "beta_omega1": 4.48, "omega2": 4.0}
DIGITS, CHECK_DIGITS = 45, 60


def _quad(integrand, points, dps):
    """integral over (0, inf) split at ``points``, integrand at 2 dps.

    Integrated in y = xi^(1/4), where xi^(s - 1) dxi = 4 y^(4 s - 1) dy
    is smooth for s in {0.25, 0.5, 0.75}; tanh-sinh in xi itself is off
    by 3e-13 relative at s = 0.25, even at 45 digits.
    """
    with mpmath.workdps(dps):
        def f(y):
            with mpmath.workdps(2 * dps):
                return integrand(y ** 4) * 4 * y ** 3

        split = [mpmath.mpf(0)] + sorted(mpmath.root(mpmath.mpf(p), 4) for p in points)
        return mpmath.quad(f, split + [mpmath.inf], maxdegree=12)


def _density(s, wc):
    return lambda x: x ** mpmath.mpf(s) * mpmath.exp(-x / wc)


def j_reference(s, wc, beta, dps):
    """J = int I(xi) [xi coth(b xi/2) - w1 coth(b w1/2)] / (xi (xi^2 - w1^2))."""
    w1 = mpmath.mpf(PARAMS[0])
    b = mpmath.mpf(beta)
    dens = _density(s, wc)

    def integrand(x):
        anchor = w1 * mpmath.coth(b * w1 / 2)
        return dens(x) * (x * mpmath.coth(b * x / 2) - anchor) / (x * (x * x - w1 * w1))

    return _quad(integrand, (w1,), dps)


def _pair(beta):
    """omega, epsilon, sin(theta), cos(theta) and the hyperbolic weights
    cosh b omega, cosh b epsilon, sinh b omega, sinh b epsilon divided by
    cosh(b omega) + cosh(b epsilon), at the working precision."""
    w1, w2, t = (mpmath.mpf(v) for v in PARAMS[:3])
    b = mpmath.mpf(beta)
    omega = (w1 + w2) / 2
    r = mpmath.sqrt(4 * t * t + (w1 - w2) ** 2)
    eps = r / 2
    norm = mpmath.cosh(b * omega) + mpmath.cosh(b * eps)
    weights = [f(b * e) / norm for f, e in ((mpmath.cosh, omega), (mpmath.cosh, eps),
                                            (mpmath.sinh, omega), (mpmath.sinh, eps))]
    return omega, eps, (w1 - w2) / r, 2 * t / r, weights


def first_spin_reference(s, wc, beta, dps):
    """int I(xi) [g0 + sin(theta) g1 + cos(2 theta) g2] with the
    hyperbolic weights divided by cosh(b omega) + cosh(b epsilon)."""
    with mpmath.workdps(2 * dps):
        b = mpmath.mpf(beta)
        omega, eps, sin_t, cos_t, weights = _pair(beta)
        cos2t = cos_t * cos_t - sin_t * sin_t
    dens = _density(s, wc)

    def integrand(x):
        g0, g1, g2 = printed_g_parts(x, mpmath.coth(b * x / 2), omega, eps, *weights)
        return dens(x) * (g0 + sin_t * g1 + cos2t * g2)

    return _quad(integrand, (abs(omega - eps), omega + eps, 2 * eps), dps)


def second_spin_reference(s, wc, beta, dps):
    """int I(xi) [f1k - sin(theta) f2k] with the same weights."""
    with mpmath.workdps(2 * dps):
        b = mpmath.mpf(beta)
        omega, eps, sin_t, _, (chw, che, shw, she) = _pair(beta)
    dens = _density(s, wc)

    def integrand(x):
        f1k, f2k = printed_f_parts(x, mpmath.coth(b * x / 2), omega, eps, shw, she, chw - che)
        return dens(x) * (f1k - sin_t * f2k)

    return _quad(integrand, (abs(omega - eps), omega + eps), dps)


def sigma1x_general_reference(s, wc, beta, dps):
    with mpmath.workdps(dps):
        return mpmath.mpf(PARAMS[3]) * PARAMS[4] * first_spin_reference(s, wc, beta, dps)


def sigma2x_general_reference(s, wc, beta, dps):
    with mpmath.workdps(2 * dps):
        cos_t = _pair(beta)[3]
    with mpmath.workdps(dps):
        pre = mpmath.mpf(PARAMS[3]) * PARAMS[4] * cos_t / 2
        return pre * second_spin_reference(s, wc, beta, dps)


def r1_reference(s, wc, beta, dps):
    with mpmath.workdps(dps):
        th1 = mpmath.tanh(mpmath.mpf(beta) * PARAMS[0] / 2)
        return first_spin_reference(s, wc, beta, dps) / (-4 * th1 * j_reference(s, wc, beta, dps))


def r2_reference(s, wc, beta, dps):
    with mpmath.workdps(2 * dps):
        eps = _pair(beta)[1]
    with mpmath.workdps(dps):
        b, w1, w2 = mpmath.mpf(beta), mpmath.mpf(PARAMS[0]), mpmath.mpf(PARAMS[1])
        den = 8 * mpmath.tanh(b * w1 / 2) * mpmath.tanh(b * w2 / 2) * j_reference(s, wc, beta, dps)
        return w2 / eps * second_spin_reference(s, wc, beta, dps) / den


def sigma2x_fermion_reference(s, wc, beta, w2, dps):
    """pre (int I(xi) K(xi) dxi + n1 (1 - 2 n2) Omega / w2), the combined
    organization with Omega = A Gamma(s) wc^s and pre = -4 t f1 f2 / dw."""
    with mpmath.workdps(2 * dps):
        w1, t, f1, f2 = (mpmath.mpf(PARAMS[i]) for i in (0, 2, 3, 4))
        w2, b = mpmath.mpf(w2), mpmath.mpf(beta)
        dw = w2 - w1

        def fermi(y):
            return 1 / (mpmath.exp(b * y) + 1)

        n1, n2 = fermi(w1), fermi(w2)
    dens = _density(s, wc)

    def integrand(x):
        nb = 1 / mpmath.expm1(b * x)
        below, above = fermi(w1 - x), fermi(w1 + x)
        group_a = (1 / (2 * w1 * (x - w1)) - 1 / (2 * w2 * (x - w1)) - below / (x * (x - w1))
                   + n2 / (w2 * (x + dw)) + below / ((x - w1) * (x + dw)))
        group_b = (above / ((x + w1) * (x - dw)) - n2 / (w2 * (x - dw))
                   - above / (x * (x + w1)) + 1 / (2 * (x + w1) * w2)
                   - 1 / (2 * (x + w1) * w1))
        return dens(x) * ((nb + n1) * group_a + (nb + 1 - n1) * group_b)

    integral = _quad(integrand, (w1, abs(dw)), dps)
    with mpmath.workdps(dps):
        omega = mpmath.gamma(mpmath.mpf(s)) * mpmath.mpf(wc) ** mpmath.mpf(s)
        return -4 * t * f1 * f2 / dw * (integral + n1 * (1 - 2 * n2) * omega / w2)


REFERENCES = {
    "J": j_reference,
    "sigma1x_general": sigma1x_general_reference,
    "r1": r1_reference,
}


def _checked(compute, *args):
    """(45-digit value, its relative distance to the 60-digit one)."""
    value = compute(*args, DIGITS)
    check = compute(*args, CHECK_DIGITS)
    with mpmath.workdps(CHECK_DIGITS):
        rel = abs(value - check) / abs(check)
    if rel > 1e-25:
        raise SystemExit(f"reference unstable: {compute.__name__}{args}: {rel}")
    return value, float(rel)


def main():
    cells = []
    for quantity, compute in REFERENCES.items():
        for s in EXPONENTS:
            for wc in CUTOFFS:
                for beta in BETAS:
                    value, rel = _checked(compute, s, wc, beta)
                    cells.append({"quantity": quantity, "s": s, "cutoff": wc,
                                  "beta_omega1": beta, "omega2": PARAMS[1],
                                  "reference": mpmath.nstr(value, 25), "check_rel": rel})
                    print(cells[-1], flush=True)
    fc = FERMION_CELL
    value, rel = _checked(sigma2x_fermion_reference, fc["s"], fc["cutoff"],
                          fc["beta_omega1"], fc["omega2"])
    cells.append(dict(quantity="sigma2x_fermion", **fc, reference=mpmath.nstr(value, 25),
                      check_rel=rel))
    print(cells[-1], flush=True)
    meta = {"bath": "A xi^s exp(-xi/cutoff), A = 1", "params": list(PARAMS),
            "digits": DIGITS, "check_digits": CHECK_DIGITS}
    OUT.write_text(json.dumps({"meta": meta, "cells": cells}, indent=1) + "\n")


if __name__ == "__main__":
    main()
