"""Re-derive the general-coupling pole sums from the printed kernels.

Run from the repository root (about 15 s; needs sympy):

    PYTHONPATH=src python tests/derive_pole_sums.py

Each spin's printed kernel assembly, g0 + sin(theta) g1 + cos(2 theta) g2
for the first spin and f1k - sin(theta) f2k for the second
(``oracles.printed_g_parts`` / ``printed_f_parts``, run on symbols), is
(1/xi) F(y) + coth(beta xi/2) G(y) with F and G rational in y = xi^2.
The script

* takes the residues alpha_p of F and gamma_p of G at each squared
  removable point p^2, and checks that F and G are exactly the sums of
  those poles (no polynomial part, no other pole);
* checks that every alpha_p equals the one
  ``spin_general._first_spin_residues`` / ``_second_spin_residues``
  computes on the same symbols, with cos(theta) = sqrt(1 - sin(theta)^2)
  and cos(2 theta) = 1 - 2 sin(theta)^2 (the first spin's over chw + che,
  as the package passes its weights);
* checks removability, gamma_p = -alpha_p tanh(beta p/2)/p, with the
  hyperbolic weights written through X = e^(beta omega), Y = e^(beta
  epsilon), and that the second-spin request's weights, shw + she and
  shw - she over cosh(beta omega) + cosh(beta epsilon), are
  tanh(beta (omega +- epsilon)/2);
* checks that alpha_p [phi_p/xi - (coth - 2/(beta xi)) tau_p], with
  tau_p = tanh(beta p/2)/p and phi_p = 1 - 2 tau_p/beta, is
  alpha_p/xi + coth gamma_p.

It prints each residue and exits non-zero on any mismatch.
"""

import sys

import sympy as sp

from cohex.spin_general import SpinMixing, _first_spin_residues, _second_spin_residues
from oracles import printed_f_parts, printed_g_parts

xi, y, omega, epsilon, beta = sp.symbols("xi y omega epsilon beta", positive=True)
X, Y = sp.symbols("X Y", positive=True)  # e^(beta omega), e^(beta epsilon)
sin_t, coth = sp.symbols("s coth", real=True)
chw, che, shw, she, dch = sp.symbols("chw che shw she dch", real=True)
MIX = SpinMixing(omega, epsilon, sp.sqrt(1 - sin_t**2), sin_t)
GAP, TOTAL = omega - epsilon, omega + epsilon
POLES = (GAP, TOTAL, 2 * epsilon)
# tanh(beta p/2) at each removable point, and the hyperbolic weights, in X and Y.
HALF_TANH = ((X - Y) / (X + Y), (X * Y - 1) / (X * Y + 1), (Y**2 - 1) / (Y**2 + 1))
THERMAL = {chw: (X + 1 / X) / 2, che: (Y + 1 / Y) / 2, shw: (X - 1 / X) / 2,
           she: (Y - 1 / Y) / 2, dch: (X + 1 / X - Y - 1 / Y) / 2}


def _exact(expr):
    """expr with its float literals (2.0, 4.0, ...) as the rationals they are."""
    expr = sp.sympify(expr)
    return expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})


def _parts(kernel):
    """(F, G) of kernel = (1/xi) F(xi^2) + coth G(xi^2)."""
    g = sp.diff(kernel, coth)
    f = sp.expand(kernel - coth * g) * xi
    on_y = {xi: sp.sqrt(y)}
    return sp.cancel(sp.together(f.subs(on_y))), sp.cancel(sp.together(g.subs(on_y)))


def _vanishes(expr):
    return sp.simplify(sp.cancel(sp.together(expr))) == 0


def _check(name, kernel, package_alphas, norm=1):
    """Derive the kernel's residues and check them against the package's
    times ``norm``; False on a mismatch."""
    kernel = _exact(kernel)
    package_alphas = [norm * _exact(alpha) for alpha in package_alphas]
    poles = POLES[:len(package_alphas)]
    ok = True
    residues = []
    for part, label in zip(_parts(kernel), ("alpha", "gamma")):
        derived = [sp.cancel(part * (y - p * p)).subs(y, p * p) for p in poles]
        rest = sp.cancel(part - sum(r / (y - p * p) for r, p in zip(derived, poles)))
        if rest != 0:
            print(f"{name}: {label} part is not a sum of poles at {poles}: {rest}")
            ok = False
        residues.append(derived)
    for p, alpha, gamma, mine, half_tanh in zip(poles, *residues, package_alphas, HALF_TANH):
        same = _vanishes(alpha - mine)
        removable = _vanishes((gamma + alpha * half_tanh / p).subs(THERMAL))
        ok &= same and removable
        print(f"{name}: alpha at p = {p}: {sp.factor(alpha)}"
              + ("" if same else f"  MISMATCH, package {sp.factor(mine)}")
              + ("" if removable else "  NOT REMOVABLE: gamma_p != -alpha_p tanh(beta p/2)/p"))
    return ok


def main():
    g0, g1, g2 = printed_g_parts(xi, coth, omega, epsilon, chw, che, shw, she)
    first = g0 + sin_t * g1 + (1 - 2 * sin_t**2) * g2
    f1k, f2k = printed_f_parts(xi, coth, omega, epsilon, shw, she, dch)
    second = f1k - sin_t * f2k
    cosh_share = che / (chw + che)
    ok = _check("first spin", first, _first_spin_residues(MIX, cosh_share), chw + che)
    ok &= _check("second spin", second, _second_spin_residues(MIX, shw + she, shw - she))

    # The weight sums the requests pass, over cosh(beta omega) + cosh(beta epsilon).
    norm = (chw + che).subs(THERMAL)
    sums = {"shw + she = tanh(beta (omega + epsilon)/2)": (shw + she, HALF_TANH[1]),
            "shw - she = tanh(beta (omega - epsilon)/2)": (shw - she, HALF_TANH[0])}
    for label, (weights, closed) in sums.items():
        holds = _vanishes(weights.subs(THERMAL) / norm - closed)
        ok &= holds
        print(f"scaled {label}: {'holds' if holds else 'FAILS'}")

    # The regrouped bracket of one pole is the printed pair of terms.
    alpha, tau = sp.symbols("alpha tau")
    phi = 1 - 2 * tau / beta
    regrouped = alpha * (phi / xi - (coth - 2 / (beta * xi)) * tau)
    holds = _vanishes(regrouped - (alpha / xi + coth * (-alpha * tau)))
    ok &= holds
    print(f"alpha (phi/xi - (coth - 2/(beta xi)) tau) = alpha/xi - coth alpha tau: "
          f"{'holds' if holds else 'FAILS'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
