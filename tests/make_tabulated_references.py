"""Write ``tests/tabulated_references.json``: mpmath references for the
integral J over tabulated baths.

Run from the repository root (about a minute on one core):

    PYTHONPATH=src python tests/make_tabulated_references.py

A bath is 40 knots (xi, xi exp(-xi/cutoff)) with xi evenly spaced on
[0, span], interpolated by the package's monotone cubic and continued
beyond the last knot as I_last exp(-(xi - xi_last)/tail).  Baths
(span, cutoff, tail):

* (60, 10, 10), the tabulated bath of ``tests/test_registry_digests.py``;
* (8, 1, 1) and (0.5, 1/16, 1/16), the shape of the tabulated baths in
  the benchmark's temperature sweep, at its largest cutoff and below its
  smallest.

J = int I(xi) [xi coth(b xi/2) - w1 coth(b w1/2)] / (xi (xi^2 - w1^2))
is computed at omega1 = 1 and beta omega1 in {0.1, 0.5, 1, 2, 4.48, 8, 30}.

The interpolant is only once differentiable at its knots, and
tanh-sinh quadrature across a knot is as wrong as Gauss-Kronrod is, so
each reference is a sum of mpmath tanh-sinh integrals, one per knot
interval (also split at omega1), plus the tail, with the cubic of each
interval summed in mpmath from the package's double coefficients
(``spectral._pchip_coefficients``) and the integrand evaluated at twice
the working precision.  These references check the quadrature and its
error estimate; ``tests/test_spectral.py`` checks the interpolant.  Each
is computed at 45 digits and checked at 60, and the script stops if the
two differ by more than 1e-25 relative.
"""

import json
import pathlib

import mpmath
import numpy as np

from cohex.spectral import _pchip_coefficients

OUT = pathlib.Path(__file__).with_name("tabulated_references.json")
KNOTS = 40
OMEGA1 = 1.0
BATHS = ((60.0, 10.0, 10.0), (8.0, 1.0, 1.0), (0.5, 0.0625, 0.0625))
BETAS = (0.1, 0.5, 1.0, 2.0, 4.48, 8.0, 30.0)
DIGITS, CHECK_DIGITS = 45, 60


def knots(span, cutoff):
    """The (xi, I) knots of a bath, in doubles, as the tests build them."""
    xi = np.linspace(0.0, span, KNOTS)
    return xi, xi * np.exp(-xi / cutoff)


def j_reference(span, cutoff, tail, beta, dps):
    xi, dens = knots(span, cutoff)
    coef = _pchip_coefficients(xi, dens)
    w1, b = mpmath.mpf(OMEGA1), mpmath.mpf(beta)

    def kernel(x):
        anchor = w1 * mpmath.coth(b * w1 / 2)
        return (x * mpmath.coth(b * x / 2) - anchor) / (x * (x * x - w1 * w1))

    def piece(k):
        x0 = mpmath.mpf(xi[k])
        c3, c2, c1, c0 = (mpmath.mpf(c) for c in coef[:, k])

        def f(x):
            with mpmath.workdps(2 * dps):
                s = x - x0
                return (c0 + c1 * s + c2 * s * s + c3 * s * s * s) * kernel(x)

        inner = [x for x in (OMEGA1,) if xi[k] < x < xi[k + 1]]
        return mpmath.quad(f, [x0, *map(mpmath.mpf, inner), mpmath.mpf(xi[k + 1])])

    last, i_last = mpmath.mpf(xi[-1]), mpmath.mpf(dens[-1])

    def tail_f(x):
        with mpmath.workdps(2 * dps):
            return i_last * mpmath.exp(-(x - last) / tail) * kernel(x)

    with mpmath.workdps(dps):
        total = mpmath.fsum(piece(k) for k in range(KNOTS - 1))
        split = [last] + ([mpmath.mpf(OMEGA1)] if OMEGA1 > xi[-1] else []) + [mpmath.inf]
        return total + mpmath.quad(tail_f, split)


def main():
    cells = []
    for span, cutoff, tail in BATHS:
        for beta in BETAS:
            value = j_reference(span, cutoff, tail, beta, DIGITS)
            check = j_reference(span, cutoff, tail, beta, CHECK_DIGITS)
            with mpmath.workdps(CHECK_DIGITS):
                rel = float(abs(value - check) / abs(check))
            if rel > 1e-25:
                raise SystemExit(f"reference unstable: {span, cutoff, tail, beta}: {rel}")
            cells.append({"quantity": "J", "span": span, "cutoff": cutoff, "tail": tail,
                          "beta_omega1": beta, "reference": mpmath.nstr(value, 25),
                          "check_rel": rel})
            print(cells[-1], flush=True)
    meta = {"bath": "%d knots (xi, xi exp(-xi/cutoff)), xi evenly spaced on [0, span]"
                    % KNOTS, "omega1": OMEGA1, "digits": DIGITS, "check_digits": CHECK_DIGITS}
    OUT.write_text(json.dumps({"meta": meta, "cells": cells}, indent=1) + "\n")


if __name__ == "__main__":
    main()
