"""Write ``tests/hot_references.json``: mpmath references for the
general-coupling quantities at high temperature.

Run from the repository root (about four minutes on one core):

    PYTHONPATH=src python tests/make_hot_references.py

Cells: ohmic bath I(xi) = xi exp(-xi/10), params (omega1, omega2, t, f1,
f2) = (1, 3, 0.1, 0.1, 0.1), ``sigma1x_general``, ``sigma2x_general``,
``r1`` and ``r2`` at beta omega1 in {1e-2, 1e-3, 1e-4, 1e-5, 1e-8, 1e-12,
1e-20}, computed as in ``tests/make_subohmic_references.py`` with s = 1.

The printed kernels cancel from order 1 to order beta^2 (first spin) or
beta^3 (second spin); the second spin's loses about 3.75 digits per
decade of beta.  So each cell works at 4 |log10(beta omega1)| + 30
digits (its kernel at twice that), and is checked at 20 digits more; the
script stops if the two differ by more than 1e-25 relative.
"""

import json
import math
import pathlib

import mpmath

from make_subohmic_references import (
    PARAMS,
    r1_reference,
    r2_reference,
    sigma1x_general_reference,
    sigma2x_general_reference,
)

OUT = pathlib.Path(__file__).with_name("hot_references.json")
CUTOFF = 10.0
BETAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-8, 1e-12, 1e-20)
REFERENCES = {
    "sigma1x_general": sigma1x_general_reference,
    "sigma2x_general": sigma2x_general_reference,
    "r1": r1_reference,
    "r2": r2_reference,
}


def main():
    cells = []
    for beta in BETAS:
        dps = 4 * round(abs(math.log10(beta))) + 30
        for quantity, compute in REFERENCES.items():
            value, check = compute(1.0, CUTOFF, beta, dps), compute(1.0, CUTOFF, beta, dps + 20)
            with mpmath.workdps(dps + 20):
                rel = abs(value - check) / abs(check)
            if rel > 1e-25:
                raise SystemExit(f"reference unstable: {quantity} at beta {beta}: {rel}")
            cells.append({"quantity": quantity, "beta_omega1": beta, "digits": dps,
                          "reference": mpmath.nstr(value, 25), "check_rel": float(rel)})
            print(cells[-1], flush=True)
    meta = {"bath": f"xi exp(-xi/{CUTOFF:g})", "params": list(PARAMS)}
    OUT.write_text(json.dumps({"meta": meta, "cells": cells}, indent=1) + "\n")


if __name__ == "__main__":
    main()
