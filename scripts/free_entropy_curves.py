#!/usr/bin/env python3
"""Free-entropy curves across the bistable window (figure-ready CSV).

Writes results/free_entropy_<ensemble>_alpha<alpha>.csv with columns
(eps, F) plus a companion .maxima.csv listing the refined local maxima.
"""

import os

from coupledcs import Ensemble, scan_curve
from coupledcs.cli import write_curve_csv

RHO = 0.4
SIGMA2 = 1e-4
ALPHAS = (0.44, 0.47, 0.49, 0.52, 0.56)
OUT_DIR = "results"


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for kind in (Ensemble.ROW_ORTHOGONAL, Ensemble.GAUSSIAN_IID):
        for alpha in ALPHAS:
            curve = scan_curve(RHO, SIGMA2, alpha, kind)
            base = os.path.join(OUT_DIR, f"free_entropy_{kind.value}_alpha{alpha:g}")
            write_curve_csv(f"{base}.csv", zip(curve.eps_grid, curve.values))
            write_curve_csv(f"{base}.maxima.csv", curve.maxima)
            print(f"{kind.value} alpha={alpha}: {curve.n_maxima} maxima -> {base}.csv")


if __name__ == "__main__":
    main()
