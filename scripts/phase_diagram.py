#!/usr/bin/env python3
"""Phase-transition lines alpha_d / alpha_c / alpha_s versus noise variance.

Sweeps a log grid of sigma2 for both measurement ensembles and writes
results/phase_<ensemble>.csv.  Points past the cusp (no two-maxima
window) carry sharp=0 and empty rate columns.
"""

import os

import numpy as np

from coupledcs import Ensemble, sweep_phase_diagram
from coupledcs.cli import write_phase_csv

RHO = 0.4
SIGMA2_GRID = np.geomspace(1e-6, 3e-3, 12)
OUT_DIR = "results"


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for kind in (Ensemble.ROW_ORTHOGONAL, Ensemble.GAUSSIAN_IID):
        points = sweep_phase_diagram(RHO, SIGMA2_GRID, kind)
        path = os.path.join(OUT_DIR, f"phase_{kind.value}.csv")
        write_phase_csv(path, points)
        for pt in points:
            print(f"{kind.value} sigma2={pt.sigma2:.2e} sharp={pt.sharp} "
                  f"alpha_d={pt.alpha_d} alpha_c={pt.alpha_c}")
        print(f"-> {path}")


if __name__ == "__main__":
    main()
