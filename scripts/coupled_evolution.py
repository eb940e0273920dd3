#!/usr/bin/env python3
"""Per-block MSE evolution of the seeding chain for both ensembles.

Reproduces the showcase coupled experiment (W=2, L=10, alpha_seed=0.70,
alpha_bulk=0.49, J=0.5, sigma2=1e-6) and writes one trace CSV per
ensemble into results/.
"""

import os

from coupledcs import Ensemble, SeedingParams, build_seeding_spec, run_evolution
from coupledcs.cli import write_trace_csv
from coupledcs.state_evolution import iterations_to_good_mse

PARAMS = SeedingParams(L=10, W=2, alpha_seed=0.70, alpha_bulk=0.49, J=0.5)
RHO = 0.4
SIGMA2 = 1e-6
OUT_DIR = "results"


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = build_seeding_spec(PARAMS, RHO, SIGMA2)
    print(f"overall measurement rate: {spec.total_rate:.4f}")
    for kind in (Ensemble.ROW_ORTHOGONAL, Ensemble.GAUSSIAN_IID):
        trace = run_evolution(spec, kind)
        path = os.path.join(OUT_DIR, f"coupled_trace_{kind.value}.csv")
        write_trace_csv(path, trace.history)
        hit = iterations_to_good_mse(trace, SIGMA2)
        print(f"{kind.value}: converged={trace.converged} in {trace.iterations} "
              f"iterations, noise floor reached at t={hit} -> {path}")


if __name__ == "__main__":
    main()
