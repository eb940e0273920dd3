"""The replica prediction against the exact MMSE of the operators the package draws.

At rho = 1 the prior is a standard complex Gaussian, so the Bayes estimator
of x from y = A x + sigma z is linear, with error covariance
(I + A^H A / sigma2)^-1.  The block means of its diagonal are the exact
per-block MSE of one drawn operator.  The state-evolution fixed point of
the operator's own ensemble must match them up to the finite-size spread
at N = 1024, and the other ensemble's fixed point must miss them by more.
"""

import numpy as np
import pytest

from coupledcs import (Ensemble, SeedingParams, build_coupled_operator, build_seeding_spec,
                       run_evolution)
from coupledcs.measurement_ops import dense_materialize

N = 1024
GAUSS = Ensemble.GAUSSIAN_IID
ORTH = Ensemble.ROW_ORTHOGONAL

# Seeding chains drawn once from a fixed seed: L 2-3, rates 0.2-0.95, sigma2 log-uniform in
# 1e-3-0.3.  Draws whose two predictions differ by less than 3% in every block were
# redrawn: at N = 1024 they cannot tell the two formulas apart.
SPECS = [
    (SeedingParams(L=3, W=2, alpha_seed=0.873, alpha_bulk=0.782, J=0.605), 0.00554),
    (SeedingParams(L=3, W=2, alpha_seed=0.947, alpha_bulk=0.794, J=1.32), 0.282),
    (SeedingParams(L=2, W=2, alpha_seed=0.55, alpha_bulk=0.888, J=1.333), 0.0188),
    (SeedingParams(L=3, W=1, alpha_seed=0.86, alpha_bulk=0.582, J=1.725), 0.0384),
    (SeedingParams(L=2, W=1, alpha_seed=0.812, alpha_bulk=0.485, J=1.962), 0.0289),
    (SeedingParams(L=2, W=2, alpha_seed=0.678, alpha_bulk=0.707, J=0.471), 0.0123),
]
# The L=4 chain whose undamped orthogonal run ends in a period-2 cycle
# (test_state_evolution.py::test_orthogonal_chain_period_two_cycle_and_damped_convergence)
CHAIN = SeedingParams(L=4, W=1, alpha_seed=0.95366, alpha_bulk=0.63876, J=2.2283), 1e-2
# Relative block error allowed to the own ensemble's prediction, and exceeded by the other's.
# Finite-size spread at N = 1024: over operator seeds 0-11 the largest error of one draw
# was 7.4e-3 (all twelve SPECS cases), and over the 11 triples of seeds 0-32 the largest
# error of a CHAIN 3-draw mean was 8.7e-3.  The other ensemble missed by at least 3.1e-2.
BOUND = 1.5e-2


def lmmse_block_mse(spec, kind, seed):
    """Exact per-block MSE at rho = 1 for one operator drawn with this seed."""
    op = build_coupled_operator(spec, N, seed, kind)
    A = dense_materialize(op)
    # diag (I + A^H A / sigma2)^-1 = 1 - diag A^H (sigma2 I + A A^H)^-1 A, an M x M solve
    X = np.linalg.solve(spec.sigma2 * np.eye(op.M) + A @ A.conj().T, A)
    diag = 1.0 - np.einsum("ij,ij->j", A.conj(), X).real
    return np.add.reduceat(diag, op.col_offsets[:-1]) / np.diff(op.col_offsets)


def predictions(spec):
    # damped, because the undamped orthogonal runs of some specs end in a period-2 cycle;
    # a fixed point of the damped iteration is a fixed point of the plain one
    traces = {kind: run_evolution(spec, kind, damping=0.7) for kind in (ORTH, GAUSS)}
    assert all(trace.converged for trace in traces.values())
    return {kind: trace.final_eps for kind, trace in traces.items()}


def miss(mse, eps):
    """Largest relative block error of a predicted MSE vector."""
    return np.abs(mse / eps - 1.0).max()


@pytest.mark.parametrize("kind", [ORTH, GAUSS], ids=lambda kind: kind.value)
@pytest.mark.parametrize("params, sigma2", SPECS, ids=[f"spec{i}" for i in range(len(SPECS))])
def test_fixed_point_is_the_mmse_of_a_drawn_operator(params, sigma2, kind):
    spec = build_seeding_spec(params, 1.0, sigma2)
    pred = predictions(spec)
    mse = lmmse_block_mse(spec, kind, seed=0)
    assert miss(mse, pred[kind]) <= BOUND, (mse, pred[kind])
    other = GAUSS if kind is ORTH else ORTH
    assert miss(mse, pred[other]) > BOUND, (mse, pred[other])


def test_damped_cycle_fixed_point_is_the_mmse_of_drawn_operators():
    params, sigma2 = CHAIN
    spec = build_seeding_spec(params, 1.0, sigma2)
    pred = predictions(spec)
    mse = np.mean([lmmse_block_mse(spec, ORTH, seed) for seed in range(3)], axis=0)
    assert miss(mse, pred[ORTH]) <= BOUND, (mse, pred[ORTH])
    assert miss(mse, pred[GAUSS]) > BOUND, (mse, pred[GAUSS])
