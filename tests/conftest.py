import numpy as np
import pytest

from coupledcs import (BernoulliGaussianPrior, CouplingSpec, NoTransitionError, find_alpha_d,
                       run_evolution, single_block_spec)


def random_coupled_spec(rng, max_blocks=4, dft_safe=True):
    """Random valid CouplingSpec for operator and free-entropy tests.

    dft_safe keeps every row rate below min(gamma) so M_q <= N_p holds for
    any nonzero block once integer sizes are assigned.
    """
    L_r = int(rng.integers(1, max_blocks + 1))
    L_c = int(rng.integers(1, max_blocks + 1))
    gamma = rng.uniform(0.5, 1.5, size=L_c)
    gamma = gamma / gamma.sum()
    # connectivity: a random band-ish mask, then patch empty rows/columns
    J = np.where(rng.random((L_r, L_c)) < 0.6, rng.uniform(0.2, 2.0, (L_r, L_c)), 0.0)
    for q in range(L_r):
        if not J[q].any():
            J[q, int(rng.integers(L_c))] = rng.uniform(0.2, 2.0)
    for p in range(L_c):
        if not J[:, p].any():
            J[int(rng.integers(L_r)), p] = rng.uniform(0.2, 2.0)
    cap = 0.9 * gamma.min() if dft_safe else 0.9
    row_rates = rng.uniform(0.2 * cap, cap, size=L_r)
    alpha = row_rates[:, None] / gamma[None, :]
    return CouplingSpec(
        L_r=L_r, L_c=L_c, gamma=gamma, alpha=alpha, J=J,
        sigma2=float(rng.uniform(1e-6, 1e-2)),
        prior=BernoulliGaussianPrior(float(rng.uniform(0.1, 0.9))),
    )


def bp_mse_at(rho, sigma2, alpha, kind):
    """MSE that single-block state evolution reaches from eps = rho (the rightmost maximum of F)."""
    trace = run_evolution(single_block_spec(rho, sigma2, alpha), kind)
    assert trace.converged, (rho, sigma2, alpha, kind)
    return float(trace.final_eps[0])


def window_exists(rho, sigma2, kind):
    """Whether some rate below one has two free-entropy maxima at this noise level."""
    try:
        find_alpha_d(rho, sigma2, kind)
    except NoTransitionError:
        return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
