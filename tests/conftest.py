import os

import numpy as np
import pytest
from hypothesis import settings

from coupledcs import (BernoulliGaussianPrior, CouplingSpec, Ensemble, NoTransitionError, apply,
                       find_alpha_d, run_evolution, single_block_spec)

# dense oracles build an M x N complex matrix: 4096^2 entries are 256 MB
DENSE_LIMIT = 4096

# the sparsities the scalar kernels are swept over, from nearly empty to nearly dense
SWEEP_RHO = (1e-3, 0.01, 0.1, 0.4, 0.5, 0.6, 0.9, 0.99, 0.995, 0.999)

# overrides that give a 2-row seeding chain's spec document sizes L_r, L_c that are not
# alpha's shape; spec_from_json must reject each
BAD_SIZES = {
    "L_r-3": {"L_r": 3},
    "L_c-1": {"L_c": 1},
    "alpha-1d": {"alpha": [0.7, 0.5]},
    "empty": {"L_r": 0, "L_c": 0, "gamma": [], "alpha": [], "J": []},
}

# HYPOTHESIS_PROFILE=ci draws every property's examples from a fixed seed, so that a
# failure in CI repeats on a rerun and on another machine; the default stays random
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
        gamma=gamma, alpha=alpha, J=J,
        sigma2=float(rng.uniform(1e-6, 1e-2)),
        prior=BernoulliGaussianPrior(float(rng.uniform(0.1, 0.9))),
    )


def dft_draws(op, seed):
    """{(q, p): (rows, perm, scale)} of an orthogonal operator's DFT blocks, drawn again.

    The stream protocol of `measurement_ops`, followed here without its code: block (q, p)
    of an operator drawn with this seed draws from Philox on child q * L_c + p of
    SeedSequence(seed).spawn(L_r * L_c), rng.choice(n_p, m_q, replace=False) and then
    rng.permutation(n_p), with n_p and m_q read off the operator's offsets; its entries
    are scale e^(-2 pi i rows[r] perm[j] / n_p) / sqrt(n_p), scale = sqrt(J[q, p] n_p / N).
    An empty dict for a Gaussian operator.
    """
    if op.kind is not Ensemble.ROW_ORTHOGONAL:
        return {}
    spec = op.spec
    streams = np.random.SeedSequence(seed).spawn(spec.L_r * spec.L_c)
    draws = {}
    for q, p in zip(*np.nonzero(spec.J)):
        q, p = int(q), int(p)
        n_p = int(op.col_offsets[p + 1] - op.col_offsets[p])
        m_q = int(op.row_offsets[q + 1] - op.row_offsets[q])
        rng = np.random.Generator(np.random.Philox(streams[q * spec.L_c + p]))
        rows = rng.choice(n_p, m_q, replace=False)
        draws[q, p] = rows, rng.permutation(n_p), float(np.sqrt(spec.J[q, p] * n_p / op.N))
    return draws


def dense_from_blocks(op, seed):
    """Independent dense oracle: DFT blocks from their draws again (`dft_draws`, no FFT
    path), Gaussian blocks from their stored matrices."""
    A = np.zeros((op.M, op.N), dtype=complex)
    draws = dft_draws(op, seed)
    for (q, p), block in op.blocks.items():
        r0, c0 = op.row_offsets[q], op.col_offsets[p]
        if (q, p) in draws:
            rows, perm, scale = draws[q, p]
            n = perm.size
            sub = scale * np.exp(-2j * np.pi * np.outer(rows, perm) / n) / np.sqrt(n)
        else:
            sub = block.matrix
        A[r0:r0 + sub.shape[0], c0:c0 + sub.shape[1]] += sub
    return A


def dense_materialize(op):
    """Full M x N matrix, defined as the operator's action on the basis.

    Gaussian blocks are stored, so their matrices are copied into place;
    the action of `apply` on a basis vector gives the same bytes.
    """
    if op.N > DENSE_LIMIT:
        raise ValueError(f"dense materialization limited to N <= {DENSE_LIMIT}")
    if op.kind is Ensemble.GAUSSIAN_IID:
        A = np.zeros((op.M, op.N), dtype=complex)
        for (q, p), block in op.blocks.items():
            A[op.row_offsets[q]:op.row_offsets[q + 1],
              op.col_offsets[p]:op.col_offsets[p + 1]] = block.matrix
        return A
    A = np.empty((op.M, op.N), dtype=complex)
    e = np.zeros(op.N, dtype=complex)
    for k in range(op.N):
        e[k] = 1.0
        A[:, k] = apply(op, e)
        e[k] = 0.0
    return A


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
