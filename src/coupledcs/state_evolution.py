"""Coupled MSE state evolution.

One iteration refreshes the per-block MSE through the scalar channel,

    eps_p <- mmse(sum_q varsigma[q, p]),

then re-solves the conjugate precisions at the new eps, warm-started from
the previous Lambda rescaled by eps / eps_new: Lambda = (1 - Delta) / eps
moves mostly through its 1 / eps factor.  Fixed points of this map
are stationary points of the replica free entropy; iterating from eps = rho
tracks what message passing can reach, since large MSE is the only
algorithmically possible initialization.  At sigma2 = 0 the conjugate
formulas stay finite even though the free entropy itself diverges, so
noise-free evolutions are allowed.

Gaussian-ensemble runs from eps = rho lower every block's MSE and never
lower F.  Coupled row-orthogonal runs need not (their one-step map is not
order-preserving): see the L=4 chain of `tests/test_state_evolution.py::
test_orthogonal_chain_can_rise_and_lower_free_entropy`.
"""

from dataclasses import dataclass

import numpy as np

from .replica_core import CouplingSpec, Ensemble, conjugate_fixed_point
from .scalar_channel import mmse

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10 ** 5
_CYCLE_TOL = 1e-10


@dataclass
class EvolutionTrace:
    """Record of one state-evolution run.

    history[t] is the per-block MSE vector after t iterations
    (history[0] is the initialization).  ``oscillating`` flags a period-2
    cycle detected at the iteration cap; ``clamped`` flags any inner-solver
    positivity clamp along the way.
    """

    history: np.ndarray
    converged: bool
    iterations: int
    oscillating: bool
    clamped: bool

    @property
    def final_eps(self) -> np.ndarray:
        return self.history[-1]


def run_evolution(spec: CouplingSpec, kind: Ensemble, init=None,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                  damping: float = 0.0) -> EvolutionTrace:
    """Iterate the state evolution to a fixed point.

    init defaults to eps_p = rho, the large-MSE starting point (with no
    prior channel information, mmse(0) = rho).  damping in [0, 1) mixes
    theta * old + (1 - theta) * new conjugate precisions; the plain
    iteration is damping = 0.  Non-convergence at max_iter is reported in
    the trace rather than raised.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not (0.0 <= damping < 1.0):
        raise ValueError("damping must lie in [0, 1)")
    rho = spec.prior.rho
    if rho == 0.0:
        raise ValueError("rho = 0 has no state evolution: its only fixed point is eps = 0, "
                         "where the conjugate precisions are undefined")
    eps = np.full(spec.L_c, rho) if init is None else np.asarray(init, dtype=float).copy()
    if eps.shape != (spec.L_c,):
        raise ValueError(f"init must have shape ({spec.L_c},)")
    if np.any(eps <= 0) or np.any(eps > rho + 1e-15):
        raise ValueError("init must satisfy 0 < eps_p <= rho")

    state = conjugate_fixed_point(eps, spec, kind)
    clamped = state.clamped
    history = [eps]
    converged = False
    for t in range(int(max_iter)):
        eps_new = mmse(state.varsigma.sum(axis=0), spec.prior)
        new = conjugate_fixed_point(eps_new, spec, kind, Lambda0=state.Lambda * (eps / eps_new))
        clamped = clamped or new.clamped
        if damping > 0.0 and t > 0:
            new.varsigma = (1.0 - damping) * new.varsigma + damping * state.varsigma
        history.append(eps_new)
        converged = np.abs(eps_new - eps).max() < tol
        state, eps = new, eps_new
        if converged:
            break
    oscillating = (not converged and len(history) >= 3
                   and np.abs(history[-1] - history[-3]).max() < _CYCLE_TOL)
    return EvolutionTrace(history=np.array(history), converged=bool(converged),
                          iterations=len(history) - 1, oscillating=bool(oscillating),
                          clamped=clamped)


def iterations_to_good_mse(trace: EvolutionTrace, sigma2: float):
    """First iteration index whose MSE profile is noise-dominated, or None."""
    below = np.where(trace.history.max(axis=1) < 10.0 * sigma2)[0]
    return int(below[0]) if below.size else None
