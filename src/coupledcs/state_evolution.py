"""Coupled MSE state evolution.

One iteration refreshes the per-block MSE through the scalar channel,

    eps_p <- mmse(sum_q varsigma[q, p]),

then re-solves the conjugate precisions at the new eps, warm-started from
the previous Lambda rescaled by eps / eps_new.  That keeps the previous
1 - Delta = Lambda eps, so each row's root starts from the tau the new
eps gives at the old 1 - Delta.  Fixed points of this map
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
from .scalar_channel import _whole_number, mmse

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10 ** 5
_CYCLE_TOL = 1e-10
# a run stops as a period-2 cycle once |e_t - e_{t-2}| is below _CYCLE_TOL and
# below this fraction of |e_t - e_{t-1}|; a damped oscillation with factor -r
# reads a ratio near 1 - r, and r > 1 - 1e-6 cannot converge within 10^5 steps
_CYCLE_RATIO = 1e-6


@dataclass
class EvolutionTrace:
    """Record of one state-evolution run.

    history[t] is the per-block MSE vector after t iterations
    (history[0] is the start, eps_p = rho).  ``oscillating`` flags a
    period-2 cycle, history[-1] within _CYCLE_TOL of history[-3] without
    convergence; the run stops at the first iteration where that distance
    is also below _CYCLE_RATIO times the last step, or else at the
    iteration cap.  iterations, oscillating and final_eps are read off
    history and converged.
    """

    history: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    @property
    def oscillating(self) -> bool:
        h = self.history
        return bool(not self.converged and len(h) >= 3
                    and np.abs(h[-1] - h[-3]).max() < _CYCLE_TOL)

    @property
    def final_eps(self) -> np.ndarray:
        return self.history[-1]


def run_evolution(spec: CouplingSpec, kind: Ensemble,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                  damping: float = 0.0) -> EvolutionTrace:
    """Iterate the state evolution to a fixed point from eps_p = rho.

    eps_p = rho is the large-MSE starting point (with no prior channel
    information, mmse(0) = rho).  damping in [0, 1) mixes
    theta * old + (1 - theta) * new conjugate precisions; the plain
    iteration is damping = 0.  Non-convergence at max_iter is reported in
    the trace rather than raised, and so is a period-2 cycle, which ends
    the run as soon as it closes (see EvolutionTrace).
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    max_iter = _whole_number("max_iter", max_iter, 1)
    if not (0.0 <= damping < 1.0):
        raise ValueError("damping must lie in [0, 1)")
    rho = spec.prior.rho
    if rho == 0.0:
        raise ValueError("rho = 0 has no state evolution: its only fixed point is eps = 0, "
                         "where the conjugate precisions are undefined")
    eps = np.full(spec.L_c, rho)

    varsigma, Lam = conjugate_fixed_point(eps, spec, kind)
    history = [eps]
    converged, last = False, np.inf
    warm = kind is Ensemble.ROW_ORTHOGONAL   # the Gaussian Lambda = 1/eps needs no start
    for t in range(max_iter):
        eps_new = mmse(np.add.reduce(varsigma, axis=0), spec.prior)
        new, Lam = conjugate_fixed_point(eps_new, spec, kind,
                                         Lambda0=Lam * (eps / eps_new) if warm else None)
        varsigma = (1.0 - damping) * new + damping * varsigma if damping > 0.0 and t > 0 else new
        history.append(eps_new)
        step = np.maximum.reduce(np.abs(eps_new - eps))
        converged = step < tol
        eps = eps_new
        if converged:
            break
        # |e_t - e_{t-2}| >= |step - last| (the triangle inequality), so a cycle needs
        # the last two steps within 2 _CYCLE_TOL of each other; rounding is far below that
        if abs(step - last) < 2.0 * _CYCLE_TOL:
            back = np.maximum.reduce(np.abs(eps_new - history[-3]))
            if back < _CYCLE_TOL and back < _CYCLE_RATIO * step:
                break
        last = step
    return EvolutionTrace(history=np.array(history), converged=bool(converged))


def iterations_to_good_mse(trace: EvolutionTrace, sigma2: float):
    """First iteration index whose MSE profile is noise-dominated, or None."""
    below = np.where(trace.history.max(axis=1) < 10.0 * sigma2)[0]
    return int(below[0]) if below.size else None
