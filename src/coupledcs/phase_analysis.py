"""Free-entropy curve scans and phase-transition location.

For the uncoupled system at density rho and noise sigma2, the free
entropy F(eps) has either one local maximum or two.  Three measurement
rates organize the phase diagram:

  alpha_d  largest rate with two maxima (message passing reaches the good
           MSE above it),
  alpha_s  smallest rate with two maxima,
  alpha_c  rate at which the two maxima have equal height (the optimal
           threshold, reachable with seeding matrices).

The maxima of F are fixed points of the state evolution eps =
mmse(varsigma(eps; alpha)).  Each fixed point eps = mmse(v), v =
varsigma(eps; alpha) gives alpha in closed form, so one mmse call on a
log grid of v traces all of them as the curve alpha(v) (the
spinodal/Maxwell analysis of Krzakala et al., "Probabilistic
reconstruction in compressed sensing", 2012).  It rises along the
large-MSE maxima, falls along the minima and rises along the small-MSE
maxima: the maxima at a rate are its rising crossings of that rate,
alpha_d and alpha_s are its folds, and alpha_c equalizes F on its two
rising branches.
"""

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, QuadratureError
from .replica_core import NO_NOISE_MESSAGE, Ensemble, free_entropy_grid, single_block_spec
from .scalar_channel import BernoulliGaussianPrior, mmse

DEFAULT_GRID_POINTS = 2000
# unread in the package; it stays because tests and perfbench/workloads.py import it as
# the resolution of a reported transition rate
ALPHA_TOL = 1e-5
# root-find bracket width relative to max(1, |end|): a few dozen ulps
_ROOT_XTOL = 1e-14
_ROOT_MAX_ITER = 100
# at alpha = 1 exactly the orthogonal inner extremization degenerates
# (Delta -> 1, Lambda -> 0 for eps > sigma2), so alpha_d is capped below it
_ALPHA_SEARCH_CAP = 1.0 - 1e-7


class NoTransitionError(ValueError):
    """No two-maxima window exists below alpha = 1."""


@dataclass
class FreeEntropyCurve:
    """Log grid over eps with the interior local maxima of F as (eps, F), eps increasing.

    A maximum is a cell of the fixed-point curve's log v grid where alpha(v)
    rises through the rate.  A refined curve carries F on the eps grid in
    values and each maximum at its root of alpha(v) - alpha; an unrefined
    one computes no F: values is None and each maximum is mmse at the end
    of its cell where alpha(v) >= alpha, height None.
    """

    eps_grid: np.ndarray
    values: np.ndarray | None
    maxima: list = field(default_factory=list)

    @property
    def n_maxima(self) -> int:
        return len(self.maxima)


@dataclass
class PhasePoint:
    """Transition rates at one noise level; rates are None when not sharp."""

    sigma2: float
    alpha_d: float | None = None
    alpha_c: float | None = None
    alpha_s: float | None = None
    sharp: bool = False
    error: str | None = None


def default_eps_floor(sigma2: float) -> float:
    """Lower end of the scan grid: maxima live between O(sigma2) and O(rho)."""
    return max(1e-10, sigma2 * 1e-3)


def _illinois(residual, a, b, fa, fb):
    """A root of residual in each bracket [a[i], b[i]] with fa >= 0 >= fb, all at once.

    Illinois regula falsi: an end kept twice in a row has its residual
    halved, for superlinear convergence.  A zero at an end is that
    bracket's root.
    """
    moved = np.zeros(a.size)   # +1: a moved last, -1: b moved last
    for _ in range(_ROOT_MAX_ITER):
        live = (fa != 0) & (fb != 0) & (b - a > _ROOT_XTOL * np.maximum(1.0, np.abs(a)))
        if not live.any():
            break
        c = b - fb * (b - a) / (fb - fa)   # fa > 0 or fb < 0: the step is finite
        c = np.where((a < c) & (c < b), c, 0.5 * (a + b))
        fc = residual(c)
        up, down = live & (fc > 0), live & (fc <= 0)
        fa = np.where(up, fc, np.where(down & (moved < 0), 0.5 * fa, fa))
        fb = np.where(down, fc, np.where(up & (moved > 0), 0.5 * fb, fb))
        a, b = np.where(up, c, a), np.where(down, c, b)
        moved = np.where(up, 1.0, np.where(down, -1.0, moved))
    else:
        raise ConvergenceError(f"root find did not converge in {_ROOT_MAX_ITER} steps",
                               residual=float(np.minimum(fa, -fb).max()))
    return np.where((moved > 0) | (fa == 0), a, b)   # the last iterate


def scan_curve(rho: float, sigma2: float, alpha: float, kind: Ensemble,
               n_points: int = DEFAULT_GRID_POINTS, eps_floor: float | None = None,
               refine: bool = True) -> FreeEntropyCurve:
    """Locate the maxima of F at rate alpha on the fixed-point curve alpha(v).

    The curve is sampled at n_points of log v over [floor, 1 / floor], the
    transition search's grid at the defaults; each rising crossing
    alpha(v_k) < alpha <= alpha(v_k+1) is a maximum.  refine=True, the curve
    product, refines each to its root and evaluates F on a log eps grid over
    [floor, rho] and at the roots; refine=False, for counting, evaluates no F.
    """
    if n_points < 3:
        raise ValueError("need at least 3 grid points")
    floor = default_eps_floor(sigma2) if eps_floor is None else float(eps_floor)
    top = rho if rho > 0 else 1.0  # zero-density curves have no prior scale
    if not 0 < floor < top:
        raise ValueError(f"eps floor {floor} must lie in (0, {top})")
    if kind is Ensemble.ROW_ORTHOGONAL and alpha > 1.0:
        raise ValueError("row-orthogonal blocks need alpha <= 1")
    log_v, curve = _fixed_point_curve(rho, sigma2, kind, n_points, floor)
    # eps = mmse(v) falls as v rises, so the crossings are listed from the last;
    # at rho = 0 every fixed point has eps = 0, below the grid
    k = np.flatnonzero((curve[:-1] < alpha) & (alpha <= curve[1:]) & (rho > 0))[::-1]
    grid, spec = np.geomspace(floor, top, n_points), single_block_spec(rho, sigma2, alpha)
    if not refine:
        eps = mmse(np.exp(log_v[k + 1]), spec.prior)
        return FreeEntropyCurve(grid, None, [(e, None) for e in eps.tolist()])
    eps = _curve_roots(np.full(k.size, float(alpha)), k, log_v, curve, rho, sigma2, kind)
    maxima = list(zip(eps.tolist(), free_entropy_grid(eps[:, None], spec, kind).tolist()))
    return FreeEntropyCurve(grid, free_entropy_grid(grid[:, None], spec, kind), maxima)


def _fixed_point_rates(log_v, prior, sigma2, kind):
    """(alpha, eps): the rate and MSE of the single-block fixed point at v = exp(log_v).

    eps = mmse(v).  Gaussian: v = alpha / (sigma2 + eps).  Orthogonal:
    Delta = v eps, W = eps / (1 - Delta) and alpha = Delta (sigma2 + W) / W,
    which is v (eps + sigma2 (1 - Delta)) with the divisions cancelled.
    """
    v = np.exp(log_v)
    eps = mmse(v, prior)
    delta = v * eps if kind is Ensemble.ROW_ORTHOGONAL else 0.0
    return v * (eps + sigma2 * (1.0 - delta)), eps


def _fixed_point_curve(rho, sigma2, kind, n_points=DEFAULT_GRID_POINTS, floor=None):
    """(log v grid, alpha on it): every single-block fixed point, from one mmse call.

    v runs over n_points of [floor, 1 / floor], floor = default_eps_floor(sigma2) by
    default.  rho / (1 + v) <= mmse(v) <= rho / (1 + rho v), so the fixed
    points cover eps in [floor, rho (1 - floor)], about `scan_curve`'s eps grid.
    """
    if not 0 < sigma2 < np.inf:
        raise ValueError(NO_NOISE_MESSAGE if sigma2 == 0 else "sigma2 must be finite and > 0")
    floor = default_eps_floor(sigma2) if floor is None else floor
    log_v = np.linspace(np.log(floor), -np.log(floor), n_points)
    return log_v, _fixed_point_rates(log_v, BernoulliGaussianPrior(rho), sigma2, kind)[0]


def _curve_roots(rates, k, log_v, alpha, rho, sigma2, kind):
    """eps = mmse(v) at the root of alpha(v) = rates[i] in [log_v[k[i]], log_v[k[i] + 1]].

    Each cell needs alpha[k] <= rate <= alpha[k + 1]: Illinois on rate - alpha(v).
    """
    prior = BernoulliGaussianPrior(rho)
    root = _illinois(lambda x: rates - _fixed_point_rates(x, prior, sigma2, kind)[0],
                     log_v[k], log_v[k + 1], rates - alpha[k], rates - alpha[k + 1])
    return mmse(np.exp(root), prior)


def _folds(alpha):
    """(i_d, alpha_d, i_s, alpha_s): grid index and rate of the maximum and minimum of alpha(v).

    Each rate is the vertex of the parabola through the three grid points
    around the turn; NoTransitionError when alpha(v) does not turn twice
    or its maximum is not below alpha = 1.
    """
    rising = np.diff(alpha) > 0
    turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    if turns.size != 2:
        raise NoTransitionError(f"alpha(v) turns {turns.size} times: no two-maxima window")
    left, mid, right = alpha[turns - 1], alpha[turns], alpha[turns + 1]
    alpha_d, alpha_s = mid - (right - left) ** 2 / (8.0 * (right - 2.0 * mid + left))
    if alpha_d > _ALPHA_SEARCH_CAP:
        raise NoTransitionError("two-maxima window extends beyond alpha = 1")
    return int(turns[0]), float(alpha_d), int(turns[1]), float(alpha_s)


def _maxwell_rate(rho, sigma2, kind, log_v, alpha, i_d, i_s):
    """Rate in [alpha[i_s], alpha[i_d]] at which F is equal on the two rising branches.

    At each trial rate the large-MSE fixed point is found on
    log_v[:i_d + 1] and the small-MSE one on log_v[i_s:] as roots of
    alpha(v) - rate; F is evaluated at those two points only.
    """
    def branch_eps(rates):
        # the grid cell of each branch with alpha[k] < rate <= alpha[k + 1]
        k = np.concatenate([np.searchsorted(alpha[:i_d + 1], rates) - 1,
                            i_s + np.maximum(np.searchsorted(alpha[i_s:], rates) - 1, 0)])
        return _curve_roots(np.tile(rates, 2), k, log_v, alpha, rho, sigma2, kind).reshape(2, -1).T

    def height_gap(rates):
        """F(large-MSE fixed point) - F(small-MSE fixed point) at each rate."""
        return np.array([np.subtract(*free_entropy_grid(eps[:, None],
                                                        single_block_spec(rho, sigma2, a), kind))
                         for a, eps in zip(rates.tolist(), branch_eps(rates))])

    ends = alpha[[i_s, i_d]]
    gap = height_gap(ends)
    if not gap[0] > 0 >= gap[1]:
        raise NoTransitionError("maxima height gap does not change sign inside the window")
    return float(_illinois(height_gap, ends[:1], ends[1:], gap[:1], gap[1:])[0])


def find_alpha_d(rho: float, sigma2: float, kind: Ensemble) -> float:
    """Largest rate with two free-entropy maxima (message-passing threshold)."""
    return _folds(_fixed_point_curve(rho, sigma2, kind)[1])[1]


def find_alpha_s(rho: float, sigma2: float, kind: Ensemble) -> float:
    """Smallest rate with two free-entropy maxima."""
    return _folds(_fixed_point_curve(rho, sigma2, kind)[1])[3]


def find_alpha_c(rho: float, sigma2: float, kind: Ensemble) -> float:
    """Rate at which the two maxima of F have equal height (Maxwell construction)."""
    log_v, alpha = _fixed_point_curve(rho, sigma2, kind)
    i_d, _, i_s, _ = _folds(alpha)
    return _maxwell_rate(rho, sigma2, kind, log_v, alpha, i_d, i_s)


def _phase_point(rho, sigma2, kind) -> PhasePoint:
    try:
        log_v, alpha = _fixed_point_curve(rho, sigma2, kind)
        i_d, a_d, i_s, a_s = _folds(alpha)
        a_c = _maxwell_rate(rho, sigma2, kind, log_v, alpha, i_d, i_s)
        return PhasePoint(sigma2=sigma2, alpha_d=a_d, alpha_c=a_c, alpha_s=a_s, sharp=True)
    except NoTransitionError:
        return PhasePoint(sigma2=sigma2, sharp=False)
    except (QuadratureError, ConvergenceError) as exc:
        # a numeric failure at one noise level must not abort the sweep;
        # anything else is a bug and propagates
        return PhasePoint(sigma2=sigma2, sharp=False, error=f"{type(exc).__name__}: {exc}")


def sweep_phase_diagram(rho: float, sigma2_grid, kind: Ensemble,
                        threads: int = 1) -> list:
    """One PhasePoint per noise level; points are independent computations."""
    sigma2_grid = [float(s) for s in sigma2_grid]
    if not sigma2_grid:
        raise ValueError("sigma2 grid must be nonempty")
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda s2: _phase_point(rho, s2, kind), sigma2_grid))
    return [_phase_point(rho, s2, kind) for s2 in sigma2_grid]

