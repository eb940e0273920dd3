"""Free-entropy curve scans and phase-transition location.

For the uncoupled system at density rho and noise sigma2, the free
entropy F(eps) has either one local maximum or two.  Three measurement
rates organize the phase diagram:

  alpha_d  largest rate with two maxima (message passing reaches the good
           MSE above it),
  alpha_s  smallest rate with two maxima,
  alpha_c  rate at which the two maxima have equal height (the optimal
           threshold, reachable with seeding matrices).

dF/deps = -phi(eps) varsigma'(eps) with varsigma' < 0, so the maxima
are the + to - crossings of the state-evolution residual phi(eps) =
mmse(varsigma(eps)) - eps.  Scans count them on a log grid without the
channel-term quadrature of F and refine them as roots of phi; the three
rates are located by bisection on predicates of such scans.
"""

import concurrent.futures
import contextvars
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, QuadratureError
from .replica_core import Ensemble, _conjugates_batch, free_entropy_grid, single_block_spec
from .scalar_channel import mmse
from .state_evolution import run_evolution

DEFAULT_GRID_POINTS = 2000
ALPHA_TOL = 1e-5
# root-find bracket width in log eps, relative to max(1, |log eps|): a few dozen ulps
_ROOT_XTOL = 1e-14
_ROOT_MAX_ITER = 100
# at alpha = 1 exactly the orthogonal inner extremization degenerates
# (Delta -> 1, Lambda -> 0 for eps > sigma2), so rate searches stop short
_ALPHA_SEARCH_CAP = 1.0 - 1e-7
# window seeds already found by the running `_phase_point`, keyed by the
# search arguments; None outside a phase point
_WINDOW_SEEDS = contextvars.ContextVar("window_seeds", default=None)


class NoTransitionError(ValueError):
    """No two-maxima window exists over the searched rate bracket."""


@dataclass
class FreeEntropyCurve:
    """Log grid over eps with the interior local maxima of F as (eps, F), eps increasing.

    A maximum is a grid interval where phi changes sign from + to -.  A
    refined curve carries F on the grid in values and each maximum at its
    root of phi; an unrefined one computes no F: values is None and each
    maximum is the left end of its interval (the last phi > 0), height None.
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


def _residual(eps, spec, kind):
    """phi(eps) = mmse(varsigma(eps)) - eps for single-block MSEs of shape (n,)."""
    sig = _conjugates_batch(eps[:, None], spec, kind)[0]
    return mmse(sig[:, 0, 0], spec.prior) - eps


def _bracket_maxima(rho, sigma2, alpha, kind, n_points, eps_floor):
    """(spec, grid, phi on the grid, indices i with phi[i] > 0 >= phi[i + 1])."""
    if n_points < 3:
        raise ValueError("need at least 3 grid points")
    floor = default_eps_floor(sigma2) if eps_floor is None else float(eps_floor)
    top = rho if rho > 0 else 1.0  # zero-density curves have no prior scale
    if not 0 < floor < top:
        raise ValueError(f"eps floor {floor} must lie in (0, {top})")
    spec = single_block_spec(rho, sigma2, alpha)
    grid = np.geomspace(floor, top, n_points)
    phi = _residual(grid, spec, kind)
    return spec, grid, phi, np.flatnonzero((phi[:-1] > 0) & (phi[1:] <= 0))


def _refine_maxima(spec, kind, grid, phi, idx):
    """(eps, F) at the root of phi in each bracket [grid[i], grid[i + 1]], i in idx.

    Illinois regula falsi in log eps on all brackets at once: an end kept
    twice in a row has its residual halved, for superlinear convergence.
    """
    if idx.size == 0:
        return []
    a, b, fa, fb = np.log(grid[idx]), np.log(grid[idx + 1]), phi[idx], phi[idx + 1]
    moved = np.zeros(idx.size)   # +1: a moved last, -1: b moved last
    for _ in range(_ROOT_MAX_ITER):
        live = (fb != 0) & (b - a > _ROOT_XTOL * np.maximum(1.0, np.abs(a)))
        if not live.any():
            break
        c = b - fb * (b - a) / (fb - fa)   # fa > 0 >= fb: the step is finite
        c = np.where((a < c) & (c < b), c, 0.5 * (a + b))
        fc = _residual(np.exp(c), spec, kind)
        up, down = live & (fc > 0), live & (fc <= 0)
        fa = np.where(up, fc, np.where(down & (moved < 0), 0.5 * fa, fa))
        fb = np.where(down, fc, np.where(up & (moved > 0), 0.5 * fb, fb))
        a, b = np.where(up, c, a), np.where(down, c, b)
        moved = np.where(up, 1.0, np.where(down, -1.0, moved))
    else:
        raise ConvergenceError(f"phi root find did not converge in {_ROOT_MAX_ITER} steps",
                               residual=float(np.minimum(fa, -fb).max()))
    eps = np.exp(np.where(moved > 0, a, b))   # the last iterate
    return list(zip(eps.tolist(), free_entropy_grid(eps[:, None], spec, kind).tolist()))


def scan_curve(rho: float, sigma2: float, alpha: float, kind: Ensemble,
               n_points: int = DEFAULT_GRID_POINTS, eps_floor: float | None = None,
               refine: bool = True) -> FreeEntropyCurve:
    """Locate the maxima of F on a log grid over [eps_floor, rho] from the signs of phi.

    refine=True, the curve product, refines each maximum to its root of
    phi and evaluates F on the grid and at the roots; refine=False, for
    counting, evaluates no F (see FreeEntropyCurve).
    """
    spec, grid, phi, idx = _bracket_maxima(rho, sigma2, alpha, kind, n_points, eps_floor)
    if refine:
        return FreeEntropyCurve(grid, free_entropy_grid(grid[:, None], spec, kind),
                                _refine_maxima(spec, kind, grid, phi, idx))
    return FreeEntropyCurve(grid, None, [(float(grid[i]), None) for i in idx])


def _two_maxima(rho, sigma2, alpha, kind, n_points=DEFAULT_GRID_POINTS) -> bool:
    return scan_curve(rho, sigma2, alpha, kind, n_points=n_points, refine=False).n_maxima == 2


def _find_two_max_alpha(rho, sigma2, kind, lo, hi, hint=None, n_points=DEFAULT_GRID_POINTS):
    """Some alpha whose curve has two maxima, or None.

    Tries a local grid around the hint, then a coarse bracket grid.  If
    neither hits, zooms on the pair of adjacent rates where the single
    maximum jumps between the small- and large-MSE branches: the
    bistable window, when it exists, always contains that jump.
    """
    checked = {}

    def two_max_at(a):
        a = float(a)
        if a not in checked:
            curve = scan_curve(rho, sigma2, a, kind, n_points=n_points, refine=False)
            # with no + to - crossing of phi, F peaks at the floor
            peak = curve.maxima[0][0] if curve.maxima else float(curve.eps_grid[0])
            checked[a] = (curve.n_maxima == 2, peak)
        return checked[a]

    if hint is not None:
        # two passes: coarse sweep of the hint neighborhood, then a fine
        # one so near-cusp windows narrower than the first spacing are hit
        for half, n in ((0.02, 17), (0.018, 37)):
            for a in np.linspace(hint - half, hint + half, n):
                if lo <= a <= hi and two_max_at(a)[0]:
                    return float(a)
    for a in np.linspace(lo, hi, 25):
        if two_max_at(a)[0]:
            return float(a)
    # zoom on the largest jump of the single maximum: the bistable
    # window, when present, always contains the jump between branches
    alphas = sorted(checked)
    for _ in range(8):
        jump_pair = None
        best = 0.0
        for a1, a2 in zip(alphas[:-1], alphas[1:]):
            g = abs(np.log(two_max_at(a1)[1]) - np.log(two_max_at(a2)[1]))
            if g > max(best, 1.2):
                best, jump_pair = g, (a1, a2)
        if jump_pair is None or jump_pair[1] - jump_pair[0] < 1e-6:
            return None
        inner = np.linspace(jump_pair[0], jump_pair[1], 9)[1:-1]
        for a in inner:
            if two_max_at(a)[0]:
                return float(a)
        alphas = sorted(set(alphas) | {float(a) for a in inner})
    return None


def _bisect_edge(pred, a_true, a_false, tol):
    while abs(a_false - a_true) > tol:
        mid = 0.5 * (a_true + a_false)
        if pred(mid):
            a_true = mid
        else:
            a_false = mid
    return 0.5 * (a_true + a_false)


def _window_seed(rho, sigma2, kind, hint=None):
    # find_alpha_d and find_alpha_s of one phase point search the same
    # window; the deterministic search runs once and the second reuses it
    seeds = _WINDOW_SEEDS.get()
    key = (rho, sigma2, kind, hint)
    if seeds is not None and key in seeds:
        return seeds[key]
    # rates are capped at 1: beyond it there is no compression, and
    # orthogonal blocks cannot select more rows than the block dimension
    lo, hi = 0.1 * rho, _ALPHA_SEARCH_CAP
    seed = _find_two_max_alpha(rho, sigma2, kind, lo, hi, hint=hint)
    if seed is None:
        # geometric expansion of the low side before giving up
        seed = _find_two_max_alpha(rho, sigma2, kind, max(lo / 4, 1e-3), hi, hint=hint)
    if seed is None:
        raise NoTransitionError(
            f"no two-maxima window found for sigma2={sigma2}, kind={kind.value}")
    if seeds is not None:
        seeds[key] = seed
    return seed


def find_alpha_d(rho: float, sigma2: float, kind: Ensemble, tol: float = ALPHA_TOL,
                 hint: float | None = None) -> float:
    """Largest rate with two free-entropy maxima (message-passing threshold)."""
    seed = _window_seed(rho, sigma2, kind, hint=hint)
    pred = lambda a: _two_maxima(rho, sigma2, a, kind)
    hi = min(_ALPHA_SEARCH_CAP, max(seed + 0.05, seed * 1.5))
    while pred(hi):
        if hi >= _ALPHA_SEARCH_CAP:
            raise NoTransitionError("two-maxima window extends beyond alpha = 1")
        hi = min(_ALPHA_SEARCH_CAP, hi * 1.5)
    return _bisect_edge(pred, seed, hi, tol)


def find_alpha_s(rho: float, sigma2: float, kind: Ensemble, tol: float = ALPHA_TOL,
                 hint: float | None = None) -> float:
    """Smallest rate with two free-entropy maxima."""
    seed = _window_seed(rho, sigma2, kind, hint=hint)
    pred = lambda a: _two_maxima(rho, sigma2, a, kind)
    lo = min(seed - 0.05, seed / 2)
    while pred(lo):
        if lo <= 1e-3:
            raise NoTransitionError("two-maxima predicate true down to alpha = 1e-3")
        lo = max(1e-3, lo / 2)
    return _bisect_edge(pred, seed, lo, tol)


def _maxima_gap(rho, sigma2, alpha, kind):
    """F(small-MSE maximum) - F(large-MSE maximum); requires two maxima."""
    spec, grid, phi, idx = _bracket_maxima(rho, sigma2, alpha, kind, DEFAULT_GRID_POINTS, None)
    if idx.size != 2:
        raise NoTransitionError(f"curve at alpha={alpha} has {idx.size} maxima")
    (_, f_good), (_, f_bad) = _refine_maxima(spec, kind, grid, phi, idx)
    return f_good - f_bad


def find_alpha_c(rho: float, sigma2: float, kind: Ensemble, tol: float = ALPHA_TOL,
                 gap_tol: float = 5e-7, hint: float | None = None,
                 window: tuple | None = None) -> float:
    """Rate at which the two maxima of F have equal height.

    Bisects the sign of the height gap inside (alpha_s, alpha_d), then
    keeps halving until the gap magnitude itself is below gap_tol so the
    returned point satisfies |F(max1) - F(max2)| <= 1e-6.  Raises
    ConvergenceError when the bracket collapses first.
    """
    if window is None:
        a_s = find_alpha_s(rho, sigma2, kind, hint=hint)
        a_d = find_alpha_d(rho, sigma2, kind, hint=hint)
    else:
        a_s, a_d = window
    lo, hi = a_s + 1e-4, a_d - 1e-4
    g_lo = _maxima_gap(rho, sigma2, lo, kind)
    g_hi = _maxima_gap(rho, sigma2, hi, kind)
    if g_lo > 0 or g_hi < 0:
        raise NoTransitionError("maxima height gap does not change sign inside the window")
    best = (abs(g_lo), lo) if abs(g_lo) < abs(g_hi) else (abs(g_hi), hi)
    while (hi - lo) > tol or best[0] > gap_tol:
        mid = 0.5 * (lo + hi)
        g = _maxima_gap(rho, sigma2, mid, kind)
        if abs(g) < best[0]:
            best = (abs(g), mid)
        if g < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 and best[0] > gap_tol:
            raise ConvergenceError(f"alpha_c bracket collapsed with the maxima gap at best "
                                   f"{best[0]:.3e} > gap_tol {gap_tol:g}", residual=best[0])
    return best[1]


def bp_mse_at(rho: float, sigma2: float, alpha: float, kind: Ensemble) -> float:
    """MSE reached from the large-MSE initialization (rightmost maximum of F)."""
    spec = single_block_spec(rho, sigma2, alpha)
    trace = run_evolution(spec, kind)
    if not trace.converged:
        raise ConvergenceError("state evolution did not converge in bp_mse_at",
                               residual=float(np.abs(np.diff(trace.history[-2:], axis=0)).max()))
    return float(trace.final_eps[0])


def _phase_point(rho, sigma2, kind, hint=None) -> PhasePoint:
    token = _WINDOW_SEEDS.set({})
    try:
        a_d = find_alpha_d(rho, sigma2, kind, hint=hint)
        a_s = find_alpha_s(rho, sigma2, kind, hint=hint)
        a_c = find_alpha_c(rho, sigma2, kind, window=(a_s, a_d))
        return PhasePoint(sigma2=sigma2, alpha_d=a_d, alpha_c=a_c, alpha_s=a_s, sharp=True)
    except NoTransitionError:
        return PhasePoint(sigma2=sigma2, sharp=False)
    except (QuadratureError, ConvergenceError) as exc:
        # a numeric failure at one noise level must not abort the sweep;
        # anything else is a bug and propagates
        return PhasePoint(sigma2=sigma2, sharp=False, error=f"{type(exc).__name__}: {exc}")
    finally:
        _WINDOW_SEEDS.reset(token)


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


def sharp_window_exists(rho: float, sigma2: float, kind: Ensemble,
                        hint: float | None = None):
    """(exists, witness_alpha): is there any rate with two maxima at this noise?"""
    try:
        a = _window_seed(rho, sigma2, kind, hint=hint)
        return True, a
    except NoTransitionError:
        return False, None
