"""Free-entropy curve scans and phase-transition location.

For the uncoupled system at density rho and noise sigma2, the free
entropy F(eps) has either one local maximum or two.  Three measurement
rates organize the phase diagram:

  alpha_d  largest rate with two maxima (message passing reaches the good
           MSE above it),
  alpha_s  smallest rate with two maxima,
  alpha_c  rate at which the two maxima have equal height (the optimal
           threshold, reachable with seeding matrices).

All three are located by bisection on predicates evaluated from log-grid
curve scans.  A scan evaluates its whole grid in one vectorized
free-entropy call, so a full 2000-point scan costs well under a second.
"""

import concurrent.futures
import contextvars
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, QuadratureError
from .replica_core import Ensemble, free_entropy_grid, single_block_spec
from .state_evolution import run_evolution

DEFAULT_GRID_POINTS = 2000
MAXIMUM_MARGIN = 1e-10      # spurious-maximum suppression on grid values
GOLDEN_REL_TOL = 1e-10
ALPHA_TOL = 1e-5
# at alpha = 1 exactly the orthogonal inner extremization degenerates
# (Delta -> 1, Lambda -> 0 for eps > sigma2), so rate searches stop short
_ALPHA_SEARCH_CAP = 1.0 - 1e-7
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# window seeds already found by the running `_phase_point`, keyed by the
# search arguments; None outside a phase point
_WINDOW_SEEDS = contextvars.ContextVar("window_seeds", default=None)


class NoTransitionError(ValueError):
    """No two-maxima window exists over the searched rate bracket."""


@dataclass
class FreeEntropyCurve:
    """Sampled F(eps) with refined interior local maxima.

    maxima is a list of (eps, F) pairs sorted by eps; each entry exceeded
    both grid neighbors by at least MAXIMUM_MARGIN before refinement.
    """

    eps_grid: np.ndarray
    values: np.ndarray
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


def _curve_f(rho, sigma2, alpha, kind):
    spec = single_block_spec(rho, sigma2, alpha)

    def f(eps):
        return float(free_entropy_grid(np.array([[eps]]), spec, kind)[0])

    return spec, f


def _golden_max(f, lo, hi, rel_tol=GOLDEN_REL_TOL):
    """Golden-section maximization on [lo, hi] in log coordinates.

    Near the top the height differences fall below rounding noise and
    the golden bracket random-walks, so a Newton polish with a wide
    finite-difference stencil pins the stationary point afterwards.
    """
    a, b = np.log(lo), np.log(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(np.exp(x1)), f(np.exp(x2))
    while b - a > rel_tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(np.exp(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(np.exp(x1))
    ell = 0.5 * (a + b)
    step = 1e-4
    for _ in range(3):
        fm = f(np.exp(ell))
        fu = f(np.exp(ell + step))
        fd = f(np.exp(ell - step))
        slope = (fu - fd) / (2 * step)
        curv = (fu - 2 * fm + fd) / step ** 2
        if not np.isfinite(curv) or curv >= 0:
            break
        ell -= np.clip(slope / curv, -0.3, 0.3)
    x = np.exp(ell)
    return x, f(x)


def scan_curve(rho: float, sigma2: float, alpha: float, kind: Ensemble,
               n_points: int = DEFAULT_GRID_POINTS, eps_floor: float | None = None,
               refine: bool = True) -> FreeEntropyCurve:
    """Sample F on a log grid over [eps_floor, rho] and locate its maxima.

    Interior grid maxima must beat both neighbors by MAXIMUM_MARGIN; each
    one is then refined by golden section inside its bracketing triple.
    refine=False skips the refinement when only the count matters.
    """
    if n_points < 3:
        raise ValueError("need at least 3 grid points")
    floor = default_eps_floor(sigma2) if eps_floor is None else float(eps_floor)
    top = rho if rho > 0 else 1.0  # zero-density curves have no prior scale
    if not 0 < floor < top:
        raise ValueError(f"eps floor {floor} must lie in (0, {top})")
    spec, f = _curve_f(rho, sigma2, alpha, kind)
    grid = np.geomspace(floor, top, n_points)
    values = free_entropy_grid(grid[:, None], spec, kind)
    idx = [i for i in range(1, n_points - 1)
           if values[i] > values[i - 1] + MAXIMUM_MARGIN
           and values[i] > values[i + 1] + MAXIMUM_MARGIN]
    maxima = []
    if refine:
        for i in idx:
            maxima.append(_golden_max(f, grid[i - 1], grid[i + 1]))
    else:
        maxima = [(grid[i], float(values[i])) for i in idx]
    return FreeEntropyCurve(eps_grid=grid, values=values, maxima=maxima)


def _two_maxima(rho, sigma2, alpha, kind, n_points=DEFAULT_GRID_POINTS) -> bool:
    return scan_curve(rho, sigma2, alpha, kind, n_points=n_points, refine=False).n_maxima == 2


def _find_two_max_alpha(rho, sigma2, kind, lo, hi, hint=None, n_points=DEFAULT_GRID_POINTS):
    """Some alpha whose curve has two maxima, or None.

    Tries a local grid around the hint, then a coarse bracket grid.  If
    neither hits, zooms on the pair of adjacent rates where the global
    maximizer jumps between the small- and large-MSE branches: the
    bistable window, when it exists, always contains that jump.
    """
    checked = {}

    def two_max_at(a):
        a = float(a)
        if a not in checked:
            curve = scan_curve(rho, sigma2, a, kind, n_points=n_points, refine=False)
            argmax = float(curve.eps_grid[int(np.argmax(curve.values))])
            checked[a] = (curve.n_maxima == 2, argmax)
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
    # zoom on the largest jump of the global maximizer: the bistable
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
    curve = scan_curve(rho, sigma2, alpha, kind)
    if curve.n_maxima != 2:
        raise NoTransitionError(f"curve at alpha={alpha} has {curve.n_maxima} maxima")
    (_, f_good), (_, f_bad) = curve.maxima
    return f_good - f_bad


def find_alpha_c(rho: float, sigma2: float, kind: Ensemble, tol: float = ALPHA_TOL,
                 gap_tol: float = 5e-7, hint: float | None = None,
                 window: tuple | None = None) -> float:
    """Rate at which the two maxima of F have equal height.

    Bisects the sign of the height gap inside (alpha_s, alpha_d), then
    keeps halving until the gap magnitude itself is below gap_tol so the
    returned point satisfies |F(max1) - F(max2)| <= 1e-6.
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
        if hi - lo < 1e-12:
            break
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
