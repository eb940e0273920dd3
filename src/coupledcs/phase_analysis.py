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

The transition search samples the curve on a coarse grid that only has
to show the two turns and bracket the branch roots, and evaluates it only
where they can lie, over 1 <= v <= 1 / sigma2.  Above that slice,
alpha(v) >= min(1, v sigma2) = 1 lies above every window; below it,
v mmse(v) rises (checked, not proved), so alpha(v) rises there, on the
large-MSE branch below alpha_s.  A slice that does not show the window
thus has none on the full grid either.  Each fold is refined to the
extremum of alpha(log v) near its turn, so alpha_d and alpha_s do not
depend on the grid.  alpha_c is the Newton root of the height gap G(a) =
F(large-MSE maximum) - F(small-MSE maximum): both maxima are stationary
in eps, so G'(a) is the difference of the explicit rate derivatives of
F, log((sigma2 + S_small) / (sigma2 + S_large)), in closed form from the
two branch roots.  Every curve point is stationary, so along the curve the
same derivative integrates to G itself: G(a) is the integral of
log(1 + S / sigma2) d alpha between the two rising crossings of a (the
equal-area rule).  Its trapezoid sums on the grid, from values the curve
already holds, start Newton within 3e-7 of alpha_c, and each step solves
the branch roots from brackets that the points evaluated by the earlier
steps narrow.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .replica_core import (NO_NOISE_MESSAGE, Ensemble, _check_ensemble, free_entropy_grid,
                           single_block_spec)
from .scalar_channel import BernoulliGaussianPrior, _whole_number, mmse

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
# the transition search's curve (`scan_curve` keeps DEFAULT_GRID_POINTS): it only has to
# show the two turns and bracket the branch roots.  On 400-level noise sweeps at rho 0.1,
# 0.4 and 0.7, both ensembles, 500 points flag the same levels sharp as 2000
_SEARCH_GRID_POINTS = 500
# fold search stop on the log v step: at 3e-7 the folds of 41 sharp points (rho 0.1, 0.4,
# 0.7, both ensembles) were within 2.3e-15 of a bounded Brent search, in at most 6 steps
_FOLD_XTOL = 3e-7
_GOLDEN = 0.5 * (3.0 - 5.0 ** 0.5)
# Newton on the Maxwell rate stops on a step this small, or on a step whose error bound
# (`_maxwell_rate`) is this small; near alpha_c the gap is smooth to about 2e-15 (rho 0.4,
# sigma2 1e-4 and 1e-3, both ensembles), far below 1e-12 of rate
_MAXWELL_STEP_TOL = 1e-12
# the bound's margin: on 400-level sweeps at rho 0.1, 0.4 and 0.7, both ensembles, 10 moved
# alpha_c by up to 9.6e-14 from a search that confirms every step and 30 by 3.5e-14, with
# 2146 and 2037 of the 2177 sharp levels stopping after one evaluation
_NEWTON_SAFETY = 30.0


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
    """Transition rates at one noise level; rates are None when it has no two-maxima window."""

    sigma2: float
    alpha_d: float | None = None
    alpha_c: float | None = None
    alpha_s: float | None = None
    sharp: bool = False
    # not a field: perfbench/workloads.py reads it; it goes with the next change there
    error = None


def _default_eps_floor(sigma2: float) -> float:
    """Lower end of the scan grid: maxima live between O(sigma2) and O(rho).

    Raises ValueError unless 0 < sigma2 < inf, the range the grid needs.
    """
    if not 0 < sigma2 < np.inf:
        raise ValueError(NO_NOISE_MESSAGE if sigma2 == 0 else "sigma2 must be finite and > 0")
    return max(1e-10, sigma2 * 1e-3)


def _illinois(residual, a, b, fa, fb):
    """A root of residual in each bracket [a[i], b[i]] with fa >= 0 >= fb, all at once.

    Illinois regula falsi: an end kept twice in a row has its residual
    halved, for superlinear convergence.  A step within half a tolerance
    of an end, or onto or past it, where the residual is rounding noise,
    moves to half a tolerance inside the bracket, which closes it in one
    evaluation when the root is that close.  A zero at an end is that
    bracket's root.
    """
    moved = np.zeros(a.size)   # +1: a moved last, -1: b moved last
    for _ in range(_ROOT_MAX_ITER):
        tol = _ROOT_XTOL * np.maximum(1.0, np.abs(a))
        live = (fa != 0) & (fb != 0) & (b - a > tol)
        if not live.any():
            break
        c = b - fb * (b - a) / (fb - fa)   # fa > 0 or fb < 0: the step is finite
        c = np.clip(c, a + 0.5 * tol, b - 0.5 * tol)
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
    transition search's range; each rising crossing
    alpha(v_k) < alpha <= alpha(v_k+1) is a maximum.  refine=True, the curve
    product, refines each to its root and evaluates F on a log eps grid over
    [floor, rho] and at the roots; refine=False, for counting, evaluates no F.
    """
    _check_ensemble(kind)
    n_points = _whole_number("n_points", n_points, 3)
    floor = _default_eps_floor(sigma2)  # checks sigma2 before any floor is judged
    origin = " (the default, max(1e-10, 1e-3 sigma2); eps_floor or --eps-floor sets it)"
    if eps_floor is not None:
        floor, origin = float(eps_floor), ""
    top = rho if rho > 0 else 1.0  # zero-density curves have no prior scale
    if not 0 < floor < top:
        raise ValueError(f"eps floor {floor}{origin} must lie in (0, {top})")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if kind is Ensemble.ROW_ORTHOGONAL and alpha > 1.0:
        raise ValueError("row-orthogonal blocks need alpha <= 1")
    # every single-block fixed point from one mmse call: rho / (1 + v) <= mmse(v) <=
    # rho / (1 + rho v), so over [floor, 1 / floor] they cover eps in [floor, rho (1 - floor)],
    # about the eps grid below
    log_v = _log_v_grid(sigma2, n_points, floor)
    curve, eps = _fixed_point_rates(log_v, BernoulliGaussianPrior(rho), sigma2, kind)
    # eps = mmse(v) falls as v rises, so the crossings are listed from the last;
    # at rho = 0 every fixed point has eps = 0, below the grid
    k = np.flatnonzero((curve[:-1] < alpha) & (alpha <= curve[1:]) & (rho > 0))[::-1]
    grid, spec = np.geomspace(floor, top, n_points), single_block_spec(rho, sigma2, alpha)
    if not refine:
        return FreeEntropyCurve(grid, None, [(e, None) for e in eps[k + 1].tolist()])
    eps = _curve_roots(np.full(k.size, float(alpha)), k, (log_v, curve, eps), rho, sigma2,
                       kind)[1]
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


def _log_v_grid(sigma2, n_points, floor=None):
    """n_points of log v over [floor, 1 / floor], floor = _default_eps_floor(sigma2) by default."""
    floor = _default_eps_floor(sigma2) if floor is None else floor
    return np.linspace(np.log(floor), -np.log(floor), n_points)


def _curve_roots(rates, k, points, rho, sigma2, kind):
    """Roots of alpha(v) = rates[i] in the cells [k[i], k[i] + 1] of points = (log v, alpha, eps).

    Each cell needs alpha[k] <= rate <= alpha[k + 1]: Illinois on rate -
    alpha(v).  Returns (log v, eps) at the roots, eps from the root's own
    evaluation, and every point the solve evaluated as (log v, alpha, eps)
    arrays of shape (steps, rates.size).
    """
    prior = BernoulliGaussianPrior(rho)
    ends = [tuple(c[j] for c in points) for j in (k, k + 1)]
    evaluated = []

    def residual(x):
        evaluated.append((x, *_fixed_point_rates(x, prior, sigma2, kind)))
        return rates - evaluated[-1][1]

    root = _illinois(residual, ends[0][0], ends[1][0], rates - ends[0][1], rates - ends[1][1])
    x, alpha, eps = (np.array(c) for c in zip(*ends, *evaluated))   # (2 + steps, rates.size)
    # the root is the last iterate or a cell end that is a zero: one of these points
    found = np.argmax(x == root, axis=0)
    return root, eps[found, np.arange(root.size)], (x[2:], alpha[2:], eps[2:])


def _folds(rho, sigma2, kind, log_v, alpha):
    """(log v, rate) of the maximum (alpha_d) and the minimum (alpha_s) of alpha(log v), as arrays.

    Each fold is the extremum of alpha(log v) inside the two grid cells
    around its discrete turn, found by successive parabolic steps (a
    golden-section step where the vertex leaves the bracket); both folds
    share one loop and one two-point mmse call per step, so the rates do
    not depend on the grid.  NoTransitionError when alpha(v) does not turn
    twice or its maximum is not below alpha = 1.
    """
    rising = np.diff(alpha) > 0
    turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    if turns.size != 2:
        raise NoTransitionError(f"alpha(v) turns {turns.size} times: no two-maxima window")
    prior = BernoulliGaussianPrior(rho)
    sign = np.array([1.0, -1.0])   # both folds as maxima of f = sign * alpha
    cells = turns[:, None] + np.arange(-1, 2)
    x, f = log_v[cells], sign[:, None] * alpha[cells]   # rows a < b < c with f(b) >= f(a), f(c)
    for _ in range(_ROOT_MAX_ITER):
        (a, b, c), (fa, fb, fc) = x.T, f.T
        p, q = (b - a) * (fb - fc), (b - c) * (fb - fa)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = b - 0.5 * ((b - a) * p - (b - c) * q) / (p - q)
        u = np.where((a < u) & (u < c), u, b + _GOLDEN * (np.where(c - b > b - a, c, a) - b))
        if np.all(np.abs(u - b) <= _FOLD_XTOL):
            break
        fu = sign * _fixed_point_rates(u, prior, sigma2, kind)[0]
        # the new bracket centres on the better of b and u, the two interior points
        order = np.argsort(np.column_stack([x, u]), axis=1)
        x = np.take_along_axis(np.column_stack([x, u]), order, axis=1)
        f = np.take_along_axis(np.column_stack([f, fu]), order, axis=1)
        keep = (1 + (f[:, 2] > f[:, 1]))[:, None] + np.arange(-1, 2)
        x, f = np.take_along_axis(x, keep, axis=1), np.take_along_axis(f, keep, axis=1)
    else:
        raise ConvergenceError(f"root find did not converge in {_ROOT_MAX_ITER} steps "
                               "(folds of alpha(v))", residual=float(np.abs(u - b).max()))
    rates = sign * f[:, 1]
    if rates[0] > _ALPHA_SEARCH_CAP:
        raise NoTransitionError("two-maxima window extends beyond alpha = 1")
    return x[:, 1], rates


def _search_slice(log_v, sigma2):
    """(lo, hi) on a log v grid: 1 <= v <= 1 / sigma2, one more cell at each end, lo even."""
    lo = max(int(np.searchsorted(log_v, 0.0)) - 1, 0) // 2 * 2
    return lo, min(int(np.searchsorted(log_v, -np.log(sigma2), side="right")) + 1, log_v.size)


def _search_curve(rho, sigma2, kind):
    """(log v, alpha, eps, fold log v, fold rates): the transition search's curve and its folds.

    The curve is `_log_v_grid`'s grid of `_SEARCH_GRID_POINTS` points,
    evaluated only on its slice over 1 <= v <= 1 / sigma2 with one cell of
    margin at each end (`_search_slice`).  Nothing the search reads lies
    outside it:
    - above v = 1 / sigma2, alpha(v) >= min(1, v sigma2) = 1 > _ALPHA_SEARCH_CAP
      (Gaussian: alpha = v (eps + sigma2) >= v sigma2; orthogonal: alpha =
      Delta + (1 - Delta) v sigma2, a mean of 1 and v sigma2 since Delta =
      v eps lies in [0, 1)), so no fold and no crossing of a window rate;
    - below v = 1, v mmse(v) rises, so alpha(v) rises for both ensembles (checked
      on a grid of rho, not proved): only the large-MSE branch below alpha_s.
    So a slice that does not turn exactly twice, or whose fold alpha_d is not
    below the cap, has no window on the full grid either (NoTransitionError).
    The slice starts at an even index, so its every second point is also
    one of the grid's every second points (`_equal_area_rate`).
    ConvergenceError when the slice's first point is not below the refined
    alpha_s, so that the large-MSE branch would not bracket every window rate
    (at the 1409 sharp points of a grid of rho in [1e-4, 0.995] and sigma2 in
    [1e-10, 0.1], both ensembles, it lay at most at 0.86 alpha_s).
    """
    _check_ensemble(kind)  # every find_alpha_* and sweep_phase_diagram level comes here
    log_v = _log_v_grid(sigma2, _SEARCH_GRID_POINTS)
    lo, hi = _search_slice(log_v, sigma2)
    log_v = log_v[lo:hi]
    alpha, eps = _fixed_point_rates(log_v, BernoulliGaussianPrior(rho), sigma2, kind)
    x_folds, rates = _folds(rho, sigma2, kind, log_v, alpha)
    if alpha[0] >= rates[1]:
        raise ConvergenceError("the search slice starts above alpha_s: the large-MSE branch "
                               "does not bracket the window", residual=float(alpha[0] - rates[1]))
    return log_v, alpha, eps, x_folds, rates


def _log_gain(log_v, eps, sigma2, kind):
    """log(1 + S / sigma2) at curve points (log v, eps); -1 minus it is F's explicit d/d alpha.

    S = 1 / Lambda: eps for the Gaussian ensemble and eps / (1 - v eps) for
    the orthogonal one (Lambda = (1 - Delta) / eps, Delta = v eps).
    """
    s = eps if kind is Ensemble.GAUSSIAN_IID else eps / (1.0 - np.exp(log_v) * eps)
    return np.log1p(s / sigma2)


def _area_gap(rates, log_v, alpha, gain, x_d, x_s):
    """Trapezoid sum of gain d alpha on a curve grid between the two rising crossings of each rate.

    The sum runs from the large-MSE crossing to the small-MSE one, with gain
    linear in alpha inside each crossing's cell.  It is NaN where a crossing
    falls outside the grid points of its rising branch.
    """
    area = np.concatenate([[0.0], np.cumsum(0.5 * (gain[1:] + gain[:-1]) * np.diff(alpha))])
    n_d, n_s = np.searchsorted(log_v, x_d), np.searchsorted(log_v, x_s, side="right")
    cells = np.array([np.searchsorted(alpha[:n_d], rates) - 1,
                      n_s + np.searchsorted(alpha[n_s:], rates) - 1])
    inside = ((0 <= cells[0]) & (cells[0] < n_d - 1)
              & (n_s <= cells[1]) & (cells[1] < alpha.size - 1))
    k = np.clip(cells, 0, alpha.size - 2)
    share = (rates - alpha[k]) / (alpha[k + 1] - alpha[k])
    to_crossing = area[k] + (gain[k] + 0.5 * share * (gain[k + 1] - gain[k])) * (rates - alpha[k])
    return np.where(inside, to_crossing[1] - to_crossing[0], np.nan)


def _equal_area_rate(curve, sigma2, kind):
    """The search grid's Maxwell rate; None when the grid shows G no sign change in the window.

    Every curve point is stationary in eps at its own rate, so along the
    curve dF = -(log(1 + S / sigma2) + 1) d alpha, and

        G(a) = integral of log(1 + S / sigma2) d alpha

    from the large-MSE to the small-MSE crossing of a (the equal-area
    rule).  Its trapezoid sums on the grid and on every second grid point
    (`_area_gap`) are extrapolated to zero step (their error is O(step^2))
    at as many rates across the window as the full search grid has points;
    the rate is interpolated linearly where that G changes sign.  The
    curve is the grid's slice over 1 <= v <= 1 / sigma2 (`_search_curve`),
    which starts at an even grid index, so every second point of the slice
    is one of the grid's every second point, and the slice holds both
    crossings of every rate in the window.
    """
    log_v, alpha, eps, x_folds, (a_d, a_s) = curve
    gain = _log_gain(log_v, eps, sigma2, kind)
    rates = np.linspace(a_s, a_d, _SEARCH_GRID_POINTS)[1:-1]
    fine, coarse = (_area_gap(rates, log_v[::m], alpha[::m], gain[::m], *x_folds) for m in (1, 2))
    gap = (4.0 * fine - coarse) / 3.0
    change = np.flatnonzero((gap[:-1] > 0) & (gap[1:] <= 0))
    if change.size == 0:
        return None
    j = change[0]
    return float(rates[j] + gap[j] / (gap[j] - gap[j + 1]) * (rates[j + 1] - rates[j]))


def _maxwell_gap(rate, rho, sigma2, kind, curve):
    """(G, dG/da, curve) at a rate strictly inside the window, G the height gap of the maxima.

    G = F(large-MSE maximum) - F(small-MSE maximum).  Each maximum is the
    root of alpha(v) = rate on its rising branch of the search curve, which
    ends (large MSE) or starts (small MSE) at its fold.  Both maxima are
    stationary points of F, so only the explicit rate dependence of F,
    -log(1 + S / sigma2) - 1 (`_log_gain`), moves them apart:

        dG/da = log((sigma2 + S_small) / (sigma2 + S_large)) < 0,

    in closed form from each root (v, eps).  The returned curve also holds
    every point the root solve evaluated, so the next rate's roots start
    from brackets narrower than a grid cell.
    """
    log_v, alpha, eps, (x_d, x_s), (a_d, a_s) = curve
    large, small = log_v < x_d, log_v > x_s
    # no root sits on a fold for a rate inside the window, so its eps is never read
    branch = [np.concatenate([c[large], ends, c[small]]) for c, ends in
              ((log_v, [x_d, x_s]), (alpha, [a_d, a_s]), (eps, [np.nan, np.nan]))]
    n_large = int(large.sum()) + 1
    k = np.array([np.searchsorted(branch[1][:n_large], rate) - 1,
                  np.searchsorted(branch[1][n_large:], rate) - 1 + n_large])
    root, root_eps, evaluated = _curve_roots(np.full(2, float(rate)), k, branch, rho, sigma2, kind)
    heights = free_entropy_grid(root_eps[:, None], single_block_spec(rho, sigma2, rate), kind)
    gain = _log_gain(root, root_eps, sigma2, kind)
    points = [np.concatenate([c, e.ravel()]) for c, e in zip((log_v, alpha, eps), evaluated)]
    order = np.argsort(points[0], kind="stable")
    return (float(heights[0] - heights[1]), float(gain[1] - gain[0]),
            (*(c[order] for c in points), *curve[3:]))


def _gap_curvature(rate, curve, grid):
    """|G''(rate)|: d gain / d alpha at the small-MSE maximum minus that at the large-MSE one,
    each the ratio of the log v derivatives in grid = (log v, d gain, d alpha), interpolated
    to the branch's crossing of the rate on the curve."""
    log_v, alpha, _, (x_d, x_s), _ = curve
    x = [np.interp(rate, alpha[on], log_v[on]) for on in (log_v < x_d, log_v > x_s)]
    slopes = np.interp(x, grid[0], grid[1]) / np.interp(x, grid[0], grid[2])
    return float(abs(slopes[1] - slopes[0]))


def _maxwell_rate(rho, sigma2, kind, curve):
    """Rate in [alpha_s, alpha_d] at which F is equal on the two rising branches.

    Newton on the height gap G(a) with its closed-form slope
    (`_maxwell_gap`), from the grid's equal-area rate (`_equal_area_rate`;
    the middle of the window when the grid shows no sign change) and kept
    inside the bracket of the rates tried so far (a bisection step
    otherwise).  Each step's branch roots start from the points the
    earlier steps evaluated.  G falls with a, so the fold ends, where the
    branch roots are double roots, are never evaluated.  A step s inside
    the bracket leaves an error of about |G''| s^2 / (2 |G'|), G'' from
    central differences on the search grid (`_gap_curvature`); after an
    equal-area start (a grid that shows G no sign change is too coarse for
    G''), once that bound times `_NEWTON_SAFETY` is within
    `_MAXWELL_STEP_TOL`, the stepped rate is returned without evaluating G
    there, so the search usually needs one evaluation.  Rounding in G can
    keep |G| above any fixed tolerance, or send Newton back and forth
    around the root, so the search also stops on the step size, on G = 0,
    or when its bracket closes; a bracket that closes on an end of the
    window, with no sign change, is NoTransitionError.
    """
    lo, hi = ends = tuple(curve[-1][::-1].tolist())
    start = _equal_area_rate(curve, sigma2, kind)
    rate = 0.5 * (lo + hi) if start is None else start
    log_v, alpha, eps = curve[:3]
    grid = (log_v, *np.gradient(np.stack([_log_gain(log_v, eps, sigma2, kind), alpha]), axis=1))
    for _ in range(_ROOT_MAX_ITER):
        gap, slope, curve = _maxwell_gap(rate, rho, sigma2, kind, curve)
        if gap == 0.0:
            return rate
        lo, hi = (rate, hi) if gap > 0 else (lo, rate)
        step = -gap / slope
        if abs(step) <= _MAXWELL_STEP_TOL or (start is not None and lo < rate + step < hi and
                _NEWTON_SAFETY * _gap_curvature(rate, curve, grid) * step * step
                <= 2.0 * abs(slope) * _MAXWELL_STEP_TOL):
            return rate + step
        rate = rate + step if lo < rate + step < hi else 0.5 * (lo + hi)
        if hi - lo <= _MAXWELL_STEP_TOL:
            if lo == ends[0] or hi == ends[1]:
                raise NoTransitionError("maxima height gap does not change sign inside the window")
            return rate
    raise ConvergenceError(f"root find did not converge in {_ROOT_MAX_ITER} steps "
                           "(Maxwell rate)", residual=abs(gap))


def find_alpha_d(rho: float, sigma2: float, kind: Ensemble) -> float:
    """Largest rate with two free-entropy maxima (message-passing threshold)."""
    return float(_search_curve(rho, sigma2, kind)[-1][0])


def find_alpha_s(rho: float, sigma2: float, kind: Ensemble) -> float:
    """Smallest rate with two free-entropy maxima."""
    return float(_search_curve(rho, sigma2, kind)[-1][1])


def find_alpha_c(rho: float, sigma2: float, kind: Ensemble) -> float:
    """Rate at which the two maxima of F have equal height (Maxwell construction)."""
    return _maxwell_rate(rho, sigma2, kind, _search_curve(rho, sigma2, kind))


def _phase_point(rho, sigma2, kind) -> PhasePoint:
    try:
        curve = _search_curve(rho, sigma2, kind)
        a_c = _maxwell_rate(rho, sigma2, kind, curve)
    except NoTransitionError:
        return PhasePoint(sigma2=sigma2, sharp=False)
    a_d, a_s = curve[-1].tolist()
    return PhasePoint(sigma2=sigma2, alpha_d=a_d, alpha_c=a_c, alpha_s=a_s, sharp=True)


def sweep_phase_diagram(rho: float, sigma2_grid, kind: Ensemble, threads: int = 1) -> list:
    """One PhasePoint per noise level, serially; a QuadratureError or ConvergenceError at
    any level propagates, so a sweep returns every level or nothing."""
    # only the threads=1 that perfbench/workloads.py passes; it goes with the next change there
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    sigma2_grid = [float(s) for s in sigma2_grid]
    if not sigma2_grid:
        raise ValueError("sigma2 grid must be nonempty")
    return [_phase_point(rho, s2, kind) for s2 in sigma2_grid]

