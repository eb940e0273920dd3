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

The transition search samples the curve on a coarse grid, one log v step
anchored at v = 1 for every noise level, that only has to show the two
turns and bracket the branch roots, and evaluates it only over
1 <= v <= 1 / sigma2, where they can lie (`_search_curve`).  Each fold
is refined to the extremum of alpha(log v) near its turn, so alpha_d and
alpha_s do not depend on the grid.  alpha_c is the Newton root of the
height gap G(a) = F(large-MSE maximum) - F(small-MSE maximum).  Each
maximum is a curve point (v, eps = mmse(v)), where varsigma = v: its
height is F in closed form, with no replica solve (`_curve_free_entropy`).
Both maxima are stationary in eps, so G'(a) is the difference of the
explicit rate derivatives of F, log((sigma2 + S_small) / (sigma2 +
S_large)), from the same two points.  Every curve point is stationary, so
along the curve the same derivative integrates to G itself: G(a) is the
integral of log(1 + S / sigma2) d alpha between the two rising crossings
of a (the equal-area rule).  Its trapezoid sums on the grid, from values
the curve already holds, start Newton within 5e-7 of alpha_c.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .replica_core import (NO_NOISE_MESSAGE, Ensemble, _check_ensemble, channel_term_batch,
                           free_entropy_grid, single_block_spec)
from .scalar_channel import BernoulliGaussianPrior, _whole_number, mmse

DEFAULT_GRID_POINTS = 2000
# unread in the package; it stays because tests and perfbench/workloads.py import it as
# the resolution of a reported transition rate
ALPHA_TOL = 1e-5
# root-find bracket width relative to max(1, |end|): a few dozen ulps
_ROOT_XTOL = 1e-14
_ROOT_MAX_ITER = 100
# windows are searched below alpha = 1: the orthogonal ensemble takes no rate above it, and
# toward it a maximum with eps > sigma2 has Delta -> 1, where F's log(1 - Delta) diverges
_ALPHA_SEARCH_CAP = 1.0 - 1e-7
# the transition search's log v step (`scan_curve` keeps its own grid): the curve only has
# to show the two turns and bracket the branch roots.  On 400-level noise sweeps at rho 0.1,
# 0.4 and 0.7, both ensembles, it flags the same levels sharp as a 2000-point grid
_SEARCH_STEP = 0.0646
# fold search stop on the log v step: at 3e-7 the folds of 41 sharp points (rho 0.1, 0.4,
# 0.7, both ensembles) were within 2.3e-15 of a bounded Brent search, in at most 6 steps
_FOLD_XTOL = 3e-7
_GOLDEN = 0.5 * (3.0 - 5.0 ** 0.5)
# Newton on the Maxwell rate stops on a step this small, or on a step whose error bound
# (`_maxwell_rate`) is this small; near alpha_c the gap is smooth to about 2e-15 (rho 0.4,
# sigma2 1e-4 and 1e-3, both ensembles), far below 1e-12 of rate
_MAXWELL_STEP_TOL = 1e-12
# the bound's margin, and the curve points it needs between the folds (with 4, the crossings'
# differences reached across a fold: |G''| read 100x low, a stop 5.5e-13 off at rho 0.2): on
# 400-level sweeps at rho 0.1, 0.4 and 0.7, both ensembles, 10 moved alpha_c by up to 9.9e-14
# from a search that confirms every step and 30 by 7.7e-14, with 2101 and 1986 of the 2177
# sharp levels stopping after one evaluation
_NEWTON_SAFETY, _BOUND_POINTS = 30.0, 6


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

    Every caller passes at most two brackets, so the bookkeeping runs on
    Python floats, which round as numpy's float64 operations do: a numpy
    call costs about 1 µs even on two elements, and a step of this
    bookkeeping on arrays made about 30 of them (np.where chains, np.clip).
    The residual stays one call per step, on an array of every bracket's
    step (closed brackets included), so each step is still one mmse call.
    """
    a, b, fa, fb = (x.tolist() for x in (a, b, fa, fb))
    moved = [0] * len(a)   # +1: a moved last, -1: b moved last
    for _ in range(_ROOT_MAX_ITER):
        steps, live = [], []
        for ai, bi, fai, fbi in zip(a, b, fa, fb):
            tol = _ROOT_XTOL * max(1.0, abs(ai))
            live.append(fai != 0 and fbi != 0 and bi - ai > tol)
            # finite on a live bracket (fa > 0 > fb); 0 / 0 = NaN where both ends are zeros
            c = bi - fbi * (bi - ai) / (fbi - fai) if fbi != fai else np.nan
            steps.append(min(max(c, ai + 0.5 * tol), bi - 0.5 * tol))
        if not any(live):
            break
        for i, fc in enumerate(residual(np.array(steps)).tolist()):
            if not live[i]:
                continue
            if fc > 0:
                if moved[i] > 0:
                    fb[i] *= 0.5
                a[i], fa[i], moved[i] = steps[i], fc, 1
            elif fc <= 0:   # a NaN residual moves neither end
                if moved[i] < 0:
                    fa[i] *= 0.5
                b[i], fb[i], moved[i] = steps[i], fc, -1
    else:
        raise ConvergenceError(f"root find did not converge in {_ROOT_MAX_ITER} steps",
                               residual=float(np.minimum(fa, np.negative(fb)).max()))
    # the last iterate
    return np.array([ai if m > 0 or fai == 0 else bi for ai, bi, fai, m in zip(a, b, fa, moved)],
                    dtype=float)


def scan_curve(rho: float, sigma2: float, alpha: float, kind: Ensemble,
               n_points: int = DEFAULT_GRID_POINTS, eps_floor: float | None = None,
               refine: bool = True) -> FreeEntropyCurve:
    """Locate the maxima of F at rate alpha on the fixed-point curve alpha(v).

    The curve is sampled at n_points of log v over [floor, 1 / floor]; each
    rising crossing alpha(v_k) < alpha <= alpha(v_k+1) is a maximum.
    refine=True, the curve product, refines each to its root and evaluates F
    on a log eps grid over [floor, rho] and at the roots; refine=False, for
    counting, evaluates no F.
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
    log_v = np.linspace(np.log(floor), -np.log(floor), n_points)
    curve, eps = _fixed_point_rates(log_v, BernoulliGaussianPrior(rho), sigma2, kind)
    # eps = mmse(v) falls as v rises, so the crossings are listed from the last;
    # at rho = 0 every fixed point has eps = 0, below the grid
    k = np.flatnonzero((curve[:-1] < alpha) & (alpha <= curve[1:]) & (rho > 0))[::-1]
    grid, spec = np.geomspace(floor, top, n_points), single_block_spec(rho, sigma2, alpha)
    if not refine:
        return FreeEntropyCurve(grid, None, [(e, None) for e in eps[k + 1].tolist()])
    root, eps = _curve_roots(np.full(k.size, float(alpha)), k, (log_v, curve, eps), rho, sigma2,
                             kind)
    maxima = zip(eps.tolist(), _curve_free_entropy(root, eps, alpha, rho, sigma2, kind)[0].tolist())
    return FreeEntropyCurve(grid, free_entropy_grid(grid[:, None], spec, kind), list(maxima))


def _fixed_point_rates(log_v, prior, sigma2, kind):
    """(alpha, eps): the rate and MSE of the single-block fixed point at v = exp(log_v).

    eps = mmse(v).  Gaussian: v = alpha / (sigma2 + eps).  Orthogonal:
    Delta = v eps, W = eps / (1 - Delta) and alpha = Delta (sigma2 + W) / W,
    which is v (eps + sigma2 (1 - Delta)) with the divisions cancelled.
    """
    v = np.exp(log_v)
    eps = mmse(v, prior)
    return v * (eps + sigma2 * _omd(v, eps, kind)), eps


def _omd(v, eps, kind):
    """1 - Delta at curve points (v, eps): Delta = v eps (orthogonal) or 0 (Gaussian)."""
    return 1.0 - v * eps if kind is Ensemble.ROW_ORTHOGONAL else 1.0


def _curve_roots(rates, k, points, rho, sigma2, kind):
    """Roots of alpha(v) = rates[i] in the cells [k[i], k[i] + 1] of points = (log v, alpha, eps).

    Each cell needs alpha[k] <= rate <= alpha[k + 1]: Illinois on rate -
    alpha(v).  Returns (log v, eps) at the roots, eps from the root's own
    evaluation.
    """
    prior = BernoulliGaussianPrior(rho)
    ends = [tuple(c[j] for c in points) for j in (k, k + 1)]
    evaluated = []

    def residual(x):
        evaluated.append((x, *_fixed_point_rates(x, prior, sigma2, kind)))
        return rates - evaluated[-1][1]

    root = _illinois(residual, ends[0][0], ends[1][0], rates - ends[0][1], rates - ends[1][1])
    x, _, eps = (np.array(c) for c in zip(*ends, *evaluated))   # (2 + steps, rates.size)
    # the root is the last iterate or a cell end that is a zero: one of these points
    found = np.argmax(x == root, axis=0)
    return root, eps[found, np.arange(root.size)]


def _folds(rho, sigma2, kind, log_v, alpha):
    """(log v, rate) of the maximum (alpha_d) and the minimum (alpha_s) of alpha(log v), as arrays.

    Each fold is the extremum of alpha(log v) inside the two grid cells
    around its discrete turn, found by successive parabolic steps (a
    golden-section step where the vertex leaves the bracket); both folds
    share one loop and one two-point mmse call per step, so the rates do
    not depend on the grid.  NoTransitionError when alpha(v) does not turn
    twice or its maximum is not below alpha = 1.

    Each fold's bracket is three (log v, f) pairs of Python floats, which
    round as numpy's float64 operations do: on two brackets, numpy's cost
    per call, about 1 µs even on two elements, outweighed the arithmetic,
    and a step on (2, 3) arrays made about 45 calls (np.where chains,
    argsort, take_along_axis).  The two new points of a step are still
    evaluated in one mmse call.
    """
    rising = np.diff(alpha) > 0
    turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    if turns.size != 2:
        raise NoTransitionError(f"alpha(v) turns {turns.size} times: no two-maxima window")
    prior = BernoulliGaussianPrior(rho)
    sign = (1.0, -1.0)   # both folds as maxima of f = sign * alpha
    # per fold, points a < b < c as (log v, f) with f(b) >= f(a), f(c)
    brackets = [[(log_v[j].item(), s * alpha[j].item()) for j in (t - 1, t, t + 1)]
                for t, s in zip(turns.tolist(), sign)]
    for _ in range(_ROOT_MAX_ITER):
        steps = []
        for (a, fa), (b, fb), (c, fc) in brackets:
            p, q = (b - a) * (fb - fc), (b - c) * (fb - fa)
            # a flat parabola (p = q) has no vertex: the golden step
            u = b - 0.5 * ((b - a) * p - (b - c) * q) / (p - q) if p != q else np.nan
            if not a < u < c:
                u = b + _GOLDEN * ((c if c - b > b - a else a) - b)
            steps.append(u)
        if all(abs(u - br[1][0]) <= _FOLD_XTOL for u, br in zip(steps, brackets)):
            break
        new = _fixed_point_rates(np.array(steps), prior, sigma2, kind)[0].tolist()
        for i, (u, fu, s) in enumerate(zip(steps, new, sign)):
            # the new bracket centres on the better of b and u, the two interior points
            # (u lies inside (a, c); where it ties b, on a converged fold, it is b's point)
            points = sorted([*brackets[i], (u, s * fu)], key=lambda point: point[0])
            brackets[i] = points[1:] if points[2][1] > points[1][1] else points[:3]
    else:
        raise ConvergenceError(f"root find did not converge in {_ROOT_MAX_ITER} steps "
                               "(folds of alpha(v))",
                               residual=max(abs(u - br[1][0]) for u, br in zip(steps, brackets)))
    x = np.array([b for _, (b, _), _ in brackets])
    rates = np.array([s * fb for (_, (_, fb), _), s in zip(brackets, sign)])
    if rates[0] > _ALPHA_SEARCH_CAP:
        raise NoTransitionError("two-maxima window extends beyond alpha = 1")
    return x, rates


def _search_grid(sigma2):
    """log v = k _SEARCH_STEP, k from -1 to ceil(log(1 / sigma2) / _SEARCH_STEP) + 1."""
    _default_eps_floor(sigma2)   # ValueError unless 0 < sigma2 < inf
    return _SEARCH_STEP * np.arange(-1.0, np.ceil(-np.log(sigma2) / _SEARCH_STEP) + 2.0)


def _search_curve(rho, sigma2, kind):
    """(log v, alpha, eps, fold log v, fold rates): the transition search's curve and its folds.

    The curve is evaluated on `_search_grid`, one log v step anchored at
    v = 1 for every noise level, over 1 <= v <= 1 / sigma2 with one cell of
    margin at each end; a level's grid is a prefix of every lower level's.
    Nothing the search reads lies outside it:
    - above v = 1 / sigma2, alpha(v) >= min(1, v sigma2) = 1 > _ALPHA_SEARCH_CAP
      (Gaussian: alpha = v (eps + sigma2) >= v sigma2; orthogonal: alpha =
      Delta + (1 - Delta) v sigma2, a mean of 1 and v sigma2 since Delta =
      v eps lies in [0, 1)), so no fold and no crossing of a window rate;
    - below v = 1, v mmse(v) rises, so alpha(v) rises for both ensembles (checked
      on a grid of rho, not proved): only the large-MSE branch below alpha_s.
    So a curve that does not turn exactly twice, or whose fold alpha_d is not
    below the cap, has no window on any longer grid either (NoTransitionError).
    ConvergenceError when the curve's first point, one step below v = 1, is
    not below the refined alpha_s, so that the large-MSE branch would not
    bracket every window rate (at the 3496 sharp points of 40 rho in [1e-12,
    0.995] x 60 sigma2 in [1e-40, 0.3], both ensembles, alpha(1) lay below
    alpha_s and the first point at most at 0.9374 alpha_s, e^-_SEARCH_STEP,
    its limit as rho and sigma2 go to 0).
    """
    _check_ensemble(kind)  # every find_alpha_* and sweep_phase_diagram level comes here
    log_v = _search_grid(sigma2)
    alpha, eps = _fixed_point_rates(log_v, BernoulliGaussianPrior(rho), sigma2, kind)
    x_folds, rates = _folds(rho, sigma2, kind, log_v, alpha)
    if alpha[0] >= rates[1]:
        raise ConvergenceError("the search grid starts above alpha_s: the large-MSE branch "
                               "does not bracket the window", residual=float(alpha[0] - rates[1]))
    return log_v, alpha, eps, x_folds, rates


def _log_gain(eps, omd, sigma2):
    """log(1 + S / sigma2) at curve points (eps, `_omd`); -1 minus it is F's explicit d/d alpha.

    S = 1 / Lambda = eps / (1 - Delta), Lambda = (1 - Delta) / eps.
    """
    return np.log1p(eps / omd / sigma2)


def _curve_free_entropy(log_v, eps, rate, rho, sigma2, kind):
    """(F, `_log_gain`) at curve points (log v, eps), F in closed form at the rate.

    varsigma = v at a curve point, so no conjugate solve is needed: F = ct(v) + v eps -
    rate log(1 + S / sigma2) + (1 - rate) + (1 - Delta) - log(1 - Delta) - 1, ct the
    channel term, Delta = v eps and S = eps / (1 - Delta) (orthogonal) or 0 and eps (Gaussian).
    """
    v = np.exp(log_v)
    omd = _omd(v, eps, kind)
    gain = _log_gain(eps, omd, sigma2)
    return (channel_term_batch(v, BernoulliGaussianPrior(rho)) + v * eps - rate * gain
            + (omd - np.log(omd) - 1.0) + (1.0 - rate)), gain


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


def _equal_area_rate(curve, gain):
    """The search curve's Maxwell rate; None when the curve shows G no sign change in the window.

    Every curve point is stationary in eps at its own rate, so along the
    curve dF = -(log(1 + S / sigma2) + 1) d alpha, and G(a) is the integral
    of log(1 + S / sigma2) d alpha from the large-MSE to the small-MSE
    crossing of a (the equal-area rule).  Its trapezoid sums on the curve
    and on every second curve point (`_area_gap`, gain = `_log_gain` at the
    curve's points) are extrapolated to zero step (their error is O(step^2))
    at as many rates across the window as the curve has points; the rate is
    interpolated linearly where that G changes sign.  The curve is
    `_search_curve`'s, which holds both crossings of every rate in the window.
    """
    log_v, alpha, _, x_folds, (a_d, a_s) = curve
    rates = np.linspace(a_s, a_d, log_v.size)[1:-1]
    fine, coarse = (_area_gap(rates, log_v[::m], alpha[::m], gain[::m], *x_folds) for m in (1, 2))
    gap = (4.0 * fine - coarse) / 3.0
    change = np.flatnonzero((gap[:-1] > 0) & (gap[1:] <= 0))
    if change.size == 0:
        return None
    j = change[0]
    return float(rates[j] + gap[j] / (gap[j] - gap[j + 1]) * (rates[j + 1] - rates[j]))


def _rising_branches(curve):
    """(log v, alpha, eps) of the curve's two rising branches, the large-MSE one first,
    each running up to (large MSE) or on from (small MSE) its fold, and the large-MSE
    branch's length: the cells `_maxwell_gap` looks a rate up in."""
    log_v, alpha, eps, (x_d, x_s), (a_d, a_s) = curve
    large, small = log_v < x_d, log_v > x_s
    # no root sits on a fold for a rate inside the window, so its eps is never read
    branches = tuple(np.concatenate([c[large], ends, c[small]]) for c, ends in
                     ((log_v, [x_d, x_s]), (alpha, [a_d, a_s]), (eps, [np.nan, np.nan])))
    return branches, int(large.sum()) + 1


def _maxwell_gap(rate, rho, sigma2, kind, branches):
    """(G, dG/da) at a rate strictly inside the window, G the height gap of the maxima.

    G = F(large-MSE maximum) - F(small-MSE maximum).  Each maximum is the
    root of alpha(v) = rate on its rising branch of the search curve
    (`_rising_branches`, built once per curve), which ends (large MSE) or
    starts (small MSE) at its fold; `_curve_free_entropy` gives its height.
    Both maxima are stationary points of F, so only the explicit rate
    dependence of F, -log(1 + S / sigma2) - 1, moves them apart:

        dG/da = log((sigma2 + S_small) / (sigma2 + S_large)) < 0.
    """
    branch, n_large = branches
    k = np.array([np.searchsorted(branch[1][:n_large], rate) - 1,
                  np.searchsorted(branch[1][n_large:], rate) - 1 + n_large])
    root, root_eps = _curve_roots(np.full(2, float(rate)), k, branch, rho, sigma2, kind)
    heights, gain = _curve_free_entropy(root, root_eps, rate, rho, sigma2, kind)
    return float(heights[0] - heights[1]), float(gain[1] - gain[0])


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
    otherwise).  G falls with a, so the fold ends, where the branch roots
    are double roots, are never evaluated.  A step s inside the bracket
    leaves an error of about |G''| s^2 / (2 |G'|), G'' from central
    differences on the search grid (`_gap_curvature`); once that bound
    times `_NEWTON_SAFETY` is within `_MAXWELL_STEP_TOL`, the stepped rate
    is returned without evaluating G there, so the search usually needs one
    evaluation.  A grid that shows G no sign change, or that holds fewer
    than `_BOUND_POINTS` points between the folds, is too coarse for G'':
    its steps are all confirmed.  Rounding in G can keep |G| above any
    fixed tolerance, or send Newton back and forth around the root, so the
    search also stops on the step size, on G = 0, or when its bracket
    closes; a bracket that closes on an end of the window, with no sign
    change, is NoTransitionError.
    """
    lo, hi = ends = tuple(curve[-1][::-1].tolist())
    log_v, alpha, eps, (x_d, x_s) = curve[:4]
    gain = _log_gain(eps, _omd(np.exp(log_v), eps, kind), sigma2)
    start = _equal_area_rate(curve, gain)
    rate = 0.5 * (lo + hi) if start is None else start
    bounded = start is not None and np.count_nonzero((log_v > x_d) & (log_v < x_s)) >= _BOUND_POINTS
    grid = (log_v, *np.gradient(np.stack([gain, alpha]), axis=1))
    branches = _rising_branches(curve)
    for _ in range(_ROOT_MAX_ITER):
        gap, slope = _maxwell_gap(rate, rho, sigma2, kind, branches)
        if gap == 0.0:
            return rate
        lo, hi = (rate, hi) if gap > 0 else (lo, rate)
        step = -gap / slope
        if abs(step) <= _MAXWELL_STEP_TOL or (bounded and lo < rate + step < hi and
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

