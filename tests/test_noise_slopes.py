"""The transition lines' noise slopes in closed form, against central differences of the sweep.

alpha_d and alpha_s are the extremes of alpha(v; sigma2) in v, so by the envelope theorem
d alpha_fold / d sigma2 is d alpha / d sigma2 at the fold with v held fixed: v for the
Gaussian ensemble (alpha = v (eps + sigma2)) and v (1 - Delta), Delta = v eps, for the
orthogonal one (alpha = v (eps + sigma2 (1 - Delta))).  alpha_c solves G(a, sigma2) = 0, G
the height gap of the two maxima, so d alpha_c / d sigma2 = -G_sigma2 / G_a, with G_a =
log((sigma2 + S_s) / (sigma2 + S_l)) and, since both maxima are stationary and only F's
explicit -a log(1 + S / sigma2) moves with sigma2,
G_sigma2 = a [S_l / (sigma2 (sigma2 + S_l)) - S_s / (sigma2 (sigma2 + S_s))], S = eps / (1 -
Delta) at the large-MSE (l) and small-MSE (s) roots of alpha(v) = alpha_c.  As sigma2 -> 0
both ensembles share the curve v mmse(v) and its fold, where Delta = alpha_d(0): the
orthogonal alpha_d rises 1 - alpha_d(0) times as fast as the Gaussian one.
"""

import functools

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from coupledcs import BernoulliGaussianPrior, Ensemble, mmse, phase_analysis, sweep_phase_diagram

GAUSS = Ensemble.GAUSSIAN_IID
ORTH = Ensemble.ROW_ORTHOGONAL
CASES = [(rho, sigma2) for rho in (0.1, 0.4, 0.7) for sigma2 in (1e-5, 1e-4, 1e-3)]
# relative step of the central differences
STEP = 1e-4


def one_minus_delta(v, eps, kind):
    return 1.0 - v * eps if kind is ORTH else 1.0


@functools.lru_cache(maxsize=None)
def slopes(rho, sigma2, kind):
    """{name: (closed form, central difference)} of d alpha / d sigma2 for alpha_d, alpha_s
    and alpha_c; None where a level of the difference has no two-maxima window."""
    lo, mid, hi = sweep_phase_diagram(rho, [sigma2 * (1 - STEP), sigma2, sigma2 * (1 + STEP)],
                                      kind)
    if not lo.sharp or not mid.sharp or not hi.sharp:
        return None
    prior = BernoulliGaussianPrior(rho)
    log_v, _, _, (x_d, x_s), _ = phase_analysis._search_curve(rho, sigma2, kind)
    v = np.exp([x_d, x_s])
    fold = v * one_minus_delta(v, mmse(v, prior), kind)
    # the two maxima at alpha_c: the roots of alpha(v) = alpha_c on the curve's rising
    # branches, up to the alpha_d fold and on from the alpha_s fold
    a = mid.alpha_c

    def residual(x):
        return phase_analysis._fixed_point_rates(np.array([x]), prior, sigma2, kind)[0].item() - a

    v = np.exp([brentq(residual, log_v[0], x_d, xtol=1e-15, rtol=1e-15),
                brentq(residual, x_s, log_v[-1], xtol=1e-15, rtol=1e-15)])
    eps = mmse(v, prior)
    s_l, s_s = eps / one_minus_delta(v, eps, kind)
    g_a = np.log((sigma2 + s_s) / (sigma2 + s_l))
    g_sigma2 = a * (s_l / (sigma2 * (sigma2 + s_l)) - s_s / (sigma2 * (sigma2 + s_s)))
    central = {name: (getattr(hi, name) - getattr(lo, name)) / (2.0 * STEP * sigma2)
               for name in ("alpha_d", "alpha_s", "alpha_c")}
    return {"alpha_d": (fold[0], central["alpha_d"]), "alpha_s": (fold[1], central["alpha_s"]),
            "alpha_c": (-g_sigma2 / g_a, central["alpha_c"])}


def test_the_cases_are_sharp():
    # all 18 but (0.7, 1e-3, Gaussian): at rho 0.7 the Gaussian window has closed below 8e-4
    sharp = {(rho, sigma2, kind) for rho, sigma2 in CASES for kind in (GAUSS, ORTH)
             if slopes(rho, sigma2, kind) is not None}
    assert len(sharp) == 17 and (0.7, 1e-3, GAUSS) not in sharp


@pytest.mark.parametrize("kind", [GAUSS, ORTH])
@pytest.mark.parametrize("rho, sigma2", CASES)
def test_closed_form_slopes_match_central_differences(rho, sigma2, kind):
    # the 17 sharp cases: fold slopes within 3.6e-7 relative (the fold's rounding over a
    # step of 1e-4 sigma2), alpha_c slopes within 2.8e-9 (the difference's own step error)
    got = slopes(rho, sigma2, kind)
    if got is None:
        return
    for name, bound in (("alpha_d", 1e-6), ("alpha_s", 1e-6), ("alpha_c", 1e-8)):
        closed, central = got[name]
        assert closed > 0 and abs(central / closed - 1.0) <= bound, (name, closed, central)


@pytest.mark.parametrize("rho, sigma2", CASES)
def test_orthogonal_lines_rise_more_slowly(rho, sigma2):
    # measured only at the cases where both ensembles are sharp: each orthogonal line's
    # slope is below the Gaussian one's, the closed forms and the differences alike
    orth, gauss = slopes(rho, sigma2, ORTH), slopes(rho, sigma2, GAUSS)
    if orth is None or gauss is None:
        return
    for name in ("alpha_d", "alpha_s", "alpha_c"):
        assert orth[name][0] < gauss[name][0] and orth[name][1] < gauss[name][1], name


@pytest.mark.parametrize("rho", [0.1, 0.4, 0.7])
def test_small_noise_slope_ratio(rho):
    # at sigma2 1e-9 the closed-form ratio of the orthogonal alpha_d slope to the Gaussian
    # one is 1 - alpha_d(0) within 7.4e-8 (rho 0.7; it grows as sigma2); alpha_d(0), the
    # maximum of v mmse(v), from a bounded search that owes nothing to the transition
    # search.  The central differences are not used here: a 1e-4 step of sigma2 1e-9 moves
    # alpha_d by about 1e-12, so rounding in the folds left their ratio 2.4e-4 off
    sigma2, prior = 1e-9, BernoulliGaussianPrior(rho)
    ref = minimize_scalar(lambda x: -np.exp(x) * mmse(np.exp(np.array([x])), prior)[0],
                          bounds=(0.0, 6.0), method="bounded", options={"xatol": 1e-10})
    fold_slope = {}
    for kind in (GAUSS, ORTH):
        v = np.exp(phase_analysis._search_curve(rho, sigma2, kind)[3][:1])
        fold_slope[kind] = (v * one_minus_delta(v, mmse(v, prior), kind)).item()
    assert abs(fold_slope[ORTH] / fold_slope[GAUSS] - (1.0 + ref.fun)) <= 2e-7
