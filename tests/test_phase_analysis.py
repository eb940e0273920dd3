"""Curve scans and transition-rate location (single noise level; the full
phase diagram facts live in the acceptance suite)."""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from coupledcs import (BernoulliGaussianPrior, ConvergenceError, Ensemble, NoTransitionError,
                       QuadratureError, SeedingParams, build_seeding_spec,
                       conjugate_fixed_point, find_alpha_c, find_alpha_d, find_alpha_s,
                       free_entropy_grid, mmse, run_evolution, scan_curve,
                       single_block_spec, sweep_phase_diagram)
from coupledcs import phase_analysis, replica_core
from coupledcs.phase_analysis import ALPHA_TOL

from conftest import bp_mse_at, window_exists

GAUSS = Ensemble.GAUSSIAN_IID
ORTH = Ensemble.ROW_ORTHOGONAL
RHO, SIGMA2 = 0.4, 1e-4
RESULTS = Path(__file__).resolve().parent.parent / "results"
# the noise grid of scripts/phase_diagram.py
PHASE_SIGMA2_GRID = np.geomspace(1e-6, 3e-3, 12)


def two_maxima(alpha, kind=GAUSS, sigma2=SIGMA2):
    """The grid predicate of the benchmark's phase-point check: 2000-point scan, two maxima."""
    return scan_curve(RHO, sigma2, alpha, kind, refine=False).n_maxima == 2


def maxima_gap(alpha, kind=GAUSS, sigma2=SIGMA2):
    """F(small-MSE maximum) - F(large-MSE maximum) of the refined scan at alpha."""
    curve = scan_curve(RHO, sigma2, alpha, kind)
    assert curve.n_maxima == 2
    return curve.maxima[0][1] - curve.maxima[1][1]


@pytest.fixture(scope="module")
def gauss_transitions():
    return find_alpha_s(RHO, SIGMA2, GAUSS), find_alpha_c(RHO, SIGMA2, GAUSS), \
        find_alpha_d(RHO, SIGMA2, GAUSS)


@pytest.fixture(scope="module")
def phase_sweeps():
    """The sweeps of scripts/phase_diagram.py, one list of PhasePoints per ensemble."""
    return {kind: sweep_phase_diagram(RHO, PHASE_SIGMA2_GRID, kind) for kind in (ORTH, GAUSS)}


class TestScanCurve:
    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            scan_curve(RHO, SIGMA2, 0.5, GAUSS, n_points=2)

    @pytest.mark.parametrize("bad", [100.5, np.nan, np.inf])
    def test_points_must_be_a_whole_number(self, bad):
        # 100.5 reached np.linspace, which raised TypeError
        with pytest.raises(ValueError, match="whole number"):
            scan_curve(RHO, SIGMA2, 0.5, GAUSS, n_points=bad, refine=False)

    def test_integral_float_points_count_as_their_int(self):
        got = scan_curve(RHO, SIGMA2, 0.49, GAUSS, n_points=200.0, refine=False)
        want = scan_curve(RHO, SIGMA2, 0.49, GAUSS, n_points=200, refine=False)
        assert np.array_equal(got.eps_grid, want.eps_grid) and got.maxima == want.maxima

    def test_zero_density_peaks_at_floor(self):
        curve = scan_curve(0.0, SIGMA2, 0.5, GAUSS, n_points=200)
        assert int(np.argmax(curve.values)) == 0
        assert curve.n_maxima == 0

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_bistable_window_has_two_maxima(self, kind):
        curve = scan_curve(RHO, SIGMA2, 0.49, kind)
        assert curve.n_maxima == 2
        eps = [e for e, _ in curve.maxima]
        assert eps[0] < eps[1]

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    @pytest.mark.parametrize("alpha", [0.40, 0.56])
    def test_single_maximum_outside_window(self, kind, alpha):
        assert scan_curve(RHO, SIGMA2, alpha, kind).n_maxima == 1

    @pytest.mark.parametrize("alpha", [0.47, 0.49, 0.56])
    def test_maxima_count_stable_under_grid_doubling(self, alpha):
        base = scan_curve(RHO, SIGMA2, alpha, GAUSS, n_points=2000, refine=False)
        fine = scan_curve(RHO, SIGMA2, alpha, GAUSS, n_points=4000, refine=False)
        assert base.n_maxima == fine.n_maxima

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    @pytest.mark.parametrize("alpha", [0.40, 0.45, 0.47, 0.49, 0.51, 0.56])
    def test_refined_maxima_are_roots_of_phi_and_maxima_of_f(self, kind, alpha):
        curve = scan_curve(RHO, SIGMA2, alpha, kind)
        assert curve.n_maxima == scan_curve(RHO, SIGMA2, alpha, kind, refine=False).n_maxima
        spec = single_block_spec(RHO, SIGMA2, alpha)
        for eps, height in curve.maxima:
            # phi(eps) = mmse(varsigma(eps)) - eps, through the public single-point path
            varsigma = conjugate_fixed_point(np.array([eps]), spec, kind).varsigma.sum()
            assert abs(mmse(varsigma, spec.prior) - eps) <= 1e-12 * eps
            around = free_entropy_grid(eps * np.array([[1 - 1e-4], [1 + 1e-4]]), spec, kind)
            assert np.all(around < height)

    def test_unrefined_scan_evaluates_no_free_entropy(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("channel term evaluated")

        monkeypatch.setattr(replica_core, "channel_term_batch", forbidden)
        curve = scan_curve(RHO, SIGMA2, 0.49, ORTH, refine=False)
        assert curve.values is None
        assert curve.n_maxima == 2 and all(f is None for _, f in curve.maxima)

    def test_unrefined_scan_makes_no_inner_solve(self, monkeypatch):
        # the count reads the closed-form fixed-point curve, not conjugates on an eps grid
        def forbidden(*args, **kwargs):
            raise AssertionError("inner extremization solved")

        monkeypatch.setattr(replica_core, "_solve_lambda", forbidden)
        assert scan_curve(RHO, SIGMA2, 0.49, ORTH, refine=False).n_maxima == 2

    @pytest.mark.parametrize("refine", [True, False])
    def test_noise_free_scan_is_rejected(self, refine):
        with pytest.raises(ValueError, match="diverges at sigma2 = 0"):
            scan_curve(RHO, 0.0, 0.49, GAUSS, refine=refine)

    @pytest.mark.parametrize("refine", [True, False])
    def test_orthogonal_rate_above_one_is_rejected(self, refine):
        # alpha(v) exceeds 1 on the curve, but no orthogonal block has such a rate
        with pytest.raises(ValueError, match="alpha"):
            scan_curve(RHO, SIGMA2, 1.5, ORTH, refine=refine)

    def test_grid_is_increasing_and_maxima_sorted(self):
        curve = scan_curve(RHO, SIGMA2, 0.49, ORTH)
        assert np.all(np.diff(curve.eps_grid) > 0)
        eps = [e for e, _ in curve.maxima]
        assert eps == sorted(eps)


class TestTransitions:
    def test_ordering(self, gauss_transitions):
        a_s, a_c, a_d = gauss_transitions
        assert a_s < a_c < a_d

    def test_alpha_d_brackets_the_predicate(self, gauss_transitions):
        _, _, a_d = gauss_transitions
        assert two_maxima(a_d - 1e-4)
        assert not two_maxima(a_d + 1e-4)

    def test_alpha_s_brackets_the_predicate(self, gauss_transitions):
        a_s, _, _ = gauss_transitions
        assert two_maxima(a_s + 1e-4)
        assert not two_maxima(a_s - 1e-4)

    def test_equal_heights_at_alpha_c(self, gauss_transitions):
        _, a_c, _ = gauss_transitions
        assert abs(maxima_gap(a_c)) <= 1e-6

    def test_single_maximum_below_window_sits_at_large_mse(self, gauss_transitions):
        a_s, _, _ = gauss_transitions
        curve = scan_curve(RHO, SIGMA2, a_s - 0.02, GAUSS)
        assert curve.n_maxima == 1
        assert curve.maxima[0][0] > 0.05

    def test_dense_signal_has_no_window(self):
        # Gaussian prior: mmse is linear, the free entropy is single-peaked
        with pytest.raises(NoTransitionError):
            find_alpha_d(1.0, 1e-3, GAUSS)

    def test_window_exists_flags(self, gauss_transitions):
        a_s, _, a_d = gauss_transitions
        assert window_exists(RHO, SIGMA2, GAUSS) and two_maxima(0.5 * (a_s + a_d))
        assert not window_exists(1.0, 1e-3, GAUSS)

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    @pytest.mark.parametrize("rho", [0.0, 1.0])
    @pytest.mark.parametrize("sigma2", [1e-10, 1e-4, 1.0])
    def test_no_window_at_the_density_ends(self, kind, rho, sigma2):
        # rho = 0: eps = 0 and alpha = v sigma2; rho = 1: mmse is 1 / (1 + v)
        assert not window_exists(rho, sigma2, kind)
        (pt,) = sweep_phase_diagram(rho, [sigma2], kind)
        assert not pt.sharp

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_window_reaching_the_rate_cap_is_no_transition(self, kind, monkeypatch):
        # alpha_d is 0.514 here, so a cap of 0.5 stands in for a fold above alpha = 1,
        # where the orthogonal inner extremization has no solution
        monkeypatch.setattr(phase_analysis, "_ALPHA_SEARCH_CAP", 0.5)
        with pytest.raises(NoTransitionError, match="beyond alpha = 1"):
            find_alpha_d(RHO, SIGMA2, kind)
        assert not sweep_phase_diagram(RHO, [SIGMA2], kind)[0].sharp

    @pytest.mark.parametrize("find", [find_alpha_d, find_alpha_s, find_alpha_c])
    def test_noise_free_rates_are_rejected(self, find):
        # F diverges at sigma2 = 0, so alpha_c has no meaning there
        with pytest.raises(ValueError, match="diverges at sigma2 = 0"):
            find(RHO, 0.0, GAUSS)
        for sigma2 in (-1e-4, np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma2 must be finite and > 0"):
                find(RHO, sigma2, ORTH)

    def test_noise_free_sweep_is_rejected(self):
        with pytest.raises(ValueError, match="diverges at sigma2 = 0"):
            sweep_phase_diagram(RHO, [1e-4, 0.0], GAUSS)

    @pytest.mark.parametrize("threads", [0, -3, 2, 2.5])
    def test_threads_other_than_one_are_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be 1"):
            sweep_phase_diagram(RHO, [1e-4], GAUSS, threads=threads)


class TestFixedPointCurve:
    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    @pytest.mark.parametrize("sigma2", [1e-6, 1e-4, 1e-2])
    def test_rates_make_each_point_a_fixed_point(self, kind, sigma2):
        # varsigma(mmse(v); alpha(v)) = v through the public conjugate solve
        prior = BernoulliGaussianPrior(RHO)
        log_v = np.linspace(-3.0, 12.0, 16)
        alpha, eps = phase_analysis._fixed_point_rates(log_v, prior, sigma2, kind)
        assert np.array_equal(eps, mmse(np.exp(log_v), prior))
        for lv, a, e in zip(log_v, alpha, eps):
            if a > 1.0:  # the orthogonal inner solve needs rates up to 1
                continue
            state = conjugate_fixed_point(np.array([e]), single_block_spec(RHO, sigma2, a), kind)
            assert abs(state.varsigma.sum() / np.exp(lv) - 1.0) <= 1e-12

    @settings(deadline=None, max_examples=50)
    @given(rho=st.floats(0.01, 1.0), log_sigma2=st.floats(-8.0, 0.0),
           log_v=st.floats(-3.0, 6.0))
    def test_orthogonal_rates_are_the_vamp_fixed_point(self, rho, log_sigma2, log_v):
        # the single-block orthogonal curve is the VAMP/OAMP state-evolution fixed point for
        # the spectrum (1 - alpha) delta_0 + alpha delta_1 of a row-orthogonal A:
        # eps = alpha / (gamma2 + 1 / sigma2) + (1 - alpha) / gamma2, gamma2 = 1 / eps - v
        # (Rangan, Schniter and Fletcher, "Vector approximate message passing")
        sigma2, v = 10.0 ** log_sigma2, 10.0 ** log_v
        alpha, eps = phase_analysis._fixed_point_rates(
            np.log(v), BernoulliGaussianPrior(rho), sigma2, ORTH)
        gamma2 = 1.0 / eps - v
        vamp = alpha / (gamma2 + 1.0 / sigma2) + (1.0 - alpha) / gamma2
        # a floor for the rounding of alpha and of the cancelling 1 / eps - v, amplified by
        # 1 / (eps gamma2) = 1 / (1 - v eps) as v eps -> 1 (1 - v eps is 1e-6 at v = 1e6, rho = 1)
        floor = 8e-16 * (alpha + abs(1.0 - alpha)) / gamma2 * (1.0 + 1.0 / (eps * gamma2))
        assert abs(vamp - eps) <= 1e-10 * eps + floor

    @settings(deadline=None, max_examples=50)
    @given(rho=st.floats(1e-4, 1.0), log_sigma2=st.floats(-10.0, 0.0),
           log_v=st.floats(-23.0, 23.0), kind=st.sampled_from([GAUSS, ORTH]))
    def test_rate_is_at_least_min_of_one_and_v_sigma2(self, rho, log_sigma2, log_v, kind):
        # the upper cut of the search slice: beyond v = 1 / sigma2 the curve lies above the
        # rate cap (Gaussian: alpha = v (eps + sigma2); orthogonal: alpha is a mean of 1 and
        # v sigma2 with weights Delta = v eps and 1 - Delta); 1e-15 covers the rounding of
        # alpha, far below the 1e-7 by which _ALPHA_SEARCH_CAP sits under 1
        sigma2, v = 10.0 ** log_sigma2, np.exp(log_v)
        (alpha,), _ = phase_analysis._fixed_point_rates(
            np.array([log_v]), BernoulliGaussianPrior(rho), sigma2, kind)
        assert alpha >= min(1.0, v * sigma2) * (1.0 - 1e-15)

    def test_v_mmse_rises_up_to_v_one(self):
        # the lower cut of the search slice: below v = 1, v mmse(v) rises, so the Gaussian
        # alpha = v mmse + v sigma2 rises, and so does the orthogonal alpha = Delta +
        # (1 - Delta) v sigma2 (its slope is Delta' (1 - v sigma2) + sigma2 (1 - Delta));
        # checked on this grid, not proved
        v = np.geomspace(1e-10, 1.0, 200)
        for rho in np.linspace(1e-4, 1.0 - 1e-4, 120):
            assert np.all(np.diff(v * mmse(v, BernoulliGaussianPrior(rho))) > 0), rho

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_grid_covers_the_scan_range(self, kind):
        # scan_curve's default curve: the fixed points of its log v grid span its eps grid
        log_v = phase_analysis._log_v_grid(SIGMA2, phase_analysis.DEFAULT_GRID_POINTS)
        prior = BernoulliGaussianPrior(RHO)
        alpha, eps = phase_analysis._fixed_point_rates(log_v, prior, SIGMA2, kind)
        assert np.array_equal(eps, mmse(np.exp(log_v), prior))
        floor = phase_analysis._default_eps_floor(SIGMA2)
        assert eps[-1] <= floor and eps[0] >= RHO * (1 - floor)
        assert alpha.size == phase_analysis.DEFAULT_GRID_POINTS


class TestGridFreeSearch:
    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    @pytest.mark.parametrize("sigma2", [1e-4, 1e-3])
    def test_folds_match_a_bounded_brent_search(self, kind, sigma2):
        # the reference owes nothing to the search grid: scipy's bounded Brent search for the
        # extrema of alpha(log v) in the cells around each turn of the 2000-point curve
        prior = BernoulliGaussianPrior(RHO)
        log_v = phase_analysis._log_v_grid(sigma2, phase_analysis.DEFAULT_GRID_POINTS)
        alpha = phase_analysis._fixed_point_rates(log_v, prior, sigma2, kind)[0]
        rising = np.diff(alpha) > 0
        turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
        assert turns.size == 2
        (pt,) = sweep_phase_diagram(RHO, [sigma2], kind)
        for turn, sign, got in zip(turns, (1.0, -1.0), (pt.alpha_d, pt.alpha_s)):
            def descent(x, sign=sign):
                return -sign * phase_analysis._fixed_point_rates(
                    np.array([x]), prior, sigma2, kind)[0][0]
            ref = minimize_scalar(descent, bounds=(log_v[turn - 1], log_v[turn + 1]),
                                  method="bounded", options={"xatol": 1e-12})
            assert abs(got + sign * ref.fun) <= 1e-11, (turn, got, -sign * ref.fun)

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    @pytest.mark.parametrize("share", [0.25, 0.5, 0.75])
    def test_closed_form_gap_slope(self, kind, share):
        # dG/da = log((sigma2 + S_small) / (sigma2 + S_large)) against a central difference
        # of the refined scans' height gap; h = 1e-5 leaves a difference error of about 3e-9
        curve = phase_analysis._search_curve(RHO, SIGMA2, kind)
        a_d, a_s = curve[-1]
        rate, h = a_s + share * (a_d - a_s), 1e-5
        gap, slope, _ = phase_analysis._maxwell_gap(rate, RHO, SIGMA2, kind, curve)
        assert abs(gap + maxima_gap(rate, kind)) <= 1e-12
        central = (maxima_gap(rate - h, kind) - maxima_gap(rate + h, kind)) / (2.0 * h)
        assert slope < 0 and abs(slope / central - 1.0) <= 1e-7, (slope, central)

    def test_newton_stops_in_the_gap_rounding(self, monkeypatch):
        # rounding noise of 1e-10 that flips sign from one evaluation to the next sends plain
        # Newton back and forth between root - 2e-11 and root + 2e-11, steps above the step
        # tolerance: the search has to stop when its bracket closes
        root = 0.5 * sum(phase_analysis._search_curve(RHO, SIGMA2, GAUSS)[-1]) + 0.01
        rates = []

        def noisy_gap(rate, *args):   # args end with the curve, which it hands back
            rates.append(rate)
            return -5.0 * (rate - root) + 1e-10 * (-1) ** len(rates), -5.0, args[-1]

        monkeypatch.setattr(phase_analysis, "_maxwell_gap", noisy_gap)
        assert abs(find_alpha_c(RHO, SIGMA2, GAUSS) - root) <= 2.5e-11   # noise / slope + 1e-12
        assert len(rates) <= 20

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    @pytest.mark.parametrize("sigma2", [1e-4, 1e-3])
    def test_equal_area_start_is_near_the_maxwell_rate(self, kind, sigma2):
        # the trapezoid sums extrapolated to zero step start Newton within 1.5e-7 of alpha_c
        # at rho 0.1, 0.4 and 0.7 and sigma2 1e-5, 1e-4 and 1e-3 (2.8e-7 over 100-level
        # sweeps), so that one step lands within the step tolerance; the plain grid sum is
        # off by up to 6e-6
        curve = phase_analysis._search_curve(RHO, sigma2, kind)
        start = phase_analysis._equal_area_rate(curve, sigma2, kind)
        assert abs(start - phase_analysis._maxwell_rate(RHO, sigma2, kind, curve)) <= 2.5e-7

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_mid_window_start_reaches_the_same_rate(self, kind, monkeypatch):
        expected = find_alpha_c(RHO, SIGMA2, kind)
        monkeypatch.setattr(phase_analysis, "_equal_area_rate", lambda *args: None)
        assert abs(find_alpha_c(RHO, SIGMA2, kind) / expected - 1.0) <= 1e-12

    def test_gap_without_sign_change_is_no_transition(self, monkeypatch):
        # the fold ends are never evaluated: the bracket closes on alpha_d instead
        monkeypatch.setattr(phase_analysis, "_maxwell_gap",
                            lambda rate, *args: (1.0, -1.0, args[-1]))
        with pytest.raises(NoTransitionError, match="does not change sign"):
            find_alpha_c(RHO, SIGMA2, GAUSS)
        assert not sweep_phase_diagram(RHO, [SIGMA2], GAUSS)[0].sharp


def test_step_onto_a_bracket_end_closes_the_bracket():
    # on [0, 1] the regula-falsi step for the root 1e-20 of 1e-20 - x rounds onto 0; a
    # bisection there would take about 47 halvings to reach the tolerance
    calls = []

    def residual(x):
        calls.append(x)
        return 1e-20 - x

    root = phase_analysis._illinois(residual, np.zeros(1), np.ones(1),
                                    np.full(1, 1e-20), np.full(1, 1e-20 - 1.0))
    assert len(calls) == 1 and abs(root[0]) <= phase_analysis._ROOT_XTOL


@settings(deadline=None, max_examples=20)
@given(log_sigma2=st.floats(min_value=-6.0, max_value=-3.0),
       kind=st.sampled_from([GAUSS, ORTH]))
def test_transition_ordering_and_grid_predicate(log_sigma2, kind):
    sigma2 = 10.0 ** log_sigma2
    (pt,) = sweep_phase_diagram(RHO, [sigma2], kind)
    assert pt.sharp
    assert pt.alpha_s < pt.alpha_c < pt.alpha_d
    for alpha, expect in ((pt.alpha_d - ALPHA_TOL, True), (pt.alpha_s + ALPHA_TOL, True),
                          (pt.alpha_d + ALPHA_TOL, False), (pt.alpha_s - ALPHA_TOL, False)):
        assert two_maxima(alpha, kind, sigma2) is expect, (alpha, expect)


class TestBpMse:
    def test_agrees_with_evolution_and_rightmost_maximum(self, gauss_transitions):
        a_s, _, a_d = gauss_transitions
        for alpha in (0.5 * (a_s + a_d), a_d + 0.02):
            got = bp_mse_at(RHO, SIGMA2, alpha, GAUSS)
            curve = scan_curve(RHO, SIGMA2, alpha, GAUSS)
            rightmost = curve.maxima[-1][0]
            assert abs(got - rightmost) <= 1e-8

    def test_noise_dominated_far_above_threshold(self):
        got = bp_mse_at(RHO, 1e-6, 0.8, GAUSS)
        assert got < 5e-6

    def test_non_increasing_in_alpha(self):
        vals = [bp_mse_at(RHO, SIGMA2, a, ORTH) for a in (0.45, 0.56, 0.7)]
        assert vals[0] >= vals[1] >= vals[2]


class TestCommittedResults:
    """The figure data under results/ (rho 0.4, sigma2 1e-4) still comes out of the code."""

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_alpha_049_curve_and_maxima(self, kind):
        base = RESULTS / f"free_entropy_{kind.value}_alpha0.49"
        ref = np.loadtxt(f"{base}.csv", delimiter=",", skiprows=1)
        ref_max = np.loadtxt(f"{base}.maxima.csv", delimiter=",", skiprows=1, ndmin=2)
        spec = single_block_spec(RHO, SIGMA2, 0.49)
        got = free_entropy_grid(ref[::10, :1], spec, kind)
        assert np.abs(got - ref[::10, 1]).max() <= 1e-10
        curve = scan_curve(RHO, SIGMA2, 0.49, kind, n_points=len(ref))
        assert np.array_equal(curve.eps_grid, ref[:, 0])
        maxima = np.array(curve.maxima)
        assert maxima.shape == ref_max.shape
        assert np.abs(maxima[:, 1] - ref_max[:, 1]).max() <= 1e-10
        assert np.abs(maxima[:, 0] / ref_max[:, 0] - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_showcase_trace(self, kind):
        # the L=10 seeding chain of scripts/coupled_evolution.py (sigma2 1e-6)
        ref = np.loadtxt(RESULTS / f"coupled_trace_{kind.value}.csv", delimiter=",", skiprows=1)
        params = SeedingParams(L=10, W=2, alpha_seed=0.70, alpha_bulk=0.49, J=0.5)
        trace = run_evolution(build_seeding_spec(params, RHO, 1e-6), kind)
        assert trace.converged and trace.iterations == len(ref) - 1
        assert np.abs(trace.history - ref[:, 1:]).max() <= 1e-10


    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_phase_csv(self, kind, phase_sweeps):
        with open(RESULTS / f"phase_{kind.value}.csv") as fh:
            ref = list(csv.DictReader(fh))
        points = phase_sweeps[kind]
        assert [float(row["sigma2"]) for row in ref] == [pt.sigma2 for pt in points]
        for row, pt in zip(ref, points):
            assert row["sharp"] == str(int(pt.sharp))
            for name in ("alpha_d", "alpha_c", "alpha_s"):
                got = getattr(pt, name)
                if row[name] == "":
                    assert got is None
                else:
                    assert abs(got / float(row[name]) - 1.0) <= 1e-12, (pt.sigma2, name)


# (alpha_s, alpha_c, alpha_d) of results/phase_*.csv on PHASE_SIGMA2_GRID as the edge and
# gap bisections computed them before the fixed-point curve, to 8 decimals; None: not sharp
BISECTION_PHASE_ROWS = {
    ORTH: [(0.40619228, 0.44218199, 0.51380214), (0.40848843, 0.44539645, 0.51380885),
           (0.41160366, 0.44909805, 0.51382228), (0.41579983, 0.45339177, 0.51384242),
           (0.42141933, 0.45840925, 0.51389613), (0.42887844, 0.46431440, 0.51399684),
           (0.43868068, 0.47131023, 0.51420497), (0.45136592, 0.47964496, 0.51463984),
           (0.46746455, 0.48961584, 0.51555537), (0.48726718, 0.50156686, 0.51749591),
           (0.51034755, 0.51587316, 0.52174952), None],
    GAUSS: [(0.40775661, 0.44456686, 0.51380885), (0.41062344, 0.44815866, 0.51382228),
            (0.41450405, 0.45232533, 0.51384242), (0.41972744, 0.45719774, 0.51389613),
            (0.42672329, 0.46294199, 0.51399012), (0.43600185, 0.46976923, 0.51420497),
            (0.44817256, 0.47794678, 0.51463252), (0.46389034, 0.48781389, 0.51554072),
            (0.48368636, 0.49979758, 0.51746970), (0.50749904, 0.51443329, 0.52167811),
            None, None],
}


@pytest.mark.parametrize("kind", [GAUSS, ORTH])
def test_rates_agree_with_the_bisection_search(kind, phase_sweeps):
    for pt, ref in zip(phase_sweeps[kind], BISECTION_PHASE_ROWS[kind], strict=True):
        assert pt.sharp is (ref is not None), pt
        if ref is not None:
            got = (pt.alpha_s, pt.alpha_c, pt.alpha_d)
            assert np.abs(np.subtract(got, ref)).max() <= ALPHA_TOL, (pt.sigma2, got, ref)


# the last sharp level of a 400-level noise sweep over [1e-6, 3e-3], as (index, whether the
# grid sums show no sign change and Newton starts mid-window): the window is 2.9e-6 to 4.4e-5
# wide and holds 3 to 8 points of the search curve
NEAR_CUSP_SWEEP = np.geomspace(1e-6, 3e-3, 400)
NEAR_CUSP_LEVELS = {(0.1, ORTH): (366, True), (0.1, GAUSS): (358, True),
                    (0.4, ORTH): (393, True), (0.4, GAUSS): (361, True),
                    (0.7, ORTH): (382, False), (0.7, GAUSS): (311, True)}


@pytest.mark.parametrize("rho, kind", list(NEAR_CUSP_LEVELS))
def test_equal_heights_at_the_last_sharp_level(rho, kind, monkeypatch):
    index, mid_window = NEAR_CUSP_LEVELS[rho, kind]
    starts = []
    equal_area_rate = phase_analysis._equal_area_rate

    def recorded(*args):
        starts.append(equal_area_rate(*args))
        return starts[-1]

    monkeypatch.setattr(phase_analysis, "_equal_area_rate", recorded)
    pt, beyond = sweep_phase_diagram(rho, NEAR_CUSP_SWEEP[index:index + 2], kind)
    assert pt.sharp and not beyond.sharp
    assert (starts[0] is None) is mid_window
    curve = scan_curve(rho, pt.sigma2, pt.alpha_c, kind)
    assert curve.n_maxima == 2
    assert abs(curve.maxima[0][1] - curve.maxima[1][1]) <= 1e-12


def count_phase_point_work(rho, sigma2, kind, monkeypatch):
    """(PhasePoint, counts): mmse calls and values and free_entropy_grid calls of one point."""
    calls = {"mmse": 0, "values": 0, "free_entropy_grid": 0}
    mmse_, free_entropy_grid_ = phase_analysis.mmse, phase_analysis.free_entropy_grid

    def counted_mmse(v, *args):
        calls["mmse"] += 1
        calls["values"] += np.size(v)
        return mmse_(v, *args)

    def counted_free_entropy_grid(*args):
        calls["free_entropy_grid"] += 1
        return free_entropy_grid_(*args)

    monkeypatch.setattr(phase_analysis, "mmse", counted_mmse)
    monkeypatch.setattr(phase_analysis, "free_entropy_grid", counted_free_entropy_grid)
    (pt,) = sweep_phase_diagram(rho, [sigma2], kind)
    return pt, calls


@pytest.mark.parametrize("kind", [GAUSS, ORTH])
def test_phase_point_work(kind, monkeypatch):
    # at the benchmark's point: one mmse call for the curve on the search slice (146 of
    # the grid's 500 values), 4-5 fold steps, then two Newton steps, each one joint root
    # solve of both maxima (6, then 2-3 warm-started mmse calls) and one free_entropy_grid
    # call; 14 mmse calls on 172 values for each ensemble
    pt, calls = count_phase_point_work(RHO, SIGMA2, kind, monkeypatch)
    assert pt.sharp
    assert calls["mmse"] <= 16 and calls["free_entropy_grid"] <= 2, calls
    assert calls["values"] <= 200, calls


@pytest.mark.parametrize("kind", [GAUSS, ORTH])
def test_work_past_the_cusp(kind, monkeypatch):
    # no window: the slice, each value once, plus two values per fold step
    pt, calls = count_phase_point_work(RHO, 1e-2, kind, monkeypatch)
    assert not pt.sharp
    log_v = phase_analysis._log_v_grid(1e-2, phase_analysis._SEARCH_GRID_POINTS)
    lo, hi = phase_analysis._search_slice(log_v, 1e-2)
    assert calls["values"] <= hi - lo + 2 * (calls["mmse"] - 1), calls


@pytest.mark.parametrize("kind", [GAUSS, ORTH])
@pytest.mark.parametrize("rho", [0.1, 0.4, 0.9])
def test_slice_search_matches_the_full_grid_search(rho, kind, monkeypatch):
    # levels with and without a window, up to past the cusp: the search on the whole grid
    # finds the same folds bit for bit, and alpha_c up to the rounding of its area sums
    levels = np.geomspace(1e-6, 3e-2, 9)
    sliced = sweep_phase_diagram(rho, levels, kind)
    monkeypatch.setattr(phase_analysis, "_search_slice", lambda log_v, sigma2: (0, log_v.size))
    full = sweep_phase_diagram(rho, levels, kind)
    assert any(pt.sharp for pt in full) and not all(pt.sharp for pt in full)
    for got, want in zip(sliced, full, strict=True):
        assert (got.sharp, got.alpha_d, got.alpha_s) == (want.sharp, want.alpha_d, want.alpha_s)
        if want.sharp:
            assert abs(got.alpha_c - want.alpha_c) <= 1e-13 * want.alpha_c


class TestPhasePointFailures:
    def test_curve_is_built_once_per_phase_point(self, monkeypatch):
        # one curve evaluation, on the search slice; the folds and the branch roots then
        # evaluate two points at a time
        sizes = []
        rates = phase_analysis._fixed_point_rates

        def counted(log_v, *args):
            sizes.append(log_v.size)
            return rates(log_v, *args)

        monkeypatch.setattr(phase_analysis, "_fixed_point_rates", counted)
        (pt,) = sweep_phase_diagram(RHO, [SIGMA2], GAUSS)
        assert pt.sharp and pt.alpha_s < pt.alpha_c < pt.alpha_d
        log_v = phase_analysis._log_v_grid(SIGMA2, phase_analysis._SEARCH_GRID_POINTS)
        lo, hi = phase_analysis._search_slice(log_v, SIGMA2)
        assert sizes[0] == hi - lo < log_v.size and max(sizes[1:]) == 2

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_slice_above_alpha_s_raises_out_of_the_sweep(self, kind, monkeypatch):
        # a slice whose first point is on the large-MSE branch above alpha_s cannot bracket
        # the window's rates on that branch
        log_v, alpha, _, _, (_, a_s) = phase_analysis._search_curve(RHO, SIGMA2, kind)
        grid = phase_analysis._log_v_grid(SIGMA2, phase_analysis._SEARCH_GRID_POINTS)
        lo = int(np.searchsorted(grid, log_v[np.flatnonzero(alpha >= a_s)[0]]))
        hi = phase_analysis._search_slice(grid, SIGMA2)[1]
        monkeypatch.setattr(phase_analysis, "_search_slice", lambda log_v, sigma2: (lo, hi))
        with pytest.raises(ConvergenceError, match="the search slice starts above alpha_s"):
            sweep_phase_diagram(RHO, [SIGMA2], kind)

    def test_unconverged_root_find_raises_out_of_the_sweep(self, monkeypatch):
        monkeypatch.setattr(phase_analysis, "_ROOT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="root find did not converge"):
            find_alpha_c(RHO, SIGMA2, ORTH)
        with pytest.raises(ConvergenceError, match="root find did not converge"):
            sweep_phase_diagram(RHO, [SIGMA2], ORTH)

    def test_failure_after_good_levels_returns_no_level(self, monkeypatch):
        maxwell_rate = phase_analysis._maxwell_rate

        def fail_at_the_last_level(rho, sigma2, kind, curve):
            if sigma2 == 2e-4:
                raise ConvergenceError("stub failure", residual=1.0)
            return maxwell_rate(rho, sigma2, kind, curve)

        monkeypatch.setattr(phase_analysis, "_maxwell_rate", fail_at_the_last_level)
        with pytest.raises(ConvergenceError, match="stub failure"):
            sweep_phase_diagram(RHO, [1e-2, SIGMA2, 2e-4], GAUSS)

    def test_quadrature_failure_raises_out_of_the_sweep(self, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("stub failure", value=0.0, error_estimate=1.0)

        monkeypatch.setattr(phase_analysis, "mmse", fail)
        with pytest.raises(QuadratureError, match="stub failure"):
            sweep_phase_diagram(RHO, [SIGMA2], GAUSS)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("shape bug")

        monkeypatch.setattr(phase_analysis, "mmse", broken)
        with pytest.raises(TypeError, match="shape bug"):
            sweep_phase_diagram(RHO, [SIGMA2], GAUSS)
