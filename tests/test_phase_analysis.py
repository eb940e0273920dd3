"""Curve scans and transition-rate location (single noise level; the full
phase diagram facts live in the acceptance suite)."""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert not pt.sharp and pt.error is None

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

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_grid_covers_the_scan_range(self, kind):
        log_v, alpha = phase_analysis._fixed_point_curve(RHO, SIGMA2, kind)
        eps = mmse(np.exp(log_v[[0, -1]]), BernoulliGaussianPrior(RHO))
        floor = phase_analysis.default_eps_floor(SIGMA2)
        assert eps[1] <= floor and eps[0] >= RHO * (1 - floor)
        assert alpha.size == phase_analysis.DEFAULT_GRID_POINTS


@settings(deadline=None, max_examples=20)
@given(log_sigma2=st.floats(min_value=-6.0, max_value=-3.0),
       kind=st.sampled_from([GAUSS, ORTH]))
def test_transition_ordering_and_grid_predicate(log_sigma2, kind):
    sigma2 = 10.0 ** log_sigma2
    (pt,) = sweep_phase_diagram(RHO, [sigma2], kind)
    assert pt.sharp and pt.error is None
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
            assert (row["sharp"], row["status"]) == (str(int(pt.sharp)), "ok")
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
        assert pt.sharp is (ref is not None) and pt.error is None, pt
        if ref is not None:
            got = (pt.alpha_s, pt.alpha_c, pt.alpha_d)
            assert np.abs(np.subtract(got, ref)).max() <= ALPHA_TOL, (pt.sigma2, got, ref)


class TestPhasePointFailures:
    def test_curve_is_built_once_per_phase_point(self, monkeypatch):
        calls = []
        build = phase_analysis._fixed_point_curve

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(phase_analysis, "_fixed_point_curve", counted)
        (pt,) = sweep_phase_diagram(RHO, [SIGMA2], GAUSS)
        assert pt.sharp and pt.alpha_s < pt.alpha_c < pt.alpha_d
        assert calls == [(RHO, SIGMA2, GAUSS)]

    def test_unconverged_root_find_becomes_an_error_row(self, monkeypatch):
        monkeypatch.setattr(phase_analysis, "_ROOT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="root find did not converge"):
            find_alpha_c(RHO, SIGMA2, ORTH)
        (pt,) = sweep_phase_diagram(RHO, [SIGMA2], ORTH)
        assert not pt.sharp and pt.alpha_d is None
        assert pt.error.startswith("ConvergenceError: root find did not converge")

    def test_quadrature_failure_becomes_an_error_row(self, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("stub failure", value=0.0, error_estimate=1.0)

        monkeypatch.setattr(phase_analysis, "mmse", fail)
        (pt,) = sweep_phase_diagram(RHO, [SIGMA2], GAUSS)
        assert not pt.sharp and pt.error == "QuadratureError: stub failure"

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("shape bug")

        monkeypatch.setattr(phase_analysis, "mmse", broken)
        with pytest.raises(TypeError, match="shape bug"):
            sweep_phase_diagram(RHO, [SIGMA2], GAUSS)
