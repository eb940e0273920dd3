"""Curve scans and transition-rate location (single noise level; the full
phase diagram facts live in the acceptance suite)."""

from pathlib import Path

import numpy as np
import pytest

from coupledcs import (ConvergenceError, Ensemble, NoTransitionError, QuadratureError, SeedingParams,
                       bp_mse_at, build_seeding_spec, conjugate_fixed_point, find_alpha_c,
                       find_alpha_d, find_alpha_s, free_entropy_grid, mmse, run_evolution,
                       scan_curve, sharp_window_exists, single_block_spec, sweep_phase_diagram)
from coupledcs import phase_analysis, replica_core
from coupledcs.phase_analysis import _maxima_gap, _two_maxima

GAUSS = Ensemble.GAUSSIAN_IID
ORTH = Ensemble.ROW_ORTHOGONAL
RHO, SIGMA2 = 0.4, 1e-4
RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="module")
def gauss_transitions():
    a_d = find_alpha_d(RHO, SIGMA2, GAUSS, hint=0.49)
    a_s = find_alpha_s(RHO, SIGMA2, GAUSS, hint=0.49)
    a_c = find_alpha_c(RHO, SIGMA2, GAUSS, window=(a_s, a_d))
    return a_s, a_c, a_d


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
        assert _two_maxima(RHO, SIGMA2, a_d - 1e-4, GAUSS)
        assert not _two_maxima(RHO, SIGMA2, a_d + 1e-4, GAUSS)

    def test_alpha_s_brackets_the_predicate(self, gauss_transitions):
        a_s, _, _ = gauss_transitions
        assert _two_maxima(RHO, SIGMA2, a_s + 1e-4, GAUSS)
        assert not _two_maxima(RHO, SIGMA2, a_s - 1e-4, GAUSS)

    def test_equal_heights_at_alpha_c(self, gauss_transitions):
        _, a_c, _ = gauss_transitions
        assert abs(_maxima_gap(RHO, SIGMA2, a_c, GAUSS)) <= 1e-6

    def test_alpha_c_raises_when_gap_tol_is_out_of_reach(self):
        with pytest.raises(ConvergenceError, match="gap"):
            find_alpha_c(RHO, SIGMA2, GAUSS, gap_tol=1e-30, window=(0.4528967, 0.5148596))

    def test_single_maximum_below_window_sits_at_large_mse(self, gauss_transitions):
        a_s, _, _ = gauss_transitions
        curve = scan_curve(RHO, SIGMA2, a_s - 0.02, GAUSS)
        assert curve.n_maxima == 1
        assert curve.maxima[0][0] > 0.05

    def test_dense_signal_has_no_window(self):
        # Gaussian prior: mmse is linear, the free entropy is single-peaked
        with pytest.raises(NoTransitionError):
            find_alpha_d(1.0, 1e-3, GAUSS)

    def test_sharp_window_exists_flags(self):
        ok, witness = sharp_window_exists(RHO, SIGMA2, GAUSS, hint=0.49)
        assert ok and _two_maxima(RHO, SIGMA2, witness, GAUSS)
        ok, witness = sharp_window_exists(1.0, 1e-3, GAUSS)
        assert not ok and witness is None


class TestBpMse:
    def test_agrees_with_evolution_and_rightmost_maximum(self, gauss_transitions):
        a_s, _, a_d = gauss_transitions
        for alpha in (0.5 * (a_s + a_d), a_d + 0.02):
            got = bp_mse_at(RHO, SIGMA2, alpha, GAUSS)
            spec = single_block_spec(RHO, SIGMA2, alpha)
            trace = run_evolution(spec, GAUSS)
            assert abs(got - trace.final_eps[0]) <= 1e-8
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


class TestPhasePointFailures:
    @staticmethod
    def _stub_searches(monkeypatch, calls):
        """Replace the curve scans by a fixed window (0.45, 0.52) with alpha_c at 0.48."""
        def find_two_max(*args, **kwargs):
            calls.append(args)
            return 0.5

        monkeypatch.setattr(phase_analysis, "_find_two_max_alpha", find_two_max)
        monkeypatch.setattr(phase_analysis, "_two_maxima",
                            lambda rho, sigma2, alpha, kind: 0.45 < alpha < 0.52)
        monkeypatch.setattr(phase_analysis, "_maxima_gap",
                            lambda rho, sigma2, alpha, kind: alpha - 0.48)

    def test_window_search_runs_once_per_phase_point(self, monkeypatch):
        calls = []
        self._stub_searches(monkeypatch, calls)
        (pt,) = sweep_phase_diagram(RHO, [SIGMA2], GAUSS)
        assert pt.sharp and pt.alpha_s < pt.alpha_c < pt.alpha_d
        assert len(calls) == 1
        # outside a phase point every search runs on its own
        find_alpha_d(RHO, SIGMA2, GAUSS)
        find_alpha_s(RHO, SIGMA2, GAUSS)
        assert len(calls) == 3

    def test_numeric_failure_becomes_an_error_row(self, monkeypatch):
        self._stub_searches(monkeypatch, [])

        def fail(*args, **kwargs):
            raise QuadratureError("stub failure", value=0.0, error_estimate=1.0)

        monkeypatch.setattr(phase_analysis, "_maxima_gap", fail)
        (pt,) = sweep_phase_diagram(RHO, [SIGMA2], GAUSS)
        assert not pt.sharp and pt.error == "QuadratureError: stub failure"

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("shape bug")

        monkeypatch.setattr(phase_analysis, "find_alpha_d", broken)
        with pytest.raises(TypeError, match="shape bug"):
            sweep_phase_diagram(RHO, [SIGMA2], GAUSS)
