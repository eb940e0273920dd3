"""Scalar-channel posterior mean and mmse against independent oracles."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from coupledcs import (BernoulliGaussianPrior, Ensemble, ScalarChannel, build_coupled_operator,
                       gen_instance, mmse, mmse_mc_oracle, posterior_mean, run_evolution,
                       scan_curve, single_block_spec)
from coupledcs import scalar_channel
from coupledcs.replica_core import channel_term_batch
from coupledcs.scalar_channel import _mmse_live

from conftest import SWEEP_RHO

RHO = BernoulliGaussianPrior(0.4)

# Frozen output of `_posterior_mean_2d_oracle(1 + 0.5j, 2.0, 0.4)` below.
ORACLE_PM = 0.3603720066546294 + 0.1801860033273147j

# Frozen output of `_mmse_mpmath_oracle(vs, rho)` below, keyed by (rho, vs).  The
# first three are the high-density points an adaptive rule once got wrong
# (by 8.2e-4, 1.7e-6 and 6.8e-8 relative) while passing its own error check.
ORACLE_MMSE = {
    (0.999, 1000.0): 0.0009988224063360758,
    (0.995, 631.0): 0.0015793865934393089,
    (0.99, 501.0): 0.0019829770412882106,
    (0.4, 1.0): 0.2707083052822194,
    (0.4, 1e12): 4.000000001574669e-13,
    (0.001, 1e-06): 0.000999999999,
    (0.001, 1e6): 1.0002153478454992e-09,
    (0.5, 0.001): 0.4997501248128434,
    (0.9, 10.0): 0.08824820624339598,
}


def _posterior_mean_2d_oracle(y, vs, rho, lim=8.0):
    """Brute-force E{x|y} by direct 2-D integration of the posterior."""
    def like(xr, xi):
        return (vs / np.pi) * np.exp(-vs * abs(y - (xr + 1j * xi)) ** 2)

    def gauss(xr, xi):
        return np.exp(-(xr * xr + xi * xi)) / np.pi

    kw = dict(epsabs=1e-11, epsrel=1e-11)
    py_cont = dblquad(lambda xi, xr: like(xr, xi) * gauss(xr, xi), -lim, lim, -lim, lim, **kw)[0]
    num_re = dblquad(lambda xi, xr: xr * like(xr, xi) * gauss(xr, xi), -lim, lim, -lim, lim, **kw)[0]
    num_im = dblquad(lambda xi, xr: xi * like(xr, xi) * gauss(xr, xi), -lim, lim, -lim, lim, **kw)[0]
    p_y = (1 - rho) * (vs / np.pi) * np.exp(-vs * abs(y) ** 2) + rho * py_cont
    return rho * (num_re + 1j * num_im) / p_y


def _mmse_mpmath_oracle(vs, rho):
    """mmse at 40 digits from the defining radial integral over t in [0, inf)."""
    import mpmath as mp

    with mp.workdps(40):
        vs, rho = mp.mpf(vs), mp.mpf(rho)
        c = vs + 1
        on = lambda t: (1 - rho) * c * mp.exp(-t * vs)
        f = lambda t: t * mp.exp(-t) * (rho + c * on(t)) / (c * (rho + on(t)))
        # the integrand switches regime around t = u / vs, over a width 1 / vs
        u = mp.log((1 - rho) * c / rho)
        pts = {mp.mpf(0)} | {mp.mpf(t) for t in (1, 2, 4, 8, 16, 32)}
        pts |= {(u + k) / vs for k in range(-40, 41, 2) if 0 < (u + k) / vs < 60}
        return float(rho * mp.quad(f, sorted(pts) + [mp.inf]))


class TestPosteriorMean:
    def test_zero_observation(self):
        assert posterior_mean(0.0, ScalarChannel(3.0), RHO) == 0

    def test_dense_prior_is_linear_shrinkage(self):
        # rho = 1 collapses the weight to 1: y / (1 + 1/vs)
        got = posterior_mean(2.0 + 0j, ScalarChannel(3.0), BernoulliGaussianPrior(1.0))
        assert got == pytest.approx(1.5)

    def test_matches_2d_posterior_integral(self):
        got = posterior_mean(1 + 0.5j, ScalarChannel(2.0), RHO)
        assert abs(got - ORACLE_PM) <= 1e-8
        live = _posterior_mean_2d_oracle(1 + 0.5j, 2.0, 0.4)
        assert abs(got - live) <= 1e-8

    def test_zero_precision_returns_prior_mean(self):
        assert posterior_mean(1 + 1j, ScalarChannel(0.0), RHO) == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            posterior_mean(np.nan + 0j, ScalarChannel(1.0), RHO)
        with pytest.raises(ValueError):
            posterior_mean(np.inf * 1j, ScalarChannel(1.0), RHO)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_channel_rejects_non_finite_or_negative_precision(self, bad):
        # an infinite precision was accepted, and posterior_mean([0.5, 0], ...) then
        # returned NaN with two RuntimeWarnings
        with pytest.raises(ValueError, match="finite and >= 0"):
            ScalarChannel(bad)

    def test_magnitude_bound(self, rng):
        y = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        out = posterior_mean(y, ScalarChannel(2.0), RHO)
        assert np.all(np.abs(out) <= np.abs(y) * (2.0 / 3.0) + 1e-15)

    def test_large_observation_does_not_overflow(self):
        got = posterior_mean(200.0 + 0j, ScalarChannel(50.0), RHO)
        assert np.isfinite(got.real) and abs(got - 200.0 / (1 + 1 / 50.0)) < 1e-6

    @settings(deadline=None, max_examples=40)
    @given(theta=st.floats(0, 2 * np.pi), yr=st.floats(-3, 3), yi=st.floats(-3, 3),
           vs=st.floats(0.01, 50.0), rho=st.floats(0.01, 0.99))
    def test_phase_equivariance(self, theta, yr, yi, vs, rho):
        prior = BernoulliGaussianPrior(rho)
        ch = ScalarChannel(vs)
        y = yr + 1j * yi
        rot = np.exp(1j * theta)
        lhs = posterior_mean(rot * y, ch, prior)
        rhs = rot * posterior_mean(y, ch, prior)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(y))


class TestMmse:
    def test_zero_precision_gives_prior_variance(self):
        assert mmse(0.0, RHO) == 0.4

    def test_infinite_precision_limit(self):
        assert mmse(1e12, RHO) <= 1e-6

    def test_dense_prior_linear_mmse(self):
        # Gaussian prior: mmse = 1 / (1 + vs) exactly
        assert mmse(4.0, BernoulliGaussianPrior(1.0)) == pytest.approx(0.2, abs=1e-12)

    def test_quadrature_matches_monte_carlo(self):
        est, err = mmse_mc_oracle(1.0, RHO, 10 ** 6, seed=7)
        assert abs(mmse(1.0, RHO) - est) <= 3 * err

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            mmse(-1.0, RHO)
        with pytest.raises(ValueError):
            mmse(np.inf, RHO)
        with pytest.raises(ValueError):
            mmse(np.array([1.0, np.nan]), RHO)

    @pytest.mark.parametrize("rho, vs", sorted(ORACLE_MMSE))
    def test_matches_high_precision_oracle(self, rho, vs):
        got = mmse(vs, BernoulliGaussianPrior(rho))
        assert got == pytest.approx(ORACLE_MMSE[rho, vs], rel=1e-14, abs=0)

    def test_frozen_oracle_values_are_live(self):
        for rho, vs in [(0.999, 1000.0), (0.995, 631.0), (0.99, 501.0)]:
            assert _mmse_mpmath_oracle(vs, rho) == pytest.approx(ORACLE_MMSE[rho, vs],
                                                                 rel=1e-15, abs=0)

    def test_array_input_matches_scalar_calls(self):
        # to the bit: which panels a row skips depends on that row alone, so the
        # batch can never couple rows
        vs = np.array([[0.0, 1e-3, 2.0], [50.0, 1e4, 1e9]])
        got = mmse(vs, RHO)
        assert got.shape == vs.shape
        expect = np.array([[mmse(float(v), RHO) for v in row] for row in vs])
        assert np.array_equal(got, expect)
        assert isinstance(mmse(2.0, RHO), float)
        live = vs[vs > 0]
        got = channel_term_batch(live, RHO)
        assert np.array_equal(got, [channel_term_batch(v, RHO)[0] for v in live])

    @settings(deadline=None, max_examples=40)
    @given(log_vs=st.lists(st.floats(-8.0, 14.0), min_size=1, max_size=64),
           rho=st.floats(0.01, 0.99))
    def test_random_batches_match_single_calls(self, log_vs, rho):
        # a batch sums each row's panels apart from the other rows', so a value's
        # bytes cannot depend on where its panels sit among the batch's
        vs = 10.0 ** np.array(log_vs)
        prior = BernoulliGaussianPrior(rho)
        assert np.array_equal(mmse(vs, prior), [mmse(float(v), prior) for v in vs])
        assert np.array_equal(channel_term_batch(vs, prior),
                              [channel_term_batch(v, prior)[0] for v in vs])

    @pytest.mark.parametrize("vs", [5e-324, 1.1e-308, 1e-300])
    def test_subnormal_precision_gives_prior_variance(self, vs):
        for rho in (1e-3, 0.4, 0.999):
            assert mmse(vs, BernoulliGaussianPrior(rho)) == pytest.approx(rho, rel=1e-15)

    @settings(deadline=None, max_examples=30)
    @given(vs1=st.floats(0.0, 200.0), vs2=st.floats(0.0, 200.0), rho=st.floats(0.01, 1.0))
    def test_monotone_non_increasing(self, vs1, vs2, rho):
        lo, hi = sorted((vs1, vs2))
        prior = BernoulliGaussianPrior(rho)
        assert mmse(lo, prior) >= mmse(hi, prior) - 1e-10

    @settings(deadline=None, max_examples=30)
    @given(vs=st.floats(0.0, 1000.0), rho=st.floats(0.0, 1.0))
    def test_bounded_by_prior_and_linear_mmse(self, vs, rho):
        prior = BernoulliGaussianPrior(rho)
        val = mmse(vs, prior)
        assert -1e-14 <= val <= min(rho, rho / (1 + rho * vs) if rho else 0.0) + 1e-10


# x = log varsigma on every 2.5e-3 of the table's range, off the panel edges and nodes
TABLE_X = np.linspace(-30.0, 30.0, 24001)[:-1] + 1e-3
ALL_PANELS = np.arange(scalar_channel._TABLE_PANELS)


@pytest.fixture
def cold_tables():
    """No mmse table before the test, and none of its tables after it."""
    scalar_channel._table.cache_clear()
    yield
    scalar_channel._table.cache_clear()


class TestTable:
    @pytest.mark.parametrize("rho", SWEEP_RHO)
    def test_agrees_with_the_quadrature(self, rho):
        # 2.7e-15 relative at most over 20000 points at rho 0.4, 3.1e-15 over SWEEP_RHO
        vs = np.exp(TABLE_X)
        live = _mmse_live(vs, rho)
        got = mmse(vs, BernoulliGaussianPrior(rho))
        assert np.all(np.abs(got - live) <= scalar_channel._TABLE_TOL * live)

    @pytest.mark.parametrize("rho", SWEEP_RHO)
    def test_every_panel_certifies(self, rho, cold_tables):
        scalar_channel._build_panels(ALL_PANELS, rho)
        _, built, certified = scalar_channel._table(rho)
        assert built.all() and certified.all()

    def test_a_failed_certificate_leaves_the_quadrature(self, monkeypatch, cold_tables):
        # a bound of 0 certifies no panel (the test is strict), so every value is the
        # quadrature's, byte for byte; the panels are built all the same, once
        monkeypatch.setattr(scalar_channel, "_TABLE_TOL", 0.0)
        vs = np.exp(TABLE_X[::7])
        assert np.array_equal(mmse(vs, RHO), _mmse_live(vs, 0.4))
        _, built, certified = scalar_channel._table(0.4)
        assert built.all() and not certified.any()
        again = vs[::-1].copy()   # contiguous: log1p rounds a strided view differently
        assert np.array_equal(mmse(again, RHO), _mmse_live(again, 0.4))

    def test_panels_do_not_depend_on_their_build_batch(self, cold_tables):
        # the coefficients are a row-wise einsum, not a BLAS product, whose rounding
        # depends on how many panels are built together
        scalar_channel._build_panels(ALL_PANELS, 0.4)
        at_once = scalar_channel._table(0.4)[0].copy()
        scalar_channel._table.cache_clear()
        for panel in ALL_PANELS[::-1]:
            scalar_channel._build_panels(panel[None], 0.4)
        assert np.array_equal(scalar_channel._table(0.4)[0], at_once)

    def test_values_do_not_depend_on_earlier_calls(self):
        # a fresh interpreter, whose table builds exactly the panels these values need,
        # gives the bytes of this one after unrelated calls at this rho and at others
        vs = np.exp(TABLE_X[::997])
        code = ("import sys, numpy as np; from coupledcs import BernoulliGaussianPrior, mmse; "
                "sys.stdout.write(mmse(np.exp(np.linspace(-30.0, 30.0, 24001)[:-1] + 1e-3)"
                "[::997], BernoulliGaussianPrior(0.4)).tobytes().hex())")
        fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True).stdout
        for rho in (0.4, 0.1, 0.9):
            mmse(np.geomspace(1e-14, 1e14, 77), BernoulliGaussianPrior(rho))
        assert mmse(vs, RHO).tobytes().hex() == fresh

    def test_outside_the_range_is_the_quadrature(self):
        vs = np.exp([-31.0, -30.0 - 1e-12, 30.0, 31.0, 700.0])
        assert np.array_equal(mmse(vs, RHO), _mmse_live(vs, 0.4))


@pytest.mark.parametrize("rho", [0.1, 0.4, 0.9])
def test_channel_term_falls_at_the_rate_of_the_mmse(rho):
    # I-MMSE (Guo, Shamai and Verdu 2005): d ct / d varsigma = -mmse(varsigma) in this
    # normalization, so d ct / d log varsigma = -varsigma mmse.  A 7-point central
    # stencil in log varsigma with step 0.01 matched it within 4.2e-11 relative over 19
    # rho in [0.05, 0.95] x 101 varsigma in [1e-2, 1e5]; rounding in ct, not the
    # stencil, sets that floor at the smallest varsigma
    vs = np.geomspace(1e-2, 1e5, 15)
    offsets = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
    weights = np.array([-1.0, 9.0, -45.0, 45.0, -9.0, 1.0]) / 60.0
    h = 0.01
    prior = BernoulliGaussianPrior(rho)
    x = np.log(vs)[:, None] + h * offsets
    ct = channel_term_batch(np.exp(x).ravel(), prior).reshape(x.shape)
    slope = np.einsum("ij,j->i", ct, weights) / h
    assert np.all(np.abs(slope / (-vs * mmse(vs, prior)) - 1.0) <= 1e-10)


class TestMcOracle:
    def test_all_zero_signal(self):
        est, err = mmse_mc_oracle(2.0, BernoulliGaussianPrior(0.0), 10 ** 4, seed=1)
        assert est == 0.0 and err == 0.0

    def test_gaussian_prior_linear_estimate(self):
        est, err = mmse_mc_oracle(4.0, BernoulliGaussianPrior(1.0), 10 ** 6, seed=2)
        assert abs(est - 0.2) <= 3 * err

    def test_deterministic_given_seed(self):
        a = mmse_mc_oracle(1.0, RHO, 10 ** 5, seed=11)
        b = mmse_mc_oracle(1.0, RHO, 10 ** 5, seed=11)
        assert a == b

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mmse_mc_oracle(1.0, RHO, 0, seed=0)
        with pytest.raises(ValueError):
            mmse_mc_oracle(0.0, RHO, 10, seed=0)

    @pytest.mark.parametrize("bad", [2.9, 0.5, np.nan, np.inf])
    def test_rejects_a_sample_count_that_is_not_whole(self, bad):
        # only whole draws exist: 2.9 would draw 2 samples and average them over 2.9
        with pytest.raises(ValueError, match="whole number"):
            mmse_mc_oracle(1.0, RHO, bad, seed=0)

    def test_integral_float_sample_count_counts_as_its_int(self):
        assert mmse_mc_oracle(1.0, RHO, 1e3, seed=0) == mmse_mc_oracle(1.0, RHO, 1000, seed=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_precision(self, bad):
        # an infinite precision passes varsigma > 0; its noise scale 0 gave (nan, nan)
        with pytest.raises(ValueError, match="finite"):
            mmse_mc_oracle(bad, RHO, 10, seed=0)


_FLAT = single_block_spec(0.4, 1e-4, 0.5)


@pytest.mark.parametrize("name, call", [
    ("max_iter", lambda v: run_evolution(_FLAT, Ensemble.GAUSSIAN_IID, max_iter=v)),
    ("n_points", lambda v: scan_curve(0.4, 1e-4, 0.5, Ensemble.GAUSSIAN_IID, n_points=v,
                                      refine=False)),
    ("n_samples", lambda v: mmse_mc_oracle(1.0, RHO, v, seed=0)),
    ("N", lambda v: build_coupled_operator(_FLAT, v, seed=0, kind=Ensemble.ROW_ORTHOGONAL)),
    ("seed", lambda v: build_coupled_operator(_FLAT, 64, seed=v, kind=Ensemble.ROW_ORTHOGONAL)),
    ("seed", lambda v: gen_instance(build_coupled_operator(
        _FLAT, 64, seed=0, kind=Ensemble.ROW_ORTHOGONAL), RHO, 0.0, seed=v)),
])
@pytest.mark.parametrize("value", [True, False])
def test_whole_number_arguments_refuse_bools(name, call, value):
    # bool is a numbers.Real: True ran one iteration, took one Monte-Carlo sample with
    # std_err 0.0 or drew seed 1, and False drew seed 0
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        call(value)
