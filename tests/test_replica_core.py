"""Replica free entropy, channel term, and conjugate fixed points."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coupledcs as cc
from coupledcs import (BernoulliGaussianPrior, CouplingSpec, ConvergenceError, Ensemble,
                       SeedingParams, build_seeding_spec, conjugate_fixed_point,
                       free_entropy_grid, mmse, single_block_spec)
from coupledcs.replica_core import _g_values, _solve_lambda, channel_term_batch

from conftest import random_coupled_spec

GAUSS = Ensemble.GAUSSIAN_IID
ORTH = Ensemble.ROW_ORTHOGONAL

# Frozen output of `_channel_mpmath_oracle(vs, rho)` below, keyed by (rho, vs).
ORACLE_CHANNEL = {
    (0.999, 1000.0): -7.9075470633679386,
    (0.4, 1.0): -1.3307239272395504,
    (0.4, 1e12): -12.725420113211594,
    (0.001, 1e-06): -1.000000001,
    (0.5, 0.001): -1.0004998750416199,
    (0.9, 10.0): -3.2865451646767614,
    (0.25, 1e6): -5.0161808406356005,
}


def _channel_mpmath_oracle(vs, rho):
    """E_u log((1-rho) e^{-vs u} + rho/(1+vs) e^{-vs u/(1+vs)}) at 40 digits.

    u = |y|^2 follows its two-exponential mixture law; the log-sum switches
    branch at u = elbow over a width w.
    """
    import mpmath as mp

    with mp.workdps(40):
        vs, rho = mp.mpf(vs), mp.mpf(rho)
        b = vs / (1 + vs)
        g = lambda u: mp.log((1 - rho) * mp.exp(-vs * u) + rho / (1 + vs) * mp.exp(-b * u))
        dens = lambda u: (1 - rho) * vs * mp.exp(-vs * u) + rho * b * mp.exp(-b * u)
        w = 1 / (vs - b)
        elbow = (mp.log(1 - rho) - mp.log(rho) + mp.log(1 + vs)) * w
        pts = {mp.mpf(0)} | {elbow + k * w for k in range(-40, 41, 2)}
        pts |= {s / vs for s in (1, 2, 4, 8, 16, 32)} | {s / b for s in (1, 2, 4, 8, 16, 32)}
        pts = sorted(p for p in pts if 0 <= p < 60 / b)
        return float(mp.quad(lambda u: dens(u) * g(u), pts + [mp.inf]))


def two_block_spec(rho=0.4, sigma2=1e-3):
    return CouplingSpec(
        gamma=np.array([0.5, 0.5]),
        alpha=np.array([[0.6, 0.6], [0.5, 0.5]]),
        J=np.array([[1.0, 0.0], [0.5, 2.0]]),
        sigma2=sigma2,
        prior=BernoulliGaussianPrior(rho),
    )


class TestCouplingSpecValidation:
    def test_gamma_must_sum_to_one(self):
        with pytest.raises(ValueError, match="gamma"):
            CouplingSpec(gamma=np.array([0.6, 0.6]),
                         alpha=np.full((1, 2), 0.5), J=np.ones((1, 2)),
                         sigma2=0.0, prior=BernoulliGaussianPrior(0.4))

    def test_row_rate_must_be_block_independent(self):
        with pytest.raises(ValueError, match="alpha"):
            CouplingSpec(gamma=np.array([0.5, 0.5]),
                         alpha=np.array([[0.5, 0.9]]), J=np.ones((1, 2)),
                         sigma2=0.0, prior=BernoulliGaussianPrior(0.4))

    def test_connectivity_required(self):
        with pytest.raises(ValueError, match="row"):
            CouplingSpec(gamma=np.ones(1),
                         alpha=np.full((2, 1), 0.3), J=np.array([[1.0], [0.0]]),
                         sigma2=0.0, prior=BernoulliGaussianPrior(0.4))
        with pytest.raises(ValueError, match="column"):
            CouplingSpec(gamma=np.array([0.5, 0.5]),
                         alpha=np.full((1, 2), 0.5), J=np.array([[1.0, 0.0]]),
                         sigma2=0.0, prior=BernoulliGaussianPrior(0.4))

    @pytest.mark.parametrize("field, value", [
        ("gamma", np.array([np.nan, 0.5])), ("alpha", np.full((1, 2), np.nan)),
        ("J", np.array([[np.inf, 1.0]])), ("sigma2", np.inf), ("sigma2", np.nan)])
    def test_non_finite_entries_rejected(self, field, value):
        args = dict(gamma=np.array([0.5, 0.5]), alpha=np.full((1, 2), 0.5),
                    J=np.ones((1, 2)), sigma2=1e-3, prior=BernoulliGaussianPrior(0.4))
        args[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CouplingSpec(**args)

    @pytest.mark.parametrize("gamma, alpha, J, message", [
        (np.full(3, 1.0 / 3.0), np.full((1, 2), 0.5), np.ones((1, 2)), "gamma must have shape"),
        (np.array([0.5, 0.5]), np.full((1, 2), 0.5), np.ones((2, 2)), "J"),
        (np.array([0.5, 0.5]), np.full(2, 0.5), np.ones((1, 2)), "alpha must be a nonempty 2-D"),
        (np.array([0.5, 0.5]), np.empty((0, 2)), np.empty((0, 2)), "alpha must be a nonempty"),
        (np.empty(0), np.empty((1, 0)), np.empty((1, 0)), "alpha must be a nonempty"),
    ], ids=["gamma-length", "J-shape", "alpha-1d", "alpha-no-rows", "alpha-no-columns"])
    def test_sizes_must_match_alpha(self, gamma, alpha, J, message):
        with pytest.raises(ValueError, match=message):
            CouplingSpec(gamma=gamma, alpha=alpha, J=J, sigma2=1e-3,
                         prior=BernoulliGaussianPrior(0.4))

    def test_sizes_are_read_off_alpha(self, rng):
        assert [f.name for f in dataclasses.fields(CouplingSpec)] == [
            "gamma", "alpha", "J", "sigma2", "prior"]
        for _ in range(10):
            spec = random_coupled_spec(rng)
            assert (spec.L_r, spec.L_c) == spec.alpha.shape
        with pytest.raises(TypeError):
            CouplingSpec(L_r=1, L_c=1, gamma=np.ones(1), alpha=np.full((1, 1), 0.5),
                         J=np.ones((1, 1)), sigma2=1e-3, prior=BernoulliGaussianPrior(0.4))

    def test_random_specs_validate(self, rng):
        for _ in range(20):
            spec = random_coupled_spec(rng)
            rates = spec.alpha * spec.gamma[None, :]
            assert np.allclose(rates, rates[:, :1], atol=1e-12)


class TestChannelTerm:
    def test_all_zero_signal(self):
        # y carries no signal: E log e^{-vs|y|^2} = -vs E|y|^2 = -1
        got = channel_term_batch([5.0], BernoulliGaussianPrior(0.0))[0]
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_dense_prior_closed_form(self):
        # single Gaussian component: -log(1 + vs) - 1
        got = channel_term_batch([1.0], BernoulliGaussianPrior(1.0))[0]
        assert got == pytest.approx(-np.log(2.0) - 1.0, abs=1e-12)

    def test_matches_monte_carlo_double_expectation(self):
        rho, vs, n = 0.4, 5.0, 10 ** 7
        rng = np.random.default_rng(5)
        total, total_sq = 0.0, 0.0
        for _ in range(10):
            m = n // 10
            x = np.zeros(m, dtype=complex)
            on = rng.random(m) < rho
            k = int(on.sum())
            x[on] = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2)
            y = x + (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2 * vs)
            u = np.abs(y) ** 2
            vals = np.logaddexp(np.log1p(-rho) - vs * u,
                                np.log(rho) - np.log1p(vs) - vs * u / (1 + vs))
            total += vals.sum()
            total_sq += (vals ** 2).sum()
        mean = total / n
        std_err = np.sqrt((total_sq / n - mean ** 2) / n)
        assert abs(channel_term_batch([vs], BernoulliGaussianPrior(rho))[0] - mean) <= 3 * std_err

    def test_derivative_is_minus_mmse(self):
        # independent consistency check tying the two quadratures together
        from coupledcs import mmse
        prior = BernoulliGaussianPrior(0.4)
        for vs in (0.5, 5.0, 250.0):
            h = vs * 1e-5
            up, dn = channel_term_batch([vs + h], prior)[0], channel_term_batch([vs - h], prior)[0]
            fd = (up - dn) / (2 * h)
            assert fd == pytest.approx(-mmse(vs, prior), abs=1e-9, rel=1e-7)

    def test_batch_matches_scalar(self):
        prior = BernoulliGaussianPrior(0.25)
        grid = np.geomspace(0.1, 1e6, 40)
        batch = channel_term_batch(grid, prior)
        singles = np.array([channel_term_batch([v], prior)[0] for v in grid])
        assert np.abs(batch - singles).max() <= 1e-11

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError):
            channel_term_batch([0.0], BernoulliGaussianPrior(0.4))

    @pytest.mark.parametrize("rho, vs", sorted(ORACLE_CHANNEL))
    def test_matches_high_precision_oracle(self, rho, vs):
        got = channel_term_batch([vs], BernoulliGaussianPrior(rho))[0]
        assert got == pytest.approx(ORACLE_CHANNEL[rho, vs], rel=1e-14, abs=0)

    def test_frozen_oracle_values_are_live(self):
        for rho, vs in [(0.999, 1000.0), (0.9, 10.0)]:
            assert _channel_mpmath_oracle(vs, rho) == pytest.approx(ORACLE_CHANNEL[rho, vs],
                                                                    rel=1e-15, abs=0)

    def test_subnormal_precision_is_the_pure_noise_limit(self):
        # vs -> 0: y is pure noise and the channel term tends to -1
        got = channel_term_batch([5e-324, 1.1e-308], BernoulliGaussianPrior(0.4))
        assert np.all(np.abs(got + 1.0) <= 1e-15)


class TestGOrth:
    def test_noise_free_single_block_stationarity(self):
        # sigma2 = 0 makes Delta = alpha independently of Lambda
        spec = single_block_spec(0.4, 0.0, 0.5)
        Lam, Delta, _ = _solve_lambda(np.array([0.1]), spec)
        assert Delta[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert Lam[0, 0] == pytest.approx(5.0, abs=1e-9)

    def test_decoupled_entry_convention(self):
        # J[q,p] = 0 entries sit at Lambda = 1/eps, Delta = 0 and add nothing to G
        spec = two_block_spec()
        eps = np.array([0.05, 0.2])
        Lam, Delta, _ = _solve_lambda(eps, spec)
        assert Delta[0, 1] == 0.0
        assert Lam[0, 1] == pytest.approx(1.0 / eps[1], abs=1e-12)
        moved = Lam.copy()
        moved[0, 1] *= 3.0
        assert _g_values(eps, spec, moved)[0] == _g_values(eps, spec, Lam)[0]

    def test_finite_difference_stationarity(self):
        spec = single_block_spec(0.4, 1e-4, 0.49)
        for eps0 in (0.1, 1e-3):
            eps = np.array([eps0])
            Lam, _, _ = _solve_lambda(eps, spec)
            assert _g_gradient_norm(eps, spec, Lam) <= 1e-8

    def test_finite_difference_stationarity_coupled(self):
        spec = two_block_spec()
        eps = np.array([0.03, 0.15])
        Lam, _, _ = _solve_lambda(eps, spec)
        assert _g_gradient_norm(eps, spec, Lam) <= 1e-8


def _damped_lambda_oracle(eps, spec, Lambda0=None, tol=1e-12, max_iter=10 ** 4):
    """Lambda = (1 - Delta(Lambda)) / eps by damped fixed-point iteration in log Lambda.

    The slow reference for `_solve_lambda`: each iterate moves halfway to
    the map, and every 16th iterate tries an Aitken jump along the
    dominant geometric mode (near-degenerate rows contract like
    1 - O(1 - alpha)); the solution is the undamped projection of the
    first iterate within tol.  The sums over the other blocks of a row
    are a matrix product, so 1 - Delta has no cancellation.  Returns None
    when max_iter is not enough: warm-started at sigma2 = 0 on a two-block
    row, it needs about 10^6 iterations at rates 1 - 1e-5 and stalls at
    1 - 1e-7.
    """
    active = spec.J > 0
    log_eps = np.log(eps)[None, :]
    others = 1.0 - np.eye(spec.L_c)

    def target(log_lam):
        W = np.where(active, spec.gamma * spec.J * np.exp(-log_lam), 0.0)
        den = spec.sigma2 + W.sum(axis=1, keepdims=True)
        omd = (spec.sigma2 + W @ others + (1.0 - spec.alpha) * W) / den
        return np.where(active, np.log(omd) - log_eps, -log_eps)

    def resid(log_lam):
        return np.abs(target(log_lam) - log_lam)[active].max()

    log_lam = np.broadcast_to(-log_eps, active.shape).copy() if Lambda0 is None \
        else np.log(np.broadcast_to(Lambda0, active.shape))
    trail = []
    for it in range(max_iter):
        log_target = target(log_lam)
        if np.abs(log_target - log_lam)[active].max() < tol:
            return np.exp(log_target)
        log_lam = 0.5 * (log_target + log_lam)
        trail = (trail + [log_lam])[-3:]
        if len(trail) == 3 and it % 16 == 15:
            d1, d0 = trail[2] - trail[1], trail[1] - trail[0]
            safe = np.abs(d1 - d0) > 1e-15
            jump = np.where(safe, -np.square(d1) / np.where(safe, d1 - d0, 1.0), 0.0)
            log_acc = trail[2] + np.clip(jump, -4.0, 4.0)
            if resid(log_acc) < resid(log_lam):
                log_lam, trail = log_acc, []
    return None


def _row_jacobians_inverse_norm(spec, Lam):
    """max over rows of ||(diag(1 - r) + r w^T)^{-1}||_inf, the row system's sensitivity."""
    active = spec.J > 0
    W = np.where(active, spec.gamma * spec.J / Lam, 0.0)
    w = W / (spec.sigma2 + W.sum(axis=1, keepdims=True))
    Delta = spec.alpha * w
    r = Delta / (1.0 - Delta)
    worst = 0.0
    for q in range(spec.L_r):
        on = np.flatnonzero(active[q])
        A = np.diag(1.0 - r[q, on]) + np.outer(r[q, on], w[q, on])
        worst = max(worst, np.abs(np.linalg.inv(A)).sum(axis=1).max())
    return worst


def _big_branch_sign_changes(spec, eps, n=1001):
    """Sign changes of the residual of each big-branch row on a dense z-grid of [1 - alpha*, 1/2].

    With p* the block of largest alpha c and tau = z (1 - z) / (alpha c)*,
    the residual is sum_{p != p*} w_p + sigma2 tau + ((1 - alpha*) - z) /
    alpha*, each w_p the small root 2 c_p tau / (1 + sqrt(1 - 4 alpha_p c_p
    tau)).  A row is on the big branch where it is negative at z = 1/2; it
    is >= 0 at z = 1 - alpha*, so one change is the least there can be.
    Values within 1e-13 of zero are rounding and are skipped.
    """
    c = spec.gamma * spec.J * eps
    ac = spec.alpha * c
    grid = np.concatenate([np.geomspace(1e-12, 1.0, n), np.linspace(0.0, 1.0, n)])
    changes = []
    for q in range(spec.L_r):
        star = int(np.argmax(ac[q]))
        a_star, rest = spec.alpha[q, star], np.arange(spec.L_c) != star

        def residual(z):
            tau = z * (1.0 - z) / ac[q, star]
            root = np.sqrt(np.maximum(1.0 - 4.0 * ac[q, rest, None] * tau, 0.0))
            w = 2.0 * c[q, rest, None] * tau / (1.0 + root)
            return w.sum(axis=0) + spec.sigma2 * tau + ((1.0 - a_star) - z) / a_star

        if residual(np.array([0.5]))[0] < 0.0:
            v = residual(np.unique((1.0 - a_star) + (a_star - 0.5) * grid))
            positive = np.concatenate([[True], v[1:][np.abs(v[1:]) > 1e-13] > 0.0])
            changes.append(int((positive[1:] != positive[:-1]).sum()))
    return changes


class TestInnerSolve:
    @staticmethod
    def _check(eps, spec, Lambda0=None):
        Lam, Delta, omd = _solve_lambda(eps, spec, Lambda0=Lambda0)
        active = spec.J > 0
        # the residual of the stationarity map, formed as the solver forms it
        resid = np.log(omd) - np.log(eps)[None, :] - np.log(Lam)
        assert np.abs(resid[active]).max() <= 1e-12
        ref = _damped_lambda_oracle(eps, spec, Lambda0=Lambda0)
        if ref is None:
            # the oracle stalled: the solve from another start is the reference
            ref = _solve_lambda(eps, spec, Lambda0=None if Lambda0 is not None
                                else 4.0 / eps[None, :])[0]
        # both solves stop within 1e-12 of the map; on a near-singular row
        # (rates near one, little noise) that moves Lambda by up to
        # 1e-12 ||A^-1|| each, which the 1e-10 agreement must allow for
        slack = 2e-12 * _row_jacobians_inverse_norm(spec, Lam)
        assert np.abs(Lam[active] / ref[active] - 1.0).max() <= 1e-10 + slack
        return Lam, Delta

    @settings(deadline=None, max_examples=60)
    @given(L=st.integers(1, 12), W=st.integers(1, 12),
           a_bulk=st.floats(0.05, 1.0 - 1e-7), seed_excess=st.floats(0.0, 1.0),
           J=st.floats(0.0, 3.0),
           sigma2=st.one_of(st.just(0.0), st.floats(-10.0, -1.0).map(lambda e: 10.0 ** e)),
           log_eps=st.lists(st.floats(-10.0, 0.0), min_size=12, max_size=12),
           warm_shift=st.one_of(st.none(), st.floats(-2.0, 2.0)))
    # a noise-free row one block dominates: 1 - Delta of the other block is
    # lost to cancellation when formed as S - W_p
    @example(L=2, W=1, a_bulk=1.0 - 1e-7, seed_excess=0.0, J=0.0, sigma2=0.0,
             log_eps=[0.0, -1.0] + [0.0] * 10, warm_shift=None)
    def test_matches_damped_oracle(self, L, W, a_bulk, seed_excess, J, sigma2, log_eps,
                                   warm_shift):
        a_seed = a_bulk + seed_excess * (1.0 - 1e-7 - a_bulk)
        spec = build_seeding_spec(SeedingParams(L=L, W=min(W, L), alpha_seed=a_seed,
                                                alpha_bulk=a_bulk, J=J), 0.4, sigma2)
        eps = 10.0 ** np.array(log_eps[:L])
        Lambda0 = None
        if warm_shift is not None:
            # warm start at the solution for a shifted MSE profile, as the evolution does
            shift = np.exp(warm_shift * np.linspace(-1.0, 1.0, L))
            Lambda0 = _solve_lambda(eps * shift, spec)[0]
        self._check(eps, spec, Lambda0)

    def test_block_at_one_half(self):
        # sigma2 = 0: the seed row has one block, so Delta = alpha_seed = 1/2 at any
        # Lambda and its root sits at z = 1/2, where the two branches meet
        spec = build_seeding_spec(SeedingParams(L=4, W=1, alpha_seed=0.5, alpha_bulk=0.45,
                                                J=0.0), 0.4, 0.0)
        _, Delta = self._check(np.array([0.1, 0.02, 1e-3, 1e-5]), spec)
        assert Delta[0, 0] == 0.5

    def test_dominant_block_above_one_half(self):
        # a row where one block carries Delta > 1/2 is solved through that block
        spec = build_seeding_spec(SeedingParams(L=3, W=2, alpha_seed=0.95, alpha_bulk=0.9,
                                                J=1.0), 0.4, 1e-8)
        _, Delta = self._check(np.array([0.3, 1e-6, 2e-6]), spec)
        assert Delta[0, 0] > 0.5 and Delta[1, 0] > 0.5

    def test_nearly_singular_row_stops_on_its_bracket(self):
        # rates 1 - 1e-9 and two almost equal blocks without noise: rounding in the row
        # residual holds the Newton step at 1e-9 to 1e-8 of z, so the solve stops once
        # its bracket has closed
        spec = build_seeding_spec(SeedingParams(L=2, W=1, alpha_seed=1.0 - 1e-9, alpha_bulk=0.5,
                                                J=0.99999999), 0.4, 0.0)
        self._check(np.ones(2), spec)

    def test_far_warm_start_is_bounded(self):
        # rates near one make the rows nearly singular, and a Lambda0 eight decades
        # off starts each row root near an end of its bracket
        spec = build_seeding_spec(SeedingParams(L=2, W=1, alpha_seed=0.9999, alpha_bulk=0.9999,
                                                J=0.5), 0.4, 1e-8)
        eps = np.full(2, 1e-4)
        for scale in (1e-8, 1e8):
            self._check(eps, spec, Lambda0=scale / eps[None, :])

    def test_rejects_rates_above_one(self):
        spec = single_block_spec(0.4, 1e-4, 1.5)
        with pytest.raises(ValueError, match="alpha"):
            _solve_lambda(np.array([0.1]), spec)

    def test_delta_one_is_a_convergence_error(self):
        # alpha = 1 on a lone block without noise: 1 - Delta = 0 at any Lambda
        spec = single_block_spec(0.4, 0.0, 1.0)
        with pytest.raises(ConvergenceError, match="Delta >= 1"):
            _solve_lambda(np.array([0.1]), spec)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), seeding=st.booleans(),
           log_gap=st.floats(1.0, 7.0), noise_free=st.booleans())
    # the seed row of this chain is on the big branch
    @example(seed=0, seeding=True, log_gap=7.0, noise_free=True)
    def test_big_branch_root_is_unique(self, seed, seeding, log_gap, noise_free):
        # the docstring of `_solve_lambda` proves the small-branch root unique; on the
        # big branch, with rates up to 1 - 1e-7, it is checked here
        rng = np.random.default_rng(seed)
        top = 1.0 - 10.0 ** -log_gap
        if seeding:
            L = int(rng.integers(1, 12))
            params = SeedingParams(L=L, W=int(rng.integers(1, L + 1)), alpha_seed=top,
                                   alpha_bulk=rng.uniform(0.05, top), J=rng.uniform(0.0, 3.0))
            spec = build_seeding_spec(params, 0.4, 10.0 ** rng.uniform(-10.0, -1.0))
            alpha = spec.alpha
        else:
            spec = random_coupled_spec(rng, max_blocks=6, dft_safe=False)
            alpha = spec.alpha * (top / spec.alpha.max())
        spec = CouplingSpec(gamma=spec.gamma, alpha=alpha, J=spec.J,
                            sigma2=0.0 if noise_free else spec.sigma2, prior=spec.prior)
        eps = 10.0 ** rng.uniform(-8.0, 0.0, spec.L_c)
        assert all(n == 1 for n in _big_branch_sign_changes(spec, eps))

    def test_any_warm_start_lands_on_the_cold_solve(self):
        # a warm start only seeds the row root: zero, negative or far-off entries
        # of Lambda0 cannot move the solution
        spec = two_block_spec()
        eps = np.array([0.05, 0.2])
        cold = _solve_lambda(eps, spec)[0]
        for Lambda0 in (np.array([[-1.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)),
                        np.full((2, 2), -3.0), 1e-8 * cold, 1e8 * cold):
            Lam = _solve_lambda(eps, spec, Lambda0=Lambda0)[0]
            assert np.abs(Lam / cold - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("spec, eps, big", [
        # the seed row and the next one hold a block with Delta > 1/2
        (build_seeding_spec(SeedingParams(L=3, W=2, alpha_seed=0.95, alpha_bulk=0.9, J=1.0),
                            0.4, 1e-8), np.array([0.3, 1e-6, 2e-6]), True),
        (single_block_spec(0.4, 1e-4, 0.49), np.array([0.1]), False),
    ], ids=["seeding-big-rows", "single-block"])
    def test_a_batch_of_one_gives_the_bytes_of_one_vector(self, spec, eps, big):
        # the evolution solves one (L_c,) vector at a time and the phase point (n, L_c)
        # batches through free_entropy_grid: a batch of one is the same solve, cold or
        # warm, with a batched or a shared warm start
        warm = _solve_lambda(eps * 1.5, spec)[0]
        for Lambda0, batched in ((None, None), (warm, warm[None]), (warm, warm)):
            one = _solve_lambda(eps, spec, Lambda0=Lambda0)
            batch = _solve_lambda(eps[None, :], spec, Lambda0=batched)
            assert np.any(one[1] > 0.5) == big
            for a, b in zip(one, batch):
                assert b.shape == (1,) + a.shape and np.array_equal(a, b[0])


def _g_value(eps, spec, Lam):
    """G summed over rows, evaluated at an arbitrary Lambda (not extremized)."""
    gamma, J = spec.gamma, spec.J
    active = J > 0
    W = np.where(active, gamma[None, :] * J / Lam, 0.0)
    S = W.sum(axis=1)
    log_term = -spec.row_rates * np.log1p(S / spec.sigma2)
    prod = Lam * eps[None, :]
    bracket = np.where(active, prod - np.log(np.where(active, prod, 1.0)) - 1.0, 0.0)
    return float((log_term + (gamma[None, :] * bracket).sum(axis=1)).sum())


def _g_gradient_norm(eps, spec, Lam):
    worst = 0.0
    for q in range(spec.L_r):
        for p in range(spec.L_c):
            if spec.J[q, p] == 0:
                continue
            h = max(1e-7, 1e-6 * Lam[q, p])
            up, dn = Lam.copy(), Lam.copy()
            up[q, p] += h
            dn[q, p] -= h
            worst = max(worst, abs(_g_value(eps, spec, up) - _g_value(eps, spec, dn)) / (2 * h))
    return worst


def _gauss_varsigma_oracle(eps, spec):
    """The Gaussian closed form varsigma = alpha gamma J / (sigma2 + S), S = sum gamma J eps."""
    coupling = spec.gamma * spec.J
    return spec.alpha * coupling / (spec.sigma2 + (coupling * eps).sum(axis=1, keepdims=True))


def _gauss_g_oracle(eps, spec):
    """The Gaussian closed form G_q = -(M_q / N) log(1 + S_q / sigma2), per row."""
    return -spec.row_rates * np.log1p((spec.gamma * spec.J * eps).sum(axis=1) / spec.sigma2)


def _gauss_free_entropy_oracle(eps, spec):
    """F of the Gaussian ensemble from the closed forms above."""
    sig = _gauss_varsigma_oracle(eps, spec)
    channel = (spec.gamma * channel_term_batch(sig.sum(axis=0), spec.prior)).sum()
    return (channel + (spec.gamma * eps * sig).sum() + _gauss_g_oracle(eps, spec).sum()
            + 1.0 - spec.total_rate)


def _g_gauss(eps, spec):
    """The one G at the Gaussian Lambda = 1/eps."""
    return _g_values(eps, spec, np.broadcast_to(1.0 / eps, spec.J.shape))


class TestGGauss:
    def test_single_block_arithmetic(self):
        spec = single_block_spec(0.4, 0.01, 0.5)
        got = _g_gauss(np.array([0.02]), spec)[0]
        assert got == pytest.approx(-0.5 * np.log(3.0), abs=1e-12)

    def test_scale_invariance(self):
        a = _g_gauss(np.array([0.02]), single_block_spec(0.4, 0.01, 0.5))[0]
        b = _g_gauss(np.array([0.04]), single_block_spec(0.4, 0.02, 0.5))[0]
        assert a == pytest.approx(b, abs=1e-14)

    def test_matches_closed_form(self, rng):
        # at Lambda = 1/eps the bracket of G vanishes and only the log term is left
        for _ in range(20):
            spec = random_coupled_spec(rng)
            eps = rng.uniform(0.01, 1.0, spec.L_c) * spec.prior.rho
            got, ref = _g_gauss(eps, spec), _gauss_g_oracle(eps, spec)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_noise_free_raises(self):
        spec = single_block_spec(0.4, 0.0, 0.5)
        with pytest.raises(ValueError):
            free_entropy_grid(np.array([[0.02]]), spec, GAUSS)


class TestConjugateFixedPoint:
    def test_returns_the_varsigma_lambda_pair(self):
        spec = two_block_spec()
        for kind in (GAUSS, ORTH):
            got = conjugate_fixed_point(np.full((3, 2), 0.1), spec, kind)
            assert isinstance(got, tuple) and len(got) == 2
            assert all(a.shape == (3, 2, 2) for a in got)

    def test_gaussian_single_block(self):
        spec = single_block_spec(0.4, 0.01, 0.6)
        varsigma, _ = conjugate_fixed_point(np.array([0.05]), spec, GAUSS)
        assert varsigma[0, 0] == pytest.approx(0.6 / 0.06, abs=1e-14)

    def test_noise_free_ensemble_coincidence(self):
        spec = single_block_spec(0.4, 0.0, 0.55)
        for eps0 in (0.4, 0.05, 1e-4):
            a = conjugate_fixed_point(np.array([eps0]), spec, ORTH)[0][0, 0]
            b = conjugate_fixed_point(np.array([eps0]), spec, GAUSS)[0][0, 0]
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_zero_coupling_entries_carry_zero_precision(self):
        spec = two_block_spec()
        varsigma, _ = conjugate_fixed_point(np.array([0.1, 0.1]), spec, ORTH)
        assert varsigma[0, 1] == 0.0

    def test_orthogonal_internal_consistency(self):
        # Lambda = 1/eps - varsigma and varsigma = Lambda Delta / (1 - Delta) together
        spec = two_block_spec()
        eps = np.array([0.02, 0.3])
        varsigma, Lam = conjugate_fixed_point(eps, spec, ORTH)
        act = spec.J > 0
        lhs = np.where(act, 1.0 / eps[None, :] - varsigma, Lam)
        assert np.abs(lhs - Lam)[act].max() <= 1e-10 * Lam[act].max()
        Delta = varsigma * eps[None, :]
        recon = Lam * Delta / (1.0 - Delta)
        assert np.abs(np.where(act, recon, 0.0) - varsigma).max() <= 1e-10


    def test_orthogonal_rate_above_one_is_rejected(self):
        # a block cannot hold more orthogonal rows than columns (M_q <= N_p)
        spec = single_block_spec(0.4, 1e-4, 1.5)
        with pytest.raises(ValueError, match="alpha"):
            conjugate_fixed_point(np.array([0.1]), spec, ORTH)
        with pytest.raises(ValueError, match="alpha"):
            free_entropy_grid(np.array([[0.1]]), spec, ORTH)

    def test_non_positive_mse_is_rejected(self):
        spec = two_block_spec()
        for kind in (GAUSS, ORTH):
            for eps in ([0.0, 0.1], [0.1, -1e-3]):
                with pytest.raises(ValueError, match="eps must be > 0"):
                    conjugate_fixed_point(np.array(eps), spec, kind)
                with pytest.raises(ValueError, match="eps must be > 0"):
                    free_entropy_grid(np.array([[0.2, 0.1], eps]), spec, kind)

    @pytest.mark.parametrize("kind", [GAUSS, ORTH])
    def test_non_finite_mse_is_rejected(self, kind):
        # NaN and inf pass a test for eps <= 0: the Gaussian conjugate came out NaN, and
        # the orthogonal inner solve ran out of steps (a numeric failure for invalid input)
        spec = two_block_spec()
        for eps in ([np.nan, 0.1], [0.1, np.inf]):
            with pytest.raises(ValueError, match="eps must be > 0"):
                conjugate_fixed_point(np.array(eps), spec, kind)
            with pytest.raises(ValueError, match="eps must be > 0"):
                free_entropy_grid(np.array([[0.2, 0.1], eps]), spec, kind)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_eps=st.lists(st.floats(-8.0, 0.0), min_size=20, max_size=20))
    def test_batch_matches_row_by_row(self, seed, log_eps):
        # a batch of 5 MSE vectors gives each row the answer of its own call: to the bit
        # for the Gaussian ensemble; the batched orthogonal Newton stops once its slowest
        # row is within tolerance, so a row's last bits depend on the rest of the batch
        spec = random_coupled_spec(np.random.default_rng(seed))
        eps = spec.prior.rho * 10.0 ** np.array(log_eps).reshape(5, 4)[:, :spec.L_c]
        for kind, rtol in ((GAUSS, 0.0), (ORTH, 1e-10)):
            batch = conjugate_fixed_point(eps, spec, kind)
            rows = [conjugate_fixed_point(e, spec, kind) for e in eps]
            for i, field in enumerate(("varsigma", "Lambda")):
                got = batch[i]
                ref = np.array([row[i] for row in rows])
                assert got.shape == (5, spec.L_r, spec.L_c)
                assert np.all(np.abs(got - ref) <= rtol * np.abs(ref)), (kind, field)
            got = free_entropy_grid(eps, spec, kind)
            ref = np.array([free_entropy_grid(e[None, :], spec, kind)[0] for e in eps])
            assert np.all(np.abs(got - ref) <= rtol * np.abs(ref)), kind

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_eps=st.lists(st.floats(-8.0, 0.0), min_size=4, max_size=4))
    def test_gaussian_matches_closed_forms(self, seed, log_eps):
        # the Gaussian ensemble is the row-orthogonal formula at Lambda = 1/eps;
        # the closed forms it replaced are the oracle
        spec = random_coupled_spec(np.random.default_rng(seed))
        eps = spec.prior.rho * 10.0 ** np.array(log_eps[:spec.L_c])
        sig, _ = conjugate_fixed_point(eps, spec, GAUSS)
        ref = _gauss_varsigma_oracle(eps, spec)
        assert np.all(np.abs(sig - ref) <= 1e-13 * ref)
        got = free_entropy_grid(eps[None, :], spec, GAUSS)[0]
        assert got == pytest.approx(_gauss_free_entropy_oracle(eps, spec), rel=1e-13, abs=0)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_eps=st.lists(st.floats(-8.0, 0.0), min_size=4, max_size=4))
    def test_gaussian_precisions_fall_as_any_mse_rises(self, seed, log_eps):
        # d varsigma_p / d eps_l <= 0 for every p, l: the Gaussian map is order-preserving
        # (the row-orthogonal one is not, see ROADMAP item 2)
        spec = random_coupled_spec(np.random.default_rng(seed))
        eps = spec.prior.rho * 10.0 ** np.array(log_eps[:spec.L_c])
        sig = conjugate_fixed_point(eps, spec, GAUSS)[0].sum(axis=0)
        h = 1e-3
        for l in range(spec.L_c):
            up, dn = eps.copy(), eps.copy()
            up[l] *= np.exp(h)
            dn[l] *= np.exp(-h)
            slope = (conjugate_fixed_point(up, spec, GAUSS)[0].sum(axis=0)
                     - conjugate_fixed_point(dn, spec, GAUSS)[0].sum(axis=0)) / (2 * h)
            assert np.all(slope <= 1e-12 * sig), (l, slope)

    def test_gaussian_rate_above_one_still_evaluates(self):
        spec = single_block_spec(0.4, 1e-4, 1.5)
        varsigma, _ = conjugate_fixed_point(np.array([0.1]), spec, GAUSS)
        assert varsigma[0, 0] == pytest.approx(1.5 / (1e-4 + 0.1), rel=1e-14)
        assert np.isfinite(free_entropy_grid(np.array([[0.1]]), spec, GAUSS)).all()


class TestFreeEntropy:
    def test_permutation_invariance(self, rng):
        for _ in range(5):
            spec = random_coupled_spec(rng)
            eps = rng.uniform(0.2, 0.9, spec.L_c) * spec.prior.rho
            perm_r = rng.permutation(spec.L_r)
            perm_c = rng.permutation(spec.L_c)
            permuted = CouplingSpec(
                gamma=spec.gamma[perm_c],
                alpha=spec.alpha[np.ix_(perm_r, perm_c)],
                J=spec.J[np.ix_(perm_r, perm_c)],
                sigma2=spec.sigma2, prior=spec.prior)
            for kind in (GAUSS, ORTH):
                a = free_entropy_grid(eps[None, :], spec, kind)[0]
                b = free_entropy_grid(eps[None, perm_c], permuted, kind)[0]
                assert a == pytest.approx(b, abs=1e-10)

    def test_noise_free_raises(self):
        spec = single_block_spec(0.4, 0.0, 0.5)
        for kind in (GAUSS, ORTH):
            with pytest.raises(ValueError):
                free_entropy_grid(np.array([[0.1]]), spec, kind)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_eps=st.lists(st.floats(-6.0, 0.0), min_size=4, max_size=4))
    def test_gradient_identity(self, seed, log_eps):
        # at stationary conjugates, dF/deps_p = sum_{q,l} gamma_l (eps_l - mmse(varsigma_l))
        # d varsigma_ql / d eps_p; both sides by central differences in log eps_p, with a
        # floor for the rounding of F (about 1e-15) over the step
        spec = random_coupled_spec(np.random.default_rng(seed))
        eps = spec.prior.rho * 10.0 ** np.array(log_eps[:spec.L_c])
        h = 1e-4
        for kind in (GAUSS, ORTH):
            sig, _ = conjugate_fixed_point(eps, spec, kind)
            weight = spec.gamma * (eps - mmse(sig.sum(axis=0), spec.prior))
            for p in range(spec.L_c):
                up, dn = eps.copy(), eps.copy()
                up[p] *= np.exp(h)
                dn[p] *= np.exp(-h)
                lhs = np.subtract(*free_entropy_grid(np.array([up, dn]), spec, kind)) / (2 * h)
                terms = weight * (conjugate_fixed_point(up, spec, kind)[0]
                                  - conjugate_fixed_point(dn, spec, kind)[0]) / (2 * h)
                assert abs(lhs - terms.sum()) <= 1e-5 * np.abs(terms).sum() + 1e-10, \
                    (kind, p, lhs, terms.sum())

    def test_stationary_at_se_fixed_point(self):
        from coupledcs import run_evolution
        spec = single_block_spec(0.4, 1e-4, 0.55)
        for kind in (GAUSS, ORTH):
            trace = run_evolution(spec, kind)
            assert trace.converged
            eps = trace.final_eps
            h = 3e-4
            up, dn = free_entropy_grid(np.array([eps * np.exp(h), eps * np.exp(-h)]), spec, kind)
            assert abs(up - dn) / (2 * h) <= 1e-6


# each public entry point that takes an ensemble, called with a valid rest of its arguments
ENTRY_POINTS = {
    "build_coupled_operator": lambda spec, kind: cc.build_coupled_operator(spec, 64, 0, kind),
    "conjugate_fixed_point": lambda spec, kind: conjugate_fixed_point(np.array([0.1]), spec,
                                                                      kind),
    "free_entropy_grid": lambda spec, kind: free_entropy_grid(np.array([[0.1]]), spec, kind),
    "run_evolution": lambda spec, kind: cc.run_evolution(spec, kind),
    "scan_curve": lambda spec, kind: cc.scan_curve(0.4, 1e-4, 0.5, kind, refine=False),
    "find_alpha_d": lambda spec, kind: cc.find_alpha_d(0.4, 1e-4, kind),
    "find_alpha_s": lambda spec, kind: cc.find_alpha_s(0.4, 1e-4, kind),
    "find_alpha_c": lambda spec, kind: cc.find_alpha_c(0.4, 1e-4, kind),
    "sweep_phase_diagram": lambda spec, kind: cc.sweep_phase_diagram(0.4, [1e-4], kind),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind", ["orthogonal", "gaussian", None])
def test_kind_must_be_an_ensemble_member(entry, kind):
    # "orthogonal" is Ensemble.ROW_ORTHOGONAL's value, not the member: `kind is
    # Ensemble.ROW_ORTHOGONAL` tests sent it down the Gaussian branch without complaint
    with pytest.raises(ValueError, match="kind must be an Ensemble member"):
        ENTRY_POINTS[entry](single_block_spec(0.4, 1e-4, 0.5), kind)
