"""Replica free entropy, channel term, and conjugate fixed points."""

import numpy as np
import pytest

from coupledcs import (BernoulliGaussianPrior, CouplingSpec, Ensemble, channel_term,
                       conjugate_fixed_point, free_entropy, g_gauss, g_orth,
                       single_block_spec)
from coupledcs.replica_core import channel_term_batch

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
        L_r=2, L_c=2,
        gamma=np.array([0.5, 0.5]),
        alpha=np.array([[0.6, 0.6], [0.5, 0.5]]),
        J=np.array([[1.0, 0.0], [0.5, 2.0]]),
        sigma2=sigma2,
        prior=BernoulliGaussianPrior(rho),
    )


class TestCouplingSpecValidation:
    def test_gamma_must_sum_to_one(self):
        with pytest.raises(ValueError, match="gamma"):
            CouplingSpec(L_r=1, L_c=2, gamma=np.array([0.6, 0.6]),
                         alpha=np.full((1, 2), 0.5), J=np.ones((1, 2)),
                         sigma2=0.0, prior=BernoulliGaussianPrior(0.4))

    def test_row_rate_must_be_block_independent(self):
        with pytest.raises(ValueError, match="alpha"):
            CouplingSpec(L_r=1, L_c=2, gamma=np.array([0.5, 0.5]),
                         alpha=np.array([[0.5, 0.9]]), J=np.ones((1, 2)),
                         sigma2=0.0, prior=BernoulliGaussianPrior(0.4))

    def test_connectivity_required(self):
        with pytest.raises(ValueError, match="row"):
            CouplingSpec(L_r=2, L_c=1, gamma=np.ones(1),
                         alpha=np.full((2, 1), 0.3), J=np.array([[1.0], [0.0]]),
                         sigma2=0.0, prior=BernoulliGaussianPrior(0.4))
        with pytest.raises(ValueError, match="column"):
            CouplingSpec(L_r=1, L_c=2, gamma=np.array([0.5, 0.5]),
                         alpha=np.full((1, 2), 0.5), J=np.array([[1.0, 0.0]]),
                         sigma2=0.0, prior=BernoulliGaussianPrior(0.4))

    @pytest.mark.parametrize("field, value", [
        ("gamma", np.array([np.nan, 0.5])), ("alpha", np.full((1, 2), np.nan)),
        ("J", np.array([[np.inf, 1.0]])), ("sigma2", np.inf), ("sigma2", np.nan)])
    def test_non_finite_entries_rejected(self, field, value):
        args = dict(L_r=1, L_c=2, gamma=np.array([0.5, 0.5]), alpha=np.full((1, 2), 0.5),
                    J=np.ones((1, 2)), sigma2=1e-3, prior=BernoulliGaussianPrior(0.4))
        args[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CouplingSpec(**args)

    def test_random_specs_validate(self, rng):
        for _ in range(20):
            spec = random_coupled_spec(rng)
            rates = spec.alpha * spec.gamma[None, :]
            assert np.allclose(rates, rates[:, :1], atol=1e-12)


class TestChannelTerm:
    def test_all_zero_signal(self):
        # y carries no signal: E log e^{-vs|y|^2} = -vs E|y|^2 = -1
        assert channel_term(5.0, BernoulliGaussianPrior(0.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_dense_prior_closed_form(self):
        # single Gaussian component: -log(1 + vs) - 1
        got = channel_term(1.0, BernoulliGaussianPrior(1.0))
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
        assert abs(channel_term(vs, BernoulliGaussianPrior(rho)) - mean) <= 3 * std_err

    def test_derivative_is_minus_mmse(self):
        # independent consistency check tying the two quadratures together
        from coupledcs import mmse
        prior = BernoulliGaussianPrior(0.4)
        for vs in (0.5, 5.0, 250.0):
            h = vs * 1e-5
            fd = (channel_term(vs + h, prior) - channel_term(vs - h, prior)) / (2 * h)
            assert fd == pytest.approx(-mmse(vs, prior), abs=1e-9, rel=1e-7)

    def test_batch_matches_scalar(self):
        prior = BernoulliGaussianPrior(0.25)
        grid = np.geomspace(0.1, 1e6, 40)
        batch = channel_term_batch(grid, prior)
        singles = np.array([channel_term(v, prior) for v in grid])
        assert np.abs(batch - singles).max() <= 1e-11

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError):
            channel_term(0.0, BernoulliGaussianPrior(0.4))

    @pytest.mark.parametrize("rho, vs", sorted(ORACLE_CHANNEL))
    def test_matches_high_precision_oracle(self, rho, vs):
        got = channel_term(vs, BernoulliGaussianPrior(rho))
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
        _, Lam, Delta = g_orth(np.array([0.1]), spec, 0)
        assert Delta[0] == pytest.approx(0.5, abs=1e-12)
        assert Lam[0] == pytest.approx(5.0, abs=1e-9)

    def test_decoupled_entry_convention(self):
        # J[q,p] = 0 entries sit at Lambda = 1/eps, Delta = 0 and add nothing to G
        spec = two_block_spec()
        eps = np.array([0.05, 0.2])
        value, Lam, Delta = g_orth(eps, spec, 0)
        assert Delta[1] == 0.0
        assert Lam[1] == pytest.approx(1.0 / eps[1], abs=1e-12)

    def test_finite_difference_stationarity(self):
        spec = single_block_spec(0.4, 1e-4, 0.49)
        for eps0 in (0.1, 1e-3):
            eps = np.array([eps0])
            _, Lam, _ = g_orth(eps, spec, 0)
            assert _g_gradient_norm(eps, spec, Lam[None, :]) <= 1e-8

    def test_finite_difference_stationarity_coupled(self):
        spec = two_block_spec()
        eps = np.array([0.03, 0.15])
        _, Lam0, _ = g_orth(eps, spec, 0)
        _, Lam1, _ = g_orth(eps, spec, 1)
        Lam = np.stack([Lam0, Lam1])
        assert _g_gradient_norm(eps, spec, Lam) <= 1e-8


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


class TestGGauss:
    def test_zero_mse(self):
        spec = two_block_spec()
        assert g_gauss(np.zeros(2), spec, 0) == 0.0

    def test_single_block_arithmetic(self):
        spec = single_block_spec(0.4, 0.01, 0.5)
        got = g_gauss(np.array([0.02]), spec, 0)
        assert got == pytest.approx(-0.5 * np.log(3.0), abs=1e-12)

    def test_scale_invariance(self):
        a = g_gauss(np.array([0.02]), single_block_spec(0.4, 0.01, 0.5), 0)
        b = g_gauss(np.array([0.04]), single_block_spec(0.4, 0.02, 0.5), 0)
        assert a == pytest.approx(b, abs=1e-14)

    def test_noise_free_raises(self):
        spec = single_block_spec(0.4, 0.0, 0.5)
        with pytest.raises(ValueError):
            g_gauss(np.array([0.02]), spec, 0)


class TestConjugateFixedPoint:
    def test_gaussian_single_block(self):
        spec = single_block_spec(0.4, 0.01, 0.6)
        st = conjugate_fixed_point(np.array([0.05]), spec, GAUSS)
        assert st.varsigma[0, 0] == pytest.approx(0.6 / 0.06, abs=1e-14)

    def test_noise_free_ensemble_coincidence(self):
        spec = single_block_spec(0.4, 0.0, 0.55)
        for eps0 in (0.4, 0.05, 1e-4):
            a = conjugate_fixed_point(np.array([eps0]), spec, ORTH).varsigma[0, 0]
            b = conjugate_fixed_point(np.array([eps0]), spec, GAUSS).varsigma[0, 0]
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_zero_coupling_entries_carry_zero_precision(self):
        spec = two_block_spec()
        st = conjugate_fixed_point(np.array([0.1, 0.1]), spec, ORTH)
        assert st.varsigma[0, 1] == 0.0

    def test_orthogonal_internal_consistency(self):
        # Lambda = 1/eps - varsigma and varsigma = Lambda Delta / (1 - Delta) together
        spec = two_block_spec()
        eps = np.array([0.02, 0.3])
        st = conjugate_fixed_point(eps, spec, ORTH)
        act = spec.J > 0
        lhs = np.where(act, 1.0 / eps[None, :] - st.varsigma, st.Lambda)
        assert np.abs(lhs - st.Lambda)[act].max() <= 1e-10 * st.Lambda[act].max()
        recon = st.Lambda * st.Delta / (1.0 - st.Delta)
        assert np.abs(np.where(act, recon, 0.0) - st.varsigma).max() <= 1e-10


    def test_orthogonal_rate_above_one_is_rejected(self):
        # a block cannot hold more orthogonal rows than columns (M_q <= N_p)
        spec = single_block_spec(0.4, 1e-4, 1.5)
        with pytest.raises(ValueError, match="alpha"):
            conjugate_fixed_point(np.array([0.1]), spec, ORTH)
        with pytest.raises(ValueError, match="alpha"):
            free_entropy(np.array([0.1]), spec, ORTH)

    def test_gaussian_rate_above_one_still_evaluates(self):
        spec = single_block_spec(0.4, 1e-4, 1.5)
        st = conjugate_fixed_point(np.array([0.1]), spec, GAUSS)
        assert st.varsigma[0, 0] == pytest.approx(1.5 / (1e-4 + 0.1), rel=1e-14)
        assert np.isfinite(free_entropy(np.array([0.1]), spec, GAUSS))


class TestFreeEntropy:
    def test_permutation_invariance(self, rng):
        for _ in range(5):
            spec = random_coupled_spec(rng)
            eps = rng.uniform(0.2, 0.9, spec.L_c) * spec.prior.rho
            perm_r = rng.permutation(spec.L_r)
            perm_c = rng.permutation(spec.L_c)
            permuted = CouplingSpec(
                L_r=spec.L_r, L_c=spec.L_c,
                gamma=spec.gamma[perm_c],
                alpha=spec.alpha[np.ix_(perm_r, perm_c)],
                J=spec.J[np.ix_(perm_r, perm_c)],
                sigma2=spec.sigma2, prior=spec.prior)
            for kind in (GAUSS, ORTH):
                a = free_entropy(eps, spec, kind)
                b = free_entropy(eps[perm_c], permuted, kind)
                assert a == pytest.approx(b, abs=1e-10)

    def test_noise_free_raises(self):
        spec = single_block_spec(0.4, 0.0, 0.5)
        for kind in (GAUSS, ORTH):
            with pytest.raises(ValueError):
                free_entropy(np.array([0.1]), spec, kind)

    def test_stationary_at_se_fixed_point(self):
        from coupledcs import run_evolution
        spec = single_block_spec(0.4, 1e-4, 0.55)
        for kind in (GAUSS, ORTH):
            trace = run_evolution(spec, kind)
            assert trace.converged
            eps = trace.final_eps
            h = 3e-4
            up = free_entropy(eps * np.exp(h), spec, kind)
            dn = free_entropy(eps * np.exp(-h), spec, kind)
            assert abs(up - dn) / (2 * h) <= 1e-6
