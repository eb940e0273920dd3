"""State-evolution iteration, traces, and cross-ensemble identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledcs import (BernoulliGaussianPrior, CouplingSpec, Ensemble, SeedingParams,
                       build_seeding_spec, conjugate_fixed_point, free_entropy_grid, mmse,
                       run_evolution, single_block_spec)
from coupledcs import _quadrature, replica_core, scalar_channel, state_evolution

GAUSS = Ensemble.GAUSSIAN_IID
ORTH = Ensemble.ROW_ORTHOGONAL


def test_fixed_point_preserved():
    # one state-evolution step by hand from the converged MSE stays put
    spec = single_block_spec(0.4, 1e-4, 0.49)
    for kind in (GAUSS, ORTH):
        trace = run_evolution(spec, kind)
        assert trace.converged
        varsigma, _ = conjugate_fixed_point(trace.final_eps, spec, kind)
        again = mmse(varsigma.sum(axis=0), spec.prior)
        assert np.abs(again - trace.final_eps).max() <= 1e-12


def test_single_block_gaussian_composite_map():
    # one iteration must equal eps <- mmse(alpha / (sigma2 + eps))
    rho, sigma2, alpha = 0.4, 1e-3, 0.55
    spec = single_block_spec(rho, sigma2, alpha)
    prior = BernoulliGaussianPrior(rho)
    trace = run_evolution(spec, GAUSS, max_iter=3)
    eps = rho
    for got in trace.history[1:, 0]:
        eps = mmse(alpha / (sigma2 + eps), prior)
        assert got == pytest.approx(eps, abs=1e-15)


def test_noise_free_sequences_coincide():
    # zero noise: orthogonal and Gaussian updates are the same map
    spec = single_block_spec(0.4, 0.0, 0.45)
    t_orth = run_evolution(spec, ORTH, max_iter=100)
    t_gauss = run_evolution(spec, GAUSS, max_iter=100)
    n = min(len(t_orth.history), len(t_gauss.history))
    assert np.abs(t_orth.history[:n] - t_gauss.history[:n]).max() <= 1e-12


def test_history_starts_at_rho_and_stays_in_range():
    spec = single_block_spec(0.4, 1e-4, 0.6)
    trace = run_evolution(spec, GAUSS)
    assert trace.history[0, 0] == 0.4
    assert np.all(trace.history > 0) and np.all(trace.history <= 0.4 + 1e-15)


def test_deterministic_traces():
    spec = single_block_spec(0.3, 1e-3, 0.5)
    a = run_evolution(spec, ORTH)
    b = run_evolution(spec, ORTH)
    assert a.iterations == b.iterations
    assert np.array_equal(a.history, b.history)


def test_block_symmetry():
    # a spec invariant under swapping the two blocks gives a symmetric trace
    spec = CouplingSpec(
        gamma=np.array([0.5, 0.5]),
        alpha=np.full((2, 2), 0.55), J=np.array([[2.0, 1.0], [1.0, 2.0]]),
        sigma2=1e-4, prior=BernoulliGaussianPrior(0.4))
    for kind in (GAUSS, ORTH):
        trace = run_evolution(spec, kind, max_iter=500)
        assert np.abs(trace.history[:, 0] - trace.history[:, 1]).max() == 0.0


def test_three_block_mirror_symmetry():
    # a chain invariant under reversing the block order (p -> 2 - p): the outer
    # blocks' orthogonal traces agree to the bit.  Without noise every row has
    # one block with Delta > 1/2, the big branch of the inner row root.
    spec = CouplingSpec(
        gamma=np.full(3, 1.0 / 3.0),
        alpha=np.full((3, 3), 0.95),
        J=np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]),
        sigma2=0.0, prior=BernoulliGaussianPrior(0.4))
    trace = run_evolution(spec, ORTH, max_iter=500)
    assert trace.converged
    varsigma, _ = conjugate_fixed_point(trace.final_eps, spec, ORTH)
    Delta = varsigma * trace.final_eps
    assert np.all(Delta.max(axis=1) > 0.5)
    assert np.abs(trace.history[:, 0] - trace.history[:, 2]).max() == 0.0
    assert np.abs(trace.history[:, 0] - trace.history[:, 1]).max() > 0.0


def test_non_convergence_reported_not_raised():
    spec = single_block_spec(0.4, 1e-4, 0.6)
    trace = run_evolution(spec, GAUSS, max_iter=3)
    assert not trace.converged
    assert trace.iterations == 3


def test_damping_reaches_same_fixed_point():
    spec = single_block_spec(0.4, 1e-4, 0.6)
    plain = run_evolution(spec, ORTH)
    damped = run_evolution(spec, ORTH, damping=0.3)
    assert damped.converged
    assert np.abs(plain.final_eps - damped.final_eps).max() <= 1e-10


def test_free_entropy_non_decreasing_along_trajectory():
    spec = single_block_spec(0.4, 1e-4, 0.49)
    for kind in (GAUSS, ORTH):
        trace = run_evolution(spec, kind)
        assert np.diff(free_entropy_grid(trace.history, spec, kind)).min() >= -1e-8


@settings(deadline=None, max_examples=25)
@given(L=st.integers(1, 8), W=st.integers(1, 8), a_bulk=st.floats(0.3, 0.95),
       seed_excess=st.floats(0.0, 1.0), J=st.floats(0.0, 3.0),
       log_sigma2=st.floats(-6.0, -2.0), rho=st.floats(0.05, 0.95))
def test_gaussian_block_mse_never_increases_from_rho(L, W, a_bulk, seed_excess, J,
                                                     log_sigma2, rho):
    # the Gaussian map is order-preserving, so from eps = rho every block only falls and
    # F never drops; the orthogonal ensemble has neither property (see ROADMAP item 2)
    a_seed = a_bulk + seed_excess * (0.99 - a_bulk)
    params = SeedingParams(L=L, W=min(W, L), alpha_seed=a_seed, alpha_bulk=a_bulk, J=J)
    spec = build_seeding_spec(params, rho, 10.0 ** log_sigma2)
    trace = run_evolution(spec, GAUSS, max_iter=2000)
    assert np.diff(trace.history, axis=0).max() <= 0
    assert np.diff(free_entropy_grid(trace.history, spec, GAUSS)).min() >= -1e-8


def test_orthogonal_chain_can_rise_and_lower_free_entropy():
    # the orthogonal one-step map is not order-preserving: in this L=4 chain block 1's
    # MSE rises 0.0949 -> 0.2186 at t = 4 -> 5 and F drops by 0.0337 at t = 3 -> 4,
    # yet the run converges; the Gaussian run of the same chain falls and ascends F
    params = SeedingParams(L=4, W=1, alpha_seed=0.95366, alpha_bulk=0.63876, J=2.2283)
    spec = build_seeding_spec(params, 0.41265, 8.0032e-5)
    orth, gauss = run_evolution(spec, ORTH), run_evolution(spec, GAUSS)
    assert orth.converged and gauss.converged
    assert orth.history[5, 0] - orth.history[4, 0] > 0.12
    assert np.diff(gauss.history, axis=0).max() <= 0
    f_orth = free_entropy_grid(orth.history[:6], spec, ORTH)
    f_gauss = free_entropy_grid(gauss.history, spec, GAUSS)
    assert f_orth[4] - f_orth[3] < -0.03
    assert np.diff(f_gauss).min() >= -1e-8


def test_orthogonal_chain_period_two_cycle_and_damped_convergence():
    # at rho = 1, sigma2 = 1e-2 the undamped orthogonal run of the L=4 chain settles into
    # a period-2 cycle (its blocks swing by up to 0.3 between iterations); damping the
    # precisions breaks the cycle and the run converges
    params = SeedingParams(L=4, W=1, alpha_seed=0.95366, alpha_bulk=0.63876, J=2.2283)
    spec = build_seeding_spec(params, 1.0, 1e-2)
    plain = run_evolution(spec, ORTH, max_iter=200)
    assert not plain.converged and plain.oscillating
    # the run stops where the cycle closes, not at the cap
    assert plain.iterations == 33
    damped = run_evolution(spec, ORTH, damping=0.7)
    assert damped.converged and not damped.oscillating
    # the damped tail contracts by 0.91 per iteration near the 1e-12 stopping step, so
    # the count moves by a few iterations with the inner solver's rounding
    assert damped.iterations == 260
    assert np.abs(damped.final_eps - [0.4364, 0.2076, 0.2498, 0.2581]).max() <= 5e-5


def test_period_two_cycle_ends_the_run_where_it_closes():
    # at rho = 1 this undamped orthogonal chain swings by 7.8e-2 between iterations and
    # is back within 1e-10 of itself two steps earlier at t = 90, so the run ends there
    # rather than at the default 10^5-iteration cap
    params = SeedingParams(L=3, W=2, alpha_seed=0.873, alpha_bulk=0.782, J=0.605)
    trace = run_evolution(build_seeding_spec(params, 1.0, 0.00554), ORTH)
    assert trace.oscillating and not trace.converged
    assert trace.iterations == 90
    assert np.abs(trace.history[-1] - trace.history[-2]).max() > 0.07


def test_inner_solve_work_on_the_benchmark_chains(monkeypatch):
    # the orthogonal L=10 showcase chain and the L=22 chain of acceptance criterion 8:
    # a warm-started solve makes 2.87 row-residual evaluations on average (1352 over
    # the 471 solves, branch tests included), so 3 per solve leaves a 5% margin
    calls = {"solve": 0, "residual": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(replica_core, "_solve_lambda",
                        counted("solve", replica_core._solve_lambda))
    monkeypatch.setattr(replica_core, "_row_residual",
                        counted("residual", replica_core._row_residual))
    iterations = []
    for L, a_bulk, J in ((10, 0.49, 0.5), (22, 0.484, 1.5)):
        params = SeedingParams(L=L, W=2, alpha_seed=0.70, alpha_bulk=a_bulk, J=J)
        trace = run_evolution(build_seeding_spec(params, 0.4, 1e-6), ORTH)
        assert trace.converged
        iterations.append(trace.iterations)
    assert iterations == [200, 269]
    assert calls["solve"] == 471
    assert calls["residual"] <= 3.0 * calls["solve"], calls


def test_mmse_work_on_the_benchmark_chains(monkeypatch):
    # the four benchmark chains (both ensembles, sigma2 1e-6): no panel of zero width
    # reaches the excess integrand, and it runs on at most 200 nodes per mmse value
    # (192.8), against 408 of the dense layout's, each with the weight and the factor.
    # Each iteration makes exactly one mmse call: 469 on the orthogonal pair
    nodes, values, calls = [0], [0], [0]
    excess, chain_mmse = scalar_channel._mmse_excess, state_evolution.mmse

    def counted_excess(t, *params):
        # node-major panels: the last node lies past the first one
        assert t.shape[0] == _quadrature._NODES.size and np.all(t[-1] > t[0])
        nodes[0] += t.size
        return excess(t, *params)

    def counted_mmse(varsigma, prior):
        calls[0] += 1
        values[0] += np.size(varsigma)
        return chain_mmse(varsigma, prior)

    monkeypatch.setattr(scalar_channel, "_mmse_excess", counted_excess)
    monkeypatch.setattr(state_evolution, "mmse", counted_mmse)
    for kind, chains, iterations in ((ORTH, ((10, 0.49, 0.5), (22, 0.484, 1.5)), 469),
                                     (GAUSS, ((10, 0.49, 0.5), (22, 0.489, 2.5)), 491)):
        calls[0], ran = 0, 0
        for L, a_bulk, J in chains:
            params = SeedingParams(L=L, W=2, alpha_seed=0.70, alpha_bulk=a_bulk, J=J)
            trace = run_evolution(build_seeding_spec(params, 0.4, 1e-6), kind)
            assert trace.converged
            ran += trace.iterations
        assert ran == iterations and calls[0] == iterations, (kind, ran, calls)
    assert 0 < nodes[0] <= 200 * values[0], (nodes, values)


def test_degenerate_seeding_chain_matches_uncoupled():
    params = SeedingParams(L=1, W=1, alpha_seed=0.6, alpha_bulk=0.6, J=0.7)
    chain = build_seeding_spec(params, 0.4, 1e-4)
    flat = single_block_spec(0.4, 1e-4, 0.6)
    a = run_evolution(chain, ORTH)
    b = run_evolution(flat, ORTH)
    assert np.array_equal(a.history, b.history)


def test_input_validation():
    spec = single_block_spec(0.4, 1e-4, 0.6)
    with pytest.raises(ValueError):
        run_evolution(spec, GAUSS, tol=0.0)
    with pytest.raises(ValueError):
        run_evolution(spec, GAUSS, max_iter=0)
    with pytest.raises(ValueError):
        run_evolution(spec, GAUSS, damping=1.0)
    # rho = 0 starts at eps = 0, where the conjugate precisions are undefined
    for kind in (GAUSS, ORTH):
        with pytest.raises(ValueError, match="rho = 0"):
            run_evolution(single_block_spec(0.0, 1e-4, 0.6), kind)


@pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
def test_max_iter_must_be_a_whole_number(bad):
    # 2.5 ran 2 iterations and reported an unconverged trace without complaint
    with pytest.raises(ValueError, match="whole number"):
        run_evolution(single_block_spec(0.4, 1e-4, 0.6), GAUSS, max_iter=bad)


def test_integral_float_max_iter_counts_as_its_int():
    spec = single_block_spec(0.4, 1e-4, 0.6)
    got, want = run_evolution(spec, GAUSS, max_iter=1e3), run_evolution(spec, GAUSS, max_iter=1000)
    assert np.array_equal(got.history, want.history) and got.converged == want.converged
