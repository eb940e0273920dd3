"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

The expensive phase-diagram quantities are computed once in module-scoped
fixtures and shared across criteria.
"""

import time

import numpy as np
import pytest

from coupledcs import (BernoulliGaussianPrior, Ensemble, SeedingParams, adjoint_apply,
                       apply, build_coupled_operator, build_seeding_spec,
                       conjugate_fixed_point, find_alpha_c, find_alpha_d, find_alpha_s,
                       free_entropy_grid, mmse, mmse_mc_oracle, run_evolution,
                       single_block_spec)
from coupledcs.phase_analysis import ALPHA_TOL
from coupledcs.state_evolution import iterations_to_good_mse

from conftest import (bp_mse_at, dense_from_blocks, dense_materialize, random_coupled_spec,
                      window_exists)

GAUSS = Ensemble.GAUSSIAN_IID
ORTH = Ensemble.ROW_ORTHOGONAL
BOTH = (ORTH, GAUSS)
RHO = 0.4


def report(number, name, passed=True):
    print(f"\nACCEPTANCE {number:2d} [{name}]: {'PASS' if passed else 'FAIL'}")


class Criterion:
    """Prints the per-criterion verdict even when an assertion fails."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        report(self.number, self.name, passed=exc_type is None)
        return False


# ----------------------------------------------------------------------
# shared expensive computations
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def transitions_low_noise():
    """alpha_s/c/d for both ensembles at the two-maxima showcase noise level."""
    out = {}
    for kind in BOTH:
        start = time.monotonic()
        a_d = find_alpha_d(RHO, 1e-4, kind)
        a_s = find_alpha_s(RHO, 1e-4, kind)
        a_c = find_alpha_c(RHO, 1e-4, kind)
        out[kind] = {"alpha_s": a_s, "alpha_c": a_c, "alpha_d": a_d,
                     "runtime": time.monotonic() - start}
    return out


SIGMA2_GRID = [5e-4, 7.5e-4, 1e-3, 1.5e-3, 2e-3]


@pytest.fixture(scope="module")
def phase_grid():
    """Sharpness plus alpha_d / alpha_c over the moderate-noise grid."""
    out = {}
    for kind in BOTH:
        rows = {}
        for s2 in SIGMA2_GRID:
            if window_exists(RHO, s2, kind):
                a_d = find_alpha_d(RHO, s2, kind)
                a_c = find_alpha_c(RHO, s2, kind)
                rows[s2] = {"sharp": True, "alpha_d": a_d, "alpha_c": a_c}
            else:
                rows[s2] = {"sharp": False}
        out[kind] = rows
    return out


@pytest.fixture(scope="module")
def coupled_showcase():
    """Seeding-chain evolutions at the showcase coupled configuration."""
    spec = build_seeding_spec(SeedingParams(L=10, W=2, alpha_seed=0.70,
                                            alpha_bulk=0.49, J=0.5), RHO, 1e-6)
    return {kind: run_evolution(spec, kind) for kind in BOTH}, spec


@pytest.fixture(scope="module")
def coupled_threshold():
    """Long chains near the optimal threshold, plus uncoupled references."""
    out = {}
    for kind, a_bulk, j in ((GAUSS, 0.489, 2.5), (ORTH, 0.484, 1.5)):
        L = 22  # (0.70 - alpha_bulk) / L < 0.01
        spec = build_seeding_spec(SeedingParams(L=L, W=2, alpha_seed=0.70,
                                                alpha_bulk=a_bulk, J=j), RHO, 1e-6)
        rate = spec.total_rate
        flat = single_block_spec(RHO, 1e-6, rate)
        out[kind] = {
            "spec": spec,
            "coupled": run_evolution(spec, kind),
            "uncoupled": run_evolution(flat, kind),
            "overall_rate": rate,
            "alpha_bulk": a_bulk,
        }
    return out


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_01_scalar_channel_oracle_equivalence():
    with Criterion(1, "scalar-channel quadrature vs Monte-Carlo"):
        start = time.monotonic()
        prior_grid = [0.1, 0.4, 0.8]
        vs_grid = [0.1, 1.0, 10.0, 100.0]
        seed = 0
        for rho in prior_grid:
            prior = BernoulliGaussianPrior(rho)
            assert mmse(0.0, prior) == rho
            for vs in vs_grid:
                seed += 1
                exact = mmse(vs, prior)
                est, err = mmse_mc_oracle(vs, prior, 10 ** 7, seed=seed)
                assert abs(exact - est) <= 3 * err, (rho, vs, exact, est, err)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds one minute"


def test_criterion_02_noise_free_ensemble_coincidence():
    with Criterion(2, "noise-free conjugate coincidence over 100 iterations"):
        for alpha in (0.30, 0.45):
            spec = single_block_spec(RHO, 0.0, alpha)
            eps = {kind: np.array([RHO]) for kind in BOTH}
            for _ in range(100):
                sig = {}
                for kind in BOTH:
                    varsigma, _ = conjugate_fixed_point(eps[kind], spec, kind)
                    sig[kind] = varsigma[0, 0]
                assert abs(sig[ORTH] - sig[GAUSS]) <= 1e-12
                for kind in BOTH:
                    eps[kind] = np.array([mmse(float(sig[kind]), spec.prior)])
                assert abs(eps[ORTH][0] - eps[GAUSS][0]) <= 1e-12


def test_criterion_03_phase_ordering(transitions_low_noise):
    with Criterion(3, "alpha_d > alpha_c > alpha_s at rho 0.4, sigma2 1e-4"):
        for kind in BOTH:
            tr = transitions_low_noise[kind]
            assert tr["alpha_d"] > tr["alpha_c"] > tr["alpha_s"], tr
            assert tr["runtime"] < 600.0, f"{kind}: {tr['runtime']:.0f}s over budget"
        print("  transitions:", {k.value: {n: round(v, 5) for n, v in d.items()}
                                 for k, d in transitions_low_noise.items()})


# (alpha_s, alpha_c, alpha_d) at rho 0.4, sigma2 1e-4 as first recorded, to 5 decimals
RECORDED_TRANSITIONS = {ORTH: (0.44249, 0.47388, 0.51432),
                        GAUSS: (0.45289, 0.48097, 0.51486)}


def test_recorded_transition_values(transitions_low_noise):
    for kind, ref in RECORDED_TRANSITIONS.items():
        tr = transitions_low_noise[kind]
        got = (tr["alpha_s"], tr["alpha_c"], tr["alpha_d"])
        assert np.abs(np.subtract(got, ref)).max() <= ALPHA_TOL, (kind.value, got, ref)


def _bisect_vanishing_sigma2(kind, lo, hi):
    """Boundary of the two-maxima region in sigma2, via existence bisection."""
    assert window_exists(RHO, lo, kind), f"window should exist at sigma2={lo}"
    assert not window_exists(RHO, hi, kind), f"window should be gone at sigma2={hi}"
    while hi / lo > 1.10:
        mid = np.sqrt(lo * hi)
        if window_exists(RHO, mid, kind):
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


def test_criterion_04_sharp_transition_disappearance():
    with Criterion(4, "two-maxima window vanishing noise levels"):
        got_gauss = _bisect_vanishing_sigma2(GAUSS, 8e-4, 2.5e-3)
        got_orth = _bisect_vanishing_sigma2(ORTH, 1.5e-3, 4.5e-3)
        print(f"  vanishing sigma2: gaussian {got_gauss:.2e} (target 1.3e-3 +-20%), "
              f"orthogonal {got_orth:.2e} (target 2.5e-3 +-20%)")
        assert 0.8 * 1.3e-3 <= got_gauss <= 1.2 * 1.3e-3
        assert 0.8 * 2.5e-3 <= got_orth <= 1.2 * 2.5e-3


def test_criterion_05_threshold_ordering_moderate_noise(phase_grid):
    with Criterion(5, "orthogonal thresholds below Gaussian on [5e-4, 2e-3]"):
        for s2 in SIGMA2_GRID:
            g, o = phase_grid[GAUSS][s2], phase_grid[ORTH][s2]
            if g["sharp"]:
                assert o["sharp"], f"orthogonal must stay sharp where Gaussian is ({s2})"
                assert o["alpha_d"] <= g["alpha_d"], (s2, o["alpha_d"], g["alpha_d"])
                assert o["alpha_c"] <= g["alpha_c"], (s2, o["alpha_c"], g["alpha_c"])
            else:
                # beyond the Gaussian cusp only the orthogonal line may continue
                assert s2 > 1.2e-3
        print("  grid:", {f"{s2:g}": (phase_grid[ORTH][s2].get("alpha_d"),
                                      phase_grid[GAUSS][s2].get("alpha_d"))
                          for s2 in SIGMA2_GRID})


def test_criterion_06_bp_mse_dominance(phase_grid):
    with Criterion(6, "orthogonal BP MSE below Gaussian at the BP threshold"):
        compared = 0
        for s2 in SIGMA2_GRID:
            g, o = phase_grid[GAUSS][s2], phase_grid[ORTH][s2]
            if not (g["sharp"] and o["sharp"]):
                continue
            # just above each ensemble's own threshold the good branch is reached
            mse_o = bp_mse_at(RHO, s2, o["alpha_d"] + 1e-4, ORTH)
            mse_g = bp_mse_at(RHO, s2, g["alpha_d"] + 1e-4, GAUSS)
            assert mse_o <= mse_g, (s2, mse_o, mse_g)
            compared += 1
        assert compared >= 3
        print(f"  compared {compared} noise levels")


def test_criterion_07_coupled_convergence(coupled_showcase):
    with Criterion(7, "seeding chain reaches the noise floor, orthogonal first"):
        traces, spec = coupled_showcase
        hits = {}
        for kind in BOTH:
            trace = traces[kind]
            assert trace.converged
            hits[kind] = iterations_to_good_mse(trace, 1e-6)
            assert hits[kind] is not None, f"{kind}: never reached max eps < 1e-5"
        assert hits[ORTH] < hits[GAUSS], hits
        print(f"  iterations to max eps < 10 sigma2: orthogonal {hits[ORTH]}, "
              f"gaussian {hits[GAUSS]}")


def test_criterion_08_seeded_threshold(coupled_threshold):
    with Criterion(8, "long chains reconstruct where uncoupled runs stall"):
        for kind in BOTH:
            data = coupled_threshold[kind]
            assert abs(data["overall_rate"] - data["alpha_bulk"]) < 0.01
            coupled = data["coupled"]
            assert coupled.converged
            assert np.max(coupled.final_eps) < 10 * 1e-6, \
                f"{kind}: coupled stalled at {np.max(coupled.final_eps):.2e}"
            flat = data["uncoupled"]
            assert flat.converged
            assert flat.final_eps[0] > 1e-2, \
                f"{kind}: uncoupled unexpectedly reached {flat.final_eps[0]:.2e}"
        print("  final MSE:",
              {k.value: (float(np.max(coupled_threshold[k]['coupled'].final_eps)),
                         float(coupled_threshold[k]['uncoupled'].final_eps[0]))
               for k in BOTH})


def _scaled_gradient(eps, spec, kind, h=3e-4):
    """max_p |dF / d log eps_p| by central differences."""
    steps = np.exp(h * np.eye(spec.L_c))
    up, dn = free_entropy_grid(np.concatenate([eps * steps, eps / steps]), spec, kind) \
        .reshape(2, spec.L_c)
    return float(np.abs(up - dn).max() / (2 * h))


def test_criterion_09_se_free_entropy_consistency(transitions_low_noise, coupled_showcase,
                                                  coupled_threshold):
    with Criterion(9, "free entropy stationary at fixed points, ascending along runs"):
        # single-block fixed points on both branches at sigma2 = 1e-4
        for kind in BOTH:
            tr = transitions_low_noise[kind]
            for alpha in (0.5 * (tr["alpha_s"] + tr["alpha_d"]), tr["alpha_d"] + 0.02):
                spec = single_block_spec(RHO, 1e-4, alpha)
                trace = run_evolution(spec, kind)
                assert trace.converged
                g = _scaled_gradient(trace.final_eps, spec, kind)
                assert g <= 1e-6, (kind, alpha, g)
                assert np.diff(free_entropy_grid(trace.history, spec, kind)).min() >= -1e-8
        # coupled fixed points and trajectories
        traces, spec5 = coupled_showcase
        for kind in BOTH:
            trace = traces[kind]
            g = _scaled_gradient(trace.final_eps, spec5, kind)
            assert g <= 1e-6, (kind, "showcase", g)
            assert np.diff(free_entropy_grid(trace.history, spec5, kind)).min() >= -1e-8
        for kind in BOTH:
            data = coupled_threshold[kind]
            trace = data["coupled"]
            g = _scaled_gradient(trace.final_eps, data["spec"], kind)
            assert g <= 1e-6, (kind, "chain", g)
            thinned = trace.history[::10]
            assert np.diff(free_entropy_grid(thinned, data["spec"], kind)).min() >= -1e-8


def test_criterion_10_operator_correctness():
    with Criterion(10, "FFT operators match dense oracles; exact block variance"):
        rng = np.random.default_rng(1234)
        for trial in range(20):
            spec = random_coupled_spec(rng)
            kind = ORTH if trial % 2 == 0 else GAUSS
            N = int(rng.integers(128, 513))
            op = build_coupled_operator(spec, N, seed=trial, kind=kind)
            A = dense_from_blocks(op, seed=trial)
            if kind is ORTH:
                # the operator's own entries, its action on the basis
                entries = dense_materialize(op)
                for q, p in op.blocks:
                    sub = entries[op.row_offsets[q]:op.row_offsets[q + 1],
                                  op.col_offsets[p]:op.col_offsets[p + 1]]
                    nominal = spec.J[q, p] / op.N
                    assert np.abs(np.abs(sub) ** 2 - nominal).max() <= 2e-16 + 1e-13 * nominal
            x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
            y = rng.standard_normal(op.M) + 1j * rng.standard_normal(op.M)
            assert np.abs(apply(op, x) - A @ x).max() <= 1e-10
            assert np.abs(adjoint_apply(op, y) - A.conj().T @ y).max() <= 1e-10
            lhs = np.vdot(y, apply(op, x))
            rhs = np.vdot(adjoint_apply(op, y), x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
