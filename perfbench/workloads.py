"""The benchmark's workloads: seeded inputs, timed operations, output checks.

A workload yields its operations one pass at a time.  Each operation is
an `Op` whose `run` is the timed call into coupledcs and whose `check`
inspects the result afterwards, outside the timed region, returning a
list of problems (empty when the output is correct).
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import coupledcs as cc
from coupledcs.phase_analysis import ALPHA_TOL

DEFAULT_SEED = 0
RHO = 0.4
ENSEMBLES = {"orthogonal": cc.Ensemble.ROW_ORTHOGONAL, "gaussian": cc.Ensemble.GAUSSIAN_IID}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Op:
    kind: str
    ensemble: str | None
    run: Callable
    check: Callable


# ----------------------------------------------------------------------
# phase-point
# ----------------------------------------------------------------------

PHASE_SIGMA2 = 1e-4
# transition rates recorded at rho 0.4, sigma2 1e-4 (alpha_s, alpha_c, alpha_d),
# rounded to 5 decimals; each carries a bisection error up to ALPHA_TOL / 2
PHASE_REFERENCE = {"orthogonal": (0.44249, 0.47388, 0.51432),
                   "gaussian": (0.45289, 0.48097, 0.51486)}
PHASE_REFERENCE_TOL = 2e-5
GAP_TOL = 1e-6


def _two_maxima(sigma2, alpha, kind):
    return cc.scan_curve(RHO, sigma2, alpha, kind, refine=False).n_maxima == 2


def check_phase_point(points, ens, sigma2):
    kind = ENSEMBLES[ens]
    if len(points) != 1:
        return [f"expected one phase point, got {len(points)}"]
    pt = points[0]
    if pt.error is not None:
        return [f"phase point error: {pt.error}"]
    if not pt.sharp:
        return ["phase point not sharp"]
    problems = []
    if not pt.alpha_s < pt.alpha_c < pt.alpha_d:
        problems.append(f"order violated: s={pt.alpha_s} c={pt.alpha_c} d={pt.alpha_d}")
    for alpha, expect in ((pt.alpha_d - ALPHA_TOL, True), (pt.alpha_s + ALPHA_TOL, True),
                          (pt.alpha_d + ALPHA_TOL, False), (pt.alpha_s - ALPHA_TOL, False)):
        if _two_maxima(sigma2, alpha, kind) != expect:
            problems.append(f"two-maxima predicate at alpha={alpha:.7f} is not {expect}")
    curve = cc.scan_curve(RHO, sigma2, pt.alpha_c, kind)
    if curve.n_maxima != 2:
        problems.append(f"{curve.n_maxima} maxima at alpha_c")
    elif abs(curve.maxima[0][1] - curve.maxima[1][1]) > GAP_TOL:
        problems.append(f"maxima gap {curve.maxima[0][1] - curve.maxima[1][1]:.2e} at alpha_c")
    if sigma2 == PHASE_SIGMA2:
        for name, got, ref in zip("scd", (pt.alpha_s, pt.alpha_c, pt.alpha_d),
                                  PHASE_REFERENCE[ens]):
            if abs(got - ref) > PHASE_REFERENCE_TOL:
                problems.append(f"alpha_{name}={got:.7f} is off the reference {ref}")
    return problems


class PhasePoint:
    """One full phase point per ensemble, as `coupledcs phase-diagram` computes it.

    The noise level stays at the reference point for every seed: a 10%
    change of sigma2 moves the number of curve scans and golden-section
    steps, and with them the cost of a phase point, by up to 40%.
    """

    name = "phase-point"

    def __init__(self, seed):
        self.sigma2 = PHASE_SIGMA2

    def describe(self):
        return {"rho": RHO, "sigma2": self.sigma2, "threads": 1}

    def pass_ops(self):
        for ens, kind in ENSEMBLES.items():
            yield Op("phase_point", ens,
                     lambda kind=kind: cc.sweep_phase_diagram(RHO, [self.sigma2], kind, threads=1),
                     lambda pts, ens=ens: check_phase_point(pts, ens, self.sigma2))


# ----------------------------------------------------------------------
# coupled-evolution
# ----------------------------------------------------------------------

EVOLUTION_SIGMA2 = 1e-6
# (name, ensemble, L, alpha_bulk, J): the L=10 showcase chain and the L=22
# near-threshold chains of acceptance criterion 8; W=2, alpha_seed=0.70
CHAINS = (("L10", "orthogonal", 10, 0.49, 0.5), ("L22", "orthogonal", 22, 0.484, 1.5),
          ("L10", "gaussian", 10, 0.49, 0.5), ("L22", "gaussian", 22, 0.489, 2.5))
# other seeds jitter alpha_bulk and J by at most these amounts; wider
# jitter moves a chain's iteration count (and cost) by up to 4x
ALPHA_JITTER = 5e-4
J_JITTER = 0.02
TRACE_TOL = 1e-10


def _read_trace(ens):
    path = REFERENCE_DIR / f"coupled_trace_{ens}.csv"
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]


def check_evolutions(traces, chains, exact):
    problems = []
    for (name, ens, *_), trace in zip(chains, traces):
        if not trace.converged:
            problems.append(f"{name} {ens}: did not converge")
        rise = float(np.diff(trace.history, axis=0).max())
        if rise > 0:
            problems.append(f"{name} {ens}: per-block MSE increased by {rise:.2e}")
        if exact and name == "L10":
            ref = _read_trace(ens)
            if ref.shape != trace.history.shape:
                problems.append(f"{name} {ens}: {trace.iterations} iterations, "
                                f"reference has {ref.shape[0] - 1}")
            elif np.abs(ref - trace.history).max() > TRACE_TOL:
                problems.append(f"{name} {ens}: history off the reference by "
                                f"{np.abs(ref - trace.history).max():.2e}")
    return problems


class CoupledEvolution:
    """State evolution of the seeding chains, one chain set per ensemble."""

    name = "coupled-evolution"

    def __init__(self, seed):
        self.exact = seed == DEFAULT_SEED
        rng = np.random.default_rng(seed)
        self.chains = []
        for name, ens, L, alpha_bulk, J in CHAINS:
            if not self.exact:
                alpha_bulk += rng.uniform(-ALPHA_JITTER, ALPHA_JITTER)
                J *= 1.0 + rng.uniform(-J_JITTER, J_JITTER)
            params = cc.SeedingParams(L=L, W=2, alpha_seed=0.70, alpha_bulk=alpha_bulk, J=J)
            self.chains.append((name, ens, L, alpha_bulk, J,
                                cc.build_seeding_spec(params, RHO, EVOLUTION_SIGMA2)))

    def describe(self):
        return {"sigma2": EVOLUTION_SIGMA2,
                "chains": [{"chain": c[0], "ensemble": c[1], "alpha_bulk": c[3], "J": c[4]}
                           for c in self.chains]}

    def pass_ops(self):
        for ens, kind in ENSEMBLES.items():
            chains = [c for c in self.chains if c[1] == ens]
            yield Op("evolution", ens,
                     lambda kind=kind, chains=chains: [cc.run_evolution(c[5], kind)
                                                       for c in chains],
                     lambda traces, chains=chains: check_evolutions(traces, chains, self.exact))


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------

INSTANCE_N = {"orthogonal": 2 ** 17, "gaussian": 8192}
ROUND_TRIPS = 100
ADJOINT_TOL = 1e-10
ORACLE_GRID = np.geomspace(1e-2, 1e2, 25)   # the `coupledcs mmse` default grid
ORACLE_SAMPLES = 10 ** 6
ORACLE_SIGMAS = 5.0


class Instances:
    """Showcase-chain operators: build, draw an instance, apply and adjoint; MC oracle."""

    name = "instances"

    def __init__(self, seed):
        self.seed = int(seed)
        params = cc.SeedingParams(L=10, W=2, alpha_seed=0.70, alpha_bulk=0.49, J=0.5)
        self.spec = cc.build_seeding_spec(params, RHO, EVOLUTION_SIGMA2)
        self.sigma = float(np.sqrt(EVOLUTION_SIGMA2))
        self.prior = cc.BernoulliGaussianPrior(RHO)
        self.state = {}

    def describe(self):
        return {"N": INSTANCE_N, "round_trips": ROUND_TRIPS, "operator_seed": self.seed,
                "instance_seed": self.seed, "oracle_seed": self.seed,
                "oracle_points": len(ORACLE_GRID), "oracle_samples": ORACLE_SAMPLES}

    def _instance(self, ens):
        op = cc.build_coupled_operator(self.spec, INSTANCE_N[ens], self.seed, ENSEMBLES[ens])
        inst = cc.gen_instance(op, self.prior, self.sigma, self.seed)
        self.state[ens] = (op, inst)
        return op, inst

    def _check_instance(self, result):
        op, inst = result
        again = cc.gen_instance(op, self.prior, self.sigma, self.seed)
        if again.y.tobytes() != inst.y.tobytes():
            return ["same seed gave a different y"]
        return []

    def _round_trip(self, ens):
        op, inst = self.state[ens]
        y = cc.apply(op, inst.x)
        return inst.x, y, cc.adjoint_apply(op, y)

    @staticmethod
    def _check_round_trip(result):
        # <A x, A x> = <x, A^H (A x)> checks the adjoint on every round trip
        x, y, back = result
        lhs, rhs = np.vdot(y, y), np.vdot(x, back)
        if abs(lhs - rhs) > ADJOINT_TOL * abs(lhs):
            return [f"adjoint mismatch {abs(lhs - rhs) / abs(lhs):.2e}"]
        return []

    def _oracle(self):
        return [cc.mmse_mc_oracle(vs, self.prior, ORACLE_SAMPLES, self.seed + i)
                for i, vs in enumerate(ORACLE_GRID)]

    def _check_oracle(self, estimates):
        problems = []
        for vs, (est, err) in zip(ORACLE_GRID, estimates):
            exact = cc.mmse(vs, self.prior)
            if abs(est - exact) > ORACLE_SIGMAS * err:
                problems.append(f"oracle at varsigma={vs:.3g}: {est:.6g} vs mmse {exact:.6g} "
                                f"(stderr {err:.2e})")
        return problems

    def pass_ops(self):
        for ens in ENSEMBLES:
            yield Op("instance", ens, lambda ens=ens: self._instance(ens), self._check_instance)
        # alternate the ensembles so both sets of round trips span the same stretch of time
        for _ in range(ROUND_TRIPS):
            for ens in ENSEMBLES:
                yield Op("roundtrip", ens, lambda ens=ens: self._round_trip(ens),
                         self._check_round_trip)
        self.state.clear()   # the Gaussian operator alone holds ~200 MB
        yield Op("mc_oracle", None, self._oracle, self._check_oracle)


WORKLOADS = {w.name: w for w in (CoupledEvolution, Instances, PhasePoint)}
