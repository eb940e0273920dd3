"""Replica free entropy for block-structured measurement ensembles.

A coupled system is an L_r x L_c grid of measurement blocks.  Block row q
measures at rate alpha[q, p] = M_q / N_p, signal block p holds a fraction
gamma[p] of the N signal entries, and J[q, p] >= 0 is the per-block
coupling variance (matrix entries of block (q, p) have variance
J[q, p] / N).  The free entropy of the Bayes posterior is, per signal
entry,

    F(eps) = sum_p gamma_p E_y log E_x e^{-sig_p |y - x|^2}
           + sum_{q,p} gamma_p eps_p sig_{q,p}
           + sum_q G_q(eps) + (1 - alpha_total),

with sig_p = sum_q sig_{q,p}.  For the row-orthogonal ensemble G_q
carries an inner extremization over auxiliary variables Lambda_{q,p};
for the i.i.d. Gaussian ensemble it collapses to a single log.  The
conjugate precisions sig_{q,p} are fixed by stationarity of F at given
eps, which is what `conjugate_fixed_point` computes.  Local maxima of
F(eps) are exactly the fixed points of the MSE state evolution.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import integrate
from .errors import ConvergenceError
from .scalar_channel import BernoulliGaussianPrior

_CHANNEL_TOL = 1e-10
_INNER_TOL = 1e-12
_INNER_MAX_ITER = 10 ** 4
_INNER_DAMPING = 0.5
_LAMBDA_FLOOR = 1e-12


class Ensemble(enum.Enum):
    """Measurement ensemble of each block: subsampled-DFT rows or i.i.d. Gaussian."""

    ROW_ORTHOGONAL = "orthogonal"
    GAUSSIAN_IID = "gaussian"


@dataclass(frozen=True)
class CouplingSpec:
    """Block structure of a coupled measurement system.

    gamma[p] = N_p / N must sum to one, and alpha[q, p] * gamma[p] = M_q / N
    must not depend on p (each measurement row block has one size).  Every
    block row and block column must touch at least one J > 0 entry,
    otherwise some part of the system is disconnected.
    """

    L_r: int
    L_c: int
    gamma: np.ndarray
    alpha: np.ndarray
    J: np.ndarray
    sigma2: float
    prior: BernoulliGaussianPrior

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        J = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "J", J)
        for name, value in (("gamma", gamma), ("alpha", alpha), ("J", J),
                            ("sigma2", self.sigma2)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if self.L_r < 1 or self.L_c < 1:
            raise ValueError("L_r and L_c must be >= 1")
        if gamma.shape != (self.L_c,):
            raise ValueError(f"gamma must have shape ({self.L_c},)")
        if alpha.shape != (self.L_r, self.L_c) or J.shape != (self.L_r, self.L_c):
            raise ValueError(f"alpha and J must have shape ({self.L_r}, {self.L_c})")
        if not np.all(gamma > 0):
            raise ValueError("gamma: all block fractions must be > 0")
        if abs(gamma.sum() - 1.0) > 1e-12:
            raise ValueError(f"gamma must sum to 1, got {gamma.sum()!r}")
        rates = alpha * gamma[None, :]
        if np.any(np.abs(rates - rates[:, :1]) > 1e-12):
            raise ValueError("alpha: alpha[q,p] * gamma[p] must be constant over p")
        if np.any(J < 0):
            raise ValueError("J: coupling variances must be >= 0")
        if np.any((J > 0).sum(axis=1) == 0):
            raise ValueError("J: every block row needs at least one J > 0 entry")
        if np.any((J > 0).sum(axis=0) == 0):
            raise ValueError("J: every block column needs at least one J > 0 entry")
        if not (self.sigma2 >= 0):
            raise ValueError("sigma2 must be >= 0")

    @property
    def row_rates(self) -> np.ndarray:
        """M_q / N for each block row."""
        return self.alpha[:, 0] * self.gamma[0]

    @property
    def total_rate(self) -> float:
        """Overall measurement ratio M / N."""
        return float(self.row_rates.sum())


def single_block_spec(rho: float, sigma2: float, alpha: float) -> CouplingSpec:
    """Uncoupled system: one block with gamma = J = 1."""
    return CouplingSpec(
        L_r=1, L_c=1,
        gamma=np.ones(1),
        alpha=np.full((1, 1), float(alpha)),
        J=np.ones((1, 1)),
        sigma2=float(sigma2),
        prior=BernoulliGaussianPrior(rho),
    )


@dataclass
class ConjugateState:
    """Per-block order parameters at one point of the evolution.

    eps[p] is the block MSE; varsigma, Lambda, Delta are the conjugate
    parameters per block.  Entries with J[q, p] = 0 carry varsigma = 0,
    Delta = 0 and Lambda = 1/eps[p] by convention.
    """

    eps: np.ndarray
    varsigma: np.ndarray
    Lambda: np.ndarray
    Delta: np.ndarray
    clamped: bool = field(default=False)


# ----------------------------------------------------------------------
# channel term
# ----------------------------------------------------------------------

def _log_sum_exp(x, y):
    """log(e^x + e^y), as np.logaddexp computes it but several times faster."""
    return np.maximum(x, y) + np.log1p(np.exp(-np.abs(x - y)))


def channel_term_batch(varsigma, prior: BernoulliGaussianPrior) -> np.ndarray:
    """E_y log E_x e^{-vs |y - x|^2} for an array of channel precisions.

    The inner expectation over the prior has the closed form
    (1-rho) e^{-vs u} + rho/(1+vs) e^{-vs u/(1+vs)} with u = |y|^2, and the
    outer law of u is the matching mixture of exponentials.  Each mixture
    piece is substituted to an Exp(1) variable s, so that the integrand is

        e^{-s} (-s + (1-rho) logaddexp(c1, c2 + s vs/(1+vs))
                   + rho logaddexp(c1 - s vs, c2)),

    c1 = log(1-rho), c2 = log(rho) - log(1+vs).  Its two log-sum elbows
    sit at s = gap (1+vs)/vs and s = gap/vs, gap = c1 - c2, with widths
    (1+vs)/vs and 1/vs; the shared fixed rule (`coupledcs._quadrature`)
    puts breakpoints around both.  Every precision is integrated on its
    own layout, so a point's value does not depend on the rest of the
    batch.  Raises QuadratureError when the rule's embedded check
    disagrees by more than 1e-10.
    """
    vs = np.atleast_1d(np.asarray(varsigma, dtype=float))
    if np.any(~np.isfinite(vs)) or np.any(vs <= 0):
        raise ValueError("channel term needs finite varsigma > 0")
    rho = prior.rho
    if rho == 0.0:
        return -np.ones_like(vs)
    if rho == 1.0:
        # single Gaussian component: E log of one exponential is exact
        return -np.log1p(vs) - 1.0
    c1 = np.log1p(-rho)
    c2 = np.log(rho) - np.log1p(vs)
    slope = vs / (1.0 + vs)
    gap = c1 - c2

    def integrand(s, vs, slope, c2):
        with np.errstate(over="ignore"):
            return np.exp(-s) * (-s + (1.0 - rho) * _log_sum_exp(c1, c2 + slope * s)
                                 + rho * _log_sum_exp(c1 - vs * s, c2))

    return integrate(integrand, [vs, slope, c2], [(gap, slope), (gap, vs)],
                     atol=_CHANNEL_TOL, rtol=0.0, what="channel term", at=vs)


def channel_term(varsigma_p: float, prior: BernoulliGaussianPrior) -> float:
    """Scalar channel term; see `channel_term_batch`."""
    return float(channel_term_batch([varsigma_p], prior)[0])


# ----------------------------------------------------------------------
# inner extremization (row-orthogonal ensemble)
# ----------------------------------------------------------------------

def _solve_lambda(eps, spec: CouplingSpec, Lambda0=None,
                  tol: float = _INNER_TOL, max_iter: int = _INNER_MAX_ITER,
                  damping: float = _INNER_DAMPING):
    """Solve the stationarity system Lambda = (1 - Delta(Lambda)) / eps.

    eps has shape (..., L_c); the solve is vectorized over the leading
    axes and over block rows (rows are independent).  Damped fixed-point
    iteration in log Lambda keeps the iterates positive; a final undamped
    projection lands exactly on the map so downstream identities hold to
    machine precision.

    Returns (Lambda, Delta, 1 - Delta, clamped), arrays of shape
    (..., L_r, L_c); 1 - Delta is carried separately because it is
    computed without cancellation.
    """
    eps = np.asarray(eps, dtype=float)
    gamma = spec.gamma
    J = spec.J
    active = J > 0
    if np.any(spec.alpha[active] > 1.0):
        # the replica counterpart of M_q <= N_p in `build_coupled_operator`
        raise ValueError("row-orthogonal blocks need alpha[q, p] <= 1 wherever J[q, p] > 0: "
                         "a block cannot have more orthogonal rows than columns")
    if np.any(eps[..., active.any(axis=0)] <= 0):
        raise ValueError("eps must be > 0 on every coupled block")
    alpha = spec.alpha
    sigma2 = spec.sigma2
    eps_b = eps[..., None, :]
    inv_eps = np.broadcast_to(1.0 / eps_b, eps_b.shape[:-2] + (spec.L_r, spec.L_c)).copy()
    Lam = inv_eps.copy() if Lambda0 is None else np.array(np.broadcast_to(Lambda0, inv_eps.shape), dtype=float)
    clamped = False
    if np.any(Lam[..., active] <= 0):
        Lam = np.where(Lam > 0, Lam, _LAMBDA_FLOOR)
        clamped = True

    def delta_of(Lam):
        """Delta and 1 - Delta, the latter in a cancellation-free form.

        1 - Delta = (sigma2 + sum_{l != p} W_l + (1 - alpha) W_p) / (sigma2 + S)
        stays accurate as Delta -> 1 (rates close to one), where the naive
        subtraction loses all precision.
        """
        W = np.where(active, gamma[None, :] * J / Lam, 0.0)
        S = W.sum(axis=-1, keepdims=True)
        den = sigma2 + S
        Delta = np.where(active, alpha * W / den, 0.0)
        omd = np.where(active, (sigma2 + (S - W) + (1.0 - alpha) * W) / den, 1.0)
        return Delta, omd

    def residual_of(log_lam, omd):
        log_target = np.log(omd) - log_eps
        return log_target, np.abs(np.where(active, log_target - log_lam, 0.0)).max()

    log_eps = np.log(eps_b)
    trail = []  # last iterates, for Aitken extrapolation of slow modes
    for it in range(max_iter):
        Delta, omd = delta_of(Lam)
        if np.any(omd[..., active] <= 0.0):
            worst = np.unravel_index(int(np.argmax(np.where(active, Delta, 0.0))),
                                     Delta.shape)
            raise ConvergenceError(
                f"Delta >= 1 in inner extremization at block (q, p) = {worst[-2:]}",
                residual=float(Delta[..., active].max()))
        log_lam = np.log(Lam)
        log_target, resid = residual_of(log_lam, omd)
        if resid < tol:
            Lam = np.where(active, np.exp(log_target), inv_eps)
            Delta, omd = delta_of(Lam)
            return Lam, Delta, omd, clamped
        log_new = (1.0 - damping) * log_target + damping * log_lam
        trail.append(log_new)
        if len(trail) > 3:
            trail.pop(0)
        if len(trail) == 3 and it % 16 == 15:
            # near-degenerate corners contract like 1 - O(1 - alpha); Aitken
            # jumps along the dominant geometric mode when it helps
            d1 = trail[2] - trail[1]
            d0 = trail[1] - trail[0]
            denom = d1 - d0
            safe = np.abs(denom) > 1e-15
            step = np.where(safe, -np.square(d1) / np.where(safe, denom, 1.0), 0.0)
            log_acc = trail[2] + np.clip(step, -4.0, 4.0)
            lam_acc = np.where(active, np.exp(log_acc), inv_eps)
            _, resid_acc = residual_of(log_acc, delta_of(lam_acc)[1])
            lam_new = np.where(active, np.exp(log_new), inv_eps)
            _, resid_new = residual_of(log_new, delta_of(lam_new)[1])
            if resid_acc < resid_new:
                log_new = log_acc
                trail.clear()
        Lam = np.where(active, np.exp(log_new), inv_eps)
        if np.any(Lam[..., active] < _LAMBDA_FLOOR):
            Lam = np.maximum(Lam, _LAMBDA_FLOOR)
            clamped = True
    raise ConvergenceError(
        f"inner extremization did not reach {tol} in {max_iter} iterations",
        residual=float(resid))


def _g_orth_values(eps, spec: CouplingSpec, Lam):
    """G_q at the extremizer, shape (..., L_r); -inf where sigma2 = 0 (log divergence)."""
    gamma = spec.gamma
    active = spec.J > 0
    W = np.where(active, gamma[None, :] * spec.J / Lam, 0.0)
    S = W.sum(axis=-1)
    if np.any(S > 0):
        with np.errstate(divide="ignore"):
            log_term = -spec.row_rates * np.log1p(S / spec.sigma2)
    else:
        log_term = np.zeros_like(S)
    prod = Lam * np.asarray(eps, dtype=float)[..., None, :]
    bracket = np.where(active, prod - np.log(np.where(active, prod, 1.0)) - 1.0, 0.0)
    return log_term + (gamma[None, :] * bracket).sum(axis=-1)


def g_orth(eps, spec: CouplingSpec, q: int):
    """Extremized G for block row q of the row-orthogonal ensemble.

    Returns (value, Lambda_row, Delta_row).  The extremizer solves
    Lambda[q,p] = (1 - Delta[q,p]) / eps[p]; rows are independent, so the
    row is read out of the joint solve.
    """
    eps = np.asarray(eps, dtype=float)
    Lam, Delta, _, _ = _solve_lambda(eps, spec)
    value = _g_orth_values(eps, spec, Lam)[q]
    return float(value), Lam[q].copy(), Delta[q].copy()


def g_gauss(eps, spec: CouplingSpec, q: int) -> float:
    """G for block row q of the i.i.d. Gaussian ensemble (no extremization)."""
    if spec.sigma2 == 0.0:
        raise ValueError("Gaussian free entropy diverges at sigma2 = 0")
    eps = np.asarray(eps, dtype=float)
    s = float((spec.gamma * spec.J[q] * eps).sum())
    return float(-spec.row_rates[q] * np.log1p(s / spec.sigma2))


# ----------------------------------------------------------------------
# conjugate parameters and free entropy
# ----------------------------------------------------------------------

def _conjugates_batch(eps, spec: CouplingSpec, kind: Ensemble, Lambda0=None):
    """varsigma, Lambda, Delta, clamped for eps of shape (..., L_c)."""
    eps = np.asarray(eps, dtype=float)
    active = spec.J > 0
    if kind is Ensemble.ROW_ORTHOGONAL:
        Lam, Delta, omd, clamped = _solve_lambda(eps, spec, Lambda0=Lambda0)
        sig = np.where(active, Lam * Delta / omd, 0.0)
        return sig, Lam, Delta, clamped
    eps_b = eps[..., None, :]
    terms = spec.gamma[None, :] * spec.J * eps_b
    S = terms.sum(axis=-1, keepdims=True)
    den = spec.sigma2 + S
    sig = np.where(active, spec.alpha * spec.gamma[None, :] * spec.J / den, 0.0)
    # synthesize Lambda/Delta through the fixed-point identities so both
    # ensembles expose the same state shape; 1/eps - sig is rearranged to
    # avoid cancellation at rates close to one
    Delta = sig * eps_b
    lam_num = spec.sigma2 + (S - terms) + (1.0 - spec.alpha) * terms
    Lam = np.where(active, lam_num / (den * eps_b), 1.0 / eps_b)
    return sig, Lam, Delta, False


def conjugate_fixed_point(eps, spec: CouplingSpec, kind: Ensemble,
                          Lambda0=None) -> ConjugateState:
    """Conjugate parameters at stationarity of F for a given block MSE vector.

    Row-orthogonal: solves the inner extremization, then
    varsigma = Lambda Delta / (1 - Delta)  (= Delta / eps at the solution).
    Gaussian: varsigma[q,p] = alpha[q,p] gamma[p] J[q,p] /
    (sigma2 + sum_l gamma[l] J[q,l] eps[l]).
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (spec.L_c,):
        raise ValueError(f"eps must have shape ({spec.L_c},)")
    sig, Lam, Delta, clamped = _conjugates_batch(eps, spec, kind, Lambda0=Lambda0)
    return ConjugateState(eps=eps.copy(), varsigma=sig, Lambda=Lam, Delta=Delta,
                          clamped=clamped)


def free_entropy_grid(eps_grid, spec: CouplingSpec, kind: Ensemble) -> np.ndarray:
    """F evaluated at many MSE vectors at once; eps_grid has shape (n, L_c).

    Conjugates are set to their stationary values at each eps (partial
    extremization), so local maxima over eps coincide with state-evolution
    fixed points.  All channel terms of the batch go through one
    vectorized `channel_term_batch` call.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.ndim != 2 or eps_grid.shape[1] != spec.L_c:
        raise ValueError(f"eps_grid must have shape (n, {spec.L_c})")
    if spec.sigma2 == 0.0:
        raise ValueError("free entropy diverges at sigma2 = 0; only the "
                         "state-evolution conjugates are defined there")
    sig, Lam, _, _ = _conjugates_batch(eps_grid, spec, kind)
    sig_p = sig.sum(axis=-2)
    ct = channel_term_batch(sig_p.ravel(), spec.prior).reshape(sig_p.shape)
    term_channel = (spec.gamma[None, :] * ct).sum(axis=-1)
    term_cross = (spec.gamma[None, None, :] * eps_grid[:, None, :] * sig).sum(axis=(-2, -1))
    if kind is Ensemble.ROW_ORTHOGONAL:
        g = _g_orth_values(eps_grid, spec, Lam).sum(axis=-1)
    else:
        s = (spec.gamma[None, None, :] * spec.J[None] * eps_grid[:, None, :]).sum(axis=-1)
        g = (-spec.row_rates[None, :] * np.log1p(s / spec.sigma2)).sum(axis=-1)
    return term_channel + term_cross + g + (1.0 - spec.total_rate)


def free_entropy(eps, spec: CouplingSpec, kind: Ensemble) -> float:
    """Replica free entropy at one MSE vector (conjugates extremized)."""
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (spec.L_c,):
        raise ValueError(f"eps must have shape ({spec.L_c},)")
    return float(free_entropy_grid(eps[None, :], spec, kind)[0])
