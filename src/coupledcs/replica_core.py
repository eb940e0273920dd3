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

with sig_p = sum_q sig_{q,p} and

    G_q(eps; Lambda) = -(M_q / N) log(1 + S_q / sigma2)
                     + sum_p gamma_p (Lambda_{q,p} eps_p - log(Lambda_{q,p} eps_p) - 1),

S_q = sum_p gamma_p J_{q,p} / Lambda_{q,p}.  For the row-orthogonal
ensemble G_q is extremized over Lambda_{q,p} (Newton on each row's
diagonal-plus-rank-one system); Gaussian = the same G at Lambda = 1/eps,
where the bracket vanishes and only the log remains.  The conjugate
precisions sig_{q,p} = Delta_{q,p} / eps_p, Delta = alpha W / (sigma2 + S_q)
with W_{q,p} = gamma_p J_{q,p} / Lambda_{q,p}, are fixed by stationarity
of F at given eps, which is what `conjugate_fixed_point` computes.  Local
maxima of F(eps) are exactly the fixed points of the MSE state evolution.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._quadrature import integrate
from .errors import ConvergenceError
from .scalar_channel import BernoulliGaussianPrior

_CHANNEL_TOL = 1e-10
_INNER_TOL = 1e-12
_INNER_MAX_STEPS = 100
_LAMBDA_FLOOR = 1e-12
NO_NOISE_MESSAGE = ("free entropy diverges at sigma2 = 0; only the state-evolution "
                    "conjugates are defined there")


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
        if np.any(alpha < 0):
            raise ValueError("alpha: measurement rates must be >= 0")
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

    @cached_property
    def _band(self):
        """Per-spec constants of the Delta map: (J > 0, gamma J, 1 - alpha, rates_ok).

        gamma J is zero off the band, so W = gamma J / Lambda and Delta vanish
        there unmasked; rates_ok is alpha <= 1 on the band, which the
        row-orthogonal ensemble needs.
        """
        active = self.J > 0
        return active, self.gamma * self.J, 1.0 - self.alpha, not np.any(self.alpha[active] > 1.0)

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
    """Conjugate parameters per block (q, p) at one block MSE vector eps.

    Lambda is the inner extremizer for the row-orthogonal ensemble and
    1/eps[p] for the Gaussian one.  Entries with J[q, p] = 0 carry
    varsigma = 0, Delta = 0 and Lambda = 1/eps[p].  ``clamped`` flags an
    inner-solver positivity clamp.
    """

    varsigma: np.ndarray
    Lambda: np.ndarray
    Delta: np.ndarray
    clamped: bool


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
        return np.exp(-s) * (-s + (1.0 - rho) * _log_sum_exp(c1, c2 + slope * s)
                             + rho * _log_sum_exp(c1 - vs * s, c2))

    return integrate(integrand, [vs, slope, c2], [(gap, slope), (gap, vs)],
                     atol=_CHANNEL_TOL, rtol=0.0, what="channel term", at=vs)


# ----------------------------------------------------------------------
# the Delta map and the inner extremization (row-orthogonal ensemble)
# ----------------------------------------------------------------------

def _delta_map(Lam, spec: CouplingSpec):
    """(W, sigma2 + S, Delta): W = gamma J / Lambda, S = sum_p W, Delta = alpha W / (sigma2 + S).

    Lam has shape (..., L_r, L_c) and is positive; entries with J = 0 carry
    W = Delta = 0.
    """
    W = spec._band[1] / Lam
    den = spec.sigma2 + W.sum(axis=-1, keepdims=True)
    return W, den, spec.alpha * W / den


def _solve_lambda(eps, spec: CouplingSpec, Lambda0=None):
    """Solve the stationarity system Lambda = (1 - Delta(Lambda)) / eps.

    eps has shape (..., L_c); the solve is vectorized over the leading
    axes and over block rows (rows are independent).  Newton on the row's
    diagonal-plus-rank-one system in x = log Lambda keeps the iterates
    positive, with every step bounded in log Lambda.  The solve stops at
    the first iterate whose residual |log(1 - Delta) - log eps - log Lambda|
    is below _INNER_TOL on every block with J > 0, and returns that
    iterate's undamped projection Lambda = (1 - Delta) / eps together with
    the Delta and 1 - Delta it was projected from, so that Lambda eps =
    1 - Delta holds to rounding.  Entries with J = 0 carry Lambda = 1/eps,
    Delta = 0 and 1 - Delta = 1.

    Returns (Lambda, Delta, 1 - Delta, clamped), arrays of shape
    (..., L_r, L_c); 1 - Delta is carried separately because it is
    computed without cancellation.
    """
    active, _, one_minus_alpha, rates_ok = spec._band
    if not rates_ok:
        # the replica counterpart of M_q <= N_p in `build_coupled_operator`
        raise ValueError("row-orthogonal blocks need alpha[q, p] <= 1 wherever J[q, p] > 0: "
                         "a block cannot have more orthogonal rows than columns")
    sigma2 = spec.sigma2
    eps = np.asarray(eps, dtype=float)
    log_eps = np.log(eps)[..., None, :]
    inv_eps = 1.0 / eps[..., None, :]
    Lam = inv_eps if Lambda0 is None else np.asarray(Lambda0, dtype=float)
    clamped = bool(np.any((Lam <= 0) & active))
    Lam = np.where(active, np.where(Lam > 0, Lam, _LAMBDA_FLOOR), inv_eps)
    for _ in range(_INNER_MAX_STEPS):
        W, den, Delta = _delta_map(Lam, spec)
        # 1 - Delta = (sigma2 + sum_{l != p} W_l + (1 - alpha) W_p) / (sigma2 + S), with a
        # prefix plus a suffix sum over l != p, stays accurate as Delta -> 1 and in rows
        # one block dominates, where 1 - Delta or S - W_p would not
        before = np.zeros(W.shape)
        np.cumsum(W[..., :-1], axis=-1, out=before[..., 1:])
        after = np.zeros(W.shape)
        np.cumsum(W[..., :0:-1], axis=-1, out=after[..., -2::-1])
        omd = (sigma2 + (before + after) + one_minus_alpha * W) / den
        if np.any(omd <= 0.0, where=active):
            worst = np.unravel_index(int(np.argmax(Delta)), Delta.shape)
            raise ConvergenceError(
                f"Delta >= 1 in inner extremization at block (q, p) = {worst[-2:]}",
                residual=float(Delta.max()))
        log_target = np.log(omd) - log_eps
        # off the band g is rounding-sized and, with w = u = 0 there, stays out of the step
        g = log_target - np.log(Lam)
        resid = np.abs(g).max(where=active, initial=0.0)
        if resid < _INNER_TOL:
            return (np.where(active, np.exp(log_target), inv_eps), Delta,
                    np.where(active, omd, 1.0), clamped)
        # g = log(1 - Delta) - log eps - x has the Jacobian -(diag(1 - r) + r w^T),
        # r = Delta / (1 - Delta), w = W / (sigma2 + S).  A block with Delta < 1/2 is
        # eliminated through its diagonal; the one block per row that may have
        # Delta >= 1/2 (w sums to at most one) is solved last instead of divided by
        # its diagonal 1 - r.
        w = W / den
        r = Delta / omd
        one_minus_r = 1.0 - r
        big = Delta >= 0.5
        d = np.where(big, 1.0, one_minus_r)
        u = np.where(big, 0.0, w / d)
        a = (u * g).sum(axis=-1, keepdims=True)
        b = 1.0 + (u * r).sum(axis=-1, keepdims=True)
        step_big = np.where(big, (b * g - r * a) / (b * one_minus_r + r * w), 0.0)
        s = ((w * step_big).sum(axis=-1, keepdims=True) + a) / b
        Lam *= np.exp(np.clip(np.where(big, step_big, (g - r * s) / d), -4.0, 4.0))
        if np.any(Lam < _LAMBDA_FLOOR, where=active):
            Lam = np.maximum(Lam, _LAMBDA_FLOOR)
            clamped = True
    raise ConvergenceError(
        f"inner extremization did not reach {_INNER_TOL} in {_INNER_MAX_STEPS} Newton steps",
        residual=float(resid))


def _g_values(eps, spec: CouplingSpec, Lam):
    """G_q at Lambda of shape (..., L_r, L_c), per row: shape (..., L_r); needs sigma2 > 0."""
    active = spec._band[0]
    S = _delta_map(Lam, spec)[0].sum(axis=-1)
    prod = Lam * np.asarray(eps, dtype=float)[..., None, :]
    bracket = np.where(active, prod - np.log(np.where(active, prod, 1.0)) - 1.0, 0.0)
    return -spec.row_rates * np.log1p(S / spec.sigma2) + (spec.gamma * bracket).sum(axis=-1)


# ----------------------------------------------------------------------
# conjugate parameters and free entropy
# ----------------------------------------------------------------------

def _conjugates_batch(eps, spec: CouplingSpec, kind: Ensemble, Lambda0=None):
    """varsigma = Delta / eps, Lambda, Delta, clamped for eps of shape (..., L_c).

    Lambda is the inner extremizer (row-orthogonal) or held at 1/eps (Gaussian).
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("eps must be > 0 on every coupled block")
    eps_b = eps[..., None, :]
    if kind is Ensemble.ROW_ORTHOGONAL:
        Lam, Delta, _, clamped = _solve_lambda(eps, spec, Lambda0=Lambda0)
    else:
        Lam, clamped = np.repeat(1.0 / eps_b, spec.L_r, axis=-2), False
        Delta = _delta_map(Lam, spec)[2]
    return Delta / eps_b, Lam, Delta, clamped


def conjugate_fixed_point(eps, spec: CouplingSpec, kind: Ensemble,
                          Lambda0=None) -> ConjugateState:
    """Conjugate parameters at stationarity of F for a given block MSE vector.

    varsigma = Delta / eps, with Lambda the solution of the inner
    extremization Lambda = (1 - Delta) / eps (row-orthogonal, warm-started
    at Lambda0) or 1/eps (Gaussian, Lambda0 unused), which makes varsigma
    alpha gamma J / (sigma2 + sum_l gamma_l J_{q,l} eps_l).  Raises
    ValueError unless eps > 0.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (spec.L_c,):
        raise ValueError(f"eps must have shape ({spec.L_c},)")
    sig, Lam, Delta, clamped = _conjugates_batch(eps, spec, kind, Lambda0=Lambda0)
    return ConjugateState(varsigma=sig, Lambda=Lam, Delta=Delta, clamped=clamped)


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
        raise ValueError(NO_NOISE_MESSAGE)
    sig, Lam, _, _ = _conjugates_batch(eps_grid, spec, kind)
    sig_p = sig.sum(axis=-2)
    ct = channel_term_batch(sig_p.ravel(), spec.prior).reshape(sig_p.shape)
    term_channel = (spec.gamma[None, :] * ct).sum(axis=-1)
    term_cross = (spec.gamma[None, None, :] * eps_grid[:, None, :] * sig).sum(axis=(-2, -1))
    g = _g_values(eps_grid, spec, Lam).sum(axis=-1)
    return term_channel + term_cross + g + (1.0 - spec.total_rate)

