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
ensemble G_q is extremized over Lambda_{q,p} (one scalar root per block
row, see `_solve_lambda`); Gaussian = the same G at Lambda = 1/eps,
where the bracket vanishes and only the log remains.  The conjugate
precisions sig_{q,p} = Delta_{q,p} / eps_p, Delta = alpha W / (sigma2 + S_q)
with W_{q,p} = gamma_p J_{q,p} / Lambda_{q,p}, are fixed by stationarity
of F at given eps, which is what `conjugate_fixed_point` computes.  Local
maxima of F(eps) are exactly the fixed points of the MSE state evolution.
"""

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._quadrature import integrate
from .errors import ConvergenceError
from .scalar_channel import BernoulliGaussianPrior

_CHANNEL_TOL = 1e-10
_INNER_TOL = 1e-10
_INNER_MAX_STEPS = 100
NO_NOISE_MESSAGE = ("free entropy diverges at sigma2 = 0; only the state-evolution "
                    "conjugates are defined there")


class Ensemble(enum.Enum):
    """Measurement ensemble of each block: subsampled-DFT rows or i.i.d. Gaussian."""

    ROW_ORTHOGONAL = "orthogonal"
    GAUSSIAN_IID = "gaussian"


def _check_ensemble(kind) -> None:
    """Raise ValueError unless kind is an Ensemble member (its value string is not one)."""
    if not isinstance(kind, Ensemble):
        raise ValueError(f"kind must be an Ensemble member, got {kind!r}")


class _Band(NamedTuple):
    """Per-spec constants of G and of the inner solve (`CouplingSpec._band`).

    live marks the blocks with J > 0 in rows that measure (alpha > 0); gamma
    J is zero off the band, so W = gamma J / Lambda and Delta vanish there
    unmasked.  rates_ok is alpha <= 1 on the band, which the row-orthogonal
    ensemble needs.

    The inner solve runs in a band-compact (L_r, B) layout, B the largest
    number of J > 0 blocks in a row: entry (q, b) is block (q, cols[q, b]),
    and flat is its index in the flattened (L_r, L_c) grid.  Row q lists its
    J > 0 columns in order, then J = 0 columns, where gamma J is zero too.
    gJ_c, alpha_c and dead_c are gamma J, alpha and ~live in that layout; a
    row without measurements is solved at alpha = 1/2 and then reset to
    Delta = 0.  S = ones((B, B)) sums a compact row into each of its entries,
    and ar numbers the entries of a row.  zero, one, half, four, tol and s2
    hold 0, 1, 1/2, 4, _INNER_TOL and sigma2 in every entry: the solve's
    numpy calls take operands of one shape, which costs less per call than a
    Python scalar or a broadcast operand.
    """

    live: np.ndarray
    gJ: np.ndarray
    rates_ok: bool
    cols: np.ndarray
    flat: np.ndarray
    gJ_c: np.ndarray
    alpha_c: np.ndarray
    dead_c: np.ndarray
    S: np.ndarray
    ar: np.ndarray
    zero: np.ndarray
    one: np.ndarray
    half: np.ndarray
    four: np.ndarray
    tol: np.ndarray
    s2: np.ndarray


@dataclass(frozen=True)
class CouplingSpec:
    """Block structure of a coupled measurement system.

    The L_r x L_c block grid is read off alpha's shape: gamma has shape
    (L_c,) and J has alpha's shape.  gamma[p] = N_p / N must sum to one,
    and alpha[q, p] * gamma[p] = M_q / N must not depend on p (each
    measurement row block has one size).  Every block row and block column
    must touch at least one J > 0 entry, otherwise some part of the system
    is disconnected.
    """

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
            if not np.logical_and.reduce(np.isfinite(value), axis=None):
                raise ValueError(f"{name} must be finite")
        if alpha.ndim != 2 or alpha.size == 0:
            raise ValueError(f"alpha must be a nonempty 2-D array, got shape {alpha.shape}")
        if gamma.shape != alpha.shape[1:] or J.shape != alpha.shape:
            raise ValueError(f"gamma must have shape {alpha.shape[1:]} and J {alpha.shape}")
        if not np.logical_and.reduce(gamma > 0):
            raise ValueError("gamma: all block fractions must be > 0")
        if abs(gamma.sum() - 1.0) > 1e-12:
            raise ValueError(f"gamma must sum to 1, got {gamma.sum()!r}")
        if np.logical_or.reduce(alpha < 0, axis=None):
            raise ValueError("alpha: measurement rates must be >= 0")
        rates = alpha * gamma[None, :]
        if np.logical_or.reduce(np.abs(rates - rates[:, :1]) > 1e-12, axis=None):
            raise ValueError("alpha: alpha[q,p] * gamma[p] must be constant over p")
        if np.logical_or.reduce(J < 0, axis=None):
            raise ValueError("J: coupling variances must be >= 0")
        if not np.logical_and.reduce(np.logical_or.reduce(J > 0, axis=1)):
            raise ValueError("J: every block row needs at least one J > 0 entry")
        if not np.logical_and.reduce(np.logical_or.reduce(J > 0, axis=0)):
            raise ValueError("J: every block column needs at least one J > 0 entry")
        if not (self.sigma2 >= 0):
            raise ValueError("sigma2 must be >= 0")

    @property
    def L_r(self) -> int:
        """Number of block rows."""
        return self.alpha.shape[0]

    @property
    def L_c(self) -> int:
        """Number of block columns."""
        return self.alpha.shape[1]

    @cached_property
    def _band(self) -> _Band:
        """Per-spec constants of G and of the inner solve; see `_Band`."""
        on = self.J > 0
        live = on & (self.alpha > 0)
        gJ = self.gamma * self.J
        B = int(np.add.reduce(on, axis=1).max())
        cols = np.argsort(~on, axis=1, kind="stable")[:, :B]
        flat = cols + self.L_c * np.arange(self.L_r)[:, None]
        alpha = np.where(self.alpha[:, :1] > 0, self.alpha, 0.5)
        return _Band(live, gJ, not np.logical_or.reduce(self.alpha[on] > 1.0), cols, flat,
                     gJ.take(flat), alpha.take(flat), ~live.take(flat), np.ones((B, B)),
                     np.arange(B), *(np.full(cols.shape, v) for v in
                                     (0.0, 1.0, 0.5, 4.0, _INNER_TOL, float(self.sigma2))))

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
        gamma=np.ones(1),
        alpha=np.full((1, 1), float(alpha)),
        J=np.ones((1, 1)),
        sigma2=float(sigma2),
        prior=BernoulliGaussianPrior(rho),
    )


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
    # NaN fails both comparisons
    if not (0 < np.minimum.reduce(vs, initial=np.inf)
            and np.maximum.reduce(vs, initial=0.0) < np.inf):
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

    with np.errstate(over="ignore"):
        return integrate(integrand, [vs, slope, c2], [(gap, slope), (gap, vs)],
                         atol=_CHANNEL_TOL, what="channel term", at=vs)


# ----------------------------------------------------------------------
# the inner extremization (row-orthogonal ensemble)
# ----------------------------------------------------------------------

def _row_residual(z, row, k1, k0):
    """f = sum_{p != p*} w_p + sigma2 tau + k1 z - k0 and f' at z, per row; see `_solve_lambda`.

    z, k1, k0 and the results hold each row's value in every entry of the row.
    """
    cA2, cA, q, s2A, S, one = row
    zz, e = z * (one - z), one - (z + z)
    d = np.sqrt(e * e + q * zz)
    return (((cA2 / (one + d)) @ S + s2A) * zz + k1 * z - k0,
            ((cA / d) @ S + s2A) * e + k1)


def _solve_lambda(eps, spec: CouplingSpec, Lambda0=None):
    """Solve Lambda = (1 - Delta(Lambda)) / eps, eps of shape (..., L_c), as one root per row.

    With tau = 1 / (sigma2 + S_q), c_p = gamma_p J_qp eps_p and w_p = Delta_p /
    alpha_qp, row q needs Delta_p (1 - Delta_p) = alpha_qp c_p tau and sum_p w_p +
    sigma2 tau = 1.  Only p*, the block of largest A = alpha c, may have Delta >=
    1/2 (a second one, or one of larger alpha c, makes sum_p w_p > 1).  In z =
    min(Delta_p*, 1 - Delta_p*), tau = z (1 - z) / A and each other block has w_p =
    2 c_p tau / (1 + d_p), d_p^2 = (1 - 2z)^2 + 4 (1 - alpha_qp c_p / A) z (1 - z).
    If Delta_p* = z, f = sum_p w_p + sigma2 tau - 1 rises from -1 at z = 0: its root
    is unique, in (0, 1/2] iff f(1/2) >= 0, as w_p >= c_p tau ensures when sum_p c_p
    + c_p* + sigma2 >= 4 A.  Else Delta_p* = 1 - z and f = sum_{p != p*} w_p + sigma2
    tau + ((1 - alpha*) - z) / alpha* is >= 0 at z = 1 - alpha*, < 0 at 1/2 (the
    tests check that root unique).  Newton steps, bisecting when they leave the
    bracket, start from the tau of Lambda0 (or 1/eps) and stop, taking the last step,
    once each row's step or bracket is within _INNER_TOL z.

    The solve runs in the band-compact layout of `CouplingSpec._band`, shape (...,
    L_r, B), and holds each row's A, alpha*, z, bracket and step in every entry of
    the row.  Returns (Lambda, Delta, 1 - Delta) of shape (..., L_r, L_c), the last
    free of cancellation; J = 0 entries and rows that do not measure carry 1/eps, 0
    and 1.
    """
    band = spec._band
    if not band.rates_ok:
        # the replica counterpart of M_q <= N_p in `build_coupled_operator`
        raise ValueError("row-orthogonal blocks need alpha[q, p] <= 1 wherever J[q, p] > 0: "
                         "a block cannot have more orthogonal rows than columns")
    alpha, S, flat = band.alpha_c, band.S, band.flat
    zero, one, half, four, s2 = band.zero, band.one, band.half, band.four, band.s2
    shape = eps.shape[:-1] + band.live.shape
    if len(shape) > 2:   # the (L_r, L_c) grid of each MSE vector follows the last one's
        batch = np.arange(eps.size // spec.L_c).reshape(shape[:-2] + (1, 1))
        flat = flat + band.live.size * batch
    c = band.gJ_c * eps.take(band.cols, axis=-1)
    ac = alpha * c
    is_star = ac.argmax(axis=-1)[..., None] == band.ar   # p*: the first block of largest alpha c
    star = is_star.astype(float)
    A, a_star, C = (ac * star) @ S, (alpha * star) @ S, c @ S
    cA = (c - c * star) / A
    # the 1e-300 keeps d > 0 on a block tied with p* at z = 1/2, below the rounding of other d
    row = (cA + cA, cA, (A - ac) * (four / A) + 1e-300, s2 / A, S, one)
    big, k1, k0 = False, one / a_star, one
    z_neg = np.zeros(A.shape)
    z_pos = z_neg + half
    low = z_neg   # the bracket's lower end, 1 - alpha* on a big row
    maybe_big = C + A / a_star + s2 < four * A
    if np.count_nonzero(maybe_big):
        big = maybe_big & (_row_residual(0.5, row, k1, one)[0] < 0.0)
        # a big row has alpha* > 1/2, where alpha* - 1 is exact
        k1, k0 = np.where(big, -k1, k1), np.where(big, (a_star - 1.0) * k1, 1.0)
        z_neg, z_pos = np.where(big, 0.5, 0.0), np.where(big, 1.0 - a_star, 0.5)
        low = np.minimum(z_neg, z_pos)
    with np.errstate(all="ignore"):  # Lambda0 <= 0 gives a NaN or negative tau: start low
        if Lambda0 is not None:
            W0 = band.gJ / Lambda0
            C = (W0 if W0.shape == shape else np.broadcast_to(W0, shape)).take(flat) @ S
        t = A / (s2 + C)
        z = np.fmin(np.fmax((t + t) / (one + np.sqrt(np.fmax(one - four * t, zero))), low),
                    half)  # z (1 - z) = A tau
    tol = band.tol
    for _ in range(_INNER_MAX_STEPS):
        f, df = _row_residual(z, row, k1, k0)
        step, below = f / df, f < zero
        np.putmask(z_neg, below, z)
        np.putmask(z_pos, ~below, z)
        # rounding can hold a nearly singular row's step above tolerance; its bracket closes
        done = np.count_nonzero(np.minimum(abs(step), abs(z_pos - z_neg)) <= tol * z) == z.size
        new = z - step
        inside = (new - z_neg) * (new - z_pos) <= zero
        z = new if np.count_nonzero(inside) == z.size else \
            np.where(inside, new, z if done else 0.5 * (z_neg + z_pos))
        if done:
            break
    else:
        raise ConvergenceError(f"inner extremization did not reach {_INNER_TOL} in "
                               f"{_INNER_MAX_STEPS} steps", residual=float(abs(f).max()))
    zz, e = z * (one - z), one - (z + z)
    d1 = one + np.sqrt(e * e + row[2] * zz)
    Delta_c, omd_c = alpha * row[0] * zz / d1, half * d1
    if big is False:
        Delta_c += star * z
    else:
        Delta_c += star * np.where(big, 1.0 - z, z)
        np.putmask(omd_c, is_star & big, z)
    np.copyto(Delta_c, 0.0, where=band.dead_c)
    np.copyto(omd_c, 1.0, where=band.dead_c)
    # 1 - Delta = (1 + d) / 2 >= 1/2 but on the p* of a big row
    if big is not False and np.count_nonzero(omd_c <= 0.0):
        *_, q, b = np.unravel_index(int(np.argmax(Delta_c)), Delta_c.shape)
        raise ConvergenceError(f"Delta >= 1 in inner extremization at block (q, p) = "
                               f"({q}, {band.cols[q, b]})", residual=float(Delta_c.max()))
    Delta = np.zeros(shape)
    omd = Delta + 1.0
    Delta.put(flat, Delta_c)
    omd.put(flat, omd_c)
    return omd / eps[..., None, :], Delta, omd


def _g_values(eps, spec: CouplingSpec, Lam):
    """G_q at Lambda of shape (..., L_r, L_c), per row: shape (..., L_r); needs sigma2 > 0."""
    live = spec._band.live
    S = (spec._band.gJ / Lam).sum(axis=-1)
    prod = Lam * np.asarray(eps, dtype=float)[..., None, :]
    bracket = np.where(live, prod - np.log(np.where(live, prod, 1.0)) - 1.0, 0.0)
    return -spec.row_rates * np.log1p(S / spec.sigma2) + (spec.gamma * bracket).sum(axis=-1)


# ----------------------------------------------------------------------
# conjugate parameters and free entropy
# ----------------------------------------------------------------------

def conjugate_fixed_point(eps, spec: CouplingSpec, kind: Ensemble, Lambda0=None):
    """(varsigma, Lambda) at stationarity of F for block MSE vectors eps of shape (..., L_c).

    Both arrays have shape (..., L_r, L_c).  varsigma = Delta / eps, and
    Lambda solves the inner extremization Lambda = (1 - Delta) / eps
    (row-orthogonal, warm-started at Lambda0) or is 1/eps (Gaussian,
    Lambda0 unused), which makes varsigma alpha gamma J / (sigma2 +
    sum_l gamma_l J_{q,l} eps_l).  Entries with J[q, p] = 0 carry varsigma
    = 0 and Lambda = 1/eps[p].  Delta is not returned: it is varsigma *
    eps.  Raises ValueError unless kind is an Ensemble and eps is finite
    and > 0.
    """
    _check_ensemble(kind)
    eps = np.asarray(eps, dtype=float)
    if eps.shape[-1:] != (spec.L_c,):
        raise ValueError(f"eps must have shape (..., {spec.L_c})")
    # NaN fails every comparison, so only a test that eps passes rejects it
    if not (0 < np.minimum.reduce(eps, axis=None, initial=np.inf)
            and np.maximum.reduce(eps, axis=None, initial=0.0) < np.inf):
        raise ValueError("eps must be > 0 and finite on every coupled block")
    eps_b = eps[..., None, :]
    if kind is Ensemble.ROW_ORTHOGONAL:
        Lam, Delta, _ = _solve_lambda(eps, spec, Lambda0=Lambda0)
    else:
        Lam = (1.0 / eps_b).repeat(spec.L_r, axis=-2)
        W = spec._band.gJ / Lam
        Delta = spec.alpha * W / (spec.sigma2 + np.add.reduce(W, axis=-1, keepdims=True))
    return Delta / eps_b, Lam


def free_entropy_grid(eps_grid, spec: CouplingSpec, kind: Ensemble) -> np.ndarray:
    """F of shape (n,) at many MSE vectors at once; eps_grid has shape (n, L_c).

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
    varsigma, Lam = conjugate_fixed_point(eps_grid, spec, kind)
    sig_p = varsigma.sum(axis=-2)
    ct = channel_term_batch(sig_p.ravel(), spec.prior).reshape(sig_p.shape)
    term_channel = (spec.gamma[None, :] * ct).sum(axis=-1)
    term_cross = (spec.gamma * eps_grid[:, None, :] * varsigma).sum(axis=(-2, -1))
    g = _g_values(eps_grid, spec, Lam).sum(axis=-1)
    return term_channel + term_cross + g + (1.0 - spec.total_rate)

