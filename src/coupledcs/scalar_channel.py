"""Scalar complex AWGN channel with a Bernoulli-Gaussian prior.

The channel is y = x + varsigma^{-1/2} z with z standard complex Gaussian
and varsigma the channel precision (inverse noise variance).  The prior
puts mass 1-rho at zero and draws the remaining entries from a standard
complex Gaussian, so the prior second moment is rho.

Provides the posterior mean, the exact scalar mmse by 1-D quadrature
(the circularly-symmetric 2-D integral reduces to a radial one, which
the package's fixed Gauss-Legendre rule evaluates), and a
Monte-Carlo estimator used as an independent cross-check of the
quadrature.
"""

from dataclasses import dataclass

import numpy as np

from ._quadrature import integrate

_QUAD_TOL = 1e-12
_MC_CHUNK = 10 ** 6  # Monte-Carlo samples drawn at once


@dataclass(frozen=True)
class BernoulliGaussianPrior:
    """Sparse prior: zero w.p. 1-rho, standard complex Gaussian w.p. rho."""

    rho: float

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")


@dataclass(frozen=True)
class ScalarChannel:
    """Effective scalar channel with precision varsigma >= 0.

    varsigma = 0 is the pure-noise channel carrying no information.
    """

    varsigma: float

    def __post_init__(self):
        if not (self.varsigma >= 0.0):
            raise ValueError(f"varsigma must be >= 0, got {self.varsigma}")


def posterior_mean(y, ch: ScalarChannel, prior: BernoulliGaussianPrior):
    """Posterior mean E{x | y} of the scalar channel.

    Accepts a scalar or an ndarray of observations.  The Gaussian-ratio
    weight is evaluated in log space so large |y|^2 * varsigma does not
    underflow.  By convention varsigma = 0 returns the prior mean 0.
    """
    y = np.asarray(y, dtype=complex)
    if not np.all(np.isfinite(y.real) & np.isfinite(y.imag)):
        raise ValueError("observation y must be finite")
    vs, rho = ch.varsigma, prior.rho
    if vs == 0.0 or rho == 0.0:
        out = np.zeros_like(y)
        return out if out.ndim else complex(out)
    shrink = y / (1.0 + 1.0 / vs)
    if rho == 1.0:
        return shrink if shrink.ndim else complex(shrink)
    u = np.abs(y) ** 2
    # log weights of the mixture components CN(0, 1+1/vs) and CN(0, 1/vs)
    log_on = np.log(rho) - np.log1p(1.0 / vs) - u / (1.0 + 1.0 / vs)
    log_off = np.log1p(-rho) + np.log(vs) - vs * u
    w = 1.0 / (1.0 + np.exp(log_off - log_on))
    out = w * shrink
    return out if out.ndim else complex(out)


def _mmse_integrand(t, vs, centre, scale):
    # t e^{-t} (1 + vs * sigmoid(centre - vs t)), scaled by rho / (1 + vs)
    return scale * t * np.exp(-t) * (1.0 + vs / (1.0 + np.exp(vs * t - centre)))


def mmse(varsigma, prior: BernoulliGaussianPrior):
    """Exact scalar mmse of the Bernoulli-Gaussian channel at precision varsigma.

    Accepts a scalar or an ndarray of precisions and returns a float or an
    array of the same shape.  The radial reduction turns the complex-plane
    Gaussian integral into a 1-D integral in t = |z|^2 ~ Exp(1):

        mmse = rho / (1 + vs) E_t{ t (1 + vs sigmoid(u* - vs t)) },
        u* = log((1 - rho)(1 + vs) / rho),

    an everywhere-positive form without the catastrophic cancellation of
    the direct ``rho - rho^2 (...) I`` evaluation at large varsigma.  The
    sigmoid steps down at t = u*/vs over a width 1/vs, and the shared
    fixed rule (`coupledcs._quadrature`) puts breakpoints there.  Raises
    QuadratureError when the rule's embedded check disagrees by more than
    max(1e-12, 1e-12 * mmse).
    """
    vs = np.asarray(varsigma, dtype=float)
    ok = np.isfinite(vs) & (vs >= 0)
    if not ok.all():
        raise ValueError(f"varsigma must be finite and >= 0, got {vs[~ok].flat[0]}")
    rho = prior.rho
    if rho == 1.0:
        out = 1.0 / (1.0 + vs)
    else:
        out = np.full(vs.shape, rho)
        live = vs > 0
        if rho > 0 and np.any(live):
            v = vs[live]
            centre = np.log1p(-rho) + np.log1p(v) - np.log(rho)
            out[live] = integrate(_mmse_integrand, [v, centre, rho / (1.0 + v)], [(centre, v)],
                                  atol=_QUAD_TOL, rtol=_QUAD_TOL, what="mmse", at=v)
    return out if out.ndim else float(out)


def _sample_prior(rng: np.random.Generator, n: int, prior: BernoulliGaussianPrior):
    """n i.i.d. prior draws: one uniform per entry for the support, then its Gaussian values."""
    x = np.zeros(n, dtype=complex)
    on = rng.random(n) < prior.rho
    k = int(on.sum())
    if k:
        x[on] = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2)
    return x


def mmse_mc_oracle(varsigma: float, prior: BernoulliGaussianPrior,
                   n_samples: int, seed: int):
    """Monte-Carlo estimate of the scalar mmse, with its standard error.

    Samples x from the prior, passes it through the channel and averages
    |x - E{x|y}|^2.  Deterministic for a fixed seed; sampling runs in
    chunks of _MC_CHUNK so n_samples = 1e7 stays within a few hundred MB.

    Returns (estimate, std_err).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (np.isfinite(varsigma) and varsigma > 0):
        raise ValueError("varsigma must be finite and > 0 for the Monte-Carlo oracle")
    ch = ScalarChannel(varsigma)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    left = int(n_samples)
    noise_scale = 1.0 / np.sqrt(varsigma)
    while left > 0:
        m = min(_MC_CHUNK, left)
        left -= m
        x = _sample_prior(rng, m, prior)
        z = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
        y = x + noise_scale * z
        sq = np.abs(x - posterior_mean(y, ch, prior)) ** 2
        total += sq.sum()
        total_sq += (sq ** 2).sum()
    n = float(n_samples)
    mean = total / n
    var = max(total_sq / n - mean ** 2, 0.0)
    std_err = np.sqrt(var / n)
    return mean, std_err
