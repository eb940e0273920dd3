"""Scalar complex AWGN channel with a Bernoulli-Gaussian prior.

The channel is y = x + varsigma^{-1/2} z with z standard complex Gaussian
and varsigma the channel precision (inverse noise variance).  The prior
puts mass 1-rho at zero and draws the remaining entries from a standard
complex Gaussian, so the prior second moment is rho.

Provides the posterior mean, the scalar mmse, and a Monte-Carlo estimator
used as an independent cross-check.  The mmse is exact by 1-D quadrature
(the circularly-symmetric 2-D integral reduces to a radial one, which the
package's fixed Gauss-Legendre rule evaluates), and for 0 < rho < 1 and
log varsigma in [-30, 30) it is read from a per-rho table of Chebyshev
interpolants that the quadrature builds one panel at a time, on first use,
and certifies panel by panel; a panel that fails its certificate, and every
precision outside the table's range, stays on the quadrature.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from ._quadrature import TAIL_CUTOFF, integrate

_QUAD_TOL = 1e-12
# the integral of t e^{-t} over [0, TAIL_CUTOFF], 1 - (T + 1) e^{-T}
_WEIGHT_MASS = 1.0 - (TAIL_CUTOFF + 1.0) * np.exp(-TAIL_CUTOFF)
_MC_CHUNK = 10 ** 6  # Monte-Carlo samples drawn at once

# The mmse table: equal panels of x = log varsigma over [_TABLE_LO, -_TABLE_LO), one
# Chebyshev interpolant of degree _TABLE_DEGREE each, on the first-kind nodes
# cos(pi (j + 1/2) / (degree + 1)), certified at the extremum cos(pi / (degree + 1)) of
# the next Chebyshev polynomial, between the panel's two last nodes, to _TABLE_TOL relative
_TABLE_LO, _TABLE_PANELS, _TABLE_DEGREE, _TABLE_TOL = -30.0, 240, 12, 1e-14
_PANELS_PER_UNIT = _TABLE_PANELS / (-2.0 * _TABLE_LO)   # 4: a panel is 0.25 wide
_DEGREES = np.arange(_TABLE_DEGREE + 1.0)
_NODE_ANGLES = np.pi * (_DEGREES + 0.5) / _DEGREES.size
# the interpolant's coefficients from its node values, c = q @ _DCT.T (a DCT-II)
_DCT = np.cos(np.multiply.outer(_DEGREES, _NODE_ANGLES)) * (2.0 / _DEGREES.size)
_DCT[0] /= 2.0
_CHECK = np.cos(np.pi / _DEGREES.size)
# the panel's node points and its check point, as shares of the panel's width
_PANEL_POINTS = 0.5 * (1.0 + np.append(np.cos(_NODE_ANGLES), _CHECK))
_TABLE_RHOS = 16   # tables kept at once, about 28 KB each


@dataclass(frozen=True)
class BernoulliGaussianPrior:
    """Sparse prior: zero w.p. 1-rho, standard complex Gaussian w.p. rho."""

    rho: float

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")


@dataclass(frozen=True)
class ScalarChannel:
    """Effective scalar channel with finite precision varsigma >= 0.

    varsigma = 0 is the pure-noise channel carrying no information.
    """

    varsigma: float

    def __post_init__(self):
        # NaN fails both comparisons
        if not (0.0 <= self.varsigma < np.inf):
            raise ValueError(f"varsigma must be finite and >= 0, got {self.varsigma}")


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


def _mmse_excess(t, sv, vs, centre):
    # sv t e^{-t} sigmoid(centre - vs t), sv = rho vs / (1 + vs), on two temporaries
    z = vs * t
    z -= centre
    np.exp(z, out=z)
    z += 1.0
    np.divide(sv, z, out=z)
    z *= t
    e = np.negative(t)
    z *= np.exp(e, out=e)
    return z


def _mmse_live(v, rho):
    """mmse at precisions v > 0, shape (n,), for 0 < rho < 1, by the quadrature.

    It builds the table and serves every value the table does not.
    """
    log1p_v = np.log1p(v)
    centre = np.log1p(-rho) + log1p_v - np.log(rho)
    scale = rho / (1.0 + v)
    # past vs t - centre = log(1 + vs) + 40 the excess is below e^{-40} of the weight's
    # integrand (a subnormal vs overflows the cut to inf, which cuts nothing); the
    # sigmoid's exponential overflows to inf past the step as well
    with np.errstate(over="ignore"):
        cut = (centre + log1p_v + 40.0) / v
        excess = integrate(_mmse_excess, [scale * v, v, centre], [(centre, v)],
                           atol=_QUAD_TOL, what="mmse", at=v, cut=cut)
    return scale * _WEIGHT_MASS + excess


def _chebyshev(coefs, s):
    """sum_m coefs[i, m] T_m(s[i]) per row, T_m(s) = cos(m arccos s).

    One row-wise einsum (numpy's own loop, not BLAS) sums each row's terms
    in the same order wherever the row sits, so a value does not depend on
    its batch.
    """
    return np.einsum("ij,ij->i", coefs, np.cos(np.multiply.outer(np.arccos(s), _DEGREES)))


@functools.lru_cache(maxsize=_TABLE_RHOS)
def _table(rho):
    """(coefs, built, certified) of rho's mmse table, every panel still to build."""
    return (np.empty((_TABLE_PANELS, _DEGREES.size)), np.zeros(_TABLE_PANELS, bool),
            np.zeros(_TABLE_PANELS, bool))


def _build_panels(panels, rho):
    """Interpolate q(x) = (1 + e^x) mmse(e^x) on the given unbuilt panels and certify each.

    The node values and the check points come from one quadrature call.  A
    panel is certified when its interpolant is within (strictly) _TABLE_TOL
    relative of the quadrature at its check point; otherwise it never is,
    and `_mmse_tabled` leaves its values on the quadrature.
    """
    coefs, built, certified = _table(rho)
    v = np.exp((panels[:, None] + _PANEL_POINTS) / _PANELS_PER_UNIT + _TABLE_LO)
    q = _mmse_live(v.ravel(), rho).reshape(v.shape) * (1.0 + v)
    c = np.einsum("ij,mj->im", q[:, :-1], _DCT)
    check = q[:, -1]
    coefs[panels] = c
    certified[panels] = (np.abs(_chebyshev(c, np.full(panels.size, _CHECK)) - check)
                         < _TABLE_TOL * check)
    built[panels] = True


def _mmse_tabled(v, rho):
    """mmse at precisions v > 0, shape (n,), for 0 < rho < 1: the table on its certified
    panels, the quadrature elsewhere; each value depends on v and rho alone."""
    coefs, built, certified = _table(rho)
    pos = np.log(v)
    pos -= _TABLE_LO
    pos *= _PANELS_PER_UNIT   # panel k holds k <= pos < k + 1
    k = pos.astype(np.intp)
    # the common case: every value on a certified panel
    if (0.0 <= pos.min(initial=np.inf) and pos.max(initial=0.0) < _TABLE_PANELS
            and certified.take(k).all()):
        s = pos - k
        s *= 2.0
        s -= 1.0
        return _chebyshev(coefs.take(k, axis=0), s) / (1.0 + v)
    inside = (0.0 <= pos) & (pos < _TABLE_PANELS)
    hit = np.zeros(_TABLE_PANELS, bool)   # not np.unique, whose first call imports numpy.ma
    hit[k[inside]] = True
    new = np.flatnonzero(hit & ~built)
    if new.size:
        _build_panels(new, rho)
    tabled = inside.copy()
    tabled[inside] = certified.take(k[inside])
    out = np.empty_like(v)
    out[tabled] = _mmse_tabled(v[tabled], rho)
    if not tabled.all():
        out[~tabled] = _mmse_live(v[~tabled], rho)
    return out


def mmse(varsigma, prior: BernoulliGaussianPrior):
    """Scalar mmse of the Bernoulli-Gaussian channel at precision varsigma.

    Accepts a scalar or an ndarray of precisions and returns a float or an
    array of the same shape.  The radial reduction turns the complex-plane
    Gaussian integral into a 1-D integral in t = |z|^2 ~ Exp(1):

        mmse = rho / (1 + vs) E_t{ t (1 + vs sigmoid(u* - vs t)) },
        u* = log((1 - rho)(1 + vs) / rho),

    an everywhere-positive form without the catastrophic cancellation of
    the direct ``rho - rho^2 (...) I`` evaluation at large varsigma.  On
    [0, T], T = TAIL_CUTOFF, the weight's part has a closed form:

        mmse = rho / (1 + vs) [1 - (T + 1) e^{-T}
                               + int_0^T t e^{-t} vs sigmoid(u* - vs t) dt],

    and the shared fixed rule (`coupledcs._quadrature`) integrates only
    the sigmoid excess.  The sigmoid steps down at t = u*/vs over a width
    1/vs, where the rule puts breakpoints; past vs t - u* = log(1 + vs) +
    40 the excess is below e^{-40} t e^{-t}, and the rule stops there.
    Raises QuadratureError when the rule's embedded check disagrees by more
    than 1e-12, absolute: the excess lies in [0, rho vs / (1 + vs)), below
    1, so a bound relative to it would be tighter still.

    For 0 < rho < 1 and x = log vs in [-30, 30), the value comes from a
    table of rho: q(x) = (1 + e^x) mmse(e^x), which lies in [rho, 1], is
    interpolated on 240 equal panels of x by Chebyshev polynomials of
    degree 12, and mmse = q / (1 + vs).  A panel is built from 13
    quadrature values the first time a precision lands in it, and is used
    only if it agrees with the quadrature at one further point, between
    its last two nodes, to within 1e-14 relative; its values stay on the
    quadrature otherwise, as do precisions outside the range and rho 0 or
    1.  Tables of recent rho values are kept.  A value depends on vs and
    rho alone: not on the batch, and not on the calls made before it.
    """
    vs = np.asarray(varsigma, dtype=float)
    rho = prior.rho
    # the common case first: every precision finite and > 0 (NaN fails the test)
    if (0 < rho < 1 and 0 < np.minimum.reduce(vs, axis=None, initial=np.inf)
            and np.maximum.reduce(vs, axis=None, initial=0.0) < np.inf):
        out = _mmse_tabled(vs.ravel(), rho).reshape(vs.shape)
    else:
        ok = np.isfinite(vs) & (vs >= 0)
        if not ok.all():
            raise ValueError(f"varsigma must be finite and >= 0, got {vs[~ok].flat[0]}")
        if rho == 1.0:
            out = 1.0 / (1.0 + vs)
        else:
            out = np.full(vs.shape, rho)
            live = vs > 0
            if rho > 0 and live.any():
                out[live] = _mmse_tabled(vs[live], rho)
    return out if out.ndim else float(out)


def _whole_number(name, value, least):
    """int(value) for a whole number >= least (1e3 counts; bool, NaN, inf, None fail) or ValueError.

    bool is a numbers.Real, so it is refused by name.
    """
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and least <= value < np.inf and value % 1 == 0):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


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

    Returns (estimate, std_err).  n_samples must be a whole number >= 1;
    an integral float such as 1e7 is accepted.
    """
    n_samples = _whole_number("n_samples", n_samples, 1)
    if not (np.isfinite(varsigma) and varsigma > 0):
        raise ValueError("varsigma must be finite and > 0 for the Monte-Carlo oracle")
    ch = ScalarChannel(varsigma)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    left = n_samples
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
