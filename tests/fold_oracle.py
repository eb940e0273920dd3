"""A 30-digit oracle for the transition rates alpha_d, alpha_s and alpha_c of the single-block
fixed-point curve.

Run from the repository root (it is a helper: pytest collects no file without the
test_ prefix):

    PYTHONPATH=src python tests/fold_oracle.py

It prints the tables `FOLD_ORACLE` (alpha_d, alpha_s) and `MAXWELL_ORACLE` (alpha_c) that
tests/test_phase_analysis.py freezes, with the package's distance from each rate.  Nothing
of the package's numerics enters a rate but the start of each root search (`channel_term`
is also tests/test_replica_core.py's 40-digit oracle for the package's channel term):
- mmse(v) is `mp.quad` of the radial form in the docstring of `coupledcs.mmse`,
  rho / (1 + v) (1 + v int_0^inf t e^{-t} sigmoid(u* - v t) dt), u* = log((1 - rho)
  (1 + v) / rho), split at the sigmoid's step t = u* / v;
- alpha(log v) is the closed form of the fixed point at v: v (eps + sigma2) for the
  Gaussian ensemble and v (eps + sigma2 (1 - v eps)) for the orthogonal one, eps =
  mmse(v);
- each fold is `mp.findroot` on `mp.diff` of alpha(log v), started from the package's
  fold, and its rate is alpha there;
- each maximum at a rate a is `mp.findroot` of alpha(log v) = a on its rising branch,
  started from the package's branch root, and its height is F in closed form at that
  curve point (varsigma = v): ct(v) + v eps - a log(1 + S / sigma2) + (1 - a) +
  (1 - Delta) - log(1 - Delta) - 1, Delta = v eps and S = eps / (1 - Delta) (orthogonal),
  or Delta = 0 and S = eps (Gaussian), with the channel term ct by `mp.quad`;
- alpha_c is `mp.findroot` of the height gap G(a) = F(large-MSE maximum) - F(small-MSE
  maximum), started from the package's alpha_c.
"""

import time

import mpmath as mp
import numpy as np

from coupledcs import Ensemble, phase_analysis

DIGITS = 30
# (rho, sigma2, ensemble) of the frozen points: three levels, each sharp for both ensembles,
# and the last sharp level of np.geomspace(1e-8, 0.3, 300) at rho 0.2 (Gaussian), whose
# window holds 4 points of the search curve, too few for the Newton stop's error bound
POINTS = (*((rho, sigma2, kind) for rho, sigma2 in ((0.4, 1e-4), (0.4, 1e-6), (0.1, 1e-5))
            for kind in Ensemble), (0.2, 0.0015902875371494082, Ensemble.GAUSSIAN_IID))
# the second start of each secant search, next to the package's value
_NUDGE = mp.mpf(2) ** -30


def mmse(v, rho):
    """mmse at precision v of the Bernoulli-Gaussian channel of density rho, by mp.quad."""
    u = mp.log((1 - rho) * (1 + v) / rho)

    def excess(t):
        return t * mp.exp(-t) * v / (1 + mp.exp(v * t - u))

    cuts = [0, u / v, mp.inf] if u > 0 else [0, mp.inf]
    return rho / (1 + v) * (1 + mp.quad(excess, cuts))


def channel_term(v, rho):
    """E_y log E_x e^{-v |y - x|^2} at precision v, by mp.quad.

    E_x e^{-v |y - x|^2} = (1 - rho) e^{-v u} + rho / (1 + v) e^{-b u}, u = |y|^2 and
    b = v / (1 + v), and u follows the mixture (1 - rho) Exp(v) + rho Exp(b).  Each
    piece is integrated in s = v u or s = b u, split where the two terms of the log
    are equal, at u = log((1 - rho) (1 + v) / rho) / (v - b).  At the working precision.
    """
    v, rho = mp.mpf(v), mp.mpf(rho)
    b = v / (1 + v)
    elbow = mp.log((1 - rho) * (1 + v) / rho) / (v - b)

    def log_likelihood(u):
        return mp.log((1 - rho) * mp.exp(-v * u) + rho / (1 + v) * mp.exp(-b * u))

    total = mp.mpf(0)
    for weight, scale in ((1 - rho, v), (rho, b)):
        cuts = [0, scale * elbow, mp.inf] if elbow > 0 else [0, mp.inf]
        total += weight * mp.quad(lambda s: mp.exp(-s) * log_likelihood(s / scale), cuts)
    return total


def rate(log_v, rho, sigma2, kind):
    """alpha(log v): the rate whose single-block fixed point sits at precision v = e^log_v."""
    v = mp.exp(log_v)
    eps = mmse(v, rho)
    if kind is Ensemble.ROW_ORTHOGONAL:
        return v * (eps + sigma2 * (1 - v * eps))
    return v * (eps + sigma2)


def height(log_v, a, rho, sigma2, kind):
    """F at rate a at the curve point v = e^log_v, eps = mmse(v), in closed form."""
    v = mp.exp(log_v)
    eps = mmse(v, rho)
    omd = 1 - v * eps if kind is Ensemble.ROW_ORTHOGONAL else mp.mpf(1)   # 1 - Delta
    return (channel_term(v, rho) + v * eps - a * mp.log(1 + eps / omd / sigma2) + (1 - a)
            + (omd - mp.log(omd) - 1))


def folds(rho, sigma2, kind):
    """(alpha_d, alpha_s) at 30 digits, each fold started from the package's."""
    rho, sigma2 = mp.mpf(rho), mp.mpf(sigma2)
    starts = phase_analysis._search_curve(float(rho), float(sigma2), kind)[3].tolist()

    def alpha(x):
        return rate(x, rho, sigma2, kind)

    return tuple(alpha(mp.findroot(lambda x: mp.diff(alpha, x), mp.mpf(x0))) for x0 in starts)


def package_branch_roots(rho, sigma2, kind, curve, a):
    """log v of the package's two maxima at rate a, large-MSE first, as `_maxwell_gap` finds them."""
    branch, n_large = phase_analysis._rising_branches(curve)
    k = np.array([np.searchsorted(branch[1][:n_large], a) - 1,
                  np.searchsorted(branch[1][n_large:], a) - 1 + n_large])
    return phase_analysis._curve_roots(np.full(2, a), k, branch, rho, sigma2, kind)[0].tolist()


def maxwell(rho, sigma2, kind):
    """alpha_c at 30 digits, started from the package's alpha_c and its branch roots there."""
    curve = phase_analysis._search_curve(rho, sigma2, kind)
    a_c = phase_analysis._maxwell_rate(rho, sigma2, kind, curve)
    starts = [mp.mpf(x) for x in package_branch_roots(rho, sigma2, kind, curve, a_c)]
    rho, sigma2 = mp.mpf(rho), mp.mpf(sigma2)

    def gap(a):
        large, small = (mp.findroot(lambda x: rate(x, rho, sigma2, kind) - a, (x0, x0 + _NUDGE))
                        for x0 in starts)
        return height(large, a, rho, sigma2, kind) - height(small, a, rho, sigma2, kind)

    return mp.findroot(gap, (mp.mpf(a_c), mp.mpf(a_c) + _NUDGE))


def main():
    mp.mp.dps = DIGITS
    start = time.perf_counter()
    rates = {(rho, sigma2, kind): (*folds(rho, sigma2, kind), maxwell(rho, sigma2, kind))
             for rho, sigma2, kind in POINTS}
    for name, columns in (("FOLD_ORACLE", slice(0, 2)), ("MAXWELL_ORACLE", slice(2, 3))):
        print(f"{name} = {{")
        for (rho, sigma2, kind), oracle in rates.items():
            (pt,) = phase_analysis.sweep_phase_diagram(rho, [sigma2], kind)
            got = (pt.alpha_d, pt.alpha_s, pt.alpha_c)[columns]
            want = oracle[columns]
            values = ", ".join(mp.nstr(w, 20) for w in want)
            off = ", ".join(mp.nstr(g - w, 2) for g, w in zip(got, want))
            print(f"    ({rho}, {sigma2}, Ensemble.{kind.name}): "
                  f"{'(' + values + ')' if len(want) > 1 else values},   # package off by {off}")
        print("}")
    print(f"# {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
