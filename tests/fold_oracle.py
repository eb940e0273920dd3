"""A 30-digit oracle for the folds alpha_d and alpha_s of the single-block fixed-point curve.

Run from the repository root (it is a helper: pytest collects no file without the
test_ prefix):

    PYTHONPATH=src python tests/fold_oracle.py

It prints the table `FOLD_ORACLE` that tests/test_phase_analysis.py freezes, with the
package's distance from each rate.  Nothing of the package's numerics enters a rate but
the start of each root search:
- mmse(v) is `mp.quad` of the radial form in the docstring of `coupledcs.mmse`,
  rho / (1 + v) (1 + v int_0^inf t e^{-t} sigmoid(u* - v t) dt), u* = log((1 - rho)
  (1 + v) / rho), split at the sigmoid's step t = u* / v;
- alpha(log v) is the closed form of the fixed point at v: v (eps + sigma2) for the
  Gaussian ensemble and v (eps + sigma2 (1 - v eps)) for the orthogonal one, eps =
  mmse(v);
- each fold is `mp.findroot` on `mp.diff` of alpha(log v), started from the package's
  fold, and its rate is alpha there.
"""

import time

import mpmath as mp

from coupledcs import Ensemble, phase_analysis

DIGITS = 30
# (rho, sigma2) of the frozen points; each is sharp for both ensembles
POINTS = ((0.4, 1e-4), (0.4, 1e-6), (0.1, 1e-5))


def mmse(v, rho):
    """mmse at precision v of the Bernoulli-Gaussian channel of density rho, by mp.quad."""
    u = mp.log((1 - rho) * (1 + v) / rho)

    def excess(t):
        return t * mp.exp(-t) * v / (1 + mp.exp(v * t - u))

    cuts = [0, u / v, mp.inf] if u > 0 else [0, mp.inf]
    return rho / (1 + v) * (1 + mp.quad(excess, cuts))


def rate(log_v, rho, sigma2, kind):
    """alpha(log v): the rate whose single-block fixed point sits at precision v = e^log_v."""
    v = mp.exp(log_v)
    eps = mmse(v, rho)
    if kind is Ensemble.ROW_ORTHOGONAL:
        return v * (eps + sigma2 * (1 - v * eps))
    return v * (eps + sigma2)


def folds(rho, sigma2, kind):
    """(alpha_d, alpha_s) at 30 digits, each fold started from the package's."""
    rho, sigma2 = mp.mpf(rho), mp.mpf(sigma2)
    starts = phase_analysis._search_curve(float(rho), float(sigma2), kind)[3].tolist()

    def alpha(x):
        return rate(x, rho, sigma2, kind)

    return tuple(alpha(mp.findroot(lambda x: mp.diff(alpha, x), mp.mpf(x0))) for x0 in starts)


def main():
    mp.mp.dps = DIGITS
    start = time.perf_counter()
    print("FOLD_ORACLE = {")
    for rho, sigma2 in POINTS:
        for kind in Ensemble:
            a_d, a_s = folds(rho, sigma2, kind)
            (pt,) = phase_analysis.sweep_phase_diagram(rho, [sigma2], kind)
            print(f"    ({rho}, {sigma2}, Ensemble.{kind.name}): "
                  f"({mp.nstr(a_d, 20)}, {mp.nstr(a_s, 20)}),"
                  f"   # package off by {mp.nstr(pt.alpha_d - a_d, 2)}, "
                  f"{mp.nstr(pt.alpha_s - a_s, 2)}", flush=True)
    print("}")
    print(f"# {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
