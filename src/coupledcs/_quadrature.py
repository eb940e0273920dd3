"""Fixed composite Gauss-Legendre rule shared by the two scalar integrals.

Both `mmse` and the channel term are expectations over t ~ Exp(1),
truncated to [0, TAIL_CUTOFF].  Their integrands are smooth apart from a
transition (a sigmoid step or a log-sum elbow) one unit of ``rate * t``
wide, centred at ``t = centre / rate``, where centre and rate depend on
the channel precision.  The panel layout is fixed:

- a geometric ladder, the same for every precision, resolves the e^{-t}
  weight;
- breakpoints at ``(centre + k) / rate`` for k in 0, +-1, +-2, ..., +-32
  resolve each transition, whatever decade it sits in.

Every panel carries a 17-node Gauss-Legendre rule.  The interpolatory
rule on the 16 nodes left when the centre node is dropped is the embedded
check: it costs no extra integrand evaluation, and the summed per-panel
disagreement of the two rules is the error estimate.
"""

import numpy as np

from .errors import QuadratureError

# e^{-T}(T+1) ~ 1.7e-16: the truncated exponential tail is below quadrature
# tolerance for every integrand used here.
TAIL_CUTOFF = 40.0
_LADDER = np.concatenate([[0.0], TAIL_CUTOFF * (2.0 / 3.0) ** np.arange(10, -1, -1)])
_OFFSETS = np.array([-32, -16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16, 32], dtype=float)
# integrand evaluations per block: bounds the temporaries of long batches
_BLOCK_NODES = 1 << 14


def _gauss_legendre(m):
    """m-point Gauss-Legendre nodes and weights on [-1, 1].

    Newton's method on the Legendre recurrence, as numpy's leggauss but
    without its LAPACK eigensolve, whose first call costs every process
    that imports the package about 1.5 MB of resident memory.
    """
    x = -np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for k in range(2, m + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    w = w + w[::-1]
    return (x - x[::-1]) / 2.0, w * (2.0 / w.sum())


def _panel_rules(m):
    """Nodes on [0, 1], Gauss-Legendre weights, and the centre-dropped check weights."""
    x, w = _gauss_legendre(m)
    centre = m // 2   # odd m: the node at x = 0
    kept = np.delete(np.arange(m), centre)
    # The check rule interpolates on the kept nodes, so its weights are the
    # integrals of their Lagrange polynomials (degree m - 2).  The Gauss
    # rule integrates those exactly, and they vanish on every kept node but
    # their own: check_i = w_i + w_centre * l_i(0).
    check = np.zeros(m)
    for i in kept:
        others = x[kept[kept != i]]
        check[i] = w[i] + w[centre] * np.prod(others / (others - x[i]))
    return (x + 1.0) / 2.0, w / 2.0, check / 2.0


_NODES, _WEIGHTS, _CHECK_WEIGHTS = _panel_rules(17)


def _edges(transitions, rows):
    """Sorted panel edges, shape (len(rows), n_edges), all inside [0, TAIL_CUTOFF]."""
    n = rows.stop - rows.start
    parts = [np.broadcast_to(_LADDER, (n, _LADDER.size))]
    for centre, rate in transitions:
        r = rate[rows, None]
        # clip before dividing so that subnormal rates give no inf or NaN;
        # the bound itself may overflow to inf, which clips nothing
        with np.errstate(over="ignore"):
            z = np.clip(centre[rows, None] + _OFFSETS, 0.0, TAIL_CUTOFF * r)
        parts.append(np.minimum(z / r, TAIL_CUTOFF))
    return np.sort(np.concatenate(parts, axis=1), axis=1)


def integrate(integrand, params, transitions, atol, rtol, what, at):
    """Integral of ``integrand(t, *params)`` over [0, TAIL_CUTOFF], per batch row.

    params are arrays of shape (n,); the integrand receives them as
    (rows, 1) blocks that broadcast against node blocks of shape
    (rows, panels * nodes).  transitions is a list of (centre, rate) pairs
    of shape-(n,) arrays, rate > 0.  Rows are evaluated in blocks of
    bounded size, and every row's value depends on that row alone.  The
    integrand runs with overflow ignored: an exponential that overflows
    to inf is a sigmoid's or a log-sum's far tail.

    Raises QuadratureError when the check rule and the main rule disagree
    by more than max(atol, rtol * |value|); ``what`` and ``at`` (the
    batch's precisions) name the failing integral in the message.
    """
    n = len(params[0])
    n_panels = _LADDER.size + len(transitions) * _OFFSETS.size - 1
    step = max(1, _BLOCK_NODES // (n_panels * _NODES.size))
    value = np.empty(n)
    error = np.empty(n)
    with np.errstate(over="ignore"):
        for start in range(0, n, step):
            rows = slice(start, min(n, start + step))
            edges = _edges(transitions, rows)
            a = edges[:, :-1, None]
            h = edges[:, 1:, None] - a
            t = a + h * _NODES
            # flat rows keep numpy's inner loops long: (rows, panels * nodes)
            f = integrand(t.reshape(len(t), -1), *(p[rows, None] for p in params))
            f = f.reshape(t.shape)
            main = h[..., 0] * (f @ _WEIGHTS)
            check = h[..., 0] * (f @ _CHECK_WEIGHTS)
            value[rows] = main.sum(axis=1)
            error[rows] = np.abs(main - check).sum(axis=1)
    ok = error <= np.maximum(atol, rtol * np.abs(value))
    if not ok.all():
        i = int(np.argmin(ok))   # the first failing row
        raise QuadratureError(
            f"{what} quadrature error {error[i]:.3e} above tolerance at varsigma={float(at[i])!r}",
            value=float(value[i]), error_estimate=float(error[i]))
    return value
