"""Fixed composite Gauss-Legendre rule shared by the two scalar integrals.

Both `mmse` and the channel term are expectations over t ~ Exp(1),
truncated to [0, TAIL_CUTOFF].  Their integrands are smooth apart from a
transition (a sigmoid step or a log-sum elbow) one unit of ``rate * t``
wide, centred at ``t = centre / rate``, where centre and rate depend on
the channel precision.  The panel layout is fixed:

- a geometric ladder, the same for every precision, resolves the e^{-t}
  weight;
- breakpoints at ``(centre + k) / rate`` for k in 0, +-2, +-4, ..., +-32
  resolve each transition, whatever decade it sits in.

Every panel carries a 17-node Gauss-Legendre rule.  The interpolatory
rule on the 16 nodes left when the centre node is dropped is the embedded
check: it costs no extra integrand evaluation, and the summed per-panel
disagreement of the two rules is the error estimate.

`integrate` evaluates only the panels that carry work.  Zero-width
panels, where clipped breakpoints coincide at 0 or at TAIL_CUTOFF, add
nothing, and a caller may cut the panels past the point where its
integrand is negligible (mmse integrates only its sigmoid excess, which
vanishes past the step).  The live panels of a block of rows are gathered
node-major, (nodes, panels), so that numpy's inner loops run over the
panels.  One product with the two rules' weights gives every panel's main
and check sums, and per-row bincounts add them up in panel order.

A row's value depends on its own panels alone, so a batch returns the
bytes of single calls.  The product is numpy's einsum loop, which sums
each panel's nodes in the same order wherever the panel sits; a BLAS
product would not do, since OpenBLAS rounds an output by its place in its
tile.
"""

import numpy as np

from .errors import QuadratureError

# e^{-T}(T+1) ~ 1.7e-16: the truncated exponential tail is below quadrature
# tolerance for every integrand used here.
TAIL_CUTOFF = 40.0
_LADDER = np.concatenate([[0.0], TAIL_CUTOFF * (2.0 / 3.0) ** np.arange(10, -1, -1)])
_OFFSETS = np.array([-32, -16, -8, -4, -2, 0, 2, 4, 8, 16, 32], dtype=float)
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
_RULES = np.stack([_WEIGHTS, _CHECK_WEIGHTS])


def _edges(transitions, rows):
    """Sorted panel edges, shape (len(rows), n_edges), all inside [0, TAIL_CUTOFF].

    Runs under the caller's np.errstate(over="ignore"): the clip bound
    ``TAIL_CUTOFF * rate`` may overflow to inf, which clips nothing.
    """
    edges = np.empty((rows.stop - rows.start, _LADDER.size + len(transitions) * _OFFSETS.size))
    edges[:, :_LADDER.size] = _LADDER
    col = _LADDER.size
    for centre, rate in transitions:
        r = rate[rows, None]
        # clip before dividing so that subnormal rates give no inf or NaN
        z = centre[rows, None] + _OFFSETS
        np.maximum(z, 0.0, out=z)
        np.minimum(z, TAIL_CUTOFF * r, out=z)
        z /= r
        np.minimum(z, TAIL_CUTOFF, out=edges[:, col:col + _OFFSETS.size])
        col += _OFFSETS.size
    edges.sort(axis=1)
    return edges


def integrate(integrand, params, transitions, atol, what, at, cut=None):
    """Integral of ``integrand(t, *params)`` over [0, TAIL_CUTOFF], per batch row.

    params are arrays of shape (n,), and the integrand is elementwise in t
    and its params.  It receives the nodes of the panels of positive width
    as t of shape (nodes, panels), node-major so that numpy's inner loops
    run over the panels, with each param gathered per panel, shape
    (panels,); it must leave t unchanged.  transitions is a list of
    (centre, rate) pairs of shape-(n,) arrays, rate > 0.  cut, if given, is
    a shape-(n,) array of points past which the integrand is negligible:
    the panels that start at or after it are not evaluated.

    Rows are evaluated in blocks of bounded size, and every row's value
    depends on that row alone.  The integrands run with overflow ignored:
    an exponential that overflows to inf is a sigmoid's or a log-sum's far
    tail.  Raises QuadratureError when the check rule and the main rule
    disagree by more than atol; ``what`` and ``at`` (the batch's
    precisions) name the failing integral in the message.
    """
    n = len(params[0])
    n_panels = _LADDER.size + len(transitions) * _OFFSETS.size - 1
    step = max(1, _BLOCK_NODES // (n_panels * _NODES.size))
    values, errors = [], []
    with np.errstate(over="ignore"):
        for start in range(0, max(n, 1), step):   # one block, empty, for an empty batch
            rows = slice(start, min(n, start + step))
            edges = _edges(transitions, rows)
            a = edges[:, :-1]
            h = edges[:, 1:] - a
            # zero-width panels (breakpoints clipped onto each other) add nothing
            live = h > 0
            if cut is not None:
                live &= a < cut[rows, None]
            k = live.ravel().nonzero()[0]
            r = k // n_panels
            hk = h.ravel()[k]
            t = hk * _NODES[:, None]
            t += edges.ravel()[k + r]   # the node a + h x
            g = integrand(t, *[x[rows].take(r) for x in params])
            # each panel's main and check sums, then each row's panels in order
            main, check = np.einsum("ij,jk->ik", _RULES, g)
            main *= hk
            check *= hk
            check -= main
            values.append(np.bincount(r, main, len(h)))
            errors.append(np.bincount(r, np.abs(check, out=check), len(h)))
    value, error = ((values[0], errors[0]) if len(values) == 1
                    else map(np.concatenate, (values, errors)))
    # one reduction clears the common case; a NaN error fails it too
    if not np.maximum.reduce(error, initial=0.0) <= atol:
        i = int(np.argmin(error <= atol))   # the first failing row
        raise QuadratureError(
            f"{what} quadrature error {error[i]:.3e} above tolerance at "
            f"varsigma={float(at[i])!r}",
            value=float(value[i]), error_estimate=float(error[i]))
    return value
