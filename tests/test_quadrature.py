"""The fixed quadrature rule behind mmse and the channel term, against adaptive oracles."""

import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad, quad_vec

from coupledcs import BernoulliGaussianPrior, QuadratureError, mmse
from coupledcs import _quadrature, replica_core, scalar_channel
from coupledcs.replica_core import channel_term_batch
from coupledcs.scalar_channel import _mmse_live

from conftest import SWEEP_RHO

SWEEP_VS = np.geomspace(1e-6, 1e12, 25)


def _mmse_quad_oracle(vs, rho):
    """Adaptive mmse with breakpoints across the regime switch at t = u / vs."""
    c = 1.0 + vs
    e = lambda t: (1 - rho) * c * np.exp(-t * vs)
    f = lambda t: t * np.exp(-t) * (rho + c * e(t)) / (c * (rho + e(t)))
    u = np.log1p(-rho) + np.log(c) - np.log(rho)
    points = [(u + k) / vs for k in range(-36, 37, 4) if 0 < (u + k) / vs < 40]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        value, _ = quad(f, 0.0, 40.0, points=points or None, limit=1000,
                        epsabs=0.0, epsrel=1e-13)
    return rho * value


def _channel_quad_vec_oracle(vs, rho):
    """The channel term by adaptive vector quadrature over an Exp(1) variable per piece."""
    lc1, lc2 = np.log1p(-rho), np.log(rho) - np.log1p(vs)

    def integrand(s):
        ua, ub = s / vs, s * (1.0 + vs) / vs
        la = np.logaddexp(lc1 - vs * ua, lc2 - vs * ua / (1.0 + vs))
        lb = np.logaddexp(lc1 - vs * ub, lc2 - vs * ub / (1.0 + vs))
        return np.exp(-s) * ((1.0 - rho) * la + rho * lb)

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        value, _ = quad_vec(integrand, 0.0, 40.0, epsabs=1e-13, epsrel=1e-14, norm="max",
                            points=list(np.geomspace(1e-9, 30.0, 24)), limit=20000)
    return value


class TestRule:
    def test_nodes_and_weights_match_numpy(self):
        x, w = np.polynomial.legendre.leggauss(17)
        assert np.abs(_quadrature._NODES - (x + 1) / 2).max() <= 1e-15
        assert np.abs(_quadrature._WEIGHTS - w / 2).max() <= 1e-15

    def test_main_and_check_rules_are_exact_for_polynomials(self):
        # 17-node Gauss-Legendre: degree 33; the centre-dropped check: degree 15
        for k in range(34):
            assert _quadrature._WEIGHTS @ _quadrature._NODES ** k == pytest.approx(1 / (k + 1),
                                                                                   rel=1e-13)
        for k in range(16):
            assert _quadrature._CHECK_WEIGHTS @ _quadrature._NODES ** k == pytest.approx(
                1 / (k + 1), rel=1e-13)
        assert _quadrature._CHECK_WEIGHTS[_quadrature._NODES.size // 2] == 0.0

    @pytest.mark.parametrize("rate", [5e-324, 1.1e-308, 1.0, 1e308])
    def test_breakpoints_stay_finite_and_inside(self, rate):
        centre = np.array([0.0, 3.0, -50.0, 700.0])
        with np.errstate(over="ignore"):   # as `integrate` runs it
            edges = _quadrature._edges([(centre, np.full(4, rate))], slice(0, 4))
        assert np.all(np.isfinite(edges))
        assert edges.min() == 0.0 and edges.max() == _quadrature.TAIL_CUTOFF
        assert np.all(np.diff(edges, axis=1) >= 0)

    def test_too_coarse_layout_trips_the_check(self, monkeypatch):
        monkeypatch.setattr(_quadrature, "_LADDER", np.array([0.0, 40.0]))
        monkeypatch.setattr(_quadrature, "_OFFSETS", np.array([0.0]))
        with pytest.raises(QuadratureError, match="mmse") as info:
            _mmse_live(np.array([1.0]), 0.4)
        assert info.value.error_estimate > 1e-12
        with pytest.raises(QuadratureError, match="channel term"):
            channel_term_batch([1.0], BernoulliGaussianPrior(0.4))

    def test_import_leaves_scipy_unloaded(self):
        code = ("import sys, coupledcs; "
                "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestAgainstAdaptiveOracles:
    @pytest.mark.parametrize("rho", SWEEP_RHO)
    def test_mmse_matches_quad(self, rho):
        # the quadrature, and mmse, which reads the table inside its range
        expect = np.array([_mmse_quad_oracle(v, rho) for v in SWEEP_VS])
        for got in (_mmse_live(SWEEP_VS, rho), mmse(SWEEP_VS, BernoulliGaussianPrior(rho))):
            assert np.all(np.abs(got - expect) <= 1e-12 * expect)

    @pytest.mark.parametrize("rho", SWEEP_RHO)
    def test_channel_term_matches_quad_vec(self, rho):
        got = channel_term_batch(SWEEP_VS, BernoulliGaussianPrior(rho))
        expect = np.array([_channel_quad_vec_oracle(v, rho) for v in SWEEP_VS])
        assert np.abs(got - expect).max() <= 1e-12


# the breakpoint offsets of the rule's earlier, denser layout, with +-1
DENSE_OFFSETS = np.array([-32, -16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16, 32], dtype=float)


def _dense_rule(integrand, params, transitions):
    """Every node of every panel of the 13-offset layout, as one (rows, panels * nodes) block.

    A copy of the evaluator that the panel-skipping ones replaced, without its error check.
    """
    n = len(params[0])
    q = _quadrature
    parts = [np.broadcast_to(q._LADDER, (n, q._LADDER.size))]
    with np.errstate(over="ignore"):
        for centre, rate in transitions:
            r = rate[:, None]
            z = np.clip(centre[:, None] + DENSE_OFFSETS, 0.0, q.TAIL_CUTOFF * r)
            parts.append(np.minimum(z / r, q.TAIL_CUTOFF))
        edges = np.sort(np.concatenate(parts, axis=1), axis=1)
        a = edges[:, :-1, None]
        h = edges[:, 1:, None] - a
        t = a + h * q._NODES
        f = integrand(t.reshape(n, -1), *(p[:, None] for p in params)).reshape(t.shape)
    return (h[..., 0] * (f @ q._WEIGHTS)).sum(axis=1)


def _dense_mmse(vs, rho):
    """mmse as weight x factor over every node, without the closed-form weight mass."""
    def integrand(t, vs, centre, scale):
        return scale * t * np.exp(-t) * (1.0 + vs / (1.0 + np.exp(vs * t - centre)))

    out = np.full(vs.shape, rho)
    v = vs[vs > 0]
    centre = np.log1p(-rho) + np.log1p(v) - np.log(rho)
    out[vs > 0] = _dense_rule(integrand, [v, centre, rho / (1.0 + v)], [(centre, v)])
    return out


def _live_mmse(vs, rho):
    """mmse by the quadrature alone, at every precision: rho at vs = 0, as mmse gives it."""
    out = np.full(vs.shape, rho)
    out[vs > 0] = _mmse_live(vs[vs > 0], rho)
    return out


def _dense_channel_term(vs, rho):
    def lse(x, y):
        return np.maximum(x, y) + np.log1p(np.exp(-np.abs(x - y)))

    c1 = np.log1p(-rho)
    c2 = np.log(rho) - np.log1p(vs)
    slope = vs / (1.0 + vs)

    def integrand(s, vs, slope, c2):
        return np.exp(-s) * (-s + (1.0 - rho) * lse(c1, c2 + slope * s)
                             + rho * lse(c1 - vs * s, c2))

    return _dense_rule(integrand, [vs, slope, c2], [(c1 - c2, slope), (c1 - c2, vs)])


BYTE_VS = np.concatenate([[0.0, 5e-324, 1e-300, 1e-3], np.geomspace(1e-2, 1e12, 400),
                          [1e300, 1.7e308]])


@pytest.mark.parametrize("rho", [0.05, 0.4, 0.95])
def test_sparse_rule_rounds_like_the_dense_one(rho):
    # the rule skips zero-width panels and those past the sigmoid, drops the +-1
    # offsets and integrates mmse's weight in closed form: the values move by rounding.
    # At vs = 1.7e308 mmse is subnormal (about 1e-310), and the dense rule rounds each
    # node's value onto the 5e-324 grid; the channel term reaches -700, where its
    # spacing is 1.1e-13, and both rules sum their panels in different orders
    prior = BernoulliGaussianPrior(rho)
    dense = _dense_mmse(BYTE_VS, rho)
    assert np.all(np.abs(_live_mmse(BYTE_VS, rho) - dense) <= 2e-15 * dense + 1e-320)
    live = BYTE_VS[1:]
    dense = _dense_channel_term(live, rho)
    assert np.all(np.abs(channel_term_batch(live, prior) - dense)
                  <= np.maximum(5e-14, 4 * np.spacing(np.abs(dense))))


@pytest.mark.parametrize("rho", SWEEP_RHO)
def test_rule_clears_a_tenth_of_both_tolerances(rho, monkeypatch):
    # the embedded check keeps a margin of ten on the whole range, so that a coarser
    # layout (the +-1 offsets are already gone) shows before it reaches the tolerance
    monkeypatch.setattr(scalar_channel, "_QUAD_TOL", scalar_channel._QUAD_TOL / 10)
    monkeypatch.setattr(replica_core, "_CHANNEL_TOL", replica_core._CHANNEL_TOL / 10)
    assert np.all(np.isfinite(_live_mmse(BYTE_VS, rho)))
    assert np.all(np.isfinite(channel_term_batch(BYTE_VS[1:], BernoulliGaussianPrior(rho))))


@pytest.mark.parametrize("rho", SWEEP_RHO)
def test_mmse_excess_lies_below_one(rho):
    # why the check is absolute: mmse integrates only its excess over the closed-form
    # weight mass, which lies in [0, rho vs / (1 + vs)), below 1, so a bound of
    # 1e-12 * |excess| would never be looser than the absolute 1e-12
    vs = np.geomspace(1e-8, 1e14, 400)
    mass = rho / (1.0 + vs) * scalar_channel._WEIGHT_MASS
    excess = _mmse_live(vs, rho) - mass
    assert np.all(excess >= 0.0) and np.all(excess < rho * vs / (1.0 + vs))


def test_check_raises_just_above_its_tolerance(monkeypatch):
    # the check is error <= atol for both callers: a tolerance at the error estimate
    # passes, and the next float below it raises
    prior = BernoulliGaussianPrior(0.4)
    calls = ((scalar_channel, "_QUAD_TOL", lambda: _mmse_live(np.array([1.0]), 0.4)),
             (replica_core, "_CHANNEL_TOL", lambda: channel_term_batch([1.0], prior)))
    for module, name, call in calls:
        monkeypatch.setattr(module, name, 0.0)
        with pytest.raises(QuadratureError) as info:
            call()
        error = info.value.error_estimate
        assert error > 0.0, name
        monkeypatch.setattr(module, name, error)
        assert np.isfinite(call()).all()
        monkeypatch.setattr(module, name, np.nextafter(error, 0.0))
        with pytest.raises(QuadratureError):
            call()
