"""What every coupledcs command pays before its real work: a fresh
interpreter imports the package and makes the first call of each kernel.

Run from the root of a checkout; `run.py` times whole runs of this script.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import coupledcs as cc  # noqa: E402

prior = cc.BernoulliGaussianPrior(0.4)
cc.mmse(1.0, prior)
cc.posterior_mean(np.array([0.5 + 0.5j]), cc.ScalarChannel(1.0), prior)
spec = cc.single_block_spec(0.4, 1e-4, 0.5)
for kind in cc.Ensemble:
    # free_entropy_grid runs the channel-term quadrature and, for the
    # orthogonal ensemble, the inner Lambda solve
    cc.free_entropy_grid(np.array([[0.1], [0.01]]), spec, kind)
    cc.conjugate_fixed_point(np.array([0.1]), spec, kind)
    op = cc.build_coupled_operator(spec, 64, 0, kind)
    cc.adjoint_apply(op, cc.apply(op, np.ones(64)))
