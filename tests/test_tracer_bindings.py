"""The benchmark tracer still finds every function and parameter name it binds to.

`perfbench/tracer.py` wraps the functions it lists in TRACED under every
name a module of the package binds them to, and reads some of their
parameters by name for the span detail.  A traced function that is
removed or renamed fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import coupledcs
from coupledcs import (BernoulliGaussianPrior, Ensemble, SeedingParams, build_seeding_spec,
                       single_block_spec)
from coupledcs.scalar_channel import ScalarChannel

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
GAUSS = Ensemble.GAUSSIAN_IID
ORTH = Ensemble.ROW_ORTHOGONAL


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fn(layer, name):
    """The function under its home module's binding, looked up at call time."""
    return getattr(importlib.import_module(f"coupledcs.{layer}"), name)


def tiny_calls():
    """One call per traced name, on inputs that take milliseconds."""
    prior = BernoulliGaussianPrior(0.4)
    single = single_block_spec(0.4, 1e-4, 0.49)
    chain = build_seeding_spec(SeedingParams(L=2, W=1, alpha_seed=0.6, alpha_bulk=0.5, J=0.5),
                               0.4, 1e-4)
    op = {}

    def build():
        op["op"] = fn("measurement_ops", "build_coupled_operator")(chain, 64, 0, ORTH)

    def instance():
        op["inst"] = fn("measurement_ops", "gen_instance")(op["op"], prior, 0.1, 0)

    return {
        "mmse": lambda: fn("scalar_channel", "mmse")(np.array([0.5, 2.0]), prior),
        "mmse_mc_oracle": lambda: fn("scalar_channel", "mmse_mc_oracle")(1.0, prior, 1000, 0),
        "posterior_mean": lambda: fn("scalar_channel", "posterior_mean")(
            np.array([0.1 + 0.2j]), ScalarChannel(1.0), prior),
        "channel_term_batch": lambda: fn("replica_core", "channel_term_batch")(
            np.array([1.0]), prior),
        "free_entropy_grid": lambda: fn("replica_core", "free_entropy_grid")(
            np.array([[0.1]]), single, ORTH),
        "conjugate_fixed_point": lambda: fn("replica_core", "conjugate_fixed_point")(
            np.array([0.1]), single, ORTH),
        "run_evolution": lambda: fn("state_evolution", "run_evolution")(chain, ORTH, max_iter=5),
        "sweep_phase_diagram": lambda: fn("phase_analysis", "sweep_phase_diagram")(
            0.4, [1e-4], GAUSS),
        "scan_curve": lambda: fn("phase_analysis", "scan_curve")(
            0.4, 1e-4, 0.49, GAUSS, n_points=200, refine=False),
        "find_alpha_d": lambda: fn("phase_analysis", "find_alpha_d")(0.4, 1e-4, GAUSS),
        "find_alpha_s": lambda: fn("phase_analysis", "find_alpha_s")(0.4, 1e-4, GAUSS),
        "find_alpha_c": lambda: fn("phase_analysis", "find_alpha_c")(0.4, 1e-4, GAUSS),
        "build_coupled_operator": build,
        "gen_instance": instance,
        "apply": lambda: fn("measurement_ops", "apply")(op["op"], op["inst"].x),
        "adjoint_apply": lambda: fn("measurement_ops", "adjoint_apply")(op["op"], op["inst"].y),
    }


def test_every_traced_function_leaves_a_span():
    tracer_module = load_tracer()
    calls = tiny_calls()
    traced = [name for names in tracer_module.TRACED.values() for name in names]
    assert sorted(calls) == sorted(traced)
    originals = {name: fn(layer, name) for layer, names in tracer_module.TRACED.items()
                 for name in names}
    tracer = tracer_module.Tracer()
    tracer.install(coupledcs)
    try:
        tracer.op = 0
        for name in traced:
            before = len(tracer.spans)
            calls[name]()
            assert name in {s.name for s in tracer.spans[before:]}, name
    finally:
        tracer.op = None
        tracer.uninstall()
    for layer, names in tracer_module.TRACED.items():
        for name in names:
            assert fn(layer, name) is originals[name]
    assert coupledcs.mmse is originals["mmse"]
