"""Bayes-optimal MSE analysis of compressed sensing with spatially-coupled
row-orthogonal (subsampled DFT) and i.i.d. Gaussian measurement ensembles."""

__version__ = "0.1.0"

from .coupling import SeedingParams, build_seeding_spec, spec_from_json, spec_to_json
from .errors import ConvergenceError, QuadratureError
from .measurement_ops import CoupledOperator, adjoint_apply, apply, build_coupled_operator, gen_instance
from .phase_analysis import (FreeEntropyCurve, NoTransitionError, PhasePoint, find_alpha_c,
                             find_alpha_d, find_alpha_s, scan_curve, sweep_phase_diagram)
from .replica_core import (ConjugateState, CouplingSpec, Ensemble, conjugate_fixed_point,
                           free_entropy, free_entropy_grid, single_block_spec)
from .scalar_channel import BernoulliGaussianPrior, ScalarChannel, mmse, mmse_mc_oracle, posterior_mean
from .state_evolution import EvolutionTrace, iterations_to_good_mse, run_evolution

__all__ = [
    "BernoulliGaussianPrior", "ScalarChannel", "posterior_mean", "mmse", "mmse_mc_oracle",
    "CouplingSpec", "ConjugateState", "Ensemble", "conjugate_fixed_point", "free_entropy",
    "free_entropy_grid", "single_block_spec",
    "EvolutionTrace", "run_evolution", "iterations_to_good_mse",
    "FreeEntropyCurve", "PhasePoint", "NoTransitionError", "scan_curve", "find_alpha_d",
    "find_alpha_s", "find_alpha_c", "sweep_phase_diagram",
    "SeedingParams", "build_seeding_spec", "spec_to_json", "spec_from_json",
    "CoupledOperator", "build_coupled_operator", "apply", "adjoint_apply", "gen_instance",
    "QuadratureError", "ConvergenceError",
]
