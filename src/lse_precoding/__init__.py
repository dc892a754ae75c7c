"""Nonlinear least-square precoding toolkit: replica-symmetric large-system
predictions for penalized precoders and finite-n Monte Carlo validation."""

__version__ = "0.1.0"

from .numerics import RandomStream, ks_distance, q_function
from .penalty import PenaltySpec, ThresholdSet, prox_array, thresholds
from .replica import (ReplicaSolution, ReplicaState, SystemParams, calibrate,
                      decoupled_sample, fixed_point_update, make_state,
                      random_tas_baseline, solve_constant_envelope,
                      solve_fixed_point)
from .simulator import (MonteCarloReport, PrecodeProblem, PrecodeResult,
                        generate_problem, measure, monte_carlo, precode_ccd)

__all__ = [
    "RandomStream", "ks_distance", "q_function",
    "PenaltySpec", "ThresholdSet", "prox_array", "thresholds",
    "ReplicaSolution", "ReplicaState", "SystemParams", "calibrate",
    "decoupled_sample", "fixed_point_update", "make_state",
    "random_tas_baseline", "solve_constant_envelope", "solve_fixed_point",
    "MonteCarloReport", "PrecodeProblem", "PrecodeResult", "generate_problem",
    "measure", "monte_carlo", "precode_ccd",
]
