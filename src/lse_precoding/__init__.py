"""Nonlinear least-square precoding toolkit: replica-symmetric large-system
predictions for penalized precoders and finite-n Monte Carlo validation."""

__version__ = "0.1.0"

from .numerics import (RandomStream, find_root_1d, ks_distance, q_function,
                       radial_expectation)
from .penalty import (PenaltySpec, Support, ThresholdSet, penalty_value, prox,
                      prox_array, prox_oracle, thresholds)
from .replica import (ReplicaSolution, ReplicaState, SystemParams, calibrate,
                      decoupled_sample, fixed_point_update, make_state,
                      random_tas_baseline, solve_constant_envelope,
                      solve_fixed_point)
from .simulator import (MonteCarloReport, PrecodeProblem, PrecodeResult,
                        generate_problem, measure, monte_carlo, precode_ccd,
                        precode_rzf, random_tas_rzf)
from .spectral import (RTransform, asymptotic_distortion, lambda_rs,
                       marcenko_pastur)

__all__ = [
    "RandomStream", "find_root_1d", "ks_distance", "q_function",
    "radial_expectation",
    "PenaltySpec", "Support", "ThresholdSet", "penalty_value", "prox",
    "prox_array", "prox_oracle", "thresholds",
    "ReplicaSolution", "ReplicaState", "SystemParams", "calibrate",
    "decoupled_sample", "fixed_point_update", "make_state",
    "random_tas_baseline", "solve_constant_envelope", "solve_fixed_point",
    "MonteCarloReport", "PrecodeProblem", "PrecodeResult", "generate_problem",
    "measure", "monte_carlo", "precode_ccd", "precode_rzf", "random_tas_rzf",
    "RTransform", "asymptotic_distortion", "lambda_rs", "marcenko_pastur",
]
