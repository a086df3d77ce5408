"""Weighted lp-penalized least squares via thresholded Landweber iteration.

Each public name loads its module on first use (PEP 562), so importing
the package loads none of them, and a caller pays only for the modules
it touches.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "core": ("CoefficientVector", "WeightSequence", "PenaltySpec", "ObjectiveBreakdown",
             "as_coefficients", "triple_norm", "penalty_value", "objective",
             "surrogate_objective"),
    "errors": ("AlignmentError", "ParameterError", "ContractViolationError",
               "DescentViolationError"),
    "shrinkage": ("soft_threshold", "shrink_p", "shrink_complex", "shrink_asymmetric"),
    "operators": ("LinearOperatorHandle", "DiagonalOperator", "DenseOperator",
                  "Convolution2DOperator", "ScaledOperator", "renormalize",
                  "RenormalizedProblem", "validate_operator", "SvdModel",
                  "thresholded_svd_solve"),
    "solver": ("SolverConfig", "SolveTrace", "SolveResult", "iterate_step", "solve",
               "fixed_point_residual"),
    "transforms": ("WaveletSpec", "WaveletCoefficients", "dwt", "idwt", "BesovWeightSpec",
                   "besov_weights", "conjugated_operator"),
    "regularization": ("NoisePrior", "SpectralEnvelope", "MuScheduleReport", "mu_schedule",
                       "check_mu_requirements", "primed_radii", "modulus_bounds",
                       "besov_modulus_rate"),
    "experiment": ("CaseSpec", "DEFAULT_CASES", "ExperimentConfig", "ExperimentResult",
                   "NoisyData", "make_phantom", "add_poisson_noise", "count_profile_peaks",
                   "run_experiment"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    # later lookups find the name here and skip this function
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
