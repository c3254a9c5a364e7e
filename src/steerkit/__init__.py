"""Collective EPR steering of a mechanical oscillator in pulsed optomechanics.

Closed-form output-mode covariances, an independent moment-propagation
oracle (deterministic and Monte Carlo), steering witnesses with threshold
solvers, and a scenario-driven CLI.
"""

__version__ = "0.1.0"

from .closedform import (
    collective_steering_value,
    output_block,
    single_steering_value,
    threshold_r,
)
from .dynamics import (
    LinearModel,
    OutputCovariance,
    TemporalKernel,
    build_full_model,
    build_reduced_model,
    monte_carlo_output_covariance,
    propagate_output_covariance,
)
from .model import (
    DerivedQuantities,
    PhysicalParams,
    ReducedParams,
    WorkingPoint,
    derive_working_point,
    derived_quantities,
    reduce,
    reduced_from_ratios,
)
from .steering import (
    ThresholdResult,
    noise_threshold,
    r_crossing,
    steering_product,
    steering_region,
)

__all__ = [
    "__version__",
    "collective_steering_value", "output_block", "single_steering_value",
    "threshold_r",
    "LinearModel", "OutputCovariance", "TemporalKernel", "build_full_model",
    "build_reduced_model", "monte_carlo_output_covariance",
    "propagate_output_covariance",
    "DerivedQuantities", "PhysicalParams", "ReducedParams", "WorkingPoint",
    "derive_working_point", "derived_quantities", "reduce",
    "reduced_from_ratios",
    "ThresholdResult", "noise_threshold", "r_crossing", "steering_product",
    "steering_region",
]
