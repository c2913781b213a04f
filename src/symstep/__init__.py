"""Symmetric implicit integrators for separable Hamiltonian systems.

The package provides one explicit baseline (velocity Verlet) and a family of
self-adjoint implicit schemes that solve a per-step nonlinear system in the
new position, plus the models, solvers, and diagnostics needed to study them.
"""

from .config import ConfigError, ExperimentConfig, kepler_start, parse_config
from .diagnostics import (DriftSeries, OrderEstimate, analytic_reference,
                          angular_momentum_series, convergence_order,
                          energy_drift, fit_order, map_symplecticity_defect,
                          reversibility_error, symplecticity_defect)
from .integrators import (SchemeVariant, StepError, StepResult, Trajectory,
                          as_variant, build_step_system, integrate,
                          s3_momentum_update, step, step_action)
from .models import (DerivativeReport, EnergyValue, PhaseState,
                     PotentialModel, SingularityError, hamiltonian_energy,
                     make_model, validate_derivatives)
from .solvers import SolverConfig, SolverReport, solve_newton

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DerivativeReport",
    "DriftSeries",
    "EnergyValue",
    "ExperimentConfig",
    "OrderEstimate",
    "PhaseState",
    "PotentialModel",
    "SchemeVariant",
    "SingularityError",
    "SolverConfig",
    "SolverReport",
    "StepError",
    "StepResult",
    "Trajectory",
    "analytic_reference",
    "angular_momentum_series",
    "as_variant",
    "build_step_system",
    "convergence_order",
    "energy_drift",
    "fit_order",
    "hamiltonian_energy",
    "integrate",
    "kepler_start",
    "make_model",
    "map_symplecticity_defect",
    "parse_config",
    "reversibility_error",
    "s3_momentum_update",
    "solve_newton",
    "step",
    "step_action",
    "symplecticity_defect",
    "validate_derivatives",
    "__version__",
]
