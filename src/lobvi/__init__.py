"""Sixth-order variational integrators built on 4-point Lobatto quadrature.

The harmonic oscillator steps through an exactly symplectic closed-form
2x2 update with a conserved discrete energy; the nonlinear pendulum steps
through a Newton solve of the discrete stationarity equations.  Exact
references (trigonometric and Jacobi-elliptic), an implicit-midpoint
baseline, error/convergence/drift analysis, and a CSV experiment CLI
round out the package.
"""

from .analysis import (
    ConvergenceTable,
    StabilityScan,
    TrajectoryRecord,
    convergence_table,
    energy_drift_series,
    estimate_order,
    linf_error,
    map_jacobian_determinant,
    stability_scan,
)
from .cli import ConfigError, ExperimentConfig, main, parse_config, run
from .exact import (
    HarmonicExact,
    PendulumExact,
    complete_elliptic_K,
    harmonic_exact,
    oracle_integrate,
    pendulum_exact,
)
from .harmonic import (
    EliminationError,
    HarmonicParams,
    TransferMatrix,
    center_residual,
    discrete_energy,
    discrete_lagrangian,
    internal_dofs,
    kinetic_form,
    reduced_lagrangian,
    right_momentum,
    run_harmonic,
    stability_limit,
    step_harmonic,
    taylor_samples,
    transfer_matrix,
    truncation_leading_term,
)
from .mechanics import (
    ElementState,
    PhasePoint,
    PotentialModel,
    StepParams,
    energy,
    free_potential,
    harmonic_potential,
    pendulum_potential,
)
from .midpoint import run_midpoint, step_midpoint
from .pendulum import (
    NewtonConfig,
    NewtonError,
    StepUnknowns,
    discrete_lagrangian_nl,
    dynamics_residual,
    internal_equations_residual,
    jacobian_dFL,
    newton_step_solve,
    run_pendulum,
    step_pendulum,
    symplecticity_defect,
)
from .quadrature import (
    QuadratureRule,
    StiffnessMatrix,
    assemble_stiffness,
    eval_basis,
    eval_basis_deriv,
    integrate_unit,
    interpolate,
    lobatto_rule,
    stiffness_matrix,
)

__version__ = "0.1.0"
