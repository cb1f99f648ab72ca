"""1D discontinuous Galerkin solver on a combined polynomial / sub-cell
constant space with sensor-driven penalization of the polynomial modes."""

from .basis import assemble_mass, assemble_penalty_mass, gauss_rule
from .mesh import Mesh, build_uniform_mesh
from .physics import BoundaryCondition, make_law
from .projections import (
    InjectivityReport,
    NonInjectiveError,
    check_injectivity,
    project_avg_preserving,
    project_l2,
    project_lo,
    project_ho,
    project_penalized,
)
from .sensor import SensorConfig, SensorReport, evaluate_field_sensor
from .solver import Discretization, FieldState, SolverAbort, advance, ars222, imex_step
from .harness import RunConfig, convergence_study, error_norm, fv_reference, run_case

__all__ = [
    "Mesh", "build_uniform_mesh",
    "assemble_mass", "assemble_penalty_mass", "gauss_rule",
    "BoundaryCondition", "make_law",
    "InjectivityReport", "NonInjectiveError", "check_injectivity",
    "project_avg_preserving", "project_l2", "project_lo", "project_ho",
    "project_penalized",
    "SensorConfig", "SensorReport", "evaluate_field_sensor",
    "Discretization", "FieldState", "SolverAbort", "advance", "ars222",
    "imex_step",
    "RunConfig", "convergence_study", "error_norm", "fv_reference", "run_case",
]
