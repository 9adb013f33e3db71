"""Mixed finite-element Stokes solver with trace-space boundary data.

The package solves the 2D Stokes problem with non-homogeneous Dirichlet
data approximated in the discrete trace space, assembles the bordered
saddle-point system that carries the divergence defect of the approximate
datum, and verifies the predicted convergence orders against closed-form
corner-singular solutions on convex and reentrant test domains.
"""

from .assembly import (BorderedSystem, DiscreteSolution,
                       assemble_bordered_system, assemble_boundary_mass,
                       assemble_divergence, boundary_flux, compute_delta_h)
from .boundary_data import (BoundaryDatum, BoundaryTrace,
                            CompatibilityCorrector, build_corrector,
                            enforce_compatibility, interpolate_carstensen,
                            interpolate_lagrange, project_l2,
                            trace_of_solution)
from .cli import (StudyConfig, emit_table, run_convergence,
                  run_counterexample)
from .errors import (ConvergenceRecord, ErrorQuadrature, eoc, expected_order,
                     h1_seminorm_velocity_error, l2_pressure_error,
                     l2_velocity_error)
from .fe_spaces import (MINI, TAYLOR_HOOD, DofMap, ElementPairing,
                        QuadratureRule, build_dofmap, quadrature)
from .manufactured import (SingularSolution, eval_pressure, eval_velocity,
                           eval_velocity_gradient, solve_xi)
from .mesh import (Mesh, Polygon, build_domain, refine_uniform,
                   unit_square)
from .solver import LinearSolveReport, solve, solve_linear

__version__ = "0.1.0"
