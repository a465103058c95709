"""Solver library for 2D Sobolev / regularized long wave equations.

High-order wide-stencil finite differences in space, three-level
leapfrog/trapezoidal time stepping, pentadiagonal line solves, and a
benchmark harness for convergence studies and discrete-identity checks.
"""

__version__ = "0.14.0"

from .errors import (BlowUpError, ConfigurationError, FrameError,
                     GridMismatchError, NumericalError, PicardError,
                     SamplingError, SingularSystemError)
from .grid import Field, Grid2D, TimeGrid, make_grid, sample
from .harness import (ConvergenceRow, RunManifest, VerifyReport,
                      convergence_study, emit_csv, emit_solution_csv,
                      emit_svg, rate, verify_suite)
from .norms import (NormReport, SbpResiduals, directional_energy, h2_norm,
                    inner, l2_norm, sbp_residuals)
from .penta import (PentaBands, PentaFactorization, TensorLineSolver, factor,
                    solve_line)
from .problems import (ProblemSpec, ResidualCheck, example1, example2,
                       example3, get_problem, manufactured, residual_check)
from .scheme import (SchemeConfig, SchemeState, SolutionRecord,
                     StepDiagnostics, advance, cn_x_step, cn_y_step,
                     fill_boundary_layers, init_half_step, leapfrog_x_step,
                     make_time_grid, run, time_step_rule)
from .stencils import (Axis, half_diff, second_diff, wide_first, wide_second)
