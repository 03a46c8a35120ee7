"""Model subspaces, dual certificates and recovery guarantees for
low-complexity convex regularizers."""

__version__ = "0.1.0"

from .linalg import (Subspace, OperatorBound, project, restricted_injectivity,
                     operator_bound)
from .gauges import (Gauge, L1, L2, Linf, GroupL1L2, PositivePartMax,
                     PolyhedralH, Precomposed, SumGauge, BlockPartition,
                     UnsupportedGaugeError, project_l1_ball)
from .polytopes import (Polytope, polytope_intersection_polar,
                        minkowski_sum_gauge, linear_image_gauge,
                        inverse_sum_polar_check, random_polytope)
from .model import (ModelDecomposition, PsflParams, SubdiffGauge,
                    decompose, decompose_l1, decompose_l2, decompose_linf,
                    decompose_group, decompose_polyhedral, precompose,
                    sum_decompositions, subdiff_membership,
                    directional_derivative, psfl_sum, psfl_precompose,
                    tv1d_gauge, DegenerateModelError)
from .certificates import (CertificateReport, StabilityConstants,
                           linearized_precertificate, irrepresentability,
                           check_noisy_optimality, check_noiseless_optimality,
                           stability_constants,
                           RestrictedInjectivityError)
from .solvers import (SolveResult, SolveOptions, solve_penalized,
                      solve_noiseless, solve_restricted, lasso_path,
                      SolverError)
from .lp import LpProblem, LpResult, lp_solve, LpNumericalError
from .experiments import (TrialRecord, SweepResult, SweepCell, cs_linf_bound,
                          run_linf_cs_trials, phase_transition_sweep,
                          model_selection_sweep, subspace_equal)
