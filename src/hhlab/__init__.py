"""Numerical laboratory for critical- and super-critical-order Hardy-Henon
equations: Riesz/Green kernels, the radial poly-harmonic machinery, the
blow-up iteration ladder, a Navier fixed-point solver on balls, and a
shooting classifier for whole-space Liouville evidence."""

from .errors import (ConvergenceError, GridError, HHLabError,
                     IntegratorError, KernelDomainError,
                     NonIntegrableSourceError, QuadratureError)
from .kernels import green_ball, riesz_compose_check, riesz_constant
from .ladder import (ClosedFormBound, LadderState, default_alpha0,
                     divergence_threshold, geometry_constant, ladder_advance,
                     ladder_advance_direct, ladder_closed_form, ladder_table,
                     monomial_poisson_coefficient)
from .liouville import (OutcomeKind, RepresentationCheck, ScanResult,
                        ShootingOutcome, bubble_amplitude, bubble_oracle,
                        reference_axes, representation_check, scan, shoot,
                        shoot_from)
from .navier import (EigenPair, NavierProblem, NavierSolution, apply_K,
                     blowup_normalize, energy_bound_check,
                     first_dirichlet_eigenvalue_oracle, first_eigenpair,
                     kelvin_transform, radial_monotonicity_check, rho_radius,
                     shooting_oracle_sup_norm, solve_positive,
                     torsion_bound_check, torsion_function)
from .radial import (HardyHenonParams, RadialField, RadialGrid,
                     iterated_green, poisson_solve_ball, polyharmonic_apply,
                     radial_laplacian, rescale, singular_solution)

__version__ = "0.1.0"
