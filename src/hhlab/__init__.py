"""Numerical laboratory for critical- and super-critical-order Hardy-Henon
equations: Riesz/Green kernels, the radial poly-harmonic machinery, the
blow-up iteration ladder, a Navier fixed-point solver on balls, and a
shooting classifier for whole-space Liouville evidence.

An exported name is imported from its submodule when it is read (PEP 562),
so `import hhlab` and `import hhlab.cli` do not import `navier` and `radial`,
and with them scipy. Nothing is cached here: each read returns the
submodule's current binding.
"""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "errors": ("ConvergenceError", "GridError", "HHLabError",
               "IntegratorError", "KernelDomainError",
               "NonIntegrableSourceError", "QuadratureError"),
    "kernels": ("green_ball", "riesz_compose_check", "riesz_constant"),
    "ladder": ("ClosedFormBound", "LadderState", "default_alpha0",
               "divergence_threshold", "geometry_constant", "ladder_advance",
               "ladder_advance_direct", "ladder_closed_form", "ladder_table",
               "monomial_poisson_coefficient"),
    "liouville": ("OutcomeKind", "RepresentationCheck", "ScanResult",
                  "ShootingOutcome", "bubble_amplitude", "bubble_oracle",
                  "reference_axes", "representation_check", "scan", "shoot",
                  "shoot_from"),
    "navier": ("EigenPair", "NavierProblem", "NavierSolution", "apply_K",
               "blowup_normalize", "energy_bound_check",
               "first_dirichlet_eigenvalue_oracle", "first_eigenpair",
               "kelvin_transform", "radial_monotonicity_check", "rho_radius",
               "shooting_oracle_sup_norm", "solve_positive",
               "torsion_bound_check", "torsion_function"),
    "numerics": ("HardyHenonParams",),
    "radial": ("RadialField", "RadialGrid", "iterated_green",
               "poisson_solve_ball", "polyharmonic_apply", "radial_laplacian",
               "rescale", "singular_solution"),
}.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
