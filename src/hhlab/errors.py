"""Exception types shared across the laboratory modules."""


class HHLabError(Exception):
    """Base class for all laboratory errors."""


class KernelDomainError(HHLabError, ValueError):
    """Kernel order or evaluation point outside the admissible domain."""


class QuadratureError(HHLabError, RuntimeError):
    """A quadrature estimate was not finite or disagreed between its
    refinement levels."""


class GridError(HHLabError, ValueError):
    """Grid is malformed or too coarse for the requested operation."""


class NonIntegrableSourceError(HHLabError, ValueError):
    """Radial source times r^(n-1) overflows the float range on the grid."""


class ConvergenceError(HHLabError, RuntimeError):
    """An iterative solver did not converge within its iteration budget."""


class IntegratorError(HHLabError, RuntimeError):
    """Adaptive ODE integration failed (step-size underflow or budget)."""


class AmplitudeRangeError(HHLabError, ArithmeticError):
    """An amplitude bound lies outside the range of normal floats."""
