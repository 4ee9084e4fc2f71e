"""Numerical laboratory for critical- and super-critical-order Hardy-Henon
equations: Riesz/Green kernels, the radial poly-harmonic machinery, the
blow-up iteration ladder, a Navier fixed-point solver on balls, and a
shooting classifier for whole-space Liouville evidence.

Each name is imported from the submodule that defines it (`hhlab.radial`,
`hhlab.liouville`, ...), so `import hhlab` loads no submodule and no numpy.
"""

__version__ = "0.1.0"
