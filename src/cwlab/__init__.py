"""cwlab: a numerical laboratory for nonlinear interaction of conormal waves.

The package provides

* periodic spectral grids, transforms, and singularity-order diagnostics
  (:mod:`cwlab.spectral`),
* synthesis and calculus of one-dimensional conormal profiles, including
  Taylor/singular splittings and exact-rational spectral mollifiers
  (:mod:`cwlab.profiles`),
* triple-weighted Sobolev norms and resolution-ladder membership scans
  (:mod:`cwlab.beals`),
* a pseudospectral semilinear wave solver in two space dimensions with an
  exact linear propagator (:mod:`cwlab.solver`),
* the three-wave interaction experiment: data builders, nonlinear response
  extraction, cone diagnostics, amplitude scaling and coefficient recovery
  (:mod:`cwlab.interaction`).
"""

__version__ = "0.1.0"

from . import beals, interaction, profiles, solver, spectral

__all__ = [
    "beals",
    "interaction",
    "profiles",
    "solver",
    "spectral",
    "__version__",
]
