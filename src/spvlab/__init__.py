"""Numerical variational laboratory for a Schroedinger-Poisson energy.

The library studies critical points of the functional

    J(u) = 1/2 ||u||_H1^2 + 1/4 int rho phi_{rho,u} u^2 - int F(u)

on H^1(R^3), where phi_{rho,u} solves -Delta phi = rho u^2 and F grows
subcritically.  Modules:

- ``models``: nonlinearities, constant and rational charge profiles,
  fitted growth constants, the critical charge threshold, coercivity
  floors, hypothesis checks.
- ``radial``: radially symmetric discretization with an O(n) Newtonian
  potential and exact discrete energy gradients, and its solver kernel.
- ``field3d``: full 3-D cube discretization with FFT free-space Poisson
  solves and spectral H^1 machinery, and its solver kernel.
- ``solvers``: Sobolev-gradient descent, multistart global search,
  path-deformation saddle search, critical-point classification.
- ``landscape``: coupling-threshold bounds with stored witnesses, a
  smooth cutoff to compact support, semi-analytic multibump energies.
- ``cli``: named, reproducible experiment scenarios with JSON configs
  and machine-readable reports.

The package namespace holds the names of the quick start (grids, fields,
charge profiles, nonlinearities, ``SolveOptions`` and ``minimize``) and
the three error types; everything else is imported from its module.
"""

from .field3d import Field3D, Grid3D
from .models import ChargeProfile, ModelError, NonlinearityModel
from .radial import DiscretizationError, RadialField, RadialGrid
from .solvers import SolveOptions, SolverError, minimize

__version__ = "0.1.0"

__all__ = ["ChargeProfile", "DiscretizationError", "Field3D", "Grid3D",
           "ModelError", "NonlinearityModel", "RadialField", "RadialGrid",
           "SolveOptions", "SolverError", "minimize"]
