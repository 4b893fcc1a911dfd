"""Numerical variational laboratory for a Schroedinger-Poisson energy.

The library studies critical points of the functional

    J(u) = 1/2 ||u||_H1^2 + 1/4 int rho phi_{rho,u} u^2 - int F(u)

on H^1(R^3), where phi_{rho,u} solves -Delta phi = rho u^2 and F grows
subcritically.  Modules:

- ``models``: nonlinearities, charge profiles, fitted growth constants,
  the critical charge threshold, coercivity floors, hypothesis checks.
- ``radial``: radially symmetric discretization with an O(n) Newtonian
  potential and exact discrete energy gradients, and its solver kernel.
- ``field3d``: full 3-D cube discretization with FFT free-space Poisson
  solves and spectral H^1 machinery, and its solver kernel.
- ``solvers``: Sobolev-gradient descent, multistart global search,
  path-deformation saddle search, critical-point classification.
- ``landscape``: coupling-threshold bounds with stored witnesses,
  truncation to compact support, semi-analytic multibump energies.
- ``cli``: named, reproducible experiment scenarios with JSON configs
  and machine-readable reports.
"""

from .models import (ChargeProfile, CoercivityFloor, ConditionReport,
                     ModelError, NonlinearityModel, bracket_stationary_point,
                     coercivity_floor, critical_charge_threshold, eval_F,
                     eval_f, fit_cubic_bound, fit_growth_bound,
                     fit_nehari_cubic_bound, pointwise_energy_floor,
                     validate_conditions)
from .radial import (DiscretizationError, PoissonPotential, RadialField,
                     RadialGrid, energy_radial, h1_inner, h1_norm_sq,
                     l2_norm_sq, nehari_residual, nonlocal_term,
                     poisson_radial, potential_gradient_energy,
                     sobolev_gradient_radial, strauss_check)
from .field3d import (Field3D, Grid3D, embed_radial, energy_3d,
                      h1_inner_3d, h1_norm_sq_3d, nehari_residual_3d,
                      nonlocal_term_3d, poisson_freespace, radial_average,
                      sobolev_gradient_3d, support_radius)
from .solvers import (SolveOptions, SolveResult, SolverError, TracePoint,
                      cube_gaussian_starts, minimize, mountain_pass,
                      multistart_minimize, radial_gaussian_starts,
                      trace_to_csv)
from .landscape import (LambdaBounds, MultibumpReport, MultibumpSpec,
                        TruncationResult, TruncationRow, a0_ratio,
                        abar0_ratio, apply_cutoff, coulomb_self_energy,
                        cutoff_psi, estimate_lambda_bounds, membership_A0,
                        membership_Abar0, multibump_energy, multibump_sweep,
                        truncate_and_tune, truncation_sweep)
from .cli import (ExperimentReport, ScenarioConfig, Verdict, emit_plot_data,
                  load_config, run)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
