"""When does the best field stop being radial?  A semi-analytic sweep.

With a radial charge profile that is small near the origin and rises to
a large value at infinity, slowing the profile's variation (epsilon to
zero) enlarges the favorable low-charge region until two separated
bumps beat any single radial bump: the Coulomb repulsion saved by
splitting exceeds the profile penalty of sitting off-center.  This
script sweeps epsilon and compares the radial minimum against a
two-bump estimate (two constant-charge bumps plus their exact Coulomb
cross term) without touching a 3-D grid.  The full 3-D confirmation is
the `spvlab symmetry-breaking` scenario.

Run:  python3 demos/symmetry_breaking_sweep.py  (a few minutes, one core)
"""

import math
import warnings

import numpy as np

from spvlab.landscape import estimate_lambda_bounds
from spvlab.models import ChargeProfile, NonlinearityModel
from spvlab.radial import RadialField, RadialGrid, l2_norm_sq
from spvlab.solvers import SolveOptions, minimize


def main():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = NonlinearityModel.pure_power(2.5).with_constants(2.5)
    grid = RadialGrid(18.0, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        bounds = estimate_lambda_bounds(model, grid)
    lam = 2.0 * bounds.lambda0_lower
    rho0 = 0.9 * math.sqrt(lam)
    profile = ChargeProfile.rational(rho0, 2.0)
    offset = 7.0
    print(f"lambda = {lam:.6g}, rho(0) = {rho0:.6g}, "
          f"bumps offset to +/-{offset}\n")

    opts = SolveOptions(tol_grad=1e-5, max_iter=4000)
    print("  eps       radial theta   two-bump estimate   splitting pays?")
    rows = []
    for eps in (0.05, 0.025, 0.0125, 0.00625, 0.003125):
        prof_eps = profile.scaled(eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            theta = minimize(RadialField.gaussian(grid, 30.0, 1.2),
                             prof_eps, model, opts).energy
            local_rho = float(prof_eps.at_radius(offset))
            local = minimize(RadialField.gaussian(grid, 30.0, 1.2),
                             ChargeProfile.constant(local_rho), model, opts)
        charge = local_rho * l2_norm_sq(local.field)
        cross = charge * charge / (4.0 * math.pi * 2.0 * offset)
        est = 2.0 * local.energy + 0.5 * cross
        pays = est < theta
        print(f"  {eps:8.6f}  {theta:12.2f}   {est:16.2f}"
              f"         {'yes' if pays else 'no'}")
        rows.append([eps, theta, est])
    np.savetxt("symmetry_breaking_sweep.csv", np.asarray(rows),
               delimiter=",", header="eps,theta,two_bump_estimate",
               comments="")
    print("\nwrote symmetry_breaking_sweep.csv; splitting becomes "
          "favorable once the profile is flat across both bump sites")


if __name__ == "__main__":
    main()
