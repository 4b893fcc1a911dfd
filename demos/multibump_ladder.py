"""The multibump energy ladder: splitting mass drives the infimum down.

A compactly supported bump with negative autonomous energy is computed
by ball-constrained descent; N translated copies placed at mutually
distant centers then have energy close to N times the single-bump value
plus controlled Coulomb cross terms.  The ladder J(w_N) decreases
linearly in N, which is how one shows the full-space infimum is not
attained for slowly varying charge profiles.

Run:  python3 demos/multibump_ladder.py   (a few seconds)
"""

import math
import warnings

import numpy as np

from spvlab.landscape import (estimate_lambda_bounds, multibump_sweep,
                              tapered_ball_start)
from spvlab.models import ChargeProfile, NonlinearityModel
from spvlab.radial import RadialGrid
from spvlab.solvers import SolveOptions, minimize


def main():
    model = NonlinearityModel.pure_power(2.5).with_constants(2.5)
    grid = RadialGrid(12.0, 4096)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        bounds = estimate_lambda_bounds(model, grid)
    lam = 2.0 * bounds.lambda0_lower
    r0 = 3.5

    # a negative-energy bump confined to a ball of radius R0
    rho_auto = ChargeProfile.constant(math.sqrt(lam))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        bump = minimize(tapered_ball_start(grid, r0), rho_auto, model,
                        SolveOptions(tol_grad=1e-6), support_radius=r0).field

    # slowly varying charge: the rescaled profile stays below
    # sqrt(lambda) on the ball holding every bump
    profile = ChargeProfile.rational(0.04, 2.0).scaled(1.0 / 16.0)
    reports, c_const = multibump_sweep([1, 2, 3, 4, 5], r0, bump,
                                       profile, model, lam)
    single = reports[0].single_energy
    print(f"single confined bump: J = {single:.4f} inside radius {r0}")
    print(f"uniform ladder constant C = {c_const:.4f}\n")
    print(" N   centers at N^3      J(w_N)        N*J1 + C    cross bound")
    rows = []
    for rep in reports:
        n = rep.spec.N
        bound = n * rep.single_energy + c_const
        flag = "ok" if rep.printed_bound_holds else "VIOLATED"
        print(f"{n:2d}   spacing {n ** 3:4d}   {rep.energy:12.4f} "
              f"{bound:14.4f}   {flag}")
        rows.append([n, rep.energy, bound])
    np.savetxt("multibump_ladder.csv", np.asarray(rows), delimiter=",",
               header="n_bumps,energy,linear_bound", comments="")
    print("\nwrote multibump_ladder.csv")


if __name__ == "__main__":
    main()
