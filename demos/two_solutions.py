"""Two critical points of the autonomous functional: a well and a pass.

For a constant charge level sqrt(lambda) below the coupling threshold,
the energy landscape has a negative-energy global minimizer and a
positive-energy mountain-pass point between it and zero.  This script
certifies a coupling from the threshold bounds, descends to the
minimizer, runs the path-deformation saddle search, and writes both
radial profiles.

Run:  python3 demos/two_solutions.py   (a few seconds)
"""

import math
import warnings

import numpy as np

from spvlab.landscape import estimate_lambda_bounds
from spvlab.models import ChargeProfile, NonlinearityModel
from spvlab.radial import RadialField, RadialGrid
from spvlab.solvers import SolveOptions, minimize, mountain_pass


def main():
    model = NonlinearityModel.pure_power(2.5).with_constants(2.5)
    grid = RadialGrid(12.0, 4096)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        bounds = estimate_lambda_bounds(model, grid)
    lam = 2.0 * bounds.lambda0_lower
    print(f"threshold lower bound {bounds.lambda0_lower:.6g}, "
          f"upper bound {bounds.lambda0_upper:.6g}")
    print(f"running at lambda = {lam:.6g} "
          f"(certified inside the two-solution window)\n")

    rho = ChargeProfile.constant(math.sqrt(lam))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        start = RadialField.gaussian(grid, 30.0, 1.2)
        low = minimize(start, rho, model, SolveOptions(tol_grad_abs=1e-6))
    print(f"minimizer:     J = {low.energy:12.4f}   "
          f"residual = {low.gradient_norm:.2e}   "
          f"({low.iterations} iterations, {low.classification})")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        saddle = mountain_pass(low.field, rho, model,
                               SolveOptions(tol_grad_abs=1e-5))
    print(f"mountain pass: J = {saddle.energy:12.4f}   "
          f"residual = {saddle.gradient_norm:.2e}   "
          f"({saddle.iterations} iterations, {saddle.classification})")
    print(f"\nordering: {low.energy:.2f} < 0 < {saddle.energy:.2f}")

    low.field.to_csv("minimizer_profile.csv")
    saddle.field.to_csv("saddle_profile.csv")
    peak_low = float(np.max(low.field.values))
    peak_saddle = float(np.max(saddle.field.values))
    print(f"wrote minimizer_profile.csv (peak {peak_low:.2f}) and "
          f"saddle_profile.csv (peak {peak_saddle:.2f})")


if __name__ == "__main__":
    main()
