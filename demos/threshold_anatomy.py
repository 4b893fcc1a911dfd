"""Anatomy of the pointwise energy density and its critical charge level.

The local part of the energy functional has the pointwise density
1/8 + (d / sqrt(8)) s - (C0 / p) s^(p-2) in the rescaled variable s.
Below a critical charge level d0 the density dips negative, which is
what makes negative-energy states possible.  This script locates d0 by
bisection, shows the sign flip, and prints the fitted growth constants
for the default pure-power nonlinearity.

Run:  python3 demos/threshold_anatomy.py
"""

import numpy as np

from spvlab.models import (NonlinearityModel, bracket_stationary_point,
                           critical_charge_threshold, energy_density_bracket,
                           fit_cubic_bound, fit_growth_bound,
                           pointwise_energy_floor)


def main():
    model = NonlinearityModel.pure_power(2.5).with_constants(2.5)

    d0 = critical_charge_threshold(model.C0, model.p)
    s0 = bracket_stationary_point(d0, model.C0, model.p)
    print("pure power f(s) = s^(3/2)")
    print(f"  growth constant C0     = {model.C0:.12f}")
    print(f"  cubic bound constant   = {fit_cubic_bound(model):.12f}")
    print(f"  critical charge d0     = {d0:.12f}")
    print(f"  double-root location   = {s0:.12f}  (25/64 = {25 / 64})")
    print(f"  bracket at the root    = "
          f"{energy_density_bracket(d0, s0, model.C0, model.p):.3e}")
    print()

    print("sign of the bracket minimum around d0:")
    for factor in (0.5, 0.9, 1.0, 1.1, 2.0):
        d = factor * d0
        s = bracket_stationary_point(d, model.C0, model.p)
        val = energy_density_bracket(d, s, model.C0, model.p)
        floor = pointwise_energy_floor(d, model.C0, model.p)
        print(f"  d = {factor:4.2f} d0   min bracket = {val:+.6f}   "
              f"pointwise floor = {floor:+.6f}")
    print()

    # the growth constant for an offset exponent, as used when bounding
    # the nonlinearity between two powers
    base = NonlinearityModel.pure_power(2.5)
    for p in (2.6, 2.7, 2.8):
        print(f"  fitted C0 for comparison exponent p = {p}: "
              f"{fit_growth_bound(base, p):.10f}")

    # dump the bracket curve for the threshold charge, ready to plot
    s = np.linspace(1e-3, 2.0, 400)
    curve = np.column_stack(
        [s, [energy_density_bracket(d0, si, model.C0, model.p) for si in s]])
    np.savetxt("bracket_at_threshold.csv", curve, delimiter=",",
               header="s,bracket", comments="")
    print("\nwrote bracket_at_threshold.csv (the curve touches zero "
          "tangentially at s0)")


if __name__ == "__main__":
    main()
