"""Energy-landscape quantities: coupling thresholds and multibump fields.

Two variational thresholds govern the coupling constant of the
autonomous functional J(u) = 1/2 ||u||^2 + (lambda/4) int phi_u u^2
- int F(u): below four times the first threshold nontrivial
negative-energy states exist, above the second only the zero field
solves the equation.  Both thresholds are suprema over
infinite-dimensional sets, so only certified bounds are computed: one
lower bound for the energy threshold, from an explicit witness field (a
two-parameter family of scaled Gaussians by default), and an upper bound
for each threshold from the fitted cubic growth constants.

The second half of the module holds the compact-support machinery: a
C^1 cutoff that tapers a field to a ball, and the assembly of N-bump
trial fields from one compactly supported bump, whose energy is
evaluated semi-analytically (exact for disjoint supports), and the
eps-sweep of symmetry breaking, which sets a two-bump energy estimate
against the radial level.
Widely separated bumps under a flattening charge rescaling drive the
energy infimum toward minus infinity, which is the mechanism behind
non-radial ground states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from .models import (ChargeProfile, ModelError, NonlinearityModel, eval_F,
                     fit_cubic_bound, fit_nehari_cubic_bound)
from .radial import (FOUR_PI, DiscretizationError, RadialField, RadialGrid,
                     energy_radial, h1_norm_sq, l2_norm_sq, nonlocal_term)
from .solvers import SolveOptions, minimize

_UNIT_CHARGE = ChargeProfile.constant(1.0)


def coulomb_self_energy(u: RadialField) -> float:
    """int phi_u u^2 with unit charge: the bare Coulomb self-interaction."""
    return nonlocal_term(u, _UNIT_CHARGE)


# ---------------------------------------------------------------------------
# Membership in the threshold set and the witness ratio
# ---------------------------------------------------------------------------

def membership_A0(u: RadialField, model: NonlinearityModel
                  ) -> Tuple[float, bool]:
    """Excess of the potential term over the quadratic: int F(u) - 1/2 ||u||^2.

    Positive excess puts u in the admissible set for the lower threshold.
    """
    value = (u.grid.integrate(eval_F(model, u.values))
             - 0.5 * h1_norm_sq(u))
    return value, value > 0.0


def a0_ratio(u: RadialField, model: NonlinearityModel) -> Optional[float]:
    """(int F(u) - 1/2 ||u||^2) / int phi_u u^2, or None outside the set."""
    excess, inside = membership_A0(u, model)
    if not inside:
        return None
    return excess / coulomb_self_energy(u)


@dataclass(frozen=True)
class LambdaBounds:
    """Certified lower and upper bounds on the energy threshold.

    The lower bound is None when the trial family never enters the
    admissible set; when present it is witnessed by a stored field whose
    ratio reproduces it exactly.  The derivative threshold's upper bound
    is ``lambdabar0_upper_bound``.
    """

    lambda0_lower: Optional[float]
    lambda0_upper: float
    witness_a0: Optional[RadialField] = field(repr=False, default=None)


def lambdabar0_upper_bound(model: NonlinearityModel) -> float:
    """Cbar^2/2, the closed-form upper bound of the derivative threshold,
    with Cbar from the fit f(s) s <= s^2 + Cbar s^3."""
    return 0.5 * fit_nehari_cubic_bound(model) ** 2


# Amplitudes evaluated together in the ranking scan: a 4 x (n+1) block
# stays in cache and keeps the temporaries small.
_RANK_BLOCK = 4
# Relative bound on the gap between a ranked ratio and the exact one.
# Both come from the same nodal values and differ only in the order of
# their sums, at most about n eps of the summed magnitudes, so this
# covers grids up to millions of nodes.
_RANK_TOL = 1e-9


def _rank_family(model: NonlinearityModel, grid: RadialGrid,
                 sigmas: Sequence[float], ts: np.ndarray):
    """The witness ratio over the family t * g_sigma, ranked cheaply.

    Under u = t g the H^1 term scales exactly as t^2 and the Coulomb
    term as t^4, so each width needs one h1_norm_sq and one Poisson
    solve; only int F(t g) is evaluated per amplitude, a block of
    amplitudes at a time.  Returns the ranked values of the A0 ratio
    and a bound on their gap to the exact ratios, each of shape
    (len(sigmas), len(ts)).
    """
    # int F and int |F| for every (sigma, t)
    sums = np.empty((2, len(sigmas), len(ts)))
    h1 = np.empty(len(sigmas))
    coul = np.empty(len(sigmas))
    for i, sig in enumerate(sigmas):
        g = RadialField.gaussian(grid, 1.0, float(sig))
        h1[i] = h1_norm_sq(g)
        coul[i] = coulomb_self_energy(g)
        for j in range(0, len(ts), _RANK_BLOCK):
            F = eval_F(model, ts[j:j + _RANK_BLOCK, None] * g.values)
            sums[:, i, j:j + _RANK_BLOCK] = np.stack([F, np.abs(F)]) @ grid.w
    F, F_abs = sums
    t2 = ts * ts
    quad = 0.5 * t2 * h1[:, None]
    coulomb = t2 * t2 * coul[:, None]
    # t = 0 gives 0/0, a NaN that no comparison selects; its exact
    # excess is 0, outside the set
    with np.errstate(divide="ignore", invalid="ignore"):
        return ((F - quad) / coulomb,
                _RANK_TOL * (F_abs + quad) / coulomb)


def estimate_lambda_bounds(model: NonlinearityModel, grid: RadialGrid,
                           sigma_grid: Optional[np.ndarray] = None,
                           t_grid: Optional[np.ndarray] = None
                           ) -> LambdaBounds:
    """Scan the family {t * gaussian(sigma)} for the energy threshold's
    lower bound; add its closed-form upper bound C1^2/2.

    The amplitude and width run over log grids with a bounded local
    refinement of the amplitude at the best width.

    The grid scan only ranks.  Along u = t g the H^1 term is exactly
    t^2 ||g||^2 and the Coulomb term t^4 int phi_g g^2, so one Poisson
    solve per width ranks every amplitude (``_rank_family``).  The
    ranked ratios differ from the exact ones by rounding alone, so the
    exact ratio (``a0_ratio``) is re-evaluated at the points whose
    rounding band reaches the best ranked value, usually the winner
    alone.  The first strict maximum in (sigma, t) order among them is
    the one a point-by-point scan of exact ratios would keep, and the
    bounded refinement and the witness start from it.

    The last few results are kept, keyed by the values of the model,
    the grid and both scan grids, so a repeated scan is not redone;
    their witness arrays are read-only.
    """
    if sigma_grid is None:
        # widths capped so the trial fields decay inside the grid
        hi = grid.r_max / 5.3
        sigma_grid = np.geomspace(0.4, max(hi, 0.5), 24)
    if t_grid is None:
        t_grid = np.geomspace(1.0, 1e3, 160)
    return _scan_bounds(model, grid, tuple(map(float, sigma_grid)),
                        tuple(map(float, t_grid)))


# A scenario scans once; the same scan comes back when one process runs
# several scenarios on one grid (autonomous and multibump at the default
# radial grid) and in the tests and demos.  An entry costs one witness.
@functools.lru_cache(maxsize=8)
def _scan_bounds(model: NonlinearityModel, grid: RadialGrid,
                 sigma_grid: Tuple[float, ...],
                 t_grid: Tuple[float, ...]) -> LambdaBounds:
    """``estimate_lambda_bounds`` on scan grids given as tuples."""
    sigmas = np.array(sigma_grid)
    ts = np.array(t_grid)
    c1 = model.C1 if model.C1 is not None else fit_cubic_bound(model)
    ranked, gap = _rank_family(model, grid, sigmas, ts)

    # every exact maximizer's band reaches the floor, so it is among
    # the candidates, which keep the (sigma, t) order
    lo, hi = ranked - gap, ranked + gap
    floor = np.max(lo, initial=0.0, where=~np.isnan(lo))
    best_val, best_field = None, None
    for i, j in zip(*np.nonzero(hi >= floor)):
        sig, t = float(sigmas[i]), float(ts[j])
        g = RadialField.gaussian(grid, 1.0, sig)
        val = a0_ratio(RadialField(grid, t * g.values), model)
        if val is not None and (best_val is None or val > best_val):
            best_val, best_field = val, (sig, t)
    lower, witness = None, None
    if best_val is not None:
        sig, t0 = best_field
        g = RadialField.gaussian(grid, 1.0, sig)

        def neg(logt):
            u = RadialField(grid, math.exp(logt) * g.values)
            val = a0_ratio(u, model)
            return -val if val is not None else 0.0

        res = optimize.minimize_scalar(
            neg, bounds=(math.log(t0) - 1.0, math.log(t0) + 1.0),
            method="bounded", options={"xatol": 1e-12})
        t_best = math.exp(res.x) if -res.fun > best_val else t0
        witness = RadialField(grid, t_best * g.values)
        witness.values.flags.writeable = False
        # the stored bound is the witness's own ratio, so re-evaluation
        # reproduces it bit for bit
        lower = a0_ratio(witness, model)
    return LambdaBounds(lambda0_lower=lower, lambda0_upper=0.5 * c1 ** 2,
                        witness_a0=witness)


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------

def smoothstep(r, r0: float, r1: float):
    """C^1 cubic smoothstep in r: 1 on [0, r0], 0 on [r1, inf), slope at
    most 1.5 / (r1 - r0)."""
    x = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    return 1.0 - x * x * (3.0 - 2.0 * x)


# ---------------------------------------------------------------------------
# Multibump assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultibumpSpec:
    """Geometry of an N-bump trial field.

    Bumps of support radius R0 sit at centers (0, 0, i * N^3) for
    i = 1..N; the charge rescaling parameter is 1/(N^4 + R0), placing
    every bump inside the ball of radius N^4 + R0.  Disjoint supports
    require N^3 > 2 R0.
    """

    R0: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ModelError("need at least one bump")
        if self.R0 <= 0.0:
            raise ModelError("truncation radius must be positive")
        # a single bump has no pair to overlap with
        if self.N >= 2 and self.N ** 3 <= 2.0 * self.R0:
            raise ModelError(
                f"overlapping bumps: N^3 = {self.N ** 3} must exceed "
                f"2 R0 = {2.0 * self.R0}")

    @property
    def eps_N(self) -> float:
        return 1.0 / (self.N ** 4 + self.R0)

    @property
    def centers(self) -> np.ndarray:
        return np.array([[0.0, 0.0, i * self.N ** 3]
                         for i in range(1, self.N + 1)], dtype=float)


@dataclass(frozen=True)
class MultibumpReport:
    """Semi-analytic energy of an N-bump field under the rescaled charge."""

    spec: MultibumpSpec
    energy: float
    single_energy: float          # autonomous energy of one truncated bump
    cross_coulomb: float          # kernel-weighted, enters energy / 4
    cross_quadratic: float        # bare double integral, no 1/(4 pi)
    printed_bound: float          # (N^2 - N) / (N^3 - 2 R0) * (int u^2)^2
    printed_bound_holds: bool
    sharper_bound_holds: bool     # cross Coulomb <= printed / (4 pi * 0.9)
    additivity_error: float       # relative defect of the N x single sums
    excess_over_linear: float     # energy - N * single_energy


def multibump_energy(spec: MultibumpSpec, u_R0: RadialField,
                     profile: ChargeProfile, model: NonlinearityModel,
                     lam: float) -> MultibumpReport:
    """Energy of the N-bump field without building a 3-D grid.

    Valid for disjoint compactly supported bumps: norm and F terms add
    exactly; the Coulomb diagonal uses the charge level at each bump
    center; cross terms are exact exterior interactions, charge^2 over
    4 pi distance.  Requires the rescaled charge to stay below
    sqrt(lambda) on the ball containing all bumps.
    """
    grid = u_R0.grid
    if spec.R0 > grid.r_max + 1e-12:
        raise DiscretizationError("bump support exceeds the radial grid")
    support = grid.r[np.flatnonzero(u_R0.values)[-1]] if np.any(u_R0.values) \
        else 0.0
    if support > spec.R0 + grid.h + 1e-12:
        raise ModelError("field support exceeds the declared bump radius R0")

    eps = spec.eps_N
    sqrt_lam = math.sqrt(lam)
    # the rescaled charge must stay below sqrt(lambda) out to the ball
    # holding all bumps, which maps to radius <= 1 for the base profile
    scan = np.linspace(0.0, 1.0, 2001)
    if np.any(profile.at_radius(scan) >= sqrt_lam):
        raise ModelError("charge profile reaches sqrt(lambda) inside the "
                         "bump region; the construction needs a smaller "
                         "charge or a larger lambda")

    h1_single = h1_norm_sq(u_R0)
    f_single = grid.integrate(eval_F(model, u_R0.values))
    coulomb_single = coulomb_self_energy(u_R0)
    charge = grid.integrate(u_R0.values ** 2)
    auto_prof = ChargeProfile.constant(sqrt_lam)
    single_energy = energy_radial(u_R0, auto_prof, model)

    centers = spec.centers
    rho_at = np.array([float(profile.at_radius(eps * np.linalg.norm(c)))
                       for c in centers])

    diag = float(np.sum(rho_at ** 2)) * coulomb_single
    cross_coulomb = 0.0
    cross_quadratic = 0.0
    for i in range(spec.N):
        for j in range(spec.N):
            if i == j:
                continue
            dij = float(np.linalg.norm(centers[i] - centers[j]))
            pair = charge ** 2 / dij
            cross_quadratic += pair
            cross_coulomb += rho_at[i] * rho_at[j] * pair / FOUR_PI

    # assemble the disjoint-support sums term by term and compare with
    # the N x closed form; exact addition of identical translates
    h1_total = float(np.sum(np.full(spec.N, h1_single)))
    f_total = float(np.sum(np.full(spec.N, f_single)))
    energy = 0.5 * h1_total + 0.25 * (diag + cross_coulomb) - f_total

    printed = ((spec.N ** 2 - spec.N) / (spec.N ** 3 - 2.0 * spec.R0)
               * charge ** 2)
    additivity = max(
        abs(h1_total - spec.N * h1_single) / max(abs(h1_total), 1e-300),
        abs(f_total - spec.N * f_single) / max(abs(f_total), 1e-300))

    return MultibumpReport(
        spec=spec, energy=energy, single_energy=single_energy,
        cross_coulomb=cross_coulomb, cross_quadratic=cross_quadratic,
        printed_bound=printed,
        printed_bound_holds=bool(cross_quadratic <= printed * (1 + 1e-12)),
        sharper_bound_holds=bool(
            cross_coulomb <= printed / (FOUR_PI * 0.9) * (1 + 1e-12)),
        additivity_error=additivity,
        excess_over_linear=energy - spec.N * single_energy)


def multibump_sweep(Ns: Sequence[int], R0: float, u_R0: RadialField,
                    profile: ChargeProfile, model: NonlinearityModel,
                    lam: float) -> Tuple[List[MultibumpReport], float]:
    """Reports for each bump count plus the single constant C with
    energy <= N * single_energy + C across the whole sweep."""
    reports = [multibump_energy(MultibumpSpec(R0=R0, N=n), u_R0, profile,
                                model, lam) for n in Ns]
    c_const = max(r.excess_over_linear for r in reports)
    return reports, c_const


def two_bump_sweep(grid: RadialGrid, profile: ChargeProfile,
                   model: NonlinearityModel, eps_values: Sequence[float],
                   offset: float, opts: SolveOptions) -> List[tuple]:
    """Rows (eps, theta, bump, estimate): the radial level and a two-bump
    energy estimate at each eps.

    theta and the solve result bump are descents from gaussian(30, 1.2)
    under the rescaled profile and under the constant charge rho it takes
    at ``offset``.  Two copies of the bump 2 * offset apart add their
    energies and interact through the exact exterior Coulomb cross term
    of their charges, which holds while their supports stay disjoint.
    """
    rows = []
    for eps in eps_values:
        prof_eps = profile.scaled(eps)
        theta = minimize(RadialField.gaussian(grid, 30.0, 1.2), prof_eps,
                         model, opts).energy
        rho = float(prof_eps.at_radius(offset))
        bump = minimize(RadialField.gaussian(grid, 30.0, 1.2),
                        ChargeProfile.constant(rho), model, opts)
        charge = rho * l2_norm_sq(bump.field)
        cross = charge * charge / (4.0 * math.pi * 2.0 * offset)
        rows.append((eps, theta, bump, 2.0 * bump.energy + 0.5 * cross))
    return rows
