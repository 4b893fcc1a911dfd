"""Radial discretization of H^1(R^3): grids, Newtonian potential, energy.

Radially symmetric fields are stored as samples u(r_i) on a uniform grid
r_i = i*h, i = 0..n, with quadrature weights that integrate g(r) against
the volume element 4 pi r^2 dr.  The weights are trapezoidal in the
shell-volume variable V(r) = 4 pi r^3 / 3, so a constant integrand is
integrated exactly.

The Newtonian potential of a nonnegative radial source g (solving
-Delta phi = g) is evaluated through the spherically averaged kernel

    phi(r) = (1/4pi) int g(s) / max(r, s) dV(s),

computed with two cumulative sums in O(n).  Using the *same* quadrature
weights in the kernel sum and in all energy integrals makes the discrete
nonlocal energy an exactly symmetric quadratic form in the source, which
in turn makes the discrete energy gradient exact (finite-difference
directional derivatives match to roundoff).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .models import ChargeProfile, ModelError, NonlinearityModel, eval_F, eval_f

FOUR_PI = 4.0 * math.pi
SQRT8 = math.sqrt(8.0)

DECAY_GUARD_REL = 1e-6


class DiscretizationError(RuntimeError):
    """Raised when a field or solve violates the grid's validity domain."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial grid on [0, r_max] with volume-exact trapezoid weights."""

    r_max: float
    n: int
    r: np.ndarray = field(init=False, repr=False)
    h: float = field(init=False)
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.r_max <= 0.0 or self.n < 2:
            raise DiscretizationError("need r_max > 0 and n >= 2")
        h = self.r_max / self.n
        r = np.arange(self.n + 1) * h
        vol = FOUR_PI / 3.0 * r ** 3
        w = np.empty_like(r)
        w[0] = 0.5 * (vol[1] - vol[0])
        w[1:-1] = 0.5 * (vol[2:] - vol[:-2])
        w[-1] = 0.5 * (vol[-1] - vol[-2])
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "w", w)

    @property
    def key(self):
        return (float(self.r_max), int(self.n))

    def integrate(self, values: np.ndarray) -> float:
        """int g dV over [0, r_max] for nodal samples g."""
        return float(self.w @ values)


@dataclass(frozen=True, eq=False)
class RadialField:
    """Nodal samples of a radial function, u(r_i)."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.r.shape:
            raise DiscretizationError("field length does not match the grid")
        if not np.all(np.isfinite(vals)):
            raise DiscretizationError("field contains non-finite values")
        object.__setattr__(self, "values", vals)
        peak = np.max(np.abs(vals))
        if peak > 0.0 and abs(vals[-1]) > DECAY_GUARD_REL * peak:
            warnings.warn(
                "field has not decayed at r_max; enlarge the domain "
                f"(|u(r_max)| = {abs(vals[-1]):.3e}, peak {peak:.3e})",
                RuntimeWarning, stacklevel=3)

    @staticmethod
    def zero(grid: RadialGrid) -> "RadialField":
        return RadialField(grid, np.zeros(grid.n + 1))

    @staticmethod
    def gaussian(grid: RadialGrid, amplitude: float = 1.0,
                 sigma: float = 1.0) -> "RadialField":
        return RadialField(grid, amplitude * np.exp(-grid.r ** 2 / (2.0 * sigma ** 2)))

    def to_csv(self, path) -> None:
        """Two-column CSV (r, u); round-trips exactly."""
        np.savetxt(path, np.column_stack([self.grid.r, self.values]),
                   delimiter=",", fmt="%.17g", header="r,u", comments="")

    @staticmethod
    def from_csv(path) -> "RadialField":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        r, u = data[:, 0], data[:, 1]
        n = len(r) - 1
        grid = RadialGrid(r_max=float(r[-1]), n=n)
        if not np.allclose(grid.r, r, rtol=0.0, atol=1e-12 * max(r[-1], 1.0)):
            raise DiscretizationError("CSV radii are not a uniform grid")
        return RadialField(grid, u)


@dataclass(frozen=True, eq=False)
class PoissonPotential:
    """Potential phi of a nonnegative radial source, with its total charge."""

    grid: RadialGrid
    values: np.ndarray
    total_charge: float

    def far_field(self, r):
        """Analytic 1/r tail Q/(4 pi r), valid beyond the source support."""
        return self.total_charge / (FOUR_PI * np.asarray(r, dtype=float))


# ---------------------------------------------------------------------------
# Cached discrete operators (keyed by the grid geometry)
# ---------------------------------------------------------------------------

_OPERATOR_CACHE: dict = {}


def _operators(grid: RadialGrid):
    """Gradient matrix D, H^1 Gram matrix M = D^T W_cell D + W, its factor.

    D is the cell-wise forward difference (u_{i+1} - u_i)/h, weighted by
    the exact shell volume of each cell.  Cell-wise differences (unlike
    central ones) have no spurious null mode: the node-alternating
    sawtooth pays full gradient energy, so descent cannot hide
    oscillations from the discrete H^1 term.
    """
    key = grid.key
    ops = _OPERATOR_CACHE.get(key)
    if ops is None:
        n, h = grid.n, grid.h
        idx = np.arange(n)
        rows = np.repeat(idx, 2)
        cols = np.empty(2 * n, dtype=int)
        cols[0::2] = idx
        cols[1::2] = idx + 1
        vals = np.empty(2 * n)
        vals[0::2] = -1.0 / h
        vals[1::2] = 1.0 / h
        D = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n + 1))
        vol = FOUR_PI / 3.0 * grid.r ** 3
        W_cell = sparse.diags(np.diff(vol))
        W = sparse.diags(grid.w)
        M = (D.T @ W_cell @ D + W).tocsc()
        ops = (D, M, splu(M))
        _OPERATOR_CACHE[key] = ops
    return ops


# ---------------------------------------------------------------------------
# Norms and inner products
# ---------------------------------------------------------------------------

def _cell_volumes(grid: RadialGrid) -> np.ndarray:
    return np.diff(FOUR_PI / 3.0 * grid.r ** 3)


def h1_norm_sq(u: RadialField) -> float:
    """int (|u'|^2 + u^2) dV, derivative by cell-wise differences.

    Equals u^T M u with the Gram matrix used by the Riesz solves, so the
    norm, the inner product, and the gradients are mutually consistent.
    """
    du = np.diff(u.values) / u.grid.h
    return float(_cell_volumes(u.grid) @ du ** 2
                 + u.grid.w @ u.values ** 2)


def h1_inner(u: RadialField, v: RadialField) -> float:
    """H^1 inner product consistent with h1_norm_sq."""
    du = np.diff(u.values) / u.grid.h
    dv = np.diff(v.values) / v.grid.h
    return float(_cell_volumes(u.grid) @ (du * dv)
                 + u.grid.w @ (u.values * v.values))


def l2_norm_sq(u: RadialField) -> float:
    return u.grid.integrate(u.values ** 2)


# ---------------------------------------------------------------------------
# Newtonian potential
# ---------------------------------------------------------------------------

def poisson_radial(source: RadialField) -> PoissonPotential:
    """Solve -Delta phi = g for a nonnegative radial source g.

    O(n) evaluation of the symmetric kernel quadrature
    phi_i = (1/4pi) sum_j w_j g_j / max(r_i, r_j); the self term at the
    origin uses the cell average of 1/s over the first half-cell.
    """
    g = source.values
    if np.any(g < 0.0):
        raise ModelError("Poisson source must be nonnegative")
    grid = source.grid
    r, w = grid.r, grid.w
    a = w * g
    inner = np.cumsum(a)                       # sum_{j <= i} w_j g_j
    over_r = np.zeros_like(a)
    over_r[1:] = a[1:] / r[1:]
    tail = np.concatenate([np.cumsum(over_r[::-1])[::-1][1:], [0.0]])
    phi = np.empty_like(a)
    phi[1:] = (inner[1:] / r[1:] + tail[1:]) / FOUR_PI
    # mean of 1/s over the origin cell [0, h/2] is 3/h
    phi[0] = (a[0] * 3.0 / grid.h + tail[0]) / FOUR_PI
    return PoissonPotential(grid=grid, values=phi, total_charge=float(inner[-1]))


def potential_gradient_energy(phi: PoissonPotential) -> float:
    """int |grad phi|^2 over all of R^3.

    The grid part uses cell-wise differences; the 1/r far field carries
    Q^2/(4 pi r_max) beyond the truncation radius and is added analytically
    (phi decays too slowly to ignore it).
    """
    dphi = np.diff(phi.values) / phi.grid.h
    tail = phi.total_charge ** 2 / (FOUR_PI * phi.grid.r_max)
    return float(_cell_volumes(phi.grid) @ dphi ** 2) + tail


def nonlocal_term(u: RadialField, profile: ChargeProfile) -> float:
    """int rho phi_{rho,u} u^2 dV, the Coulomb self-interaction energy."""
    if not profile.is_radial:
        raise ModelError("radial operations need a radial or constant profile")
    rho = profile.at_radius(u.grid.r)
    src = RadialField(u.grid, rho * u.values ** 2)
    phi = poisson_radial(src)
    return u.grid.integrate(rho * u.values ** 2 * phi.values)


# ---------------------------------------------------------------------------
# Energy, gradient, residuals
# ---------------------------------------------------------------------------

def energy_radial(u: RadialField, profile: ChargeProfile,
                  model: NonlinearityModel) -> float:
    """J(u) = 1/2 ||u||_H1^2 + 1/4 int rho phi u^2 - int F(u).

    For the constant-coupling functional with coupling lambda pass the
    constant profile rho = sqrt(lambda); then rho * phi_{rho,u} equals
    lambda * phi_u.
    """
    return (0.5 * h1_norm_sq(u)
            + 0.25 * nonlocal_term(u, profile)
            - u.grid.integrate(eval_F(model, u.values)))


def sobolev_gradient_radial(u: RadialField, profile: ChargeProfile,
                            model: NonlinearityModel) -> RadialField:
    """H^1-Riesz representative of the energy derivative at u.

    Solves M g = grad_h J(u) with the discrete H^1 Gram matrix M; the
    right-hand side is the exact gradient of the discrete energy, so
    <g, v>_H1 equals the directional derivative of the discrete J exactly.
    """
    disc = RadialDisc(u.grid, profile, model)
    g, _ = disc.gradient(u.values, disc.poisson(disc.rho * u.values * u.values))
    return RadialField(u.grid, g)


def nehari_residual(u: RadialField, profile: ChargeProfile,
                    model: NonlinearityModel) -> float:
    """||u||_H1^2 + int rho phi u^2 - int f(u) u  (the derivative along u)."""
    return (h1_norm_sq(u) + nonlocal_term(u, profile)
            - u.grid.integrate(eval_f(model, u.values) * u.values))


def strauss_check(u: RadialField, profile: ChargeProfile,
                  slack: float = 1e-6):
    """Lions-type interpolation inequality for the Coulomb term.

    lhs = (1/sqrt8) int rho |u|^3, rhs = 1/4 int |grad u|^2
    + 1/8 int rho phi u^2; returns (lhs, rhs, lhs <= rhs * (1 + slack)).
    """
    rho = profile.at_radius(u.grid.r)
    lhs = u.grid.integrate(rho * np.abs(u.values) ** 3) / SQRT8
    du = np.diff(u.values) / u.grid.h
    grad_sq = float(_cell_volumes(u.grid) @ du ** 2)
    rhs = 0.25 * grad_sq + 0.125 * nonlocal_term(u, profile)
    holds = lhs <= rhs * (1.0 + slack) + 1e-300
    return lhs, rhs, bool(holds)


# ---------------------------------------------------------------------------
# Raw-array evaluation kernels for the critical-point searches
# ---------------------------------------------------------------------------

class Disc:
    """Raw-array evaluation kernel for one (grid, profile, model) triple.

    The interface the solvers work through.  A discretization supplies
    ``grid``, ``model``, the sampled charge ``rho`` and the methods
    ``poisson``, ``h1_norm_sq``, ``h1_inner``, ``gradient``,
    ``random_direction`` and ``wrap``; the energy and the Nehari ratio
    are written here once.  ``energy`` returns the potential with J so
    the gradient at the same iterate reuses the Poisson solve, which
    dominates the per-iteration cost in 3-D.
    """

    def project(self, values: np.ndarray) -> np.ndarray:
        """Nearest admissible field: negative values clamped to zero."""
        return np.maximum(values, 0.0)

    def energy(self, u: np.ndarray):
        """Return (J(u), phi) with the Poisson solve exposed for reuse."""
        src = self.rho * u * u
        phi = self.poisson(src)
        J = (0.5 * self.h1_norm_sq(u) + 0.25 * self.grid.integrate(src * phi)
             - self.grid.integrate(eval_F(self.model, u)))
        return J, phi

    def nehari_relative(self, u: np.ndarray, phi: np.ndarray) -> float:
        """Energy derivative along u, relative to the squared H^1 norm."""
        h1 = self.h1_norm_sq(u)
        if h1 == 0.0:
            return 0.0
        res = (h1 + self.grid.integrate(self.rho * u * u * phi)
               - self.grid.integrate(eval_f(self.model, u) * u))
        return res / h1


class RadialDisc(Disc):
    """Radial kernel: Gram-matrix H^1 forms and a sparse Riesz solve."""

    def __init__(self, grid: RadialGrid, profile: ChargeProfile,
                 model: NonlinearityModel):
        self.grid = grid
        self.model = model
        self.rho = profile.at_radius(grid.r)
        _, self.M, self.lu = _operators(grid)

    def wrap(self, values: np.ndarray) -> RadialField:
        return RadialField(self.grid, values)

    def h1_norm_sq(self, values: np.ndarray) -> float:
        return max(float(values @ (self.M @ values)), 0.0)

    def h1_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ (self.M @ b))

    def poisson(self, source: np.ndarray) -> np.ndarray:
        return poisson_radial(RadialField(self.grid, source)).values

    def _riesz_rhs(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Right-hand side b of the Riesz solve M g = b: the exact
        gradient of the discrete energy."""
        nl = self.rho * phi * u - eval_f(self.model, u)
        return self.M @ u + self.grid.w * nl

    def gradient(self, u: np.ndarray, phi: np.ndarray):
        """H^1-Riesz gradient and its H^1 norm, reusing the potential."""
        g = self.lu.solve(self._riesz_rhs(u, phi))
        if not np.all(np.isfinite(g)):
            raise DiscretizationError("Riesz solve produced non-finite values")
        return g, math.sqrt(max(float(g @ (self.M @ g)), 0.0))

    def random_direction(self, rng: np.random.Generator) -> np.ndarray:
        """A random smooth decaying field with unit H^1 norm."""
        r = self.grid.r
        v = np.zeros_like(r)
        for _ in range(3):
            c = rng.uniform(0.0, self.grid.r_max / 3.0)
            s = rng.uniform(0.5, 2.0)
            v = v + rng.normal() * np.exp(-((r - c) / s) ** 2)
        return v / math.sqrt(self.h1_norm_sq(v))


class BallDisc(RadialDisc):
    """Radial kernel restricted to fields vanishing outside a ball.

    A Dirichlet-in-a-ball minimization produces compactly supported
    minimizers for the bump constructions.  The Riesz gradient is taken
    within the constrained subspace, with the Dirichlet-reduced block of
    the H^1 Gram matrix, so it vanishes exactly when every directional
    derivative along fields supported in the ball vanishes.
    """

    def __init__(self, grid: RadialGrid, profile: ChargeProfile,
                 model: NonlinearityModel, radius: float):
        super().__init__(grid, profile, model)
        self.mask = (grid.r <= radius).astype(float)
        self.idx = np.flatnonzero(self.mask)
        if self.idx.size < 3 or self.idx.size > grid.n:
            raise DiscretizationError(
                "support radius must leave at least three interior nodes "
                "and exclude the outer boundary")
        self.lu_ball = splu(self.M.tocsr()[self.idx][:, self.idx].tocsc())

    def project(self, values: np.ndarray) -> np.ndarray:
        return np.maximum(values, 0.0) * self.mask

    def gradient(self, u: np.ndarray, phi: np.ndarray):
        rhs = self._riesz_rhs(u, phi)[self.idx]
        g = np.zeros_like(u)
        g[self.idx] = self.lu_ball.solve(rhs)
        return g, math.sqrt(max(float(g[self.idx] @ rhs), 0.0))
