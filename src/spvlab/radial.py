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

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .models import (SQRT8, ChargeProfile, ModelError, NonlinearityModel,
                     eval_F, eval_f)

FOUR_PI = 4.0 * math.pi

DECAY_GUARD_REL = 1e-6

# grids whose operators each geometry cache keeps (least recently used
# evicted); a scenario works on at most two grids of each kind
_GRID_CACHE_SIZE = 2


class DiscretizationError(RuntimeError):
    """Raised when a field or solve violates the grid's validity domain."""


def _node_count(n) -> int:
    """A grid's n as a Python int; non-integral values are rejected."""
    try:
        if int(n) == n:
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DiscretizationError(f"need an integer n, got {n!r}")


def _nodal_extremes(vals: np.ndarray):
    """(max, min) of nodal values, which must all be finite: NaN and
    +-inf reach an extreme, so the pair is also the finiteness test."""
    hi, lo = vals.max(), vals.min()
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise DiscretizationError("field contains non-finite values")
    return hi, lo


def _nodal_peak(vals: np.ndarray) -> float:
    """max |u| of nodal values, which must all be finite."""
    hi, lo = _nodal_extremes(vals)
    return float(max(hi, -lo))


def _check_source(g: np.ndarray) -> None:
    """Raise for a non-finite or a negative Poisson source."""
    if _nodal_extremes(g)[1] < 0.0:
        raise ModelError("Poisson source must be nonnegative")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, r_max] with volume-exact trapezoid
    weights; grids compare and hash by (r_max, n)."""

    r_max: float
    n: int
    r: np.ndarray = field(init=False, repr=False, compare=False)
    h: float = field(init=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)
    cell_volumes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _node_count(self.n))
        if not 0.0 < self.r_max < math.inf or self.n < 2:
            raise DiscretizationError("need finite r_max > 0 and n >= 2")
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
        object.__setattr__(self, "cell_volumes", np.diff(vol))

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
        peak = _nodal_peak(vals)
        object.__setattr__(self, "values", vals)
        if peak > 0.0 and abs(vals[-1]) > DECAY_GUARD_REL * peak:
            warnings.warn(
                "field has not decayed at r_max; enlarge the domain "
                f"(|u(r_max)| = {abs(vals[-1]):.3e}, peak {peak:.3e})",
                RuntimeWarning, stacklevel=3)

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
        if data.size == 0:
            raise DiscretizationError("field CSV has no data rows")
        if data.shape[1] < 2:
            raise DiscretizationError("field CSV needs two columns (r, u), "
                                      f"got {data.shape[1]}")
        r, u = data[:, 0], data[:, 1]
        n = len(r) - 1
        grid = RadialGrid(r_max=float(r[-1]), n=n)
        if not np.allclose(grid.r, r, rtol=0.0, atol=1e-12 * max(r[-1], 1.0)):
            raise DiscretizationError("CSV radii are not a uniform grid")
        return RadialField(grid, u)


# ---------------------------------------------------------------------------
# Cached discrete operators, keyed by grid
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _operators(grid: RadialGrid):
    """H^1 Gram matrix M = D^T W_cell D + W and its sparse LU factor.

    D is the cell-wise forward difference (u_{i+1} - u_i)/h, weighted by
    the exact shell volume of each cell.  Cell-wise differences (unlike
    central ones) have no spurious null mode: the node-alternating
    sawtooth pays full gradient energy, so descent cannot hide
    oscillations from the discrete H^1 term.
    """
    n, h = grid.n, grid.h
    D = sparse.diags([np.full(n, -1.0 / h), np.full(n, 1.0 / h)], [0, 1],
                     shape=(n, n + 1))
    W_cell = sparse.diags(grid.cell_volumes)
    W = sparse.diags(grid.w)
    M = (D.T @ W_cell @ D + W).tocsc()
    return M, splu(M)


# ---------------------------------------------------------------------------
# Norms and inner products
# ---------------------------------------------------------------------------

def _dirichlet(grid: RadialGrid, values: np.ndarray) -> float:
    """int |v'|^2 dV over [0, r_max], derivative by cell-wise
    differences."""
    return float(grid.cell_volumes @ (np.diff(values) / grid.h) ** 2)


def h1_norm_sq(u: RadialField) -> float:
    """int (|u'|^2 + u^2) dV, derivative by cell-wise differences.

    Equals u^T M u with the Gram matrix used by the Riesz solves, so the
    norm and the gradients are mutually consistent.
    """
    return _dirichlet(u.grid, u.values) + float(u.grid.w @ u.values ** 2)


def l2_norm_sq(u: RadialField) -> float:
    return u.grid.integrate(u.values ** 2)


# ---------------------------------------------------------------------------
# Newtonian potential
# ---------------------------------------------------------------------------

def poisson_radial(grid: RadialGrid, g: np.ndarray) -> np.ndarray:
    """Solve -Delta phi = g for the nodal samples g of a nonnegative
    radial source; returns the nodal samples of phi.

    O(n) evaluation of the symmetric kernel quadrature
    phi_i = (1/4pi) sum_j w_j g_j / max(r_i, r_j); the self term at the
    origin uses the cell average of 1/s over the first half-cell.
    """
    _check_source(g)
    r, w = grid.r, grid.w
    a = w * g
    inner = np.cumsum(a)                       # sum_{j <= i} w_j g_j
    # tail[i] = sum_{j > i} w_j g_j / r_j, summed from r_max inwards; the
    # node at r_max has no tail
    tail = np.cumsum(a[:0:-1] / r[:0:-1])[::-1]
    phi = np.empty_like(a)
    phi[1:] = inner[1:] / r[1:]
    phi[1:-1] += tail[1:]
    # mean of 1/s over the origin cell [0, h/2] is 3/h
    phi[0] = a[0] * 3.0 / grid.h + tail[0]
    phi /= FOUR_PI
    return phi


def nonlocal_term(u: RadialField, profile: ChargeProfile) -> float:
    """int rho phi_{rho,u} u^2 dV, the Coulomb self-interaction energy."""
    dens = profile.at_radius(u.grid.r) * u.values ** 2
    return u.grid.integrate(dens * poisson_radial(u.grid, dens))


# ---------------------------------------------------------------------------
# Energy and the interpolation inequality
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


def strauss_check(u: RadialField, profile: ChargeProfile):
    """Lions-type interpolation inequality for the Coulomb term.

    lhs = (1/sqrt8) int rho |u|^3, rhs = 1/4 int |grad u|^2
    + 1/8 int rho phi u^2; returns (lhs, rhs, lhs <= rhs * (1 + 1e-6)).
    """
    rho = profile.at_radius(u.grid.r)
    lhs = u.grid.integrate(rho * np.abs(u.values) ** 3) / SQRT8
    rhs = (0.25 * _dirichlet(u.grid, u.values)
           + 0.125 * nonlocal_term(u, profile))
    holds = lhs <= rhs * (1.0 + 1e-6) + 1e-300
    return lhs, rhs, bool(holds)


def random_bumps(grid: RadialGrid, rng: np.random.Generator) -> np.ndarray:
    """Nodal values of a sum of three Gaussian bumps, each with a normal
    amplitude, a center in [0, r_max / 3] and a width in [0.5, 2]."""
    v = np.zeros_like(grid.r)
    for _ in range(3):
        c = rng.uniform(0.0, grid.r_max / 3.0)
        s = rng.uniform(0.5, 2.0)
        v = v + rng.normal() * np.exp(-((grid.r - c) / s) ** 2)
    return v


def ball_nodes(grid: RadialGrid, radius: float) -> np.ndarray:
    """Indices of the nodes within ``radius``: at least three, and not
    the outer boundary's, else DiscretizationError."""
    idx = np.flatnonzero(grid.r <= radius)
    if idx.size < 3 or idx.size > grid.n:
        raise DiscretizationError(
            "support radius must leave at least three interior nodes "
            "and exclude the outer boundary")
    return idx


# ---------------------------------------------------------------------------
# Raw-array evaluation kernels for the critical-point searches
# ---------------------------------------------------------------------------

class Disc:
    """Raw-array evaluation kernel for one (grid, profile, model) triple.

    The interface the solvers work through.  A discretization supplies
    ``grid``, ``model``, the sampled charge ``rho`` and the methods
    ``poisson``, ``h1_norm_sq``, ``h1_inner``, ``riesz`` (the H^1-Riesz
    gradient given the potential), ``gradient`` (the same with its H^1
    norm), ``random_direction`` and ``wrap``; the potential, the energy,
    the Nehari residual and its ratio to the squared H^1 norm are written
    here once.  Every method works on arrays, the Poisson solve included;
    ``wrap`` builds the one field object of a search, its result.
    ``potential`` is the Poisson solve alone, for callers that need the
    gradient but not J; ``energy`` returns the potential with J so the
    gradient at the same iterate reuses the Poisson solve, which
    dominates the per-iteration cost in 3-D, and ``energy_at`` evaluates
    J from a potential already solved for.
    ``field3d.sobolev_gradient_3d`` is a thin call into the cube kernel.
    """

    def project(self, values: np.ndarray) -> np.ndarray:
        """Nearest admissible field: negative values clamped to zero."""
        return np.maximum(values, 0.0)

    def potential(self, u: np.ndarray) -> np.ndarray:
        """The potential phi of the source rho u^2."""
        return self.poisson(self.rho * u * u)

    def energy_at(self, u: np.ndarray, phi: np.ndarray) -> float:
        """J(u), with phi = potential(u) already solved for."""
        return (0.5 * self.h1_norm_sq(u)
                + 0.25 * self.grid.integrate(self.rho * u * u * phi)
                - self.grid.integrate(eval_F(self.model, u)))

    def energy(self, u: np.ndarray):
        """Return (J(u), phi) with the Poisson solve exposed for reuse."""
        phi = self.potential(u)
        return self.energy_at(u, phi), phi

    def nehari_residual(self, u: np.ndarray, phi: np.ndarray) -> float:
        """||u||_H1^2 + int rho phi u^2 - int f(u) u, the energy
        derivative along u, with phi = potential(u)."""
        return (self.h1_norm_sq(u)
                + self.grid.integrate(self.rho * u * u * phi)
                - self.grid.integrate(eval_f(self.model, u) * u))

    def nehari_relative(self, u: np.ndarray, phi: np.ndarray) -> float:
        """Energy derivative along u, relative to the squared H^1 norm."""
        h1 = self.h1_norm_sq(u)
        if h1 == 0.0:
            return 0.0
        return self.nehari_residual(u, phi) / h1


class RadialDisc(Disc):
    """Radial kernel: Gram-matrix H^1 forms and a sparse Riesz solve."""

    def __init__(self, grid: RadialGrid, profile: ChargeProfile,
                 model: NonlinearityModel):
        self.grid = grid
        self.model = model
        self.rho = profile.at_radius(grid.r)
        self.M, self.lu = _operators(grid)

    def wrap(self, values: np.ndarray) -> RadialField:
        return RadialField(self.grid, values)

    def h1_norm_sq(self, values: np.ndarray) -> float:
        return max(float(values @ (self.M @ values)), 0.0)

    def h1_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ (self.M @ b))

    def poisson(self, source: np.ndarray) -> np.ndarray:
        return poisson_radial(self.grid, source)

    def _riesz_rhs(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Right-hand side b of the Riesz solve M g = b: the exact
        gradient of the discrete energy."""
        nl = self.rho * phi * u - eval_f(self.model, u)
        return self.M @ u + self.grid.w * nl

    def riesz(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """H^1-Riesz gradient, reusing the potential."""
        g = self.lu.solve(self._riesz_rhs(u, phi))
        if not np.all(np.isfinite(g)):
            raise DiscretizationError("Riesz solve produced non-finite values")
        return g

    def gradient(self, u: np.ndarray, phi: np.ndarray):
        """H^1-Riesz gradient and its H^1 norm, reusing the potential."""
        g = self.riesz(u, phi)
        return g, math.sqrt(max(float(g @ (self.M @ g)), 0.0))

    def random_direction(self, rng: np.random.Generator) -> np.ndarray:
        """A random smooth decaying field with unit H^1 norm."""
        v = random_bumps(self.grid, rng)
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
        self.idx = ball_nodes(grid, radius)
        self.mask = (grid.r <= radius).astype(float)
        self.lu_ball = splu(self.M.tocsr()[self.idx][:, self.idx].tocsc())

    def project(self, values: np.ndarray) -> np.ndarray:
        return np.maximum(values, 0.0) * self.mask

    def _riesz_ball(self, u: np.ndarray, phi: np.ndarray):
        """The constrained Riesz gradient and the reduced right-hand side
        it solves for."""
        rhs = self._riesz_rhs(u, phi)[self.idx]
        g = np.zeros_like(u)
        g[self.idx] = self.lu_ball.solve(rhs)
        return g, rhs

    def riesz(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return self._riesz_ball(u, phi)[0]

    def gradient(self, u: np.ndarray, phi: np.ndarray):
        g, rhs = self._riesz_ball(u, phi)
        return g, math.sqrt(max(float(g[self.idx] @ rhs), 0.0))
