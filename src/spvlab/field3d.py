"""Full 3-D discretization with a free-space Poisson solver.

Fields live on a uniform cube [-L, L)^3 with n cells per axis.  The
Newtonian potential is the convolution of the source with the Coulomb
kernel 1/(4 pi |x|), evaluated by zero-padded FFT convolution on the
doubled grid (free-space boundary conditions; no periodic images).  The
kernel's singular cell carries the analytic average of 1/(4 pi |x|) over
a cube of side h, which removes the O(1) self-interaction error of point
sampling.

H^1 quantities and the Riesz solve for the energy gradient use the
periodic spectral Laplacian.  This periodicization is an approximation
justified by the boundary-decay guard on fields; the discrete energy and
its gradient are exactly consistent with each other, so finite-difference
directional derivatives match the reported gradient to roundoff.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .models import ChargeProfile, ModelError, NonlinearityModel, eval_F, eval_f
from .radial import (FOUR_PI, DECAY_GUARD_REL, DiscretizationError, Disc,
                     RadialField, RadialGrid)

# mean of 1/|x| over the unit cube [-1/2, 1/2]^3
_CUBE_COULOMB_AVG = 2.3800773639795536

@dataclass(frozen=True, eq=False)
class Grid3D:
    """Uniform cube [-L, L)^3, n cells per axis, spacing h = 2L/n."""

    L: float
    n: int
    h: float = field(init=False)

    def __post_init__(self):
        if self.L <= 0.0 or self.n < 4 or self.n % 2:
            raise DiscretizationError("need L > 0 and even n >= 4")
        object.__setattr__(self, "h", 2.0 * self.L / self.n)

    @property
    def key(self):
        return (float(self.L), int(self.n))

    @property
    def cell_volume(self) -> float:
        return self.h ** 3

    def axis(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.n)

    def radius(self) -> np.ndarray:
        """|x| at every node, shape (n, n, n)."""
        return _cached_radius(self.key)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(values)) * self.cell_volume


@dataclass(frozen=True, eq=False)
class Field3D:
    """Nodal samples u(x_ijk) in row-major order."""

    grid: Grid3D
    values: np.ndarray
    # potentials decay like 1/r and may legitimately be O(1/L) at the
    # boundary; constructors of such fields disable the decay guard
    guard: bool = field(default=True, repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        n = self.grid.n
        if vals.shape != (n, n, n):
            raise DiscretizationError("field shape does not match the grid")
        if not np.all(np.isfinite(vals)):
            raise DiscretizationError("field contains non-finite values")
        object.__setattr__(self, "values", vals)
        peak = float(np.max(np.abs(vals)))
        if self.guard and peak > 0.0:
            edge = max(np.max(np.abs(vals[0])), np.max(np.abs(vals[-1])),
                       np.max(np.abs(vals[:, 0])), np.max(np.abs(vals[:, -1])),
                       np.max(np.abs(vals[:, :, 0])), np.max(np.abs(vals[:, :, -1])))
            if edge > DECAY_GUARD_REL * peak:
                warnings.warn(
                    "field has not decayed at the box boundary; enlarge L "
                    f"(edge peak {edge:.3e}, interior peak {peak:.3e})",
                    RuntimeWarning, stacklevel=3)

    @staticmethod
    def zero(grid: Grid3D) -> "Field3D":
        return Field3D(grid, np.zeros((grid.n,) * 3))

    # -- flat binary serialization -------------------------------------------
    # header: magic "SPV3D1\0", float64 L, int64 n, uint8 element kind
    # (0 = float64), then row-major little-endian values.

    _MAGIC = b"SPV3D1\0"

    def to_bin(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self._MAGIC)
            fh.write(struct.pack("<dqB", self.grid.L, self.grid.n, 0))
            fh.write(self.values.astype("<f8").tobytes(order="C"))

    @staticmethod
    def from_bin(path) -> "Field3D":
        with open(path, "rb") as fh:
            magic = fh.read(len(Field3D._MAGIC))
            if magic != Field3D._MAGIC:
                raise DiscretizationError("not a spvlab field file")
            L, n, kind = struct.unpack("<dqB", fh.read(17))
            if kind != 0:
                raise DiscretizationError(f"unknown element kind {kind}")
            grid = Grid3D(L=L, n=n)
            data = np.frombuffer(fh.read(), dtype="<f8").reshape((n, n, n))
        return Field3D(grid, data.copy())

    def slice_csv(self, path, axis: int = 2) -> None:
        """Lossy CSV export of the mid-plane perpendicular to ``axis``."""
        n = self.grid.n
        plane = np.take(self.values, n // 2, axis=axis)
        ax = self.grid.axis()
        a, b = np.meshgrid(ax, ax, indexing="ij")
        np.savetxt(path, np.column_stack([a.ravel(), b.ravel(), plane.ravel()]),
                   delimiter=",", fmt="%.17g", header="a,b,u", comments="")


# ---------------------------------------------------------------------------
# Cached spectral machinery
# ---------------------------------------------------------------------------

_RADIUS_CACHE: dict = {}
_KERNEL_CACHE: dict = {}
_SPECTRAL_CACHE: dict = {}


def _cached_radius(key):
    r = _RADIUS_CACHE.get(key)
    if r is None:
        L, n = key
        ax = -L + (2.0 * L / n) * np.arange(n)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        r = np.sqrt(X ** 2 + Y ** 2 + Z ** 2)
        _RADIUS_CACHE[key] = r
    return r


def _coulomb_kernel_hat(grid: Grid3D) -> np.ndarray:
    """rfftn of the Coulomb kernel on the doubled (2n)^3 grid."""
    khat = _KERNEL_CACHE.get(grid.key)
    if khat is None:
        n, h = grid.n, grid.h
        m = 2 * n
        idx = np.arange(m)
        off = np.where(idx < n, idx, idx - m).astype(float)  # offsets -n..n-1
        OX, OY, OZ = np.meshgrid(off, off, off, indexing="ij", sparse=True)
        dist = np.sqrt(OX ** 2 + OY ** 2 + OZ ** 2)
        with np.errstate(divide="ignore"):
            kern = h ** 2 / (FOUR_PI * dist)
        kern[0, 0, 0] = h ** 2 * _CUBE_COULOMB_AVG / FOUR_PI
        khat = sfft.rfftn(kern)
        _KERNEL_CACHE[grid.key] = khat
    return khat


def _spectral(grid: Grid3D):
    """(k^2, Parseval bin weights) for rfftn on the n^3 grid."""
    spec = _SPECTRAL_CACHE.get(grid.key)
    if spec is None:
        n, h = grid.n, grid.h
        k = 2.0 * math.pi * sfft.fftfreq(n, d=h)
        kr = 2.0 * math.pi * sfft.rfftfreq(n, d=h)
        KX, KY, KZ = np.meshgrid(k, k, kr, indexing="ij", sparse=True)
        k2 = KX ** 2 + KY ** 2 + KZ ** 2
        pw = np.full(len(kr), 2.0)
        pw[0] = 1.0
        if n % 2 == 0:
            pw[-1] = 1.0
        spec = (k2, pw[np.newaxis, np.newaxis, :])
        _SPECTRAL_CACHE[grid.key] = spec
    return spec


# ---------------------------------------------------------------------------
# Poisson solver
# ---------------------------------------------------------------------------

def poisson_freespace(source: Field3D) -> Field3D:
    """Solve -Delta phi = g with free-space boundary conditions.

    Zero-padded convolution on the doubled grid; exact convolution of the
    sampled source with the (cell-averaged at the origin) Coulomb kernel.
    """
    g = source.values
    if np.any(g < 0.0):
        raise ModelError("Poisson source must be nonnegative")
    grid = source.grid
    n = grid.n
    try:
        khat = _coulomb_kernel_hat(grid)
        pad = np.zeros((2 * n,) * 3)
    except MemoryError as exc:
        size = (2 * n) ** 3 * 8 / 2 ** 30
        raise MemoryError(
            f"doubled grid ({2*n}^3, about {size:.1f} GiB per array) does "
            "not fit in memory") from exc
    pad[:n, :n, :n] = g
    conv = sfft.irfftn(sfft.rfftn(pad) * khat, s=pad.shape)
    return Field3D(grid, conv[:n, :n, :n], guard=False)


# ---------------------------------------------------------------------------
# Norms, energy, gradient
# ---------------------------------------------------------------------------

def h1_norm_sq_3d(u: Field3D) -> float:
    """int (|grad u|^2 + u^2), spectral derivative (periodic)."""
    grid = u.grid
    k2, pw = _spectral(grid)
    uhat = sfft.rfftn(u.values)
    grad_sq = float(np.sum(pw * k2 * np.abs(uhat) ** 2)) / grid.n ** 3
    return grid.cell_volume * (grad_sq + float(np.sum(u.values ** 2)))


def h1_inner_3d(u: Field3D, v: Field3D) -> float:
    grid = u.grid
    k2, pw = _spectral(grid)
    uhat = sfft.rfftn(u.values)
    vhat = sfft.rfftn(v.values)
    cross = float(np.sum(pw * (1.0 + k2) * (uhat.conj() * vhat).real))
    return grid.cell_volume * cross / grid.n ** 3


def _rho_values(profile: ChargeProfile, grid: Grid3D) -> np.ndarray:
    if profile.is_radial:
        return profile.at_radius(grid.radius())
    ax = grid.axis()
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    return profile(np.stack([X, Y, Z], axis=-1))


def nonlocal_term_3d(u: Field3D, profile: ChargeProfile) -> float:
    rho = _rho_values(profile, u.grid)
    src = Field3D(u.grid, rho * u.values ** 2)
    phi = poisson_freespace(src)
    return u.grid.integrate(rho * u.values ** 2 * phi.values)


def energy_3d(u: Field3D, profile: ChargeProfile,
              model: NonlinearityModel) -> float:
    """J(u) = 1/2 ||u||_H1^2 + 1/4 int rho phi u^2 - int F(u)."""
    return (0.5 * h1_norm_sq_3d(u)
            + 0.25 * nonlocal_term_3d(u, profile)
            - u.grid.integrate(eval_F(model, u.values)))


def sobolev_gradient_3d(u: Field3D, profile: ChargeProfile,
                        model: NonlinearityModel) -> Field3D:
    """H^1-Riesz representative of the energy derivative at u.

    The Riesz solve inverts the periodic spectral (-Delta + 1); with the
    decay guard active this is a faithful metric for descent, and the
    returned g satisfies <g, v>_H1 = dJ(u)[v] exactly for the discrete J.
    """
    grid = u.grid
    rho = _rho_values(profile, grid)
    phi = poisson_freespace(Field3D(grid, rho * u.values ** 2)).values
    nl = rho * phi * u.values - eval_f(model, u.values)
    k2, _ = _spectral(grid)
    corr = sfft.irfftn(sfft.rfftn(nl) / (1.0 + k2), s=u.values.shape)
    return Field3D(grid, u.values + corr)


def nehari_residual_3d(u: Field3D, profile: ChargeProfile,
                       model: NonlinearityModel) -> float:
    return (h1_norm_sq_3d(u) + nonlocal_term_3d(u, profile)
            - u.grid.integrate(eval_f(model, u.values) * u.values))


# ---------------------------------------------------------------------------
# Raw-array evaluation kernel for the critical-point searches
# ---------------------------------------------------------------------------

class CubeDisc(Disc):
    """Cube kernel: spectral H^1 forms and a spectral Riesz solve."""

    def __init__(self, grid: Grid3D, profile: ChargeProfile,
                 model: NonlinearityModel):
        self.grid = grid
        self.model = model
        self.rho = _rho_values(profile, grid)
        self.k2, self.pw = _spectral(grid)

    def wrap(self, values: np.ndarray) -> Field3D:
        return Field3D(self.grid, values)

    def _norm_sq_hat(self, vhat: np.ndarray) -> float:
        total = float(np.sum(self.pw * (1.0 + self.k2)
                             * (vhat.real ** 2 + vhat.imag ** 2)))
        return self.grid.cell_volume * total / self.grid.n ** 3

    def h1_norm_sq(self, values: np.ndarray) -> float:
        return self._norm_sq_hat(sfft.rfftn(values))

    def h1_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        ahat = sfft.rfftn(a)
        bhat = sfft.rfftn(b)
        total = float(np.sum(self.pw * (1.0 + self.k2)
                             * (ahat.conj() * bhat).real))
        return self.grid.cell_volume * total / self.grid.n ** 3

    def poisson(self, source: np.ndarray) -> np.ndarray:
        return poisson_freespace(Field3D(self.grid, source, guard=False)).values

    def gradient(self, u: np.ndarray, phi: np.ndarray):
        """H^1-Riesz gradient and its H^1 norm, reusing the potential."""
        nl = self.rho * phi * u - eval_f(self.model, u)
        ghat = sfft.rfftn(u) + sfft.rfftn(nl) / (1.0 + self.k2)
        g = sfft.irfftn(ghat, s=u.shape)
        return g, math.sqrt(max(self._norm_sq_hat(ghat), 0.0))

    def random_direction(self, rng: np.random.Generator) -> np.ndarray:
        """A random smooth decaying field with unit H^1 norm."""
        ax = self.grid.axis()
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        v = np.zeros((self.grid.n,) * 3)
        for _ in range(3):
            c = rng.uniform(-self.grid.L / 3.0, self.grid.L / 3.0, size=3)
            s = rng.uniform(0.5, 2.0)
            v = v + rng.normal() * np.exp(
                -(((X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2)
                  / s ** 2))
        return v / math.sqrt(self.h1_norm_sq(v))


# ---------------------------------------------------------------------------
# Radial embedding
# ---------------------------------------------------------------------------

def support_radius(u: RadialField, rel: float = DECAY_GUARD_REL) -> float:
    """Largest radius where |u| exceeds rel * max|u| (0 for the zero field)."""
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        return 0.0
    idx = np.flatnonzero(np.abs(u.values) > rel * peak)
    return float(u.grid.r[idx[-1]])


def embed_radial(u: RadialField, grid: Grid3D,
                 center=(0.0, 0.0, 0.0)) -> Field3D:
    """Sample u(|x - center|) on the cube, linear interpolation in r.

    Errors out if the field's (numerical) support does not fit in the box.
    """
    center = np.asarray(center, dtype=float)
    rsup = support_radius(u)
    margin = grid.L - grid.h
    if np.max(np.abs(center)) + rsup > margin:
        raise DiscretizationError(
            f"support radius {rsup:.2f} around center {center} overflows "
            f"the box [-L, L)^3 with L = {grid.L}")
    ax = grid.axis()
    X, Y, Z = np.meshgrid(ax - center[0], ax - center[1], ax - center[2],
                          indexing="ij", sparse=True)
    dist = np.sqrt(X ** 2 + Y ** 2 + Z ** 2)
    vals = np.interp(dist, u.grid.r, u.values, right=0.0)
    return Field3D(grid, vals)


def radial_average(u: Field3D, rgrid: RadialGrid) -> RadialField:
    """Spherical average of a 3-D field onto a radial grid (bin means)."""
    dist = u.grid.radius().ravel()
    vals = u.values.ravel()
    h = rgrid.h
    bins = np.clip(np.round(dist / h).astype(int), 0, rgrid.n)
    sums = np.bincount(bins, weights=vals, minlength=rgrid.n + 1)
    counts = np.bincount(bins, minlength=rgrid.n + 1)
    inside = counts > 0
    out = np.zeros(rgrid.n + 1)
    out[inside] = sums[inside] / counts[inside]
    return RadialField(rgrid, out)
