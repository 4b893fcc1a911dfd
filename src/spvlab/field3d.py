"""Full 3-D discretization with a free-space Poisson solver.

Fields live on a uniform cube [-L, L)^3 with n cells per axis.  The
Newtonian potential is the convolution of the source with the Coulomb
kernel 1/(4 pi |x|), evaluated by zero-padded FFT convolution on the
doubled grid (free-space boundary conditions; no periodic images).  The
kernel's singular cell carries the analytic average of 1/(4 pi |x|) over
a cube of side h, which removes the O(1) self-interaction error of point
sampling.

The doubled-grid transforms are staged and pruned (Hockney & Eastwood,
Computer Simulation Using Particles, ch. 6): 7/8 of the padded input is
zero and 7/8 of the inverse output is discarded, so the solve transforms
one axis at a time and skips both.  It keeps pocketfft's axis order and
its single final scaling, so every 1-D transform sees the same input as
in a full ``rfftn``/``irfftn`` and the potential is bit-identical to the
unpruned solve.  The stages between the first and the last transform
never mix two k-planes (axis 2), so they run on a chunk of c k-planes at
a time, in one reusable complex workspace of c planes of (2n, 2n); the
real transforms run on slabs of i-planes.

The kernel depends on the offsets (ox, oy) only through ox^2 + oy^2, so
its transform along the real axis has few distinct rows (1,621 of the
16,384 at n = 64).  They form a row table, and a chunk of Coulomb symbol
k-planes is one gather from it followed by two in-place transforms.  No
table or spectral grid is cached: each is built where it is used.  A
solver kernel (``CubeDisc``) assembles its (2n, 2n, n+1) symbol from a
table it then drops, and the symbol is freed with the kernel.  A one-off
solve (``poisson_freespace``, hence ``energy_3d``) builds a table, then
each chunk's symbol planes inside its chunk loop.  Each chunk and slab
holds about ``_CHUNK_BYTES`` (a one-off solve's source chunk and symbol
chunk share it), so besides the kernel's symbol or the row table one
solve holds the compact (n, n, n+1) half spectrum, its (n, n, n) result
and one chunk, whatever n.  The order of the arithmetic does not change,
so neither do the bits.

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

from .models import ChargeProfile, NonlinearityModel, eval_F, eval_f
from .radial import (FOUR_PI, DECAY_GUARD_REL, DecayWarning,
                     DiscretizationError, Disc, RadialField, _check_source,
                     _nodal_peak, _node_count)

# mean of 1/|x| over the unit cube [-1/2, 1/2]^3
_CUBE_COULOMB_AVG = 2.3800773639795536
# bytes of each temporary of the Poisson solve and the symbol build: one
# chunk of k-planes of the doubled grid (in a one-off solve, the source's
# and the symbol's chunks together), or one slab of real-transform rows
_CHUNK_BYTES = 4 << 20

@dataclass(frozen=True)
class Grid3D:
    """Uniform cube [-L, L)^3, n cells per axis, spacing h = 2L/n; grids
    compare and hash by (L, n)."""

    L: float
    n: int
    h: float = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _node_count(self.n))
        if not 0.0 < self.L < math.inf or self.n < 4 or self.n % 2:
            raise DiscretizationError("need finite L > 0 and even n >= 4")
        object.__setattr__(self, "h", 2.0 * self.L / self.n)

    @property
    def cell_volume(self) -> float:
        return self.h ** 3

    def axis(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.n)

    def radius(self) -> np.ndarray:
        """|x| at every node, shape (n, n, n)."""
        ax = self.axis()
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        return np.sqrt(X ** 2 + Y ** 2 + Z ** 2)

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
        peak = _nodal_peak(vals)
        object.__setattr__(self, "values", vals)
        if self.guard and peak > 0.0:
            edge = max(np.max(np.abs(vals[0])), np.max(np.abs(vals[-1])),
                       np.max(np.abs(vals[:, 0])), np.max(np.abs(vals[:, -1])),
                       np.max(np.abs(vals[:, :, 0])), np.max(np.abs(vals[:, :, -1])))
            if edge > DECAY_GUARD_REL * peak:
                warnings.warn(
                    "field has not decayed at the box boundary; enlarge L "
                    f"(edge peak {edge:.3e}, interior peak {peak:.3e})",
                    DecayWarning, stacklevel=3)

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
            header = fh.read(17)
            if len(header) != 17:
                raise DiscretizationError("field file header is truncated")
            L, n, kind = struct.unpack("<dqB", header)
            if kind != 0:
                raise DiscretizationError(f"unknown element kind {kind}")
            grid = Grid3D(L=L, n=n)
            payload = fh.read()
        expected = n ** 3 * 8
        if len(payload) != expected:
            raise DiscretizationError(
                f"field file payload has {len(payload)} bytes; a float64 "
                f"field with n = {n} needs {expected}")
        data = np.frombuffer(payload, dtype="<f8").reshape((n, n, n))
        return Field3D(grid, data.copy())

    def slice_csv(self, path) -> None:
        """Lossy CSV export of the mid-plane perpendicular to the z axis."""
        plane = self.values[:, :, self.grid.n // 2]
        ax = self.grid.axis()
        a, b = np.meshgrid(ax, ax, indexing="ij")
        np.savetxt(path, np.column_stack([a.ravel(), b.ravel(), plane.ravel()]),
                   delimiter=",", fmt="%.17g", header="a,b,u", comments="")


# ---------------------------------------------------------------------------
# Spectral machinery, built per use
# ---------------------------------------------------------------------------

def _coulomb_rows(grid: Grid3D):
    """The Coulomb symbol's distinct rows, as (table, index).

    On the doubled grid the kernel h^2 / (4 pi |x|) depends on the
    offsets (ox, oy) only through ox^2 + oy^2, so its ``rfft`` along the
    real axis 2 has only D distinct rows (1,621 of (2n)^2 at n = 64).
    ``table`` holds them k-major, shape (n+1, D), and ``index`` the row
    of each (i, j), shape (2n, 2n).  The rows are sampled and transformed
    in slabs of about ``_CHUNK_BYTES``, each sample summed in the dense
    kernel's order, so every row is bit-identical to that row of the
    dense kernel's ``rfft``.
    """
    n, h = grid.n, grid.h
    m = 2 * n
    idx = np.arange(m)
    off = np.where(idx < n, idx, idx - m).astype(float)  # offsets -n..n-1
    s, index = np.unique(off[:, np.newaxis] ** 2 + off ** 2,
                         return_inverse=True)
    d = len(s)
    step = max(1, _CHUNK_BYTES // (m * 16))
    try:
        table = np.empty((n + 1, d), dtype=complex)
        for r in range(0, d, step):
            # one slab: distance, then 4 pi |x|, then h^2 / (4 pi |x|)
            kern = s[r:r + step, np.newaxis] + off ** 2
            np.sqrt(kern, out=kern)
            np.multiply(FOUR_PI, kern, out=kern)
            with np.errstate(divide="ignore"):
                np.divide(h ** 2, kern, out=kern)
            if r == 0:  # s[0] = 0: the origin's row
                kern[0, 0] = h ** 2 * _CUBE_COULOMB_AVG / FOUR_PI
            table[:, r:r + step] = sfft.rfft(kern, axis=1).T
    except MemoryError as exc:
        raise MemoryError(
            f"doubled grid ({m}^3): its {n + 1} x {d} complex Coulomb row "
            f"table ({(n + 1) * d * 16:,} bytes) does not fit in "
            "memory") from exc
    return table, index.reshape(m, m)


def _symbol_planes(table: np.ndarray, index: np.ndarray, k: int,
                   out: np.ndarray) -> np.ndarray:
    """Fill ``out``, shape (c, 2n, 2n), with the symbol's k-planes k to
    k+c-1, [k, i, j]: gather their rows from the row table, then ``fft``
    along i and j in place, as ``rfftn`` does after its real axis."""
    np.take(table[k:k + len(out)], index, axis=1, out=out, mode="clip")
    sfft.fft(out, axis=1, overwrite_x=True)
    sfft.fft(out, axis=2, overwrite_x=True)
    return out


def _coulomb_kernel_hat(grid: Grid3D) -> np.ndarray:
    """rfftn of the Coulomb kernel on the doubled (2n)^3 grid, the symbol
    a solver kernel's solves share.

    It is assembled from a row table it does not keep, one chunk of about
    ``_CHUNK_BYTES`` of k-planes at a time.  Every 1-D transform sees the
    input it has in ``rfftn`` of the dense kernel, which is never formed,
    so the symbol is bit-identical to it.  The (2n, 2n, n+1) result is a
    view of a k-major array, so that a chunk of k-planes is contiguous.
    """
    n = grid.n
    m = 2 * n
    c = max(1, _CHUNK_BYTES // (m * m * 16))
    try:
        table, index = _coulomb_rows(grid)
        planes = np.empty((n + 1, m, m), dtype=complex)  # [k, i, j]
        for k in range(0, n + 1, c):
            _symbol_planes(table, index, k, planes[k:k + c])
    except MemoryError as exc:
        raise MemoryError(
            f"doubled grid ({m}^3): its {m} x {m} x {n + 1} complex Coulomb "
            f"symbol ({m * m * (n + 1) * 16:,} bytes) does not fit in "
            "memory") from exc
    return planes.transpose(1, 2, 0)


def _spectral(grid: Grid3D):
    """(k^2, Parseval bin weights) for rfftn on the n^3 grid."""
    k = 2.0 * math.pi * sfft.fftfreq(grid.n, d=grid.h)
    kr = 2.0 * math.pi * sfft.rfftfreq(grid.n, d=grid.h)
    KX, KY, KZ = np.meshgrid(k, k, kr, indexing="ij", sparse=True)
    k2 = KX ** 2 + KY ** 2 + KZ ** 2
    # the half spectrum mirrors every bin but the zero and Nyquist ones
    # (a Grid3D's n is even)
    pw = np.full(len(kr), 2.0)
    pw[0] = pw[-1] = 1.0
    return k2, pw[np.newaxis, np.newaxis, :]


# ---------------------------------------------------------------------------
# Poisson solver
# ---------------------------------------------------------------------------

def poisson_freespace(source: Field3D) -> Field3D:
    """``_poisson_doubled`` of a field, a one-off solve that builds no
    symbol; the potential skips the decay guard, since it decays only
    like 1/r."""
    return Field3D(source.grid, _poisson_doubled(source.grid, source.values),
                   guard=False)


def _poisson_doubled(grid: Grid3D, g: np.ndarray,
                     symbol: np.ndarray | None = None) -> np.ndarray:
    """Solve -Delta phi = g with free-space boundary conditions, for the
    nodal samples g of a nonnegative source; returns those of phi.

    Zero-padded convolution on the doubled grid; exact convolution of the
    sampled source with the (cell-averaged at the origin) Coulomb kernel.

    The (2n)^3 transforms are staged one axis at a time and pruned: the
    forward pass transforms only the n x n rows that hold the source, and
    the inverse pass computes only the n^3 corner it returns.  The stages
    run in pocketfft's own order (``rfftn``: real axis 2, then axes 0, 1;
    ``irfftn``: axes 0, 1, then real axis 2, scaled once at the end), so
    each 1-D transform sees the same input as in the full ``rfftn`` and
    ``irfftn`` and the potential is bit-identical to theirs.

    Memory stays bounded.  The real transforms run on slabs of i-planes:
    the forward one into the compact (n, n, n+1) half spectrum, the
    inverse one out of it straight into the (n, n, n) result.  The five
    complex stages in between run on one chunk of c k-planes at a time,
    in place in a reusable k-major (c, 2n, 2n) workspace, so they meet
    the symbol's k-major planes in the same layout: the chunk's half
    spectrum fills the [:n, :n] corner of each plane, each zero pad is
    cleared just before the stage that reads it, and the kept corner goes
    back into the half spectrum.  The transforms act on views and their
    results are not kept, so the solve relies on ``overwrite_x`` being
    honoured (a test pins this).

    A solver kernel passes its own ``symbol``, and a chunk holds about
    ``_CHUNK_BYTES``.  A one-off solve passes none: each chunk's symbol
    planes are built from a row table of its own (``_symbol_planes``) into
    a second workspace, and the two share the budget, so besides the
    table the solve holds the half spectrum, the result and about
    ``_CHUNK_BYTES``, and no (2n, 2n, n+1) array.  Slabs hold about
    ``_CHUNK_BYTES`` each.
    """
    _check_source(g)
    n = grid.n
    m = 2 * n
    rows = max(1, _CHUNK_BYTES // (n * m * 16))
    if symbol is None:
        table, index = _coulomb_rows(grid)
        c = min(n + 1, max(1, _CHUNK_BYTES // (2 * m * m * 16)))
    else:
        planes = symbol.transpose(2, 0, 1)  # [k, i, j]
        c = min(n + 1, max(1, _CHUNK_BYTES // (m * m * 16)))
    try:
        half = np.empty((n, n, n + 1), dtype=complex)
        for i in range(0, n, rows):
            half[i:i + rows] = sfft.rfft(g[i:i + rows], n=m, axis=2)
        work = np.empty((c, m, m), dtype=complex)
        sym = np.empty((c, m, m), dtype=complex) if symbol is None else None
        for k in range(0, n + 1, c):
            w = work[:n + 1 - k]
            w[:, :n, :n] = half[:, :, k:k + c].transpose(2, 0, 1)
            w[:, n:, :n] = 0.0
            sfft.fft(w[:, :, :n], axis=1, overwrite_x=True)
            w[:, :, n:] = 0.0
            sfft.fft(w, axis=2, overwrite_x=True)
            if symbol is None:
                w *= _symbol_planes(table, index, k, sym[:n + 1 - k])
            else:
                w *= planes[k:k + c]
            sfft.ifft(w, axis=1, norm="forward", overwrite_x=True)
            sfft.ifft(w[:, :n], axis=2, norm="forward", overwrite_x=True)
            half[:, :, k:k + c] = w[:, :n, :n].transpose(1, 2, 0)
        del w, work, sym  # before the output is allocated
        conv = np.empty((n, n, n))
        for i in range(0, n, rows):
            np.multiply(sfft.irfft(half[i:i + rows], n=m, axis=2,
                                   norm="forward")[..., :n],
                        1.0 / m ** 3, out=conv[i:i + rows])
    except MemoryError as exc:
        spectrum = (f"doubled grid ({m}^3): its {n} x {n} x {n + 1} complex "
                    f"half spectrum ({n * n * (n + 1) * 16:,} bytes)")
        if symbol is not None:
            raise MemoryError(
                f"{spectrum} and its chunk workspace of {c} complex {m} x "
                f"{m} k-planes ({c * m * m * 16:,} bytes) do not fit in "
                "memory") from exc
        raise MemoryError(
            f"{spectrum}, its {n + 1} x {table.shape[1]} complex Coulomb "
            f"row table ({table.nbytes:,} bytes) and its chunk pair of 2 "
            f"x {c} complex {m} x {m} k-planes ({2 * c * m * m * 16:,} "
            "bytes) do not fit in memory") from exc
    return conv


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
    """H^1 inner product consistent with h1_norm_sq_3d."""
    return _h1_inner(u.grid, *_spectral(u.grid), u.values, v.values)


def _h1_inner(grid: Grid3D, k2: np.ndarray, pw: np.ndarray, a: np.ndarray,
              b: np.ndarray) -> float:
    ahat = sfft.rfftn(a)
    bhat = sfft.rfftn(b)
    total = float(np.sum(pw * (1.0 + k2) * (ahat.conj() * bhat).real))
    return grid.cell_volume * total / grid.n ** 3


def nonlocal_term_3d(u: Field3D, profile: ChargeProfile) -> float:
    dens = profile.at_radius(u.grid.radius()) * u.values ** 2
    phi = poisson_freespace(Field3D(u.grid, dens))
    return u.grid.integrate(dens * phi.values)


def energy_3d(u: Field3D, profile: ChargeProfile,
              model: NonlinearityModel) -> float:
    """J(u) = 1/2 ||u||_H1^2 + 1/4 int rho phi u^2 - int F(u)."""
    return (0.5 * h1_norm_sq_3d(u)
            + 0.25 * nonlocal_term_3d(u, profile)
            - u.grid.integrate(eval_F(model, u.values)))


def sobolev_gradient_3d(u: Field3D, profile: ChargeProfile,
                        model: NonlinearityModel) -> Field3D:
    """H^1-Riesz representative of the energy derivative at u.

    The Riesz solve inverts the periodic spectral (-Delta + 1); with u's
    decay guard active this is a faithful metric for descent, and the
    returned g satisfies <g, v>_H1 = dJ(u)[v] exactly for the discrete J.
    Like a potential, g skips the decay guard: it decays only like e^-r.
    """
    disc = CubeDisc(u.grid, profile, model)
    return Field3D(u.grid, disc.riesz(u.values, disc.potential(u.values)),
                   guard=False)


# ---------------------------------------------------------------------------
# Raw-array evaluation kernel for the critical-point searches
# ---------------------------------------------------------------------------

class CubeDisc(Disc):
    """Cube kernel: spectral H^1 forms and a spectral Riesz solve."""

    def __init__(self, grid: Grid3D, profile: ChargeProfile,
                 model: NonlinearityModel):
        self.grid = grid
        self.model = model
        self.rho = profile.at_radius(grid.radius())
        self.k2, self.pw = _spectral(grid)
        self.symbol = _coulomb_kernel_hat(grid)  # freed with the kernel

    def wrap(self, values: np.ndarray) -> Field3D:
        return Field3D(self.grid, values)

    def _norm_sq_hat(self, vhat: np.ndarray) -> float:
        total = float(np.sum(self.pw * (1.0 + self.k2)
                             * (vhat.real ** 2 + vhat.imag ** 2)))
        return self.grid.cell_volume * total / self.grid.n ** 3

    def h1_norm_sq(self, values: np.ndarray) -> float:
        return self._norm_sq_hat(sfft.rfftn(values))

    def h1_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return _h1_inner(self.grid, self.k2, self.pw, a, b)

    def poisson(self, source: np.ndarray) -> np.ndarray:
        return _poisson_doubled(self.grid, source, self.symbol)

    def _riesz_hat(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Half spectrum of the H^1-Riesz gradient."""
        nl = self.rho * phi * u - eval_f(self.model, u)
        return sfft.rfftn(u) + sfft.rfftn(nl) / (1.0 + self.k2)

    def riesz(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """H^1-Riesz gradient, reusing the potential."""
        return sfft.irfftn(self._riesz_hat(u, phi), s=u.shape)

    def gradient(self, u: np.ndarray, phi: np.ndarray):
        """H^1-Riesz gradient and its H^1 norm, reusing the potential."""
        ghat = self._riesz_hat(u, phi)
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

def support_radius(u: RadialField) -> float:
    """Largest radius where |u| exceeds DECAY_GUARD_REL * max|u| (0 for
    the zero field)."""
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        return 0.0
    idx = np.flatnonzero(np.abs(u.values) > DECAY_GUARD_REL * peak)
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
