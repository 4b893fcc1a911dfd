"""Tests for the 3-D cube grid, free-space Poisson solver, and energies."""

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import fft as sfft

import spvlab.field3d as f3d
from spvlab.field3d import (DiscretizationError, Field3D, Grid3D,
                            embed_radial, energy_3d, h1_inner_3d,
                            h1_norm_sq_3d, nonlocal_term_3d,
                            poisson_freespace, sobolev_gradient_3d,
                            support_radius)
from spvlab.models import ChargeProfile, NonlinearityModel, eval_f
from spvlab.radial import FOUR_PI, RadialField, RadialGrid
from spvlab.radial import h1_norm_sq as h1_radial
from spvlab.radial import nonlocal_term as nonlocal_radial
GAUSSIAN_H1 = 2.5 * math.pi ** 1.5


def _model():
    return NonlinearityModel.pure_power(2.5).with_constants(2.5)


def _gaussian3(grid, amp=1.0, sigma=1.0):
    ax = grid.axis()
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = x ** 2 + y ** 2 + z ** 2
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "field has not decayed",
                                RuntimeWarning)
        return Field3D(grid, amp * np.exp(-r2 / (2.0 * sigma ** 2)))


class TestGrid3D:
    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(DiscretizationError):
            Grid3D(12.0, 127)
        with pytest.raises(DiscretizationError):
            Grid3D(12.0, 2)
        for L in (-1.0, math.nan, math.inf):
            with pytest.raises(DiscretizationError):
                Grid3D(L, 16)
        for n in (32.5, math.nan, math.inf, "32", None):
            with pytest.raises(DiscretizationError, match="integer n"):
                Grid3D(18.0, n)

    def test_integral_float_n_is_stored_as_an_int(self):
        # the solve sizes its arrays from n
        grid = Grid3D(6.0, 8.0)
        assert type(grid.n) is int
        assert poisson_freespace(_gaussian3(grid)).values.shape == (8, 8, 8)

    def test_grids_compare_and_hash_by_value(self):
        grid = Grid3D(6, 16)
        assert grid == Grid3D(6.0, 16)
        assert hash(grid) == hash(Grid3D(6.0, 16))
        assert grid != Grid3D(6.0, 32) and grid != Grid3D(8.0, 16)
        f3d._spectral(grid)
        hits = f3d._spectral.cache_info().hits
        assert f3d._spectral(Grid3D(6.0, 16)) is f3d._spectral(grid)
        assert f3d._spectral.cache_info().hits == hits + 2

    def test_axis_and_cell(self):
        grid = Grid3D(6.0, 16)
        assert grid.h == 0.75
        assert_allclose(grid.axis()[0], -6.0)
        assert_allclose(grid.axis()[-1], 6.0 - grid.h)
        assert_allclose(grid.cell_volume, grid.h ** 3)

    def test_integrate_constant(self):
        grid = Grid3D(6.0, 16)
        vals = np.full((16, 16, 16), 2.0)
        assert_allclose(grid.integrate(vals), 2.0 * 12.0 ** 3, rtol=1e-13)


class TestPoisson3D:
    def test_uniform_ball_potential(self):
        grid = Grid3D(12.0, 128)
        r = grid.radius()
        # cell-averaged indicator; a sharp cutoff carries an O(h) surface
        # error that dominates the comparison
        src = Field3D(grid, np.clip((1.0 - (r - 0.5 * grid.h)) / grid.h,
                                    0.0, 1.0), guard=False)
        phi = poisson_freespace(src)
        exact = np.where(r <= 1.0, (3.0 - r ** 2) / 6.0,
                         1.0 / (3.0 * np.maximum(r, grid.h)))
        inside = r < 6.0
        rel = np.max(np.abs(phi.values - exact)[inside]
                     / np.abs(exact)[inside])
        assert rel < 5e-3

    def test_energy_identity(self):
        grid = Grid3D(12.0, 128)
        u = _gaussian3(grid, 2.0, 1.0)
        rho = ChargeProfile.constant(1.0)
        src = Field3D(grid, u.values ** 2, guard=False)
        phi = poisson_freespace(src)
        pairing = grid.integrate(src.values * phi.values)
        assert_allclose(nonlocal_term_3d(u, rho), pairing, rtol=5e-3)

    def test_radial_cross_agreement(self):
        rgrid = RadialGrid(12.0, 4096)
        grid = Grid3D(12.0, 128)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u_rad = RadialField.gaussian(rgrid, 2.0, 1.0)
        u3 = _gaussian3(grid, 2.0, 1.0)
        rho = ChargeProfile.constant(1.0)
        assert_allclose(nonlocal_term_3d(u3, rho),
                        nonlocal_radial(u_rad, rho), rtol=5e-3)
        assert_allclose(h1_norm_sq_3d(u3), h1_radial(u_rad), rtol=5e-3)


def _reference_poisson(source):
    """The unpruned solve: zero pad to (2n)^3, full rfftn and irfftn, crop."""
    n = source.grid.n
    pad = np.zeros((2 * n,) * 3)
    pad[:n, :n, :n] = source.values
    spec = sfft.rfftn(pad)
    del pad
    spec *= f3d._coulomb_kernel_hat(source.grid)
    return sfft.irfftn(spec, s=(2 * n,) * 3)[:n, :n, :n]


def _reference_kernel_hat(grid):
    """rfftn of the dense Coulomb kernel on the doubled grid."""
    n, h = grid.n, grid.h
    idx = np.arange(2 * n)
    off = np.where(idx < n, idx, idx - 2 * n).astype(float)
    OX, OY, OZ = np.meshgrid(off, off, off, indexing="ij", sparse=True)
    with np.errstate(divide="ignore"):
        kern = h ** 2 / (FOUR_PI * np.sqrt(OX ** 2 + OY ** 2 + OZ ** 2))
    kern[0, 0, 0] = h ** 2 * f3d._CUBE_COULOMB_AVG / FOUR_PI
    return sfft.rfftn(kern)


def _kernel_solve(grid):
    """The Poisson solve of a solver kernel on `grid`, which passes the
    kernel's cached symbol."""
    return f3d.CubeDisc(grid, ChargeProfile.constant(1.0), _model()).poisson


def _budget_planes(monkeypatch, n, planes):
    """Set the chunk budget to `planes` complex k-planes of the doubled
    grid (None keeps the default)."""
    if planes is not None:
        monkeypatch.setattr(f3d, "_CHUNK_BYTES", planes * (2 * n) ** 2 * 16)


class _RecordingFFT:
    """Stands in for ``scipy.fft``; logs (name, input shape, output shape,
    whether the output shares the input's memory, shape of the array
    that owns the input's memory)."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        func = getattr(sfft, name)

        def recorded(x, *args, **kwargs):
            out = func(x, *args, **kwargs)
            base = x if x.base is None else x.base
            self.calls.append((name, np.shape(x), np.shape(out),
                               np.shares_memory(x, out), base.shape))
            return out
        return recorded


def _source(n):
    grid = Grid3D(5.0, n)
    ax = grid.axis()
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    blob = np.exp(-((x - 1.3) ** 2 + (y + 0.7) ** 2 + (z - 0.4) ** 2))
    # exact zeros inside the cube, not only at its edge
    shell = np.where(np.abs(np.sqrt(x ** 2 + y ** 2 + z ** 2) - 2.5)
                     < 0.8, 1.0 + 0.1 * x, 0.0)
    return [Field3D(grid, vals, guard=False) for vals in (blob, shell)]


class TestPrunedPoisson:
    @pytest.mark.parametrize("n", [4, 6, 10, 14, 16, 32, 48])
    def test_bit_identical_to_unpruned_solve(self, n):
        for src in _source(n):
            assert np.array_equal(poisson_freespace(src).values,
                                  _reference_poisson(src))

    @pytest.mark.parametrize("n", [4, 6, 10, 14, 16, 32, 48])
    def test_bit_identical_with_several_chunks(self, n, monkeypatch):
        # a budget of 4 k-planes runs chunks of 2 source and 2 symbol
        # planes, which leave a partial last chunk at every (even) n, and
        # from n = 10 on the real transforms run in several row slabs
        _budget_planes(monkeypatch, n, 4)
        for src in _source(n):
            assert np.array_equal(poisson_freespace(src).values,
                                  _reference_poisson(src))

    @pytest.mark.slow
    def test_bit_identical_at_desk_size(self):
        # the default budget runs 65 chunks of 2 k-planes here, each beside
        # its 2 symbol planes
        src = _source(128)[0]
        assert np.array_equal(poisson_freespace(src).values,
                              _reference_poisson(src))

    # one-off solves run chunks of half the kernel's width: 4 planes give
    # 2, and at n = 64 (65 k-planes) the default gives 16 and 8, each with
    # a one-plane last chunk
    @pytest.mark.parametrize("planes", [None, 4])
    @pytest.mark.parametrize("n", [4, 6, 10, 16, 32, 48, 64])
    def test_one_off_solve_bit_identical_to_kernel_solve(self, n, planes,
                                                         monkeypatch):
        _budget_planes(monkeypatch, n, planes)
        srcs = _source(n)
        solve = _kernel_solve(srcs[0].grid)
        for src in srcs:
            assert np.array_equal(poisson_freespace(src).values,
                                  solve(src.values))

    def test_one_off_solve_builds_each_symbol_chunk(self, monkeypatch,
                                                    symbol_builds):
        n, m = 8, 16
        grid = Grid3D(4.0, n)
        table = f3d._coulomb_rows(grid)[0]  # warm the row table
        # the source and the symbol chunk share 4 planes: 2 + 2 + 2 + 2 + 1
        _budget_planes(monkeypatch, n, 4)
        rec = _RecordingFFT()
        monkeypatch.setattr(f3d, "sfft", rec)
        take = np.take

        def gather(a, *args, **kwargs):
            out = take(a, *args, **kwargs)
            rec.calls.append(("take", np.shape(a), np.shape(out),
                              np.shares_memory(a, out), a.base.shape))
            return out
        monkeypatch.setattr(f3d.np, "take", gather)
        poisson_freespace(_gaussian3(grid))
        # each chunk of [k, i, j] planes: fft along i and j of the source,
        # then the symbol's planes gathered from the row table and
        # transformed along i and j, then the two inverse stages
        widths = [2, 2, 2, 2, 1]
        calls = [c for c in rec.calls if c[0] in ("take", "fft", "ifft")]
        assert [c[0] for c in calls] == \
            ["fft", "fft", "take", "fft", "fft", "ifft", "ifft"] * len(widths)
        assert [c[1:3] for c in calls] == [
            s for c in widths
            for s in (((c, m, n), (c, m, n)), ((c, m, m), (c, m, m)),
                      ((c, table.shape[1]), (c, m, m)),
                      ((c, m, m), (c, m, m)), ((c, m, m), (c, m, m)),
                      ((c, m, m), (c, m, m)), ((c, n, m), (c, n, m)))]
        assert all(c[3] for c in calls if c[0] != "take")
        assert {c[4] for c in calls} == {(2, m, m), table.shape}
        # no array of the whole symbol is made, and no symbol is built
        assert all(shape not in (c[1], c[2], c[4]) for c in rec.calls
                   for shape in ((m, m, n + 1), (n + 1, m, m)))
        assert symbol_builds == []

    def test_one_off_solve_bounds_the_peak_memory(self, monkeypatch,
                                                  symbol_builds):
        # the row table, the half spectrum, the result and one budget,
        # shared by the source chunk and the symbol chunk
        n, m, planes = 32, 64, 8
        src = _gaussian3(Grid3D(5.0, n))
        poisson_freespace(src)  # warm the FFT plans
        table = f3d._coulomb_rows(src.grid)[0].nbytes
        # the row table is built inside the measured solve
        monkeypatch.setattr(f3d, "_coulomb_rows",
                            f3d._coulomb_rows.__wrapped__)
        _budget_planes(monkeypatch, n, planes)
        tracemalloc.start()
        try:
            poisson_freespace(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        half = n * n * (n + 1) * 16
        out = n ** 3 * 8
        budget = m * m * planes * 16
        # the symbol alone, m * m * (n + 1) * 16 bytes, is over this bound
        assert peak < 1.1 * (half + out + budget + table)
        assert symbol_builds == []

    def test_energy_builds_no_symbol(self, symbol_builds):
        grid = Grid3D(5.25, 12)
        energy_3d(_gaussian3(grid), ChargeProfile.constant(1.0), _model())
        assert symbol_builds == []

    def test_kernel_keeps_no_row_table(self):
        # the kernel's symbol is built from a table of its own, so a
        # process that only builds kernels caches no row table
        f3d._coulomb_rows.cache_clear()
        f3d.CubeDisc(Grid3D(3.75, 10), ChargeProfile.constant(1.0),
                     _model())
        assert f3d._coulomb_rows.cache_info().currsize == 0

    # a budget of 3 planes builds the row table in slabs of 6n rows, with
    # a partial last slab from n = 10 on, and the symbol in chunks of 3
    # k-planes, with a partial last chunk at n = 4, 6, 10, 16, 32 and 48
    @pytest.mark.parametrize("planes", [None, 3])
    @pytest.mark.parametrize("n", [4, 6, 10, 16, 32, 48])
    def test_symbol_bit_identical_to_dense_rfftn(self, n, planes,
                                                 monkeypatch):
        _budget_planes(monkeypatch, n, planes)
        grid = Grid3D(5.0, n)
        assert np.array_equal(f3d._coulomb_kernel_hat(grid),
                              _reference_kernel_hat(grid))

    def test_transforms_only_the_source_rows_and_kept_corner(self,
                                                              monkeypatch):
        n, m = 8, 16
        grid = Grid3D(4.0, n)
        solve = _kernel_solve(grid)
        _budget_planes(monkeypatch, n, 2)  # 2 + 2 + 2 + 2 + 1 k-planes
        rec = _RecordingFFT()
        monkeypatch.setattr(f3d, "sfft", rec)
        solve(_gaussian3(grid).values)
        names = [c[0] for c in rec.calls]
        assert "rfftn" not in names and "irfftn" not in names
        # the real transforms run on slabs of the n x n source rows
        r2c = [c[1] for c in rec.calls if c[0] == "rfft"]
        assert len(r2c) == 2 and all(s[1:] == (n, n) for s in r2c)
        assert sum(s[0] for s in r2c) == n
        c2r = [c[2] for c in rec.calls if c[0] == "irfft"]
        assert len(c2r) == 2 and all(s[1:] == (n, m) for s in c2r)
        assert sum(s[0] for s in c2r) == n
        # each chunk of [k, i, j] planes: fft along i of the columns j < n
        # that hold the source, fft along j of every row, ifft along i,
        # ifft along j of the kept rows i < n
        widths = [2, 2, 2, 2, 1]
        assert [c[0] for c in rec.calls if c[0] in ("fft", "ifft")] == \
            ["fft", "fft", "ifft", "ifft"] * len(widths)
        assert [c[1] for c in rec.calls if c[0] in ("fft", "ifft")] == [
            s for c in widths
            for s in ((c, m, n), (c, m, m), (c, m, m), (c, n, m))]

    def test_complex_stages_run_in_the_workspace(self, monkeypatch):
        # no result of a complex stage is kept: the solve needs scipy to
        # honour overwrite_x on views of the chunk workspace
        n = 8
        grid = Grid3D(4.0, n)
        solve = _kernel_solve(grid)
        _budget_planes(monkeypatch, n, 4)
        rec = _RecordingFFT()
        monkeypatch.setattr(f3d, "sfft", rec)
        solve(_gaussian3(grid).values)
        c2c = [c for c in rec.calls if c[0] in ("fft", "ifft")]
        assert len(c2c) == 4 * 3 and all(c[3] for c in c2c)
        assert {c[4] for c in c2c} == {(4, 2 * n, 2 * n)}
        # and no array of the unchunked workspace is made
        assert all(shape not in (c[1], c[2], c[4]) for c in rec.calls
                   for shape in ((2 * n, 2 * n, n + 1), (n + 1, 2 * n, 2 * n)))

    def test_one_workspace_bounds_the_peak_memory(self, monkeypatch):
        # one chunk workspace, reused: the peak is the half spectrum, the
        # result and one chunk
        n, m, planes = 32, 64, 8
        src = _gaussian3(Grid3D(5.0, n)).values
        solve = _kernel_solve(Grid3D(5.0, n))
        solve(src)  # warm the FFT plans
        _budget_planes(monkeypatch, n, planes)
        tracemalloc.start()
        try:
            solve(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        half = n * n * (n + 1) * 16
        out = n ** 3 * 8
        chunk = m * m * planes * 16
        # the unchunked (2n, 2n, n+1) workspace alone is 4 chunks here
        assert peak < half + out + chunk + 0.1 * chunk

    def test_symbol_slabs_bound_the_peak_memory(self, monkeypatch):
        n, m = 32, 64
        _budget_planes(monkeypatch, n, 4)
        tracemalloc.start()
        try:
            f3d._coulomb_kernel_hat(Grid3D(5.0, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense real (2n)^3 kernel alone would be 0.97 of the symbol
        assert peak < 1.25 * m * m * (n + 1) * 16

    def test_memory_error_in_a_later_stage_names_the_grid(self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f3d.sfft, "ifft", no_memory)
        with pytest.raises(MemoryError, match=r"^doubled grid \(16\^3"):
            poisson_freespace(_gaussian3(Grid3D(4.0, 8)))

    def test_memory_error_in_the_first_stage_states_the_workspace(
            self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        grid = Grid3D(4.0, 8)
        solve = _kernel_solve(grid)
        monkeypatch.setattr(f3d.sfft, "rfft", no_memory)
        with pytest.raises(MemoryError, match=r"^doubled grid \(16\^3\): "
                           r"its 8 x 8 x 9 complex half spectrum \(9,216 "
                           r"bytes\) and its chunk workspace of 9 complex "
                           r"16 x 16 k-planes \(36,864 bytes\) do not fit"):
            solve(_gaussian3(grid).values)

    def test_memory_error_in_the_symbol_build_states_the_symbol(
            self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        # the symbol's row table is built afresh, so its rfft runs
        monkeypatch.setattr(f3d.sfft, "rfft", no_memory)
        with pytest.raises(MemoryError, match=r"^doubled grid \(12\^3\): "
                           r"its 12 x 12 x 7 complex Coulomb symbol "
                           r"\(16,128 bytes\) does not fit"):
            f3d._coulomb_kernel_hat(Grid3D(4.0, 6))

    def test_memory_error_in_the_row_table_states_the_table(
            self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f3d.sfft, "rfft", no_memory)
        with pytest.raises(MemoryError, match=r"^doubled grid \(12\^3\): "
                           r"its 7 x 27 complex Coulomb row table "
                           r"\(3,024 bytes\) does not fit"):
            f3d._coulomb_rows.__wrapped__(Grid3D(4.0, 6))

    def test_memory_error_in_a_one_off_solve_states_table_and_chunks(
            self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        grid = Grid3D(4.0, 8)
        f3d._coulomb_rows(grid)
        monkeypatch.setattr(f3d.sfft, "rfft", no_memory)
        with pytest.raises(MemoryError, match=r"^doubled grid \(16\^3\): "
                           r"its 8 x 8 x 9 complex half spectrum \(9,216 "
                           r"bytes\), its 9 x 42 complex Coulomb row table "
                           r"\(6,048 bytes\) and its chunk pair of 2 x 9 "
                           r"complex 16 x 16 k-planes \(73,728 bytes\) do "
                           r"not fit"):
            poisson_freespace(_gaussian3(grid))


class TestEnergies3D:
    def test_gaussian_h1_analytic(self):
        grid = Grid3D(12.0, 128)
        u = _gaussian3(grid)
        assert_allclose(h1_norm_sq_3d(u), GAUSSIAN_H1, rtol=1e-6)

    def test_h1_inner_polarization(self):
        grid = Grid3D(6.0, 24)
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = Field3D(grid, rng.normal(size=(24, 24, 24)), guard=False)
            v = Field3D(grid, rng.normal(size=(24, 24, 24)), guard=False)
            upv = Field3D(grid, u.values + v.values, guard=False)
            umv = Field3D(grid, u.values - v.values, guard=False)
        assert_allclose(h1_inner_3d(u, v),
                        0.25 * (h1_norm_sq_3d(upv) - h1_norm_sq_3d(umv)),
                        rtol=1e-9, atol=1e-9)

    def test_mirror_symmetry_exact(self):
        # the energy of the mirror image under x -> -x matches when the
        # charge profile is even
        grid = Grid3D(6.0, 32)
        model = _model()
        rho = ChargeProfile(0.1, 2.0)
        ax = grid.axis()
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = 2.0 * np.exp(-((x - 1.0) ** 2 + y ** 2 + z ** 2))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = Field3D(grid, vals, guard=False)
            mirror = Field3D(grid, np.roll(vals[::-1, ::-1, ::-1],
                                           1, axis=(0, 1, 2)), guard=False)
        assert_allclose(energy_3d(mirror, rho, model),
                        energy_3d(u, rho, model), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        grid = Grid3D(6.0, 32)
        model = _model()
        rho = ChargeProfile(0.1, 2.0)
        rng = np.random.default_rng(2)
        u = _gaussian3(grid, 3.0, 1.0)
        g = sobolev_gradient_3d(u, rho, model)
        for _ in range(5):
            v = _gaussian3(grid, rng.uniform(0.1, 1.0),
                           rng.uniform(0.7, 1.5))
            eps = 1e-5
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "field has not decayed",
                                        RuntimeWarning)
                up = Field3D(grid, u.values + eps * v.values, guard=False)
                dn = Field3D(grid, u.values - eps * v.values, guard=False)
            fd = (energy_3d(up, rho, model)
                  - energy_3d(dn, rho, model)) / (2.0 * eps)
            assert_allclose(h1_inner_3d(g, v), fd, rtol=1e-3, atol=1e-8)

    def test_nehari_residual_consistency(self):
        grid = Grid3D(6.0, 32)
        model = _model()
        rho = ChargeProfile.constant(0.5)
        u = _gaussian3(grid, 2.0, 1.0)
        expected = (h1_norm_sq_3d(u) + nonlocal_term_3d(u, rho)
                    - grid.integrate(eval_f(model, u.values) * u.values))
        disc = f3d.CubeDisc(grid, rho, model)
        assert_allclose(disc.nehari_residual(u.values,
                                             disc.potential(u.values)),
                        expected, rtol=1e-10)

    def test_helpers_are_the_kernel(self):
        grid = Grid3D(6.0, 16)
        model = _model()
        rho = ChargeProfile(0.1, 2.0)
        u = _gaussian3(grid, 3.0, 1.0)
        v = _gaussian3(grid, 0.5, 1.5)
        disc = f3d.CubeDisc(grid, rho, model)
        phi = disc.potential(u.values)
        assert np.array_equal(sobolev_gradient_3d(u, rho, model).values,
                              disc.riesz(u.values, phi))
        assert h1_inner_3d(u, v) == disc.h1_inner(u.values, v.values)


@pytest.mark.parametrize("cached", [f3d._coulomb_rows, f3d._spectral],
                         ids=["coulomb-rows", "spectral"])
def test_grid_caches_are_bounded(cached):
    size = cached.cache_info().maxsize
    assert size is not None and size <= 4
    for n in range(4, 4 + 2 * (size + 2), 2):
        cached(Grid3D(3.0, n))
        assert cached.cache_info().currsize <= size


class TestEmbedding:
    def test_embed_matches_closed_form(self):
        rgrid = RadialGrid(12.0, 2048)
        grid = Grid3D(12.0, 96)
        amp, sig = 2.0, 1.2
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u_rad = RadialField.gaussian(rgrid, amp, sig)
        ax = grid.axis()
        # centred, and off-centre at a point off the cube nodes
        for center in [(0.0, 0.0, 0.0), (1.3, -0.7, 2.9)]:
            u3 = embed_radial(u_rad, grid, center=center)
            X, Y, Z = np.meshgrid(ax - center[0], ax - center[1],
                                  ax - center[2], indexing="ij")
            exact = amp * np.exp(-(X ** 2 + Y ** 2 + Z ** 2)
                                 / (2.0 * sig ** 2))
            # linear interpolation in r: error below h_r^2 |u''| / 8
            assert np.max(np.abs(u3.values - exact)) < 1e-5

    def test_embed_off_center(self):
        rgrid = RadialGrid(12.0, 2048)
        grid = Grid3D(12.0, 96)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u_rad = RadialField.gaussian(rgrid, 2.0, 1.0)
        u3 = embed_radial(u_rad, grid, center=(0.0, 0.0, 4.0))
        k = np.argmin(np.abs(grid.axis() - 4.0))
        mid = grid.n // 2
        assert_allclose(u3.values[mid, mid, k], 2.0, rtol=1e-2)

    def test_embed_rejects_overflowing_support(self):
        rgrid = RadialGrid(12.0, 2048)
        grid = Grid3D(12.0, 96)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u_rad = RadialField.gaussian(rgrid, 2.0, 1.0)
        with pytest.raises(DiscretizationError):
            embed_radial(u_rad, grid, center=(0.0, 0.0, 10.0))

    def test_support_radius(self):
        rgrid = RadialGrid(12.0, 2048)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = RadialField.gaussian(rgrid, 1.0, 1.0)
        rad = support_radius(u)
        # exp(-r^2/2) crosses 1e-6 at r = sqrt(2 ln 1e6) ~ 5.26
        assert 5.0 < rad < 5.6


class TestFieldIO3D:
    def test_binary_round_trip(self, tmp_path):
        grid = Grid3D(6.0, 16)
        rng = np.random.default_rng(9)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = Field3D(grid, rng.normal(size=(16, 16, 16)), guard=False)
        path = tmp_path / "u.bin"
        u.to_bin(path)
        with pytest.warns(RuntimeWarning, match="has not decayed"):
            v = Field3D.from_bin(path)
        assert v.grid.n == 16
        assert_allclose(v.grid.L, 6.0)
        assert np.array_equal(v.values, u.values)

    @pytest.mark.parametrize("case", ["truncated", "extra-bytes", "huge-n",
                                      "short-header"])
    def test_malformed_binary_is_rejected(self, tmp_path, case):
        grid = Grid3D(6.0, 8)
        path = tmp_path / "u.bin"
        _gaussian3(grid).to_bin(path)
        raw = path.read_bytes()
        head = len(Field3D._MAGIC) + 17
        huge = Field3D._MAGIC + struct.pack("<dqB", 6.0, 2 ** 40, 0)
        found = {"truncated": raw[:-8], "extra-bytes": raw + b"\0" * 8,
                 "huge-n": huge + raw[head:],
                 "short-header": raw[:head - 1]}[case]
        path.write_bytes(found)
        match = ("header is truncated" if case == "short-header"
                 else f"has {len(found) - head} bytes")
        with pytest.raises(DiscretizationError, match=match):
            Field3D.from_bin(path)

    def test_slice_csv(self, tmp_path):
        grid = Grid3D(6.0, 16)
        u = _gaussian3(grid, 2.0, 1.0)
        path = tmp_path / "slice.csv"
        u.slice_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == 16 * 16

    def test_guard_warns_on_boundary_mass(self):
        grid = Grid3D(6.0, 16)
        with pytest.warns(RuntimeWarning):
            _ = Field3D(grid, np.ones((16, 16, 16)))

    def test_guard_points_at_the_constructing_line(self):
        grid = Grid3D(6.0, 16)
        with pytest.warns(RuntimeWarning) as rec:
            Field3D(grid, np.ones((16, 16, 16)))
        assert [w.filename for w in rec] == [__file__]

    @pytest.mark.parametrize("guard", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_rejected(self, bad, guard):
        vals = np.zeros((16, 16, 16))
        vals[3, 4, 5] = bad
        with pytest.raises(DiscretizationError, match="non-finite"):
            Field3D(Grid3D(6.0, 16), vals, guard=guard)

    def test_guard_text_names_the_peak_magnitude(self):
        vals = np.full((16, 16, 16), 0.5)
        vals[8, 8, 8] = -2.0
        with pytest.warns(RuntimeWarning) as rec:
            Field3D(Grid3D(6.0, 16), vals)
        assert [str(w.message) for w in rec] == [
            "field has not decayed at the box boundary; enlarge L "
            "(edge peak 5.000e-01, interior peak 2.000e+00)"]

    def test_poisson_output_guard_disabled(self):
        grid = Grid3D(6.0, 32)
        u = _gaussian3(grid, 1.0, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            src = Field3D(grid, u.values ** 2, guard=False)
            phi = poisson_freespace(src)
        assert not phi.guard
