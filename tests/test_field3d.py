"""Tests for the 3-D cube grid, free-space Poisson solver, and energies."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spvlab.field3d import (DiscretizationError, Field3D, Grid3D,
                            embed_radial, energy_3d, h1_inner_3d,
                            h1_norm_sq_3d, nehari_residual_3d,
                            nonlocal_term_3d, poisson_freespace,
                            radial_average, sobolev_gradient_3d,
                            support_radius)
from spvlab.models import ChargeProfile, NonlinearityModel, eval_f
from spvlab.radial import RadialField, RadialGrid
from spvlab.radial import h1_norm_sq as h1_radial
from spvlab.radial import nonlocal_term as nonlocal_radial

FOUR_PI = 4.0 * math.pi
GAUSSIAN_H1 = 2.5 * math.pi ** 1.5


def _model():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return NonlinearityModel.pure_power(2.5).with_constants(2.5)


def _gaussian3(grid, amp=1.0, sigma=1.0):
    ax = grid.axis()
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = x ** 2 + y ** 2 + z ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return Field3D(grid, amp * np.exp(-r2 / (2.0 * sigma ** 2)))


class TestGrid3D:
    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(DiscretizationError):
            Grid3D(12.0, 127)
        with pytest.raises(DiscretizationError):
            Grid3D(12.0, 2)
        with pytest.raises(DiscretizationError):
            Grid3D(-1.0, 16)

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
            warnings.simplefilter("ignore", RuntimeWarning)
            u_rad = RadialField.gaussian(rgrid, 2.0, 1.0)
        u3 = _gaussian3(grid, 2.0, 1.0)
        rho = ChargeProfile.constant(1.0)
        assert_allclose(nonlocal_term_3d(u3, rho),
                        nonlocal_radial(u_rad, rho), rtol=5e-3)
        assert_allclose(h1_norm_sq_3d(u3), h1_radial(u_rad), rtol=5e-3)


class TestEnergies3D:
    def test_gaussian_h1_analytic(self):
        grid = Grid3D(12.0, 128)
        u = _gaussian3(grid)
        assert_allclose(h1_norm_sq_3d(u), GAUSSIAN_H1, rtol=1e-6)

    def test_h1_inner_polarization(self):
        grid = Grid3D(6.0, 24)
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
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
        rho = ChargeProfile.rational(0.1, 2.0)
        ax = grid.axis()
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = 2.0 * np.exp(-((x - 1.0) ** 2 + y ** 2 + z ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = Field3D(grid, vals, guard=False)
            mirror = Field3D(grid, np.roll(vals[::-1, ::-1, ::-1],
                                           1, axis=(0, 1, 2)), guard=False)
        assert_allclose(energy_3d(mirror, rho, model),
                        energy_3d(u, rho, model), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        grid = Grid3D(6.0, 32)
        model = _model()
        rho = ChargeProfile.rational(0.1, 2.0)
        rng = np.random.default_rng(2)
        u = _gaussian3(grid, 3.0, 1.0)
        g = sobolev_gradient_3d(u, rho, model)
        for _ in range(5):
            v = _gaussian3(grid, rng.uniform(0.1, 1.0),
                           rng.uniform(0.7, 1.5))
            eps = 1e-5
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
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
        assert_allclose(nehari_residual_3d(u, rho, model), expected,
                        rtol=1e-10)


class TestEmbedding:
    def test_embed_and_average_round_trip(self):
        rgrid = RadialGrid(12.0, 2048)
        grid = Grid3D(12.0, 96)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u_rad = RadialField.gaussian(rgrid, 2.0, 1.2)
        u3 = embed_radial(u_rad, grid)
        # average onto a radial grid coarser than the cube spacing so
        # every bin holds cube samples (bin means, not interpolants)
        coarse = RadialGrid(12.0, 48)
        back = radial_average(u3, coarse)
        exact = np.interp(coarse.r, rgrid.r, u_rad.values)
        core = (coarse.r > 0.4) & (coarse.r < 6.0)
        # bin means sit slightly below the center values on a convex
        # profile; the bias is O(h^2) at this spacing
        assert np.max(np.abs(back.values - exact)[core]) < 0.06

    def test_embed_off_center(self):
        rgrid = RadialGrid(12.0, 2048)
        grid = Grid3D(12.0, 96)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u_rad = RadialField.gaussian(rgrid, 2.0, 1.0)
        u3 = embed_radial(u_rad, grid, center=(0.0, 0.0, 4.0))
        k = np.argmin(np.abs(grid.axis() - 4.0))
        mid = grid.n // 2
        assert_allclose(u3.values[mid, mid, k], 2.0, rtol=1e-2)

    def test_embed_rejects_overflowing_support(self):
        rgrid = RadialGrid(12.0, 2048)
        grid = Grid3D(12.0, 96)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u_rad = RadialField.gaussian(rgrid, 2.0, 1.0)
        with pytest.raises(DiscretizationError):
            embed_radial(u_rad, grid, center=(0.0, 0.0, 10.0))

    def test_support_radius(self):
        rgrid = RadialGrid(12.0, 2048)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = RadialField.gaussian(rgrid, 1.0, 1.0)
        rad = support_radius(u)
        # exp(-r^2/2) crosses 1e-6 at r = sqrt(2 ln 1e6) ~ 5.26
        assert 5.0 < rad < 5.6


class TestFieldIO3D:
    def test_binary_round_trip(self, tmp_path):
        grid = Grid3D(6.0, 16)
        rng = np.random.default_rng(9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = Field3D(grid, rng.normal(size=(16, 16, 16)), guard=False)
        path = tmp_path / "u.bin"
        u.to_bin(path)
        v = Field3D.from_bin(path)
        assert v.grid.n == 16
        assert_allclose(v.grid.L, 6.0)
        assert np.array_equal(v.values, u.values)

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

    def test_poisson_output_guard_disabled(self):
        grid = Grid3D(6.0, 32)
        u = _gaussian3(grid, 1.0, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            src = Field3D(grid, u.values ** 2, guard=False)
            phi = poisson_freespace(src)
        assert not phi.guard
