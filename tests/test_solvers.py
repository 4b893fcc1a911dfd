"""Tests for Sobolev descent, classification, and the saddle search."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spvlab.field3d import Field3D, Grid3D
from spvlab.models import ChargeProfile, NonlinearityModel
from spvlab.radial import RadialField, RadialGrid, h1_norm_sq
from spvlab.solvers import (SolveOptions, SolverError, minimize,
                            mountain_pass, multistart_minimize,
                            radial_gaussian_starts, trace_to_csv)

# intermediate descent iterates legitimately brush the decay guard
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# coupling in the negative-energy window of the pure power model; the
# charge level sqrt(lambda) sits well below the density threshold d0
LAM = 0.0031587563549145504


def _model():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return NonlinearityModel.pure_power(2.5).with_constants(2.5)


def _grid():
    return RadialGrid(12.0, 2048)


def _rho():
    return ChargeProfile.constant(math.sqrt(LAM))


def _negative_start(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return RadialField.gaussian(grid, 30.0, 1.2)


class TestMinimize:
    def test_finds_negative_minimizer(self):
        grid = _grid()
        res = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad=1e-5))
        assert res.converged
        assert res.energy < 0.0
        assert res.gradient_norm < 1e-5 * math.sqrt(h1_norm_sq(res.field))
        assert res.classification == "minimizer"
        assert abs(res.nehari_residual) < 1e-3

    def test_collapses_to_zero_from_positive_energy(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            start = RadialField.gaussian(grid, 0.5, 1.0)
        res = minimize(start, _rho(), _model(),
                       SolveOptions(tol_grad=1e-6))
        assert res.classification == "zero"
        assert math.sqrt(h1_norm_sq(res.field)) < 1e-6

    def test_trace_is_monotone_decreasing(self):
        grid = _grid()
        res = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad=1e-5))
        energies = [pt.energy for pt in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_deterministic(self):
        grid = _grid()
        opts = SolveOptions(tol_grad=1e-5)
        r1 = minimize(_negative_start(grid), _rho(), _model(), opts)
        r2 = minimize(_negative_start(grid), _rho(), _model(), opts)
        assert r1.energy == r2.energy
        assert np.array_equal(r1.field.values, r2.field.values)

    def test_ball_constraint_confines_support(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            start = RadialField(
                grid, 13.0 * np.exp(-grid.r ** 2 / (2 * 1.65 ** 2))
                * np.clip((3.5 - grid.r) / 0.5, 0.0, 1.0))
        res = minimize(start, _rho(), _model(),
                       SolveOptions(tol_grad=1e-5), support_radius=3.5)
        assert res.converged
        assert res.energy < 0.0
        outside = grid.r > 3.5
        assert np.max(np.abs(res.field.values[outside])) == 0.0

    def test_ball_constraint_rejected_in_3d(self):
        grid = Grid3D(6.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = Field3D(grid, np.zeros((16, 16, 16)))
        with pytest.raises(SolverError):
            minimize(u, _rho(), _model(), SolveOptions(max_iter=5),
                     support_radius=2.0)


class TestMultistart:
    def test_returns_lowest_energy(self):
        grid = _grid()
        starts = [_negative_start(grid)] + radial_gaussian_starts(
            grid, 3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            best, results = multistart_minimize(
                starts, _rho(), _model(), SolveOptions(tol_grad=1e-4))
        assert len(results) == len(starts)
        assert best.energy == min(r.energy for r in results)

    def test_start_family_deterministic(self):
        grid = _grid()
        a = radial_gaussian_starts(grid, 4, seed=3)
        b = radial_gaussian_starts(grid, 4, seed=3)
        for u, v in zip(a, b):
            assert np.array_equal(u.values, v.values)
        c = radial_gaussian_starts(grid, 4, seed=4)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_requires_starts(self):
        with pytest.raises(SolverError):
            multistart_minimize([], _rho(), _model())


class TestMountainPass:
    def test_finds_positive_saddle(self):
        grid = _grid()
        low = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad=1e-5))
        saddle = mountain_pass(low.field, _rho(), _model(),
                               SolveOptions(tol_grad=1e-6,
                                            tol_grad_abs=1e-4))
        assert saddle.converged
        assert saddle.energy > 0.0
        assert saddle.level == "beta"
        assert saddle.classification == "mountain-pass"

    def test_rejects_positive_energy_endpoint(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            start = RadialField.gaussian(grid, 0.5, 1.0)
        with pytest.raises(SolverError):
            mountain_pass(start, _rho(), _model())


class TestTraceIO:
    def test_trace_csv(self, tmp_path):
        grid = _grid()
        res = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad=1e-4))
        path = tmp_path / "trace.csv"
        trace_to_csv(res, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == len(res.trace)
        assert_allclose(data[-1, 1], res.trace[-1].energy)
