"""Tests for Sobolev descent, classification, and the saddle search."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spvlab.field3d as f3d
import spvlab.radial as rad
import spvlab.solvers as slv
from spvlab.cli import _tapered_ball_start
from spvlab.field3d import Field3D, Grid3D
from spvlab.models import ChargeProfile, NonlinearityModel
from spvlab.radial import RadialField, RadialGrid, h1_norm_sq
from spvlab.solvers import (ARMIJO_C, SolveOptions, SolverError, minimize,
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
        assert saddle.classification == "mountain-pass"

    def test_highest_node_energy_is_not_recomputed(self, count_calls,
                                                    monkeypatch):
        grid = RadialGrid(12.0, 512)
        low = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad_abs=1e-6))
        evals_F = count_calls(rad, "eval_F")
        projections = count_calls(rad.RadialDisc, "project")
        iterations = count_calls(rad.RadialDisc, "gradient")

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(slv, "_polish_residual", stop)
        with pytest.raises(Stop):
            # below the first re-spread of the path, at iteration 5
            mountain_pass(low.field, _rho(), _model(),
                          SolveOptions(tol_grad_abs=1e-5, max_iter=4))
        # J is evaluated once at the projected anchor and once at each
        # path node; after that, only at line-search trials, each of
        # which projects once
        assert len(iterations) >= 1
        trials = len(projections) - 1
        assert len(evals_F) - (1 + slv.PATH_NODES) == trials

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


def _reference_polish(ws, u0, tol, max_iter=2000):
    """The residual polish that evaluated J and ||G|| at every point."""
    u = u0.copy()
    J, phi = ws.energy(u)
    G, gn = ws.gradient(u, phi)
    t = 1.0
    for _ in range(max_iter):
        if gn <= tol or gn == 0.0:
            break
        scale = 1e-6 * (1.0 + math.sqrt(ws.h1_norm_sq(u))) / gn
        Jp, pp = ws.energy(u + scale * G)
        Gp, _ = ws.gradient(u + scale * G, pp)
        Jm, pm = ws.energy(u - scale * G)
        Gm, _ = ws.gradient(u - scale * G, pm)
        d = (Gp - Gm) / (2.0 * scale)
        dn2 = ws.h1_norm_sq(d)
        if dn2 <= 0.0:
            break
        phi0 = 0.5 * gn * gn
        accepted = False
        t = min(2.0 * t, 1e3)
        while t > 1e-18:
            cand = u - t * d
            Jc, pc = ws.energy(cand)
            Gc, gc = ws.gradient(cand, pc)
            if 0.5 * gc * gc <= phi0 - ARMIJO_C * t * dn2:
                u, G, gn, J, phi = cand, Gc, gc, Jc, pc
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return u, gn, J, phi


def _saddle_polish_input():
    """The kernel, iterate and tolerance the saddle search hands to the
    polish, on the autonomous problem at radial n=512."""
    grid = RadialGrid(12.0, 512)
    low = minimize(_negative_start(grid), _rho(), _model(),
                   SolveOptions(tol_grad_abs=1e-6))
    seen = []

    def record(ws, u, tol, **kw):
        seen.append((ws, u.copy(), tol))
        return polish(ws, u, tol, **kw)

    polish = slv._polish_residual
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slv, "_polish_residual", record)
        mountain_pass(low.field, _rho(), _model(),
                      SolveOptions(tol_grad_abs=1e-5))
    (ws, u, tol), = seen
    return ws, u, tol, {}


def _ball_polish_input():
    """The multibump ball start under the ball-constrained kernel."""
    grid = RadialGrid(12.0, 512)
    ws = rad.BallDisc(grid, _rho(), _model(), 3.5)
    u = ws.project(_tapered_ball_start(grid, 3.5).values)
    return ws, u, 1e-6, {"max_iter": 40}


def _cube_polish_input():
    grid = Grid3D(6.0, 16)
    ws = f3d.CubeDisc(grid, _rho(), _model())
    start = 12.67 * np.exp(-grid.radius() ** 2 / (2.0 * 0.93 ** 2))
    return ws, ws.project(start), 1e-6, {"max_iter": 20}


POLISH_INPUTS = pytest.mark.parametrize(
    "make_input", [_saddle_polish_input, _ball_polish_input,
                   _cube_polish_input], ids=["radial-saddle", "ball", "cube"])


class TestPolish:
    @POLISH_INPUTS
    def test_bit_identical_to_reference(self, make_input):
        ws, u0, tol, kw = make_input()
        u, gn, J, phi = slv._polish_residual(ws, u0, tol, **kw)
        u_ref, gn_ref, J_ref, phi_ref = _reference_polish(ws, u0, tol, **kw)
        assert not np.array_equal(u, u0)
        assert np.array_equal(u, u_ref)
        assert np.array_equal(phi, phi_ref)
        assert gn == gn_ref
        assert J == J_ref

    @POLISH_INPUTS
    def test_evaluates_potentials_only(self, make_input, count_calls):
        ws, u0, tol, kw = make_input()
        kind = type(ws)
        # every difference step takes two H^1 norms (of the iterate, for
        # the step size, and of the descent direction) and the returned J
        # one more; every line-search trial takes one gradient with its
        # norm, and so does the starting point
        norms = count_calls(kind, "h1_norm_sq")
        gradients = count_calls(kind, "gradient")
        evals_F = count_calls(rad, "eval_F")
        if isinstance(ws, f3d.CubeDisc):
            solves = count_calls(f3d, "poisson_freespace")
        else:
            solves = count_calls(rad, "poisson_radial")
        slv._polish_residual(ws, u0, tol, **kw)
        assert len(evals_F) == 1
        steps, odd = divmod(len(norms) - 1, 2)
        trials = len(gradients) - 1
        assert odd == 0 and steps >= 1 and trials >= steps
        assert len(solves) <= 1 + 2 * steps + trials
