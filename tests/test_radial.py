"""Tests for the radial grid, quadrature, Poisson solve, and energies."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spvlab.models import ChargeProfile, NonlinearityModel
from spvlab.radial import (DiscretizationError, RadialField, RadialGrid,
                           energy_radial, h1_inner, h1_norm_sq, l2_norm_sq,
                           nehari_residual, nonlocal_term, poisson_radial,
                           potential_gradient_energy,
                           sobolev_gradient_radial, strauss_check)

FOUR_PI = 4.0 * math.pi

# analytic H1 norm of exp(-r^2/2): integral of u^2 is pi^{3/2}, of
# |grad u|^2 is (3/2) pi^{3/2}
GAUSSIAN_H1 = 2.5 * math.pi ** 1.5


def _model():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return NonlinearityModel.pure_power(2.5).with_constants(2.5)


def _grid(n=4096, r_max=12.0):
    return RadialGrid(r_max, n)


def _ball(grid):
    # cell-averaged indicator of the unit ball, exact charge 4 pi / 3 up
    # to one transition cell
    vals = np.clip((1.0 - (grid.r - 0.5 * grid.h)) / grid.h, 0.0, 1.0)
    return RadialField(grid, vals)


class TestQuadrature:
    def test_constant_integrates_exactly(self):
        grid = _grid(n=512)
        vol = FOUR_PI * grid.r_max ** 3 / 3.0
        assert_allclose(grid.integrate(np.full(grid.n + 1, 3.0)), 3.0 * vol,
                        rtol=1e-13)

    def test_h1_norm_of_constant_is_mass(self):
        grid = _grid(n=512)
        u = RadialField(grid, np.full(grid.n + 1, 2.0), )
        vol = FOUR_PI * grid.r_max ** 3 / 3.0
        assert_allclose(h1_norm_sq(u), 4.0 * vol, rtol=1e-13)

    def test_gaussian_h1_analytic(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = RadialField.gaussian(grid, 1.0, 1.0)
        assert_allclose(h1_norm_sq(u), GAUSSIAN_H1, rtol=1e-4)

    def test_h1_inner_polarization(self):
        grid = _grid(n=1024)
        rng = np.random.default_rng(3)
        u = RadialField(grid, rng.normal(size=grid.n + 1))
        v = RadialField(grid, rng.normal(size=grid.n + 1))
        lhs = h1_inner(u, v)
        upv = RadialField(grid, u.values + v.values)
        umv = RadialField(grid, u.values - v.values)
        assert_allclose(lhs, 0.25 * (h1_norm_sq(upv) - h1_norm_sq(umv)),
                        rtol=1e-10, atol=1e-10)

    def test_l2_norm(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = RadialField.gaussian(grid, 2.0, 1.0)
        assert_allclose(l2_norm_sq(u), 4.0 * math.pi ** 1.5, rtol=1e-4)


class TestPoisson:
    def test_uniform_ball_potential(self):
        grid = _grid()
        phi = poisson_radial(_ball(grid))
        r = grid.r
        exact = np.where(r <= 1.0, (3.0 - r ** 2) / 6.0,
                         1.0 / (3.0 * np.maximum(r, grid.h)))
        rel = np.max(np.abs(phi.values - exact) / np.abs(exact))
        assert rel < 1e-3

    def test_total_charge(self):
        grid = _grid()
        phi = poisson_radial(_ball(grid))
        assert_allclose(phi.total_charge, FOUR_PI / 3.0, rtol=1e-4)

    def test_far_field_tail(self):
        grid = _grid()
        phi = poisson_radial(_ball(grid))
        assert_allclose(phi.values[-1],
                        phi.total_charge / (FOUR_PI * grid.r_max),
                        rtol=1e-10)

    def test_energy_identity(self):
        # integral of |grad phi|^2 equals the source-potential pairing
        grid = _grid()
        g = _ball(grid)
        phi = poisson_radial(g)
        pairing = grid.integrate(g.values * phi.values)
        assert_allclose(potential_gradient_energy(phi), pairing, rtol=1e-3)

    def test_nonlocal_term_is_self_pairing(self):
        grid = _grid(n=1024)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = RadialField.gaussian(grid, 2.0, 1.0)
        rho = ChargeProfile.constant(1.5)
        src = RadialField(grid, 1.5 * u.values ** 2)
        phi = poisson_radial(src)
        assert_allclose(nonlocal_term(u, rho),
                        grid.integrate(src.values * phi.values), rtol=1e-12)


class TestEnergyAndGradient:
    def test_energy_matches_parts(self):
        grid = _grid(n=1024)
        model = _model()
        rho = ChargeProfile.rational(0.1, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = RadialField.gaussian(grid, 3.0, 1.0)
        from spvlab.models import eval_F
        expected = (0.5 * h1_norm_sq(u) + 0.25 * nonlocal_term(u, rho)
                    - grid.integrate(eval_F(model, u.values)))
        assert_allclose(energy_radial(u, rho, model), expected, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gradient_matches_finite_differences(self):
        grid = _grid(n=1024)
        model = _model()
        rho = ChargeProfile.rational(0.1, 2.0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            amp = rng.uniform(0.5, 5.0)
            sig = rng.uniform(0.7, 2.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                u = RadialField.gaussian(grid, amp, sig)
            g = sobolev_gradient_radial(u, rho, model)
            for _ in range(5):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    v = RadialField.gaussian(grid, rng.uniform(0.1, 1.0),
                                             rng.uniform(0.7, 2.0))
                eps = 1e-5
                up = RadialField(grid, u.values + eps * v.values)
                dn = RadialField(grid, u.values - eps * v.values)
                fd = (energy_radial(up, rho, model)
                      - energy_radial(dn, rho, model)) / (2.0 * eps)
                assert_allclose(h1_inner(g, v), fd, rtol=1e-4, atol=1e-8)

    def test_nehari_residual_consistency(self):
        grid = _grid(n=1024)
        model = _model()
        rho = ChargeProfile.constant(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = RadialField.gaussian(grid, 2.0, 1.0)
        from spvlab.models import eval_f
        expected = (h1_norm_sq(u) + nonlocal_term(u, rho)
                    - grid.integrate(eval_f(model, u.values) * u.values))
        assert_allclose(nehari_residual(u, rho, model), expected, rtol=1e-10)

    def test_strauss_inequality_random_fields(self):
        grid = _grid(n=1024)
        rho = ChargeProfile.constant(1.0)
        rng = np.random.default_rng(5)
        for _ in range(25):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                u = RadialField.gaussian(grid, rng.uniform(0.2, 10.0),
                                         rng.uniform(0.6, 2.5))
            lhs, rhs, holds = strauss_check(u, rho)
            assert holds
            assert lhs <= rhs * (1.0 + 1e-6)


class TestFieldIO:
    def test_csv_round_trip(self, tmp_path):
        grid = _grid(n=256)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u = RadialField.gaussian(grid, 2.0, 1.5)
        path = tmp_path / "u.csv"
        u.to_csv(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            v = RadialField.from_csv(path)
        assert v.grid.n == grid.n
        assert_allclose(v.grid.r_max, grid.r_max)
        assert_allclose(v.values, u.values, rtol=1e-12)

    def test_decay_guard_warns(self):
        grid = _grid(n=256)
        with pytest.warns(RuntimeWarning):
            RadialField.gaussian(grid, 1.0, 6.0)

    def test_decay_guard_points_at_the_constructing_line(self):
        grid = _grid(n=256)
        with pytest.warns(RuntimeWarning) as rec:
            RadialField(grid, np.ones(grid.n + 1))
        assert [w.filename for w in rec] == [__file__]

    def test_grid_validation(self):
        with pytest.raises(DiscretizationError):
            RadialGrid(-1.0, 256)
        with pytest.raises(DiscretizationError):
            RadialGrid(12.0, 1)
