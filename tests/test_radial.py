"""Tests for the radial grid, quadrature, Poisson solve, and energies."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse.linalg import splu

import spvlab.radial as rad
from spvlab.models import ChargeProfile, NonlinearityModel
from spvlab.radial import (FOUR_PI, DiscretizationError, RadialField,
                           RadialGrid, energy_radial, h1_norm_sq, l2_norm_sq,
                           nonlocal_term, poisson_radial, strauss_check)

# analytic H1 norm of exp(-r^2/2): integral of u^2 is pi^{3/2}, of
# |grad u|^2 is (3/2) pi^{3/2}
GAUSSIAN_H1 = 2.5 * math.pi ** 1.5


def _model():
    return NonlinearityModel.pure_power(2.5).with_constants(2.5)


def _grid(n=4096, r_max=12.0):
    return RadialGrid(r_max, n)


def _ball(grid):
    # cell-averaged indicator of the unit ball, exact charge 4 pi / 3 up
    # to one transition cell
    return np.clip((1.0 - (grid.r - 0.5 * grid.h)) / grid.h, 0.0, 1.0)


class TestQuadrature:
    def test_constant_integrates_exactly(self):
        grid = _grid(n=512)
        vol = FOUR_PI * grid.r_max ** 3 / 3.0
        assert_allclose(grid.integrate(np.full(grid.n + 1, 3.0)), 3.0 * vol,
                        rtol=1e-13)

    def test_h1_norm_of_constant_is_mass(self):
        grid = _grid(n=512)
        with pytest.warns(RuntimeWarning, match="has not decayed"):
            u = RadialField(grid, np.full(grid.n + 1, 2.0))
        vol = FOUR_PI * grid.r_max ** 3 / 3.0
        assert_allclose(h1_norm_sq(u), 4.0 * vol, rtol=1e-13)

    def test_gaussian_h1_analytic(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = RadialField.gaussian(grid, 1.0, 1.0)
        assert_allclose(h1_norm_sq(u), GAUSSIAN_H1, rtol=1e-4)

    def test_h1_inner_polarization(self):
        grid = _grid(n=1024)
        rng = np.random.default_rng(3)
        with pytest.warns(RuntimeWarning, match="has not decayed"):
            u = RadialField(grid, rng.normal(size=grid.n + 1))
            v = RadialField(grid, rng.normal(size=grid.n + 1))
            upv = RadialField(grid, u.values + v.values)
            umv = RadialField(grid, u.values - v.values)
        disc = rad.RadialDisc(grid, ChargeProfile.constant(1.0), _model())
        lhs = disc.h1_inner(u.values, v.values)
        assert_allclose(lhs, 0.25 * (h1_norm_sq(upv) - h1_norm_sq(umv)),
                        rtol=1e-10, atol=1e-10)

    def test_l2_norm(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = RadialField.gaussian(grid, 2.0, 1.0)
        assert_allclose(l2_norm_sq(u), 4.0 * math.pi ** 1.5, rtol=1e-4)


class TestPoisson:
    def test_uniform_ball_potential(self):
        grid = _grid()
        phi = poisson_radial(grid, _ball(grid))
        r = grid.r
        exact = np.where(r <= 1.0, (3.0 - r ** 2) / 6.0,
                         1.0 / (3.0 * np.maximum(r, grid.h)))
        rel = np.max(np.abs(phi - exact) / np.abs(exact))
        assert rel < 1e-3

    def test_total_charge(self):
        grid = _grid()
        assert_allclose(grid.integrate(_ball(grid)), FOUR_PI / 3.0,
                        rtol=1e-4)

    def test_far_field_tail(self):
        # past the source, phi is the point charge Q / (4 pi r)
        grid = _grid()
        g = _ball(grid)
        phi = poisson_radial(grid, g)
        assert_allclose(phi[-1], grid.integrate(g) / (FOUR_PI * grid.r_max),
                        rtol=1e-10)

    def test_energy_identity(self):
        # integral of |grad phi|^2 over R^3 equals the source-potential
        # pairing; past r_max the 1/r far field carries Q^2 / (4 pi r_max)
        grid = _grid()
        g = _ball(grid)
        phi = poisson_radial(grid, g)
        pairing = grid.integrate(g * phi)
        tail = grid.integrate(g) ** 2 / (FOUR_PI * grid.r_max)
        assert_allclose(rad._dirichlet(grid, phi) + tail, pairing, rtol=1e-3)

    def test_nonlocal_term_is_self_pairing(self):
        grid = _grid(n=1024)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = RadialField.gaussian(grid, 2.0, 1.0)
        rho = ChargeProfile.constant(1.5)
        src = 1.5 * u.values ** 2
        phi = poisson_radial(grid, src)
        assert_allclose(nonlocal_term(u, rho), grid.integrate(src * phi),
                        rtol=1e-12)

    def test_solve_is_the_kernel_quadrature(self):
        # phi_i = (1/4pi) sum_j w_j g_j / max(s_i, s_j), with the origin's
        # effective radius s_0 = h/3
        grid = _grid(n=64)
        g = np.exp(-grid.r)
        s = grid.r.copy()
        s[0] = grid.h / 3.0
        dense = (1.0 / np.maximum.outer(s, s)) @ (grid.w * g) / FOUR_PI
        assert_allclose(poisson_radial(grid, g), dense, rtol=1e-13)


class TestEnergyAndGradient:
    def test_energy_matches_parts(self):
        grid = _grid(n=1024)
        model = _model()
        rho = ChargeProfile(0.1, 2.0)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = RadialField.gaussian(grid, 3.0, 1.0)
        from spvlab.models import eval_F
        expected = (0.5 * h1_norm_sq(u) + 0.25 * nonlocal_term(u, rho)
                    - grid.integrate(eval_F(model, u.values)))
        assert_allclose(energy_radial(u, rho, model), expected, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore:field has not decayed:RuntimeWarning")
    def test_gradient_matches_finite_differences(self):
        grid = _grid(n=1024)
        model = _model()
        rho = ChargeProfile(0.1, 2.0)
        rng = np.random.default_rng(11)
        disc = rad.RadialDisc(grid, rho, model)
        for _ in range(5):
            amp = rng.uniform(0.5, 5.0)
            sig = rng.uniform(0.7, 2.0)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "field has not decayed",
                                        RuntimeWarning)
                u = RadialField.gaussian(grid, amp, sig)
            g = disc.riesz(u.values, disc.potential(u.values))
            for _ in range(5):
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "field has not decayed",
                                            RuntimeWarning)
                    v = RadialField.gaussian(grid, rng.uniform(0.1, 1.0),
                                             rng.uniform(0.7, 2.0))
                eps = 1e-5
                up = RadialField(grid, u.values + eps * v.values)
                dn = RadialField(grid, u.values - eps * v.values)
                fd = (energy_radial(up, rho, model)
                      - energy_radial(dn, rho, model)) / (2.0 * eps)
                assert_allclose(disc.h1_inner(g, v.values), fd, rtol=1e-4,
                                atol=1e-8)

    def test_nehari_residual_consistency(self):
        grid = _grid(n=1024)
        model = _model()
        rho = ChargeProfile.constant(0.5)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = RadialField.gaussian(grid, 2.0, 1.0)
        from spvlab.models import eval_f
        expected = (h1_norm_sq(u) + nonlocal_term(u, rho)
                    - grid.integrate(eval_f(model, u.values) * u.values))
        disc = rad.RadialDisc(grid, rho, model)
        assert_allclose(disc.nehari_residual(u.values,
                                             disc.potential(u.values)),
                        expected, rtol=1e-10)

    def test_nehari_helper_is_the_kernel(self):
        grid = _grid(n=1024)
        model = _model()
        rho = ChargeProfile.constant(0.5)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = RadialField.gaussian(grid, 2.0, 1.0)
        disc = rad.RadialDisc(grid, rho, model)
        phi = disc.potential(u.values)
        res = disc.nehari_residual(u.values, phi)
        # the relative residual the solvers report is this residual over
        # the squared H1 norm
        assert (disc.nehari_relative(u.values, phi)
                == res / disc.h1_norm_sq(u.values))

    def test_strauss_inequality_random_fields(self):
        grid = _grid(n=1024)
        rho = ChargeProfile.constant(1.0)
        rng = np.random.default_rng(5)
        for _ in range(25):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "field has not decayed",
                                        RuntimeWarning)
                u = RadialField.gaussian(grid, rng.uniform(0.2, 10.0),
                                         rng.uniform(0.6, 2.5))
            lhs, rhs, holds = strauss_check(u, rho)
            assert holds
            assert lhs <= rhs * (1.0 + 1e-6)


def _coo_operators(grid):
    # the Gram matrix and its factor as first built, from interleaved COO
    # index arrays; splu sorts the matrix's indices in place
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
    W_cell = sparse.diags(np.diff(FOUR_PI / 3.0 * grid.r ** 3))
    M = (D.T @ W_cell @ D + sparse.diags(grid.w)).tocsc()
    return M, splu(M)


@pytest.mark.parametrize("r_max, n", [(12.0, 4096), (7.3, 33)])
def test_gram_matrix_matches_the_coo_build(r_max, n):
    grid = RadialGrid(r_max, n)
    M, lu = rad._operators(grid)
    M_ref, lu_ref = _coo_operators(grid)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(M, name), getattr(M_ref, name)), name
    b = np.random.default_rng(0).normal(size=n + 1)
    assert np.array_equal(lu.solve(b), lu_ref.solve(b))


def test_grids_compare_and_hash_by_value():
    grid = RadialGrid(12, 4096)
    assert grid == RadialGrid(12.0, 4096)
    assert hash(grid) == hash(RadialGrid(12.0, 4096))
    assert grid != RadialGrid(12.0, 2048) and grid != RadialGrid(18.0, 4096)
    rad._operators(grid)
    hits = rad._operators.cache_info().hits
    assert rad._operators(RadialGrid(12.0, 4096)) is rad._operators(grid)
    assert rad._operators.cache_info().hits == hits + 2


def test_operator_cache_is_bounded():
    size = rad._operators.cache_info().maxsize
    assert size is not None and size <= 4
    for n in range(8, 8 + size + 2):
        rad._operators(RadialGrid(1.0, n))
        assert rad._operators.cache_info().currsize <= size


class TestFieldIO:
    def test_csv_round_trip(self, tmp_path):
        grid = _grid(n=256)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = RadialField.gaussian(grid, 2.0, 1.5)
        path = tmp_path / "u.csv"
        u.to_csv(path)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            v = RadialField.from_csv(path)
        assert v.grid.n == grid.n
        assert_allclose(v.grid.r_max, grid.r_max)
        assert_allclose(v.values, u.values, rtol=1e-12)

    def test_one_column_csv_is_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("r\n0\n1\n")
        with pytest.raises(DiscretizationError, match="two columns"):
            RadialField.from_csv(path)

    @pytest.mark.parametrize("text", ["r,u\n", ""], ids=["header", "empty"])
    def test_csv_without_rows_names_the_missing_rows(self, tmp_path, text):
        path = tmp_path / "u.csv"
        path.write_text(text)
        with pytest.warns(UserWarning, match="no data"), \
                pytest.raises(DiscretizationError, match="no data rows"):
            RadialField.from_csv(path)

    def test_decay_guard_warns(self):
        grid = _grid(n=256)
        with pytest.warns(RuntimeWarning):
            RadialField.gaussian(grid, 1.0, 6.0)

    def test_decay_guard_points_at_the_constructing_line(self):
        grid = _grid(n=256)
        with pytest.warns(RuntimeWarning) as rec:
            RadialField(grid, np.ones(grid.n + 1))
        assert [w.filename for w in rec] == [__file__]
        assert [w.category for w in rec] == [rad.DecayWarning]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_rejected(self, bad):
        grid = _grid(n=256)
        vals = np.zeros(grid.n + 1)
        vals[7] = bad
        with pytest.raises(DiscretizationError, match="non-finite"):
            RadialField(grid, vals)

    def test_decay_guard_text_names_the_peak_magnitude(self):
        grid = _grid(n=256)
        vals = np.full(grid.n + 1, 0.5)
        vals[3] = -2.0
        with pytest.warns(RuntimeWarning) as rec:
            RadialField(grid, vals)
        assert [str(w.message) for w in rec] == [
            "field has not decayed at r_max; enlarge the domain "
            "(|u(r_max)| = 5.000e-01, peak 2.000e+00)"]

    def test_grid_validation(self):
        for r_max in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(DiscretizationError):
                RadialGrid(r_max, 256)
        with pytest.raises(DiscretizationError):
            RadialGrid(12.0, 1)
        # a non-integral n once built a grid whose last node missed r_max
        for n in (4096.5, math.nan, math.inf, "4096", None):
            with pytest.raises(DiscretizationError, match="integer n"):
                RadialGrid(12.0, n)
        grid = RadialGrid(12.0, np.float64(4096.0))
        assert type(grid.n) is int and grid.r[-1] == 12.0


def test_random_direction_draws_the_bumps_it_always_drew():
    grid = _grid(n=512)
    disc = rad.RadialDisc(grid, ChargeProfile.constant(1.0), _model())
    got = disc.random_direction(np.random.default_rng(5))
    # the three-bump loop as it stood before random_bumps held it
    rng = np.random.default_rng(5)
    r = grid.r
    v = np.zeros_like(r)
    for _ in range(3):
        c = rng.uniform(0.0, grid.r_max / 3.0)
        s = rng.uniform(0.5, 2.0)
        v = v + rng.normal() * np.exp(-((r - c) / s) ** 2)
    assert np.array_equal(got, v / math.sqrt(disc.h1_norm_sq(v)))

