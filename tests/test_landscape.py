"""Tests for threshold bounds, the cutoff, and multibump assembly."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

import spvlab.landscape as lsc
import spvlab.radial as rad
from spvlab.landscape import (MultibumpSpec, a0_ratio, coulomb_self_energy,
                              estimate_lambda_bounds, membership_A0,
                              multibump_energy, multibump_sweep, smoothstep)
from spvlab.models import (ChargeProfile, ModelError, NonlinearityModel,
                           eval_f)
from spvlab.radial import FOUR_PI, RadialField, RadialGrid

pytestmark = pytest.mark.filterwarnings(
    "ignore:field has not decayed:RuntimeWarning")

LAM = 0.0031587563549145504


def _model(q=2.5):
    return NonlinearityModel.pure_power(q).with_constants(q)


def _grid(n=2048, r_max=12.0):
    return RadialGrid(r_max, n)


def _table_model():
    s = np.linspace(0.0, 40.0, 300)
    return NonlinearityModel.from_table(
        s, s ** 1.5 * (1.0 + 0.3 * np.sin(s)), q=2.5, a_q=1.0)


def _reference_bounds(model, grid, sigma_grid, t_grid):
    """The point-by-point scan: one exact ratio per (sigma, t) pair."""
    best_val, best_field = None, None
    for sig in sigma_grid:
        g = RadialField.gaussian(grid, 1.0, float(sig))
        for t in t_grid:
            u = RadialField(grid, t * g.values)
            val = a0_ratio(u, model)
            if val is not None and (best_val is None or val > best_val):
                best_val, best_field = val, (float(sig), float(t))
    if best_val is None:
        return None, None
    sig, t0 = best_field
    g = RadialField.gaussian(grid, 1.0, sig)

    def neg(logt):
        u = RadialField(grid, math.exp(logt) * g.values)
        val = a0_ratio(u, model)
        return -val if val is not None else 0.0

    res = optimize.minimize_scalar(
        neg, bounds=(math.log(t0) - 1.0, math.log(t0) + 1.0),
        method="bounded", options={"xatol": 1e-12})
    t_best = math.exp(res.x) if -res.fun > best_val else t0
    witness = RadialField(grid, t_best * g.values)
    return a0_ratio(witness, model), witness


def _assert_same_as_reference(bounds, model, grid, sigmas, ts):
    low0, wit0 = _reference_bounds(model, grid, sigmas, ts)
    assert bounds.lambda0_lower == low0
    assert np.array_equal(bounds.witness_a0.values, wit0.values)


MODELS = pytest.mark.parametrize("make_model", [
    _model, lambda: NonlinearityModel.asymptotically_linear(4.0),
    _table_model], ids=["pure-power", "asymptotically-linear", "table"])


class TestCoulomb:
    def test_uniform_ball_self_energy(self):
        grid = _grid(4096)
        vals = np.sqrt(np.clip((1.0 - (grid.r - 0.5 * grid.h)) / grid.h,
                               0.0, 1.0))
        u = RadialField(grid, vals)
        # density u^2 = unit-ball indicator; the pairing integral is
        # 8 pi / 15 analytically
        assert_allclose(coulomb_self_energy(u), 8.0 * math.pi / 15.0,
                        rtol=1e-3)

    def test_scales_quartically(self):
        grid = _grid()
        u = RadialField.gaussian(grid, 1.0, 1.0)
        u2 = RadialField(grid, 2.0 * u.values)
        assert_allclose(coulomb_self_energy(u2),
                        16.0 * coulomb_self_energy(u), rtol=1e-12)


class TestMembership:
    def test_small_fields_outside(self):
        grid = _grid()
        model = _model()
        u = RadialField.gaussian(grid, 0.5, 1.0)
        _, inside = membership_A0(u, model)
        assert not inside
        assert a0_ratio(u, model) is None

    def test_large_fields_inside(self):
        grid = _grid()
        model = _model()
        u = RadialField.gaussian(grid, 60.0, 1.5)
        excess, inside = membership_A0(u, model)
        assert inside and excess > 0.0
        assert a0_ratio(u, model) > 0.0


class TestLambdaBounds:
    def test_bounds_ordered_and_positive(self):
        model = _model()
        bounds = estimate_lambda_bounds(model, _grid())
        assert 0.0 < bounds.lambda0_lower <= bounds.lambda0_upper
        assert lsc.lambdabar0_upper_bound(model) > 0.0

    def test_upper_bounds_from_cubic_constants(self):
        model = _model()
        bounds = estimate_lambda_bounds(model, _grid())
        # C1 = 0.08 and the derivative-form constant 1/4 give the two
        # closed-form upper bounds
        assert_allclose(bounds.lambda0_upper, 0.0032, atol=1e-7)
        assert_allclose(lsc.lambdabar0_upper_bound(model), 0.03125, atol=1e-7)

    def test_witness_reproduces_bound_exactly(self):
        model = _model()
        bounds = estimate_lambda_bounds(model, _grid())
        drift0 = abs(a0_ratio(bounds.witness_a0, model)
                     - bounds.lambda0_lower)
        assert drift0 < 1e-10

    @MODELS
    @pytest.mark.parametrize("as_list", [False, True], ids=["arrays", "lists"])
    def test_matches_point_by_point_scan(self, make_model, as_list):
        model = make_model()
        grid = RadialGrid(12.0, 512)
        sigmas = np.geomspace(0.4, 2.2, 5)
        ts = np.geomspace(1.0, 1e3, 40)
        if as_list:
            # a zero amplitude is outside the set, as at any width
            sigmas, ts = sigmas.tolist(), [0.0] + ts.tolist()
        bounds = estimate_lambda_bounds(model, grid, sigma_grid=sigmas,
                                        t_grid=ts)
        _assert_same_as_reference(bounds, model, grid, sigmas, ts)

    @MODELS
    def test_near_ties_settled_by_exact_ratio(self, make_model):
        # amplitudes one ulp apart around the best one: their ratios
        # differ by less than the rounding of the ranking, so only the
        # exact re-evaluation finds the point-by-point winner
        model = make_model()
        grid = RadialGrid(12.0, 512)
        coarse = estimate_lambda_bounds(model, grid, sigma_grid=[2.0],
                                        t_grid=np.geomspace(1.0, 1e3, 40))
        t_best = np.max(coarse.witness_a0.values)
        ts = t_best * (1.0 + np.arange(-20, 21) * np.finfo(float).eps)
        bounds = estimate_lambda_bounds(model, grid, sigma_grid=[2.0],
                                        t_grid=ts)
        _assert_same_as_reference(bounds, model, grid, [2.0], ts)

    def test_family_outside_both_sets(self):
        model = _model()
        bounds = estimate_lambda_bounds(model, RadialGrid(12.0, 512),
                                        t_grid=np.array([0.01, 0.02]))
        assert bounds.lambda0_lower is None
        assert bounds.witness_a0 is None
        assert bounds.lambda0_upper > 0.0
        assert lsc.lambdabar0_upper_bound(model) > 0.0

    @pytest.mark.usefixtures("fresh_scan_cache")
    def test_one_poisson_solve_per_width(self, count_calls):
        # these are the default grids: count a real scan, not a cache hit
        calls = count_calls(lsc, "coulomb_self_energy")
        sigmas = np.geomspace(0.4, 12.0 / 5.3, 24)
        ts = np.geomspace(1.0, 1e3, 160)
        bounds = estimate_lambda_bounds(_model(), RadialGrid(12.0, 512),
                                        sigma_grid=sigmas, t_grid=ts)
        assert bounds.lambda0_lower is not None
        # the exact finish: the winner, the bounded refinement and the
        # witness, about 15 solves
        assert len(calls) <= len(sigmas) + 20
        assert len(calls) < 0.02 * len(sigmas) * len(ts)

    @pytest.mark.usefixtures("fresh_scan_cache")
    def test_scan_evaluates_no_derivative_form(self, monkeypatch):
        # the lower bound needs int F alone; f enters the bounds only
        # through the closed-form fit behind the derivative upper bound
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return eval_f(*args, **kwargs)

        for module in (lsc, rad):
            monkeypatch.setattr(module, "eval_f", counted, raising=False)
        bounds = estimate_lambda_bounds(_model(), RadialGrid(12.0, 512))
        assert bounds.lambda0_lower is not None
        assert len(calls) == 0


@pytest.mark.usefixtures("fresh_scan_cache")
class TestBoundsMemo:
    SIGMAS = np.geomspace(0.4, 2.2, 3)
    TS = np.geomspace(1.0, 1e3, 20)

    def _scan(self, model=None, grid=None, sigmas=None, ts=None):
        return estimate_lambda_bounds(
            model or _model(), grid or RadialGrid(12.0, 512),
            sigma_grid=self.SIGMAS if sigmas is None else sigmas,
            t_grid=self.TS if ts is None else ts)

    def test_equal_inputs_reuse_the_scan(self, count_calls):
        first = self._scan()
        calls = count_calls(lsc, "coulomb_self_energy")
        # a freshly built, equal model and grid, and equal scan grids
        again = self._scan(_model(), RadialGrid(12.0, 512),
                           list(self.SIGMAS), self.TS.copy())
        assert len(calls) == 0
        assert again is first

    @pytest.mark.parametrize("change", [
        lambda: dict(model=_model(2.2)),
        lambda: dict(model=replace(_model(), C1=0.09)),
        lambda: dict(grid=RadialGrid(12.0, 256)),
        lambda: dict(grid=RadialGrid(10.0, 512)),
        lambda: dict(sigmas=TestBoundsMemo.SIGMAS[:2]),
        lambda: dict(ts=TestBoundsMemo.TS * (1.0 + np.finfo(float).eps)),
    ], ids=["q", "C1", "n", "r_max", "sigma_grid", "t_grid"])
    def test_changed_inputs_scan_afresh(self, change, count_calls):
        self._scan()
        calls = count_calls(lsc, "coulomb_self_energy")
        self._scan(**change())
        assert len(calls) > 0

    def test_table_arrays_keyed_by_value(self, count_calls):
        self._scan(_table_model())
        calls = count_calls(lsc, "coulomb_self_energy")
        self._scan(_table_model())
        assert len(calls) == 0
        base = _table_model()
        f = base.table_f.copy()
        f[-1] *= 1.5
        self._scan(NonlinearityModel.from_table(base.table_s, f, q=2.5,
                                                a_q=1.0))
        assert len(calls) > 0

    def test_witnesses_are_read_only(self):
        bounds = self._scan()
        with pytest.raises(ValueError):
            bounds.witness_a0.values[0] = 1.0

    def test_memo_is_bounded(self, fresh_scan_cache, count_calls):
        grid = RadialGrid(12.0, 64)
        size = fresh_scan_cache.cache_info().maxsize
        family = [np.array([2.0 + k]) for k in range(size + 1)]
        for ts in family:
            self._scan(grid=grid, sigmas=[1.0], ts=ts)
        assert fresh_scan_cache.cache_info().currsize == size
        calls = count_calls(lsc, "coulomb_self_energy")
        self._scan(grid=grid, sigmas=[1.0], ts=family[-1])
        assert len(calls) == 0
        # the least recently used scan was dropped
        self._scan(grid=grid, sigmas=[1.0], ts=family[0])
        assert len(calls) > 0


class TestCutoff:
    def test_plateau_and_support(self):
        r0, r1 = 4.0, 8.0
        assert np.all(smoothstep(np.linspace(0.0, r0, 101), r0, r1) == 1.0)
        assert np.all(smoothstep(np.linspace(r1, 20.0, 101), r0, r1) == 0.0)

    def test_slope_bound(self):
        r0, r1 = 4.0, 8.0
        r = np.linspace(0.0, r1, 20001)
        slope = np.max(np.abs(np.diff(smoothstep(r, r0, r1)) / np.diff(r)))
        assert slope <= 1.5 / (r1 - r0) + 1e-6

    @pytest.mark.parametrize("r0, r1", [(4.0, 4.0), (4.0, 3.0)])
    def test_empty_ramp_rejected(self, r0, r1):
        with pytest.raises(ModelError, match="r0 < r1"):
            smoothstep(np.linspace(0.0, 8.0, 9), r0, r1)


class TestMultibumpSpec:
    def test_single_bump_always_allowed(self):
        spec = MultibumpSpec(R0=4.0, N=1)
        assert spec.eps_N == 1.0 / (1.0 + 4.0)
        assert spec.centers.shape == (1, 3)

    def test_disjointness_enforced_for_pairs(self):
        with pytest.raises(ModelError):
            MultibumpSpec(R0=4.0, N=2)
        spec = MultibumpSpec(R0=3.5, N=2)
        assert_allclose(np.linalg.norm(spec.centers[1] - spec.centers[0]),
                        8.0)

    def test_counts_and_radius_validated(self):
        with pytest.raises(ModelError):
            MultibumpSpec(R0=3.5, N=0)
        with pytest.raises(ModelError):
            MultibumpSpec(R0=-1.0, N=1)


def _compact_bump(grid, radius=3.5):
    vals = (13.0 * np.exp(-grid.r ** 2 / (2 * 1.65 ** 2))
            * np.clip((radius - grid.r) / 0.5, 0.0, 1.0))
    return RadialField(grid, vals)


class TestMultibumpEnergy:
    def setup_method(self):
        self.grid = _grid()
        self.model = _model()
        self.u = _compact_bump(self.grid)
        self.profile = ChargeProfile(0.04, 2.0).scaled(1.0 / 16.0)

    def test_report_invariants(self):
        report = multibump_energy(MultibumpSpec(R0=3.5, N=3), self.u,
                                  self.profile, self.model, LAM)
        assert report.printed_bound_holds
        assert report.additivity_error == 0.0
        assert report.cross_coulomb > 0.0
        assert report.cross_quadratic <= report.printed_bound * (1 + 1e-12)

    def test_rejects_wide_support(self):
        wide = RadialField.gaussian(self.grid, 5.0, 2.0)
        with pytest.raises(ModelError):
            multibump_energy(MultibumpSpec(R0=3.5, N=3), wide,
                             self.profile, self.model, LAM)

    def test_rejects_charge_reaching_sqrt_lambda(self):
        hot = ChargeProfile.constant(math.sqrt(LAM))
        with pytest.raises(ModelError):
            multibump_energy(MultibumpSpec(R0=3.5, N=3), self.u,
                             hot, self.model, LAM)

    def test_sweep_monotone_with_uniform_constant(self):
        reports, c_const = multibump_sweep([1, 2, 3, 4, 5], 3.5, self.u,
                                           self.profile, self.model, LAM)
        energies = [r.energy for r in reports]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        for rep in reports:
            assert (rep.energy
                    <= rep.spec.N * rep.single_energy + c_const + 1e-9)
        assert any(abs(rep.excess_over_linear - c_const) < 1e-12
                   for rep in reports)
