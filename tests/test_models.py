"""Tests for nonlinearity models, charge profiles, and threshold machinery."""

import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spvlab.models as mdl
from spvlab.models import (ChargeProfile, ModelError, NonlinearityModel,
                           bracket_stationary_point, coercivity_floor,
                           critical_charge_threshold, energy_density_bracket,
                           eval_F, eval_f, fit_cubic_bound, fit_growth_bound,
                           fit_nehari_cubic_bound, pointwise_energy_floor,
                           validate_conditions)

SQRT8 = math.sqrt(8.0)

# bisection root of the bracket minimum for C0 = 1, p = 2.5, frozen from
# an independent mpmath bisection
D0_ORACLE = 0.905096679918781


def _model():
    return NonlinearityModel.pure_power(2.5).with_constants(2.5)


class TestCriticalChargeThreshold:
    def test_oracle_value(self):
        assert_allclose(critical_charge_threshold(1.0, 2.5), D0_ORACLE,
                        rtol=1e-12)

    def test_stationary_point_oracle(self):
        d0 = critical_charge_threshold(1.0, 2.5)
        s0 = bracket_stationary_point(d0, 1.0, 2.5)
        # for p = 5/2 the double root sits at s0 = 25/64 exactly
        assert_allclose(s0, 25.0 / 64.0, rtol=1e-9)

    def test_double_root_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c0 = rng.uniform(0.1, 10.0)
            p = rng.uniform(2.1, 2.9)
            d0 = critical_charge_threshold(c0, p)
            s0 = bracket_stationary_point(d0, c0, p)
            assert abs(energy_density_bracket(d0, s0, c0, p)) < 1e-10
            deriv = d0 / SQRT8 - c0 * (p - 2.0) / p * s0 ** (p - 3.0)
            # the derivative's natural scale is d0 / sqrt(8), which can be
            # enormous for p near 2; assert the scale-relative residual
            assert abs(deriv) / (1.0 + d0 / SQRT8) < 1e-10

    def test_sign_separation(self):
        d0 = critical_charge_threshold(1.0, 2.5)
        for factor in (0.5, 0.9):
            d = factor * d0
            s = bracket_stationary_point(d, 1.0, 2.5)
            assert energy_density_bracket(d, s, 1.0, 2.5) < 0.0
        for factor in (1.1, 2.0):
            d = factor * d0
            s = bracket_stationary_point(d, 1.0, 2.5)
            assert energy_density_bracket(d, s, 1.0, 2.5) > 0.0

    def test_rejects_bad_exponent(self):
        with pytest.raises(ModelError):
            critical_charge_threshold(1.0, 3.5)
        with pytest.raises(ModelError):
            critical_charge_threshold(-1.0, 2.5)

    @given(st.floats(0.2, 5.0), st.floats(2.15, 2.85))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_c0(self, c0, p):
        # a larger C0 dips the bracket harder, so a larger charge is
        # needed to keep it nonnegative: the threshold increases
        d_lo = critical_charge_threshold(c0, p)
        d_hi = critical_charge_threshold(2.0 * c0, p)
        assert d_hi > d_lo


class TestFittedConstants:
    def test_pure_power_growth_constant(self):
        model = _model()
        assert_allclose(model.C0, 1.0, rtol=1e-9)

    def test_growth_constant_offset_exponent(self):
        model = NonlinearityModel.pure_power(2.5)
        c0 = fit_growth_bound(model, 2.7)
        # sup over s of (s^1.5 - s/4) / s^1.7, frozen from an independent
        # scalar maximization
        assert_allclose(c0, 0.7534748034687549, rtol=1e-6)
        svals = np.linspace(1e-3, 1e3, 5000)
        assert np.all(eval_f(model, svals)
                      <= svals / 4.0 + (c0 + 1e-9) * svals ** 1.7)

    def test_cubic_constant_oracle(self):
        # F(s) = (2/5) s^{5/2}; sup (F - s^2/2)/s^3 = 2/25 = 0.08
        assert_allclose(fit_cubic_bound(NonlinearityModel.pure_power(2.5)),
                        0.08, atol=1e-6)

    def test_nehari_cubic_constant_oracle(self):
        # f(s) s = s^{5/2}; sup (s^{5/2} - s^2)/s^3 = 1/4
        assert_allclose(
            fit_nehari_cubic_bound(NonlinearityModel.pure_power(2.5)),
            0.25, atol=1e-6)

    def test_cubic_bound_holds(self):
        model = NonlinearityModel.pure_power(2.5)
        c1 = fit_cubic_bound(model)
        svals = np.linspace(1e-3, 1e3, 5000)
        assert np.all(eval_F(model, svals)
                      <= svals ** 2 / 2.0 + (c1 + 1e-9) * svals ** 3)


class TestNonlinearityModel:
    def test_vanishes_on_negatives(self):
        model = NonlinearityModel.pure_power(2.5)
        assert eval_f(model, -3.0) == 0.0
        assert eval_F(model, -3.0) == 0.0
        assert np.all(eval_f(model, np.array([-1.0, -0.1])) == 0.0)

    def test_pure_power_values(self):
        model = NonlinearityModel.pure_power(2.5, a_q=2.0)
        assert_allclose(eval_f(model, 4.0), 2.0 * 4.0 ** 1.5)
        assert_allclose(eval_F(model, 4.0), 2.0 * 4.0 ** 2.5 / 2.5)

    def test_asymptotically_linear(self):
        model = NonlinearityModel.asymptotically_linear(3.0)
        assert model.q == 2.0
        s = 1e6
        assert_allclose(eval_f(model, s) / s, 3.0, rtol=1e-5)

    def test_q2_requires_large_coefficient(self):
        with pytest.raises(ModelError):
            NonlinearityModel.asymptotically_linear(0.5)

    def test_exponent_range(self):
        with pytest.raises(ModelError):
            NonlinearityModel.pure_power(3.0)
        with pytest.raises(ModelError):
            NonlinearityModel.pure_power(1.5)

    def test_table_round_trip(self, tmp_path):
        s = np.linspace(0.0, 100.0, 400)
        f = s ** 1.5
        path = tmp_path / "f.csv"
        np.savetxt(path, np.column_stack([s, f]), delimiter=",")
        model = NonlinearityModel.from_csv(path)
        assert_allclose(model.q, 2.5, atol=0.05)
        mid = 0.5 * (s[10] + s[11])
        assert_allclose(eval_f(model, mid),
                        0.5 * (f[10] + f[11]), rtol=1e-12)

    def test_one_column_csv_is_rejected(self):
        with pytest.raises(ModelError, match="two columns .* got 1"):
            NonlinearityModel.from_csv(io.StringIO("0\n1\n2\n"))

    def test_table_requires_monotone(self):
        with pytest.raises(ModelError):
            NonlinearityModel.from_table([0.0, 2.0, 1.0], [0.0, 1.0, 2.0],
                                         q=2.5, a_q=1.0)

    @pytest.mark.parametrize("build", [
        lambda: NonlinearityModel.pure_power(2.5, math.nan),
        lambda: NonlinearityModel.pure_power(2.5, math.inf),
        lambda: NonlinearityModel.from_table([0.0, 1.0, math.nan],
                                             [0.0, 1.0, 2.0], q=2.5, a_q=1.0),
        lambda: NonlinearityModel.from_table([0.0, 1.0, 2.0],
                                             [0.0, math.inf, 2.0],
                                             q=2.5, a_q=1.0),
        lambda: NonlinearityModel.from_csv(io.StringIO("0,0\n1,1\n2,nan\n")),
        # a last abscissa of NaN or inf once failed the growth fit first
        lambda: NonlinearityModel.from_csv(
            io.StringIO("0,0\n1,1\n2,2\nnan,5\n")),
        lambda: NonlinearityModel.from_csv(
            io.StringIO("0,0\n1,1\n2,2\ninf,5\n")),
    ], ids=["a_q-nan", "a_q-inf", "table-s-nan", "table-f-inf", "csv-nan",
            "csv-s-nan", "csv-s-inf"])
    def test_rejects_non_finite_data(self, build):
        with pytest.raises(ModelError, match="finite"):
            build()

    @pytest.mark.parametrize("model", [
        NonlinearityModel.pure_power(2.5, a_q=2.0),
        NonlinearityModel.asymptotically_linear(3.0),
        NonlinearityModel.from_table(np.linspace(0.5, 40.0, 300),
                                     np.linspace(0.5, 40.0, 300) ** 1.5,
                                     q=2.5, a_q=1.0)],
        ids=["pure-power", "asymptotically-linear", "table"])
    def test_block_equals_rows_bit_for_bit(self, model):
        # amplitudes times a profile, as the lambda-bounds scan builds
        # them; the range crosses zero and runs past the table's end
        profile = np.linspace(-1.0, 1.0, 257) * np.exp(
            -np.linspace(0.0, 4.0, 257))
        block = np.array([0.3, 7.0, 55.0, 900.0])[:, None] * profile
        for fn in (eval_F, eval_f):
            out = fn(model, block)
            assert out.shape == block.shape
            for row, values in zip(block, out):
                assert np.array_equal(fn(model, row), values)


class TestPointwiseFloor:
    def test_zero_above_threshold(self):
        d0 = critical_charge_threshold(1.0, 2.5)
        assert pointwise_energy_floor(1.5 * d0, 1.0, 2.5) == 0.0

    def test_negative_below_threshold(self):
        d0 = critical_charge_threshold(1.0, 2.5)
        val = pointwise_energy_floor(0.5 * d0, 1.0, 2.5)
        assert val < 0.0
        assert math.isfinite(val)


def _table(last=100.0):
    s = np.linspace(0.0, 10.0, 50)
    f = s ** 1.5
    f[-1] = last
    return NonlinearityModel.from_table(s, f, q=2.5, a_q=1.0)


@pytest.mark.parametrize("build", [
    lambda: ChargeProfile.constant(2.0),
    lambda: ChargeProfile.rational(0.1, 2.0),
    lambda: ChargeProfile.rational(0.1, 2.0).scaled(0.25),
    lambda: NonlinearityModel.pure_power(2.5),
    lambda: NonlinearityModel.pure_power(2.5).with_constants(2.5),
    _table,
    lambda: _table().with_constants(2.5),
], ids=["constant", "rational", "scaled", "pure-power", "fitted",
        "table", "fitted-table"])
def test_equal_inputs_are_equal_values(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a)
    if getattr(copy, "kind", None) == "table":
        assert not copy.table_s.flags.writeable
        assert not copy.table_f.flags.writeable


class TestModelValues:
    def test_tables_differing_in_one_entry_are_unequal(self):
        assert _table() != _table(last=101.0)
        assert ChargeProfile.rational(0.1, 2.0) != ChargeProfile.rational(
            0.1, 2.5)

    def test_caller_writes_do_not_reach_the_model(self):
        s = np.linspace(0.0, 10.0, 50)
        f = s ** 1.5
        model = NonlinearityModel.from_table(s, f, q=2.5, a_q=1.0)
        before = eval_F(model, 9.9)
        s[-1] = 20.0
        f[:] = 0.0
        assert model == _table(last=10.0 ** 1.5)
        assert eval_F(model, 9.9) == before

    def test_tables_are_read_only(self):
        model = _table()
        for table in (model.table_s, model.table_f):
            with pytest.raises(ValueError):
                table[0] = 1.0


class TestChargeProfile:
    def test_constant(self):
        prof = ChargeProfile.constant(2.0)
        assert prof.rho_min == prof.rho_inf == 2.0
        assert_allclose(prof.at_radius(np.array([0.0, 5.0])), [2.0, 2.0])

    def test_rational_shape(self):
        prof = ChargeProfile.rational(0.1, 2.0)
        assert_allclose(prof.at_radius(0.0), 0.1)
        assert_allclose(prof.at_radius(1.0), 0.1 + 1.9 / 2.0)
        assert_allclose(prof.at_radius(1e6), 2.0, rtol=1e-10)

    def test_scaled(self):
        prof = ChargeProfile.rational(0.1, 2.0).scaled(0.5)
        base = ChargeProfile.rational(0.1, 2.0)
        assert_allclose(prof.at_radius(4.0), base.at_radius(2.0))

    def test_constant_kind_needs_one_value(self):
        with pytest.raises(ModelError, match="rho0 == rho_inf"):
            ChargeProfile("constant", 1.0, 2.0)
        assert ChargeProfile("constant", 2.0, 2.0) == ChargeProfile.constant(2.0)

    def test_positivity_required(self):
        with pytest.raises(ModelError):
            ChargeProfile.constant(-1.0)
        with pytest.raises(ModelError):
            ChargeProfile.rational(-5.0, 2.0)

    @pytest.mark.parametrize("build", [
        lambda: ChargeProfile.constant(math.nan),
        lambda: ChargeProfile.constant(math.inf),
        lambda: ChargeProfile.rational(math.nan, 1.0),
        lambda: ChargeProfile.rational(math.inf, 1.0),
        lambda: ChargeProfile.rational(0.5, math.nan),
        lambda: ChargeProfile.rational(0.5, math.inf),
        lambda: ChargeProfile.constant(1.0).scaled(math.nan),
        lambda: ChargeProfile.constant(1.0).scaled(math.inf),
        lambda: ChargeProfile.constant(1.0).scaled(0.0),
        lambda: ChargeProfile.constant(1.0).scaled(1e200).scaled(1e200),
    ], ids=["constant-nan", "constant-inf", "rho0-nan", "rho0-inf",
            "rho_inf-nan", "rho_inf-inf", "scaled-nan", "scaled-inf",
            "scaled-zero", "scaled-overflow"])
    def test_rejects_non_finite_data(self, build):
        with pytest.raises(ModelError, match="finite"):
            build()


class TestCoercivityFloor:
    def test_constant_above_threshold_degenerate(self):
        model = _model()
        floor = coercivity_floor(ChargeProfile.constant(1.0),
                                 model.C0, model.p)
        assert floor.degenerate and floor.floor == 0.0

    def test_constant_below_threshold_diverges(self):
        model = _model()
        with pytest.raises(ModelError):
            coercivity_floor(ChargeProfile.constant(0.1), model.C0, model.p)

    def test_rational_profile_finite(self):
        model = _model()
        floor = coercivity_floor(ChargeProfile.rational(0.1, 2.0),
                                 model.C0, model.p)
        assert not floor.degenerate
        assert floor.floor < 0.0 and math.isfinite(floor.floor)
        assert floor.measure > 0.0

    def test_threshold_solved_once(self, count_calls):
        model = _model()
        prof = ChargeProfile.rational(0.1, 2.0)
        calls = count_calls(mdl, "critical_charge_threshold")
        coercivity_floor(prof, model.C0, model.p)
        assert len(calls) == 1

    def test_floor_integrand_is_the_pointwise_floor(self):
        # the integrand reuses one d0 and must match the public floor bit
        # for bit, below the threshold and at and above it
        model = _model()
        d0 = critical_charge_threshold(model.C0, model.p)
        for rho in (0.05, 0.3, 0.9 * d0, d0, 1.2 * d0):
            assert (mdl._energy_floor(rho, model.C0, model.p, d0)
                    == pointwise_energy_floor(rho, model.C0, model.p))

    def test_unbounded_sublevel_set_rejected(self):
        model = _model()
        with pytest.raises(ModelError):
            coercivity_floor(ChargeProfile.rational(0.1, 0.5),
                             model.C0, model.p)


class TestValidateConditions:
    def test_origin_window_profile(self):
        model = _model()
        lam = 0.003
        prof = ChargeProfile.rational(0.9 * math.sqrt(lam), 2.0)
        rep = validate_conditions(prof, model, lam)
        assert rep.d1_positive_with_limit
        assert rep.d2_threshold_ordering
        assert rep.d4_radial
        assert rep.d5_origin_window

    def test_window_violated_by_large_origin_value(self):
        model = _model()
        lam = 0.003
        prof = ChargeProfile.rational(2.0 * math.sqrt(lam), 3.0)
        rep = validate_conditions(prof, model, lam)
        assert not rep.d5_origin_window

    def test_requires_fitted_constants(self):
        model = NonlinearityModel.pure_power(2.5)
        with pytest.raises(ModelError):
            validate_conditions(ChargeProfile.constant(1.0), model, 1.0)
