"""Acceptance suite: ten criteria, one printed pass/fail line each.

Each criterion is an independent test so a failure pinpoints the broken
capability; every test prints exactly one [PASS]/[FAIL] line with its
measured numbers before asserting.
"""

import json
import warnings

import numpy as np
import pytest

import spvlab.field3d as f3d
import spvlab.radial as rad
import spvlab.solvers as slv
from spvlab.cli import load_config, run
from spvlab.landscape import a0_ratio, estimate_lambda_bounds
from spvlab.models import (SQRT8, ChargeProfile, NonlinearityModel,
                           bracket_stationary_point, coercivity_floor,
                           critical_charge_threshold, energy_density_bracket,
                           fit_cubic_bound)

pytestmark = pytest.mark.filterwarnings(
    "ignore:field has not decayed:RuntimeWarning")


def _model():
    return NonlinearityModel.pure_power(2.5).with_constants(2.5)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_constant_machinery():
    rng = np.random.default_rng(2024)
    worst_val, worst_deriv = 0.0, 0.0
    for _ in range(20):
        c0 = rng.uniform(0.1, 10.0)
        p = rng.uniform(2.1, 2.9)
        d0 = critical_charge_threshold(c0, p)
        s0 = bracket_stationary_point(d0, c0, p)
        worst_val = max(worst_val, abs(energy_density_bracket(d0, s0, c0, p)))
        deriv = d0 / SQRT8 - c0 * (p - 2.0) / p * s0 ** (p - 3.0)
        # the derivative scales like d0 / sqrt(8), which reaches ~1e9 for
        # p near 2; compare at that scale
        worst_deriv = max(worst_deriv, abs(deriv) / (1.0 + d0 / SQRT8))
    signs_ok = True
    d0 = critical_charge_threshold(1.0, 2.5)
    for factor in (0.5, 0.9):
        s = bracket_stationary_point(factor * d0, 1.0, 2.5)
        signs_ok &= energy_density_bracket(factor * d0, s, 1.0, 2.5) < 0.0
    for factor in (1.1, 2.0):
        s = bracket_stationary_point(factor * d0, 1.0, 2.5)
        signs_ok &= energy_density_bracket(factor * d0, s, 1.0, 2.5) > 0.0
    ok = worst_val < 1e-10 and worst_deriv < 1e-10 and signs_ok
    _report("criterion-01-constant-machinery", ok,
            f"double-root residual {worst_val:.3e}, scaled derivative "
            f"{worst_deriv:.3e}, sign table {'ok' if signs_ok else 'bad'}")


def test_criterion_02_poisson_oracles():
    # radial uniform ball at n = 4096
    grid = rad.RadialGrid(12.0, 4096)
    r, h = grid.r, grid.h
    ball = rad.RadialField(grid, np.clip((1.0 - (r - 0.5 * h)) / h, 0, 1))
    phi = rad.poisson_radial(ball)
    exact = np.where(r <= 1.0, (3.0 - r ** 2) / 6.0,
                     1.0 / (3.0 * np.maximum(r, h)))
    err_rad = float(np.max(np.abs(phi.values - exact) / np.abs(exact)))
    pair_rad = grid.integrate(ball.values * phi.values)
    ident_rad = abs(rad.potential_gradient_energy(phi) / pair_rad - 1.0)

    # 3-D uniform ball at n = 128
    grid3 = f3d.Grid3D(12.0, 128)
    r3 = grid3.radius()
    src = f3d.Field3D(grid3, np.clip((1.0 - (r3 - 0.5 * grid3.h)) / grid3.h,
                                     0, 1), guard=False)
    phi3 = f3d.poisson_freespace(src)
    exact3 = np.where(r3 <= 1.0, (3.0 - r3 ** 2) / 6.0,
                      1.0 / (3.0 * np.maximum(r3, grid3.h)))
    inside = r3 < 6.0
    err_3d = float(np.max((np.abs(phi3.values - exact3)
                           / np.abs(exact3))[inside]))

    # cross-agreement and the 3-D energy identity on a Gaussian density
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "field has not decayed",
                                RuntimeWarning)
        u_rad = rad.RadialField.gaussian(grid, 2.0, 1.0)
    ax = grid3.axis()
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    u3 = f3d.Field3D(grid3, 2.0 * np.exp(-(x**2 + y**2 + z**2) / 2.0),
                     guard=False)
    rho = ChargeProfile.constant(1.0)
    cross = abs(f3d.nonlocal_term_3d(u3, rho)
                / rad.nonlocal_term(u_rad, rho) - 1.0)
    src_g = f3d.Field3D(grid3, u3.values ** 2, guard=False)
    phi_g = f3d.poisson_freespace(src_g)
    pair_g = grid3.integrate(src_g.values * phi_g.values)
    ident_3d = abs(f3d.nonlocal_term_3d(u3, rho) / pair_g - 1.0)

    ok = (err_rad < 1e-3 and err_3d < 5e-3 and cross < 5e-3
          and ident_rad < 1e-3 and ident_3d < 5e-3)
    _report("criterion-02-poisson-oracles", ok,
            f"ball error radial {err_rad:.2e} / 3-D {err_3d:.2e}, "
            f"cross {cross:.2e}, identity radial {ident_rad:.2e} / "
            f"3-D {ident_3d:.2e}")


def test_criterion_03_gradient_correctness():
    model = _model()
    rho = ChargeProfile(0.1, 2.0)
    rng = np.random.default_rng(7)

    grid = rad.RadialGrid(12.0, 2048)
    disc = rad.RadialDisc(grid, rho, model)
    worst_rad = 0.0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "field has not decayed",
                                RuntimeWarning)
        for _ in range(10):
            u = rad.RadialField.gaussian(grid, rng.uniform(0.5, 5.0),
                                         rng.uniform(0.7, 2.0))
            g = disc.riesz(u.values, disc.potential(u.values))
            for _ in range(10):
                v = rad.RadialField.gaussian(grid, rng.uniform(0.1, 1.0),
                                             rng.uniform(0.7, 2.0))
                eps = 1e-5
                up = rad.RadialField(grid, u.values + eps * v.values)
                dn = rad.RadialField(grid, u.values - eps * v.values)
                fd = (rad.energy_radial(up, rho, model)
                      - rad.energy_radial(dn, rho, model)) / (2 * eps)
                worst_rad = max(worst_rad,
                                abs(disc.h1_inner(g, v.values) / fd - 1.0))

    grid3 = f3d.Grid3D(6.0, 32)
    ax = grid3.axis()
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = x ** 2 + y ** 2 + z ** 2

    def gauss3(amp, sig):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            return f3d.Field3D(grid3, amp * np.exp(-r2 / (2 * sig ** 2)),
                               guard=False)

    worst_3d = 0.0
    for _ in range(10):
        u = gauss3(rng.uniform(0.5, 5.0), rng.uniform(0.7, 1.4))
        g = f3d.sobolev_gradient_3d(u, rho, model)
        for _ in range(10):
            v = gauss3(rng.uniform(0.1, 1.0), rng.uniform(0.7, 1.4))
            eps = 1e-5
            up = f3d.Field3D(grid3, u.values + eps * v.values, guard=False)
            dn = f3d.Field3D(grid3, u.values - eps * v.values, guard=False)
            fd = (f3d.energy_3d(up, rho, model)
                  - f3d.energy_3d(dn, rho, model)) / (2 * eps)
            worst_3d = max(worst_3d, abs(f3d.h1_inner_3d(g, v) / fd - 1.0))

    ok = worst_rad < 1e-4 and worst_3d < 1e-3
    _report("criterion-03-gradient-correctness", ok,
            f"worst relative error radial {worst_rad:.2e} (tol 1e-4), "
            f"3-D {worst_3d:.2e} (tol 1e-3)")


def test_criterion_04_inequality_suites():
    model = _model()
    grid = rad.RadialGrid(12.0, 2048)
    rng = np.random.default_rng(12)
    rho_unit = ChargeProfile.constant(1.0)

    strauss_ok = 0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "field has not decayed",
                                RuntimeWarning)
        for _ in range(100):
            u = rad.RadialField.gaussian(grid, rng.uniform(0.2, 20.0),
                                         rng.uniform(0.6, 2.5))
            lhs, bound, holds = rad.strauss_check(u, rho_unit)
            strauss_ok += int(holds)

    # coercivity floor along every trajectory of a multistart run with a
    # profile whose charge exceeds the threshold at infinity
    profile = ChargeProfile(0.04, 2.0).scaled(1.0 / 32.0)
    floor = coercivity_floor(profile, model.C0, model.p)
    floor_total = floor.floor * floor.measure if not floor.degenerate \
        else 0.0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "field has not decayed",
                                RuntimeWarning)
        starts = ([rad.RadialField.gaussian(grid, 30.0, 1.2)]
                  + slv.radial_gaussian_starts(grid, 3, seed=1))
        _, results = slv.multistart_minimize(
            starts, profile, model,
            slv.SolveOptions(tol_grad=1e-4))
    floor_ok = all(
        pt.energy >= 0.25 * pt.h1_norm_sq + floor_total - 1e-6
        for res in results for pt in res.trace)

    # positive energy for constant charge above the threshold
    d0 = critical_charge_threshold(model.C0, model.p)
    rho_hot = ChargeProfile.constant(1.1 * d0)
    positive_ok = 0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "field has not decayed",
                                RuntimeWarning)
        for _ in range(100):
            u = rad.RadialField.gaussian(grid, rng.uniform(0.2, 20.0),
                                         rng.uniform(0.6, 2.5))
            positive_ok += int(rad.energy_radial(u, rho_hot, model) > 0.0)

    ok = strauss_ok == 100 and floor_ok and positive_ok == 100
    _report("criterion-04-inequality-suites", ok,
            f"interpolation inequality {strauss_ok}/100, trajectory floor "
            f"{'held' if floor_ok else 'violated'}, positive energy "
            f"{positive_ok}/100")


def test_criterion_05_two_solution_regime(tmp_path):
    report = run(load_config("autonomous", out_dir=str(tmp_path / "out")))
    q = report.quantities
    ok = (report.all_passed
          and q["minimizer"]["energy"] < 0.0
          and q["minimizer"]["gradient_norm"] < 1e-6
          and q["mountain_pass"]["energy"] > 0.0
          and q["mountain_pass"]["gradient_norm"] < 1e-5
          and abs(q["minimizer"]["nehari_residual"]) < 1e-3
          and abs(q["mountain_pass"]["nehari_residual"]) < 1e-3)
    _report("criterion-05-two-solution-regime", ok,
            f"minimizer J {q['minimizer']['energy']:.4f} "
            f"(residual {q['minimizer']['gradient_norm']:.2e}), saddle J "
            f"{q['mountain_pass']['energy']:.4f} "
            f"(residual {q['mountain_pass']['gradient_norm']:.2e})")


def test_criterion_06_uniqueness_regime(tmp_path):
    report = run(load_config("uniqueness-scan",
                             out_dir=str(tmp_path / "out")))
    q = report.quantities
    n = q["n_starts"]
    ok = (report.all_passed and n == 20
          and q["zero_classifications_autonomous"] == n
          and q["zero_classifications_nonautonomous"] == n)
    _report("criterion-06-uniqueness-regime", ok,
            f"{q['zero_classifications_autonomous']}/{n} autonomous and "
            f"{q['zero_classifications_nonautonomous']}/{n} non-autonomous "
            f"starts vanished")


def test_criterion_07_multibump_ladder(tmp_path):
    report = run(load_config("multibump", out_dir=str(tmp_path / "out")))
    q = report.quantities
    energies = list(q["energies"])
    decreasing = all(b < a for a, b in zip(energies, energies[1:]))
    ok = (report.all_passed and decreasing
          and q["max_additivity_error"] <= 1e-12)
    _report("criterion-07-multibump-ladder", ok,
            f"N=1..5 energies strictly decreasing: {decreasing}, "
            f"additivity error {q['max_additivity_error']:.1e}, "
            f"uniform constant {q['excess_constant']:.4f}")


@pytest.mark.slow
def test_criterion_08_symmetry_breaking(tmp_path):
    report = run(load_config("symmetry-breaking",
                             out_dir=str(tmp_path / "out")))
    q = report.quantities
    verdict = {v.name: v for v in report.verdicts}[
        "full-space-minimum-below-radial-minimum"]
    third = {v.name: v for v in report.verdicts}[
        "third-solution-positive-energy"]
    # an honest failure of the margin test must be announced, never
    # silently passed
    inconclusive = verdict.detail.startswith(
        "inconclusive at this resolution")
    ok = (verdict.passed or inconclusive) and third.passed
    if not verdict.passed and inconclusive:
        ok = ok and q["alpha_cube"] < q["theta_cube"] < 0.0
    _report("criterion-08-symmetry-breaking", ok,
            f"alpha {q['alpha_cube']:.4f} vs theta {q['theta_cube']:.4f}, "
            f"margin {q['margin']:.4f} vs 10x error "
            f"{10 * q['discretization_error']:.4f}"
            + (" (inconclusive announced)" if inconclusive else ""))


def test_criterion_09_threshold_bounds():
    model = _model()
    grid = rad.RadialGrid(12.0, 4096)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "field has not decayed",
                                RuntimeWarning)
        bounds = estimate_lambda_bounds(model, grid)
        c1 = fit_cubic_bound(NonlinearityModel.pure_power(2.5))
        drift0 = abs(a0_ratio(bounds.witness_a0, model)
                     - bounds.lambda0_lower)
    ok = (bounds.lambda0_lower <= bounds.lambda0_upper
          and abs(c1 - 0.08) < 1e-6
          and abs(bounds.lambda0_upper - 0.5 * c1 ** 2) < 1e-12
          and drift0 < 1e-10)
    _report("criterion-09-threshold-bounds", ok,
            f"lower {bounds.lambda0_lower:.6g} <= upper "
            f"{bounds.lambda0_upper:.6g}, cubic constant {c1:.8f} "
            f"(target 0.08), witness drift {drift0:.1e}")


def test_criterion_10_reproducibility(tmp_path):
    run(load_config("verify-lemmas", out_dir=str(tmp_path / "a"), seed=3))
    run(load_config("verify-lemmas", out_dir=str(tmp_path / "b"), seed=3))
    ja = (tmp_path / "a" / "report.json").read_bytes()
    jb = (tmp_path / "b" / "report.json").read_bytes()
    ok = ja == jb and len(ja) > 0
    _report("criterion-10-reproducibility", ok,
            f"two runs, report bytes equal: {ja == jb} "
            f"({len(ja)} bytes)")
