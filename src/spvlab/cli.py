"""Named, reproducible experiment scenarios with a command-line front end.

Each scenario ties the library modules into one experiment per claim
family: threshold machinery checks, the two-solution coupling regime,
the uniqueness regime, non-autonomous ground states, the multibump
energy ladder, and radial symmetry breaking.  A scenario consumes a
JSON config (versioned schema, unknown keys rejected), runs fully
deterministically under a fixed seed, and writes a machine-readable
report plus solver traces, field snapshots, and plot-ready CSVs.

Exit code 0 means every verdict in the report passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from . import field3d as f3d
from . import landscape as lsc
from . import radial as rad
from . import solvers as slv
from .models import (ChargeProfile, ModelError, NonlinearityModel,
                     bracket_stationary_point, coercivity_floor,
                     critical_charge_threshold, energy_density_bracket,
                     validate_conditions)

SCHEMA_VERSION = 1

SCENARIOS = ("verify-lemmas", "autonomous", "uniqueness-scan",
             "ground-state", "multibump", "symmetry-breaking")

# grid sizes per --grid-scale
GRID_SCALES = {
    "desk": {"radial_n": 4096, "cube_n": 128},
    "fine": {"radial_n": 8192, "cube_n": 160},
}


class ConfigError(ValueError):
    """Raised when a config document fails validation."""


# ---------------------------------------------------------------------------
# Config document
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, fully resolved inputs for one scenario run."""

    scenario: str
    model: NonlinearityModel
    profile: Optional[ChargeProfile]
    lam: Optional[float]
    radial_r_max: float
    radial_n: int
    cube_L: float
    cube_n: int
    solver: Dict[str, float]
    options: Dict[str, object]
    seed: int
    out_dir: str
    grid_scale: str
    inputs_echo: Dict[str, object] = field(repr=False, default_factory=dict)


def _check_keys(doc: dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _build_model(doc: Optional[dict]) -> NonlinearityModel:
    if doc is None:
        doc = {}
    _check_keys(doc, ["kind", "q", "a_q", "a2", "p", "csv"], "model")
    kind = doc.get("kind", "pure-power")
    if kind == "pure-power":
        model = NonlinearityModel.pure_power(float(doc.get("q", 2.5)),
                                             float(doc.get("a_q", 1.0)))
    elif kind == "asymptotically-linear":
        model = NonlinearityModel.asymptotically_linear(float(doc["a2"]))
    elif kind == "table":
        model = NonlinearityModel.from_csv(doc["csv"])
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    p = float(doc.get("p", model.q if 2.0 < model.q < 3.0 else 2.5))
    with warnings.catch_warnings():
        # p == q is the natural choice for pure powers; the fit warns that
        # the bound is only attained asymptotically, which is fine here
        warnings.simplefilter("ignore", UserWarning)
        return model.with_constants(p)


def _build_profile(doc: Optional[dict]) -> Optional[ChargeProfile]:
    if doc is None:
        return None
    _check_keys(doc, ["kind", "value", "rho0", "rho_inf", "eps"], "profile")
    kind = doc.get("kind")
    if kind == "constant":
        prof = ChargeProfile.constant(float(doc["value"]))
    elif kind == "rational":
        prof = ChargeProfile.rational(float(doc["rho0"]), float(doc["rho_inf"]))
    else:
        raise ConfigError(f"unknown profile kind {kind!r}")
    eps = float(doc.get("eps", 1.0))
    return prof.scaled(eps) if eps != 1.0 else prof


def load_config(scenario: str, config_path: Optional[str] = None,
                out_dir: Optional[str] = None, seed: Optional[int] = None,
                grid_scale: str = "desk") -> ScenarioConfig:
    """Assemble a ScenarioConfig from defaults, a JSON file, and flags."""
    doc: dict = {}
    if config_path is not None:
        with open(config_path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        _check_keys(doc, ["schema", "scenario", "model", "profile", "lambda",
                          "radial_grid", "cube_grid", "solver", "options",
                          "seed", "out_dir"], "config")
        if doc.get("schema") != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema must be {SCHEMA_VERSION}, "
                f"got {doc.get('schema')!r}")
        if "scenario" in doc and doc["scenario"] != scenario:
            raise ConfigError(
                f"config is for scenario {doc['scenario']!r}, "
                f"but {scenario!r} was requested")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    if grid_scale not in GRID_SCALES:
        raise ConfigError(f"unknown grid scale {grid_scale!r}")

    rg = dict(doc.get("radial_grid") or {})
    _check_keys(rg, ["r_max", "n"], "radial_grid")
    cg = dict(doc.get("cube_grid") or {})
    _check_keys(cg, ["L", "n"], "cube_grid")
    solver = dict(doc.get("solver") or {})
    _check_keys(solver, ["tol_grad", "tol_grad_abs", "max_iter", "n_starts"],
                "solver")
    options = dict(doc.get("options") or {})
    _check_keys(options, ["R0", "bump_counts", "eps_sweep", "bump_offset",
                          "n_fields", "refine_n"], "options")

    model = _build_model(doc.get("model"))
    profile = _build_profile(doc.get("profile"))
    lam = doc.get("lambda")
    resolved_seed = int(seed if seed is not None else doc.get("seed", 0))
    resolved_out = out_dir or doc.get("out_dir") or os.path.join(
        "runs", scenario)
    scale = GRID_SCALES[grid_scale]
    # the non-radial minimizer splits into two separated bumps; at the
    # default coupling each bump spans a radius-12 ball, so this scenario
    # needs a box large enough to hold two of them side by side
    default_extent = 18.0 if scenario == "symmetry-breaking" else 12.0

    cfg = ScenarioConfig(
        scenario=scenario,
        model=model,
        profile=profile,
        lam=None if lam is None else float(lam),
        radial_r_max=float(rg.get("r_max", default_extent)),
        radial_n=int(rg.get("n", scale["radial_n"])),
        cube_L=float(cg.get("L", default_extent)),
        cube_n=int(cg.get("n", scale["cube_n"])),
        solver=solver,
        options=options,
        seed=resolved_seed,
        out_dir=resolved_out,
        grid_scale=grid_scale,
        inputs_echo={
            "scenario": scenario,
            "model": doc.get("model") or {"kind": "pure-power", "q": 2.5,
                                          "a_q": 1.0, "p": 2.5},
            "profile": doc.get("profile"),
            "lambda": lam,
            "radial_grid": {"r_max": float(rg.get("r_max", default_extent)),
                            "n": int(rg.get("n", scale["radial_n"]))},
            "cube_grid": {"L": float(cg.get("L", default_extent)),
                          "n": int(cg.get("n", scale["cube_n"]))},
            "solver": solver,
            "options": options,
            "seed": resolved_seed,
            "grid_scale": grid_scale,
        })
    return cfg


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """One named pass/fail check; the name states the claim it verifies."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExperimentReport:
    """Self-contained record of one scenario run.

    ``attachments`` carries in-memory arrays for plot emission and is not
    serialized; ``runtime_seconds`` is written to a sidecar (meta.json) so
    the main report stays byte-identical across runs with the same seed.
    """

    scenario: str
    inputs: Dict[str, object]
    quantities: Dict[str, object]
    verdicts: List[Verdict]
    runtime_seconds: float
    artifacts: List[str]
    attachments: Dict[str, object] = field(repr=False, default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "inputs": self.inputs,
            "quantities": self.quantities,
            "verdicts": [{"name": v.name, "passed": v.passed,
                          "detail": v.detail} for v in self.verdicts],
            "artifacts": self.artifacts,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


# ---------------------------------------------------------------------------
# Shared scenario plumbing
# ---------------------------------------------------------------------------

def _radial_grid(cfg: ScenarioConfig) -> rad.RadialGrid:
    return rad.RadialGrid(cfg.radial_r_max, cfg.radial_n)


def _opts(cfg: ScenarioConfig, **overrides) -> slv.SolveOptions:
    kw = {"seed": cfg.seed}
    for key in ("tol_grad", "tol_grad_abs", "max_iter"):
        if key in cfg.solver:
            kw[key] = cfg.solver[key]
    kw.update(overrides)
    if "max_iter" in kw:
        kw["max_iter"] = int(kw["max_iter"])
    return slv.SolveOptions(**kw)


def _resolve_lambda(cfg: ScenarioConfig, bounds: lsc.LambdaBounds,
                    which: str) -> float:
    """Scenario default couplings are computed from certified bounds."""
    if cfg.lam is not None:
        return cfg.lam
    if which == "below-energy-threshold":
        if bounds.lambda0_lower is None:
            raise ConfigError("no certified lower threshold bound; "
                              "set lambda explicitly in the config")
        return 2.0 * bounds.lambda0_lower
    return 2.0 * bounds.lambdabar0_upper


def _random_fields(grid: rad.RadialGrid, count: int, seed: int
                   ) -> List[rad.RadialField]:
    """Deterministic family of smooth decaying radial fields."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = np.zeros_like(grid.r)
        for _ in range(3):
            c = rng.uniform(0.0, grid.r_max / 3.0)
            s = rng.uniform(0.5, 1.5)
            v = v + rng.normal() * np.exp(-((grid.r - c) / s) ** 2)
        out.append(rad.RadialField(grid, rng.uniform(0.1, 5.0) * np.abs(v)))
    return out


def _tapered_ball_start(grid: rad.RadialGrid, radius: float,
                        amplitude: float = 13.0,
                        sigma: float = 1.65) -> rad.RadialField:
    """Gaussian bump smoothly cut to zero at the given support radius."""
    r = grid.r
    x = np.clip((r - 0.5 * radius) / (0.5 * radius), 0.0, 1.0)
    taper = 1.0 - x * x * (3.0 - 2.0 * x)
    return rad.RadialField(grid, amplitude
                           * np.exp(-r ** 2 / (2.0 * sigma ** 2)) * taper)


def _taper_to_support(u: rad.RadialField, r0: float,
                      r1: float) -> rad.RadialField:
    """Smoothly cut a radial field to zero beyond r1 (smoothstep on
    [r0, r1]) so it can be embedded in a finite box."""
    x = np.clip((u.grid.r - r0) / (r1 - r0), 0.0, 1.0)
    return rad.RadialField(u.grid, u.values * (1.0 - x * x * (3.0 - 2.0 * x)))


def _trilinear_resample(values: np.ndarray, grid_from: f3d.Grid3D,
                        grid_to: f3d.Grid3D) -> np.ndarray:
    ax_from = grid_from.axis()
    interp = RegularGridInterpolator((ax_from, ax_from, ax_from), values,
                                     bounds_error=False, fill_value=0.0)
    ax_to = grid_to.axis()
    X, Y, Z = np.meshgrid(ax_to, ax_to, ax_to, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    return interp(pts).reshape(grid_to.n, grid_to.n, grid_to.n)


# ---------------------------------------------------------------------------
# Scenario bodies: each returns (quantities, verdicts, attachments, fields)
# where fields maps artifact names to radial/3-D fields to snapshot.
# ---------------------------------------------------------------------------

def _scenario_verify_lemmas(cfg: ScenarioConfig):
    model = cfg.model
    c0, p = model.C0, model.p
    d0 = critical_charge_threshold(c0, p)
    s0 = bracket_stationary_point(d0, c0, p)
    value_resid = abs(energy_density_bracket(d0, s0, c0, p))
    deriv_resid = abs(d0 / math.sqrt(8.0)
                      - c0 * (p - 2.0) / p * s0 ** (p - 3.0))

    sign_ok = True
    sign_rows = []
    for factor in (0.5, 0.9, 1.1, 2.0):
        d = factor * d0
        m = energy_density_bracket(d, bracket_stationary_point(d, c0, p),
                                   c0, p)
        expected_negative = factor < 1.0
        ok = (m < 0.0) == expected_negative
        sign_ok = sign_ok and ok
        sign_rows.append({"factor": factor, "bracket_min": m, "ok": ok})

    grid = _radial_grid(cfg)
    n_fields = int(cfg.options.get("n_fields", 100))
    fields = _random_fields(grid, n_fields, cfg.seed)
    unit_profile = ChargeProfile.constant(1.0)
    above = ChargeProfile.constant(1.1 * d0)
    interp_ok = 0
    positive_ok = 0
    for u in fields:
        _, _, holds = rad.strauss_check(u, unit_profile)
        interp_ok += int(holds)
        positive_ok += int(rad.energy_radial(u, above, model) > 0.0)

    floor_profile = cfg.profile or ChargeProfile.rational(0.1, 2.0)
    floor = coercivity_floor(floor_profile, c0, p)

    quantities = {
        "d0": d0,
        "bracket_stationary_point": s0,
        "bracket_value_residual": value_resid,
        "bracket_derivative_residual": deriv_resid,
        "bracket_sign_table": sign_rows,
        "interpolation_inequality_passes": interp_ok,
        "positive_energy_passes": positive_ok,
        "n_fields": n_fields,
        "coercivity_floor": floor.floor,
        "sublevel_set_measure": floor.measure,
    }
    verdicts = [
        Verdict("threshold-bracket-double-root",
                value_resid < 1e-10 and deriv_resid < 1e-10,
                f"value {_fmt(value_resid)}, derivative {_fmt(deriv_resid)}"),
        Verdict("threshold-separates-bracket-signs", sign_ok,
                "bracket minimum negative below d0, positive above"),
        Verdict("coulomb-interpolation-inequality",
                interp_ok == n_fields, f"{interp_ok}/{n_fields} fields"),
        Verdict("positive-energy-above-threshold",
                positive_ok == n_fields, f"{positive_ok}/{n_fields} fields"),
        Verdict("coercivity-floor-finite",
                math.isfinite(floor.floor) and floor.floor <= 0.0,
                f"floor {_fmt(floor.floor)} over measure "
                f"{_fmt(floor.measure)}"),
    ]
    return quantities, verdicts, {}, {}


def _scenario_autonomous(cfg: ScenarioConfig):
    grid = _radial_grid(cfg)
    model = cfg.model
    bounds = lsc.estimate_lambda_bounds(model, grid)
    lam = _resolve_lambda(cfg, bounds, "below-energy-threshold")
    profile = cfg.profile or ChargeProfile.constant(math.sqrt(lam))

    n_starts = int(cfg.solver.get("n_starts", 8))
    starts: List[rad.RadialField] = []
    if bounds.witness_a0 is not None:
        starts.append(bounds.witness_a0)
    starts += slv.radial_gaussian_starts(
        grid, max(n_starts - len(starts), 1), seed=cfg.seed)
    best, results = slv.multistart_minimize(
        starts, profile, model, _opts(cfg, tol_grad_abs=1e-6))
    saddle = slv.mountain_pass(best.field, profile, model,
                               _opts(cfg, tol_grad_abs=1e-5))

    # energies along the broken path 0 -> saddle -> minimizer
    taus = np.linspace(0.0, 1.0, 41)
    path_energies = []
    for tau in taus:
        if tau <= 0.5:
            vals = 2.0 * tau * saddle.field.values
        else:
            vals = ((2.0 - 2.0 * tau) * saddle.field.values
                    + (2.0 * tau - 1.0) * best.field.values)
        path_energies.append(
            rad.energy_radial(rad.RadialField(grid, vals), profile, model))
    max_node = int(np.argmax(path_energies))

    quantities = {
        "lambda": lam,
        "lambda0_lower": bounds.lambda0_lower,
        "lambda0_upper": bounds.lambda0_upper,
        "minimizer": {
            "energy": best.energy, "gradient_norm": best.gradient_norm,
            "nehari_residual": best.nehari_residual,
            "iterations": best.iterations,
            "classification": best.classification,
        },
        "mountain_pass": {
            "energy": saddle.energy, "gradient_norm": saddle.gradient_norm,
            "nehari_residual": saddle.nehari_residual,
            "iterations": saddle.iterations,
            "classification": saddle.classification,
        },
        "start_energies": [r.energy for r in results],
        "path_max_node": max_node,
    }
    verdicts = [
        Verdict("negative-energy-minimizer",
                best.converged and best.energy < 0.0
                and best.gradient_norm < 1e-6
                and best.classification == "minimizer",
                f"J {_fmt(best.energy)}, residual "
                f"{_fmt(best.gradient_norm)}"),
        Verdict("positive-energy-saddle",
                saddle.converged and saddle.energy > 0.0
                and saddle.gradient_norm < 1e-5
                and saddle.classification == "mountain-pass",
                f"J {_fmt(saddle.energy)}, residual "
                f"{_fmt(saddle.gradient_norm)}"),
        Verdict("critical-points-annihilate-derivative-along-themselves",
                abs(best.nehari_residual) < 1e-3
                and abs(saddle.nehari_residual) < 1e-3,
                f"minimizer {_fmt(best.nehari_residual)}, saddle "
                f"{_fmt(saddle.nehari_residual)}"),
        Verdict("two-distinct-solutions-ordered-by-energy",
                best.energy < 0.0 < saddle.energy,
                f"{_fmt(best.energy)} < 0 < {_fmt(saddle.energy)}"),
    ]
    attachments = {
        "path": np.column_stack([taus, path_energies,
                                 (np.arange(len(taus)) == max_node)
                                 .astype(float)]),
        "traces": {"minimizer": best, "mountain_pass": saddle},
    }
    fields = {"minimizer": best.field, "mountain_pass": saddle.field}
    return quantities, verdicts, attachments, fields


def _scenario_uniqueness_scan(cfg: ScenarioConfig):
    grid = _radial_grid(cfg)
    model = cfg.model
    bounds = lsc.estimate_lambda_bounds(model, grid)
    lam = _resolve_lambda(cfg, bounds, "above-derivative-threshold")
    sqrt_bar = math.sqrt(bounds.lambdabar0_upper)
    auto_profile = ChargeProfile.constant(math.sqrt(lam))
    nonauto = cfg.profile or ChargeProfile.rational(2.0 * sqrt_bar,
                                                    4.0 * sqrt_bar)
    if nonauto.rho_min <= sqrt_bar:
        raise ConfigError(
            "non-autonomous profile must stay above the certified "
            "derivative threshold (rho_min > sqrt(lambdabar0_upper))")

    n_starts = int(cfg.solver.get("n_starts", 20))
    opts = _opts(cfg, tol_grad_abs=1e-8, max_iter=2000)

    def scan(profile):
        starts = slv.radial_gaussian_starts(grid, n_starts, seed=cfg.seed)
        _, results = slv.multistart_minimize(starts, profile, model, opts)
        norms = [math.sqrt(rad.h1_norm_sq(r.field)) for r in results]
        zeros = sum(int(r.classification == "zero") for r in results)
        return zeros, norms

    zeros_auto, norms_auto = scan(auto_profile)
    zeros_non, norms_non = scan(nonauto)

    quantities = {
        "lambda": lam,
        "lambdabar0_upper": bounds.lambdabar0_upper,
        "rho_min_nonautonomous": nonauto.rho_min,
        "zero_classifications_autonomous": zeros_auto,
        "zero_classifications_nonautonomous": zeros_non,
        "n_starts": n_starts,
        "max_norm_autonomous": max(norms_auto),
        "max_norm_nonautonomous": max(norms_non),
    }
    verdicts = [
        Verdict("only-zero-solution-autonomous",
                zeros_auto == n_starts and max(norms_auto) < 1e-6,
                f"{zeros_auto}/{n_starts} starts vanished, max norm "
                f"{_fmt(max(norms_auto))}"),
        Verdict("only-zero-solution-nonautonomous",
                zeros_non == n_starts and max(norms_non) < 1e-6,
                f"{zeros_non}/{n_starts} starts vanished, max norm "
                f"{_fmt(max(norms_non))}"),
    ]
    attachments = {
        "start_norms": np.column_stack([np.arange(n_starts, dtype=float),
                                        norms_auto, norms_non]),
    }
    return quantities, verdicts, attachments, {}


def _scenario_ground_state(cfg: ScenarioConfig):
    grid = _radial_grid(cfg)
    model = cfg.model
    profile = cfg.profile or ChargeProfile.rational(0.04, 2.0).scaled(1.0 / 32.0)
    lam_for_check = cfg.lam if cfg.lam is not None else 1.0
    cond = validate_conditions(profile, model, lam_for_check)
    floor = coercivity_floor(profile, model.C0, model.p)

    n_starts = int(cfg.solver.get("n_starts", 8))
    starts = [rad.RadialField.gaussian(grid, 30.0, 1.2)]
    starts += slv.radial_gaussian_starts(grid, max(n_starts - 1, 1),
                                         seed=cfg.seed)
    best, results = slv.multistart_minimize(
        starts, profile, model, _opts(cfg, tol_grad_abs=1e-6))

    # the coercivity floor must hold along every accepted iterate
    floor_ok = True
    worst_slack = math.inf
    for res in results:
        for pt in res.trace:
            slack = pt.energy - (0.25 * pt.h1_norm_sq + floor.floor)
            worst_slack = min(worst_slack, slack)
            floor_ok = floor_ok and slack >= -1e-6

    quantities = {
        "conditions": {
            "positive_with_limit": cond.d1_positive_with_limit,
            "threshold_ordering": cond.d2_threshold_ordering,
            "rho_min": cond.rho_min, "rho_inf": cond.rho_inf,
            "d0": cond.d0,
        },
        "coercivity_floor": floor.floor,
        "ground_state": {
            "energy": best.energy, "gradient_norm": best.gradient_norm,
            "nehari_residual": best.nehari_residual,
            "classification": best.classification,
        },
        "start_energies": [r.energy for r in results],
        "worst_floor_slack": worst_slack,
    }
    verdicts = [
        Verdict("structural-conditions-hold",
                cond.d1_positive_with_limit and cond.d2_threshold_ordering,
                f"positivity {cond.d1_positive_with_limit}, threshold "
                f"ordering {cond.d2_threshold_ordering}"),
        Verdict("ground-state-negative-energy",
                best.converged and best.energy < 0.0
                and best.classification == "minimizer",
                f"J {_fmt(best.energy)}, residual "
                f"{_fmt(best.gradient_norm)}"),
        Verdict("critical-point-annihilates-derivative-along-itself",
                abs(best.nehari_residual) < 1e-3,
                _fmt(best.nehari_residual)),
        Verdict("coercivity-floor-respected-along-trajectories", floor_ok,
                f"worst slack {_fmt(worst_slack)}"),
    ]
    attachments = {"traces": {"ground_state": best}}
    fields = {"ground_state": best.field}
    return quantities, verdicts, attachments, fields


def _scenario_multibump(cfg: ScenarioConfig):
    grid = _radial_grid(cfg)
    model = cfg.model
    bounds = lsc.estimate_lambda_bounds(model, grid)
    lam = _resolve_lambda(cfg, bounds, "below-energy-threshold")
    profile = cfg.profile or ChargeProfile.rational(0.04, 2.0).scaled(1.0 / 16.0)
    R0 = float(cfg.options.get("R0", 3.5))
    counts = [int(n) for n in cfg.options.get("bump_counts", [1, 2, 3, 4, 5])]

    start = _tapered_ball_start(grid, R0)
    bump = slv.minimize(start, ChargeProfile.constant(math.sqrt(lam)),
                        model, _opts(cfg, tol_grad_abs=1e-6),
                        support_radius=R0)
    reports, excess_constant = lsc.multibump_sweep(
        counts, R0, bump.field, profile, model, lam)

    energies = [rp.energy for rp in reports]
    decreasing = all(energies[i + 1] < energies[i]
                     for i in range(len(energies) - 1))
    printed_ok = all(rp.printed_bound_holds for rp in reports)
    sharper_ok = all(rp.sharper_bound_holds for rp in reports)
    max_add = max(rp.additivity_error for rp in reports)
    linear_ok = all(rp.energy <= rp.spec.N * rp.single_energy
                    + excess_constant + 1e-9 for rp in reports)

    quantities = {
        "lambda": lam,
        "R0": R0,
        "bump_counts": counts,
        "bump_energy_in_ball": bump.energy,
        "bump_gradient_norm": bump.gradient_norm,
        "single_bump_energy": reports[0].single_energy,
        "energies": energies,
        "excess_constant": excess_constant,
        "cross_coulomb": [rp.cross_coulomb for rp in reports],
        "printed_bounds": [rp.printed_bound for rp in reports],
        "sharper_bound_holds": sharper_ok,
        "max_additivity_error": max_add,
    }
    verdicts = [
        Verdict("compact-bump-negative-energy",
                bump.converged and bump.energy < 0.0,
                f"J {_fmt(bump.energy)}, residual "
                f"{_fmt(bump.gradient_norm)}"),
        Verdict("bump-energies-strictly-decreasing", decreasing,
                ", ".join(_fmt(e) for e in energies)),
        Verdict("pairwise-interaction-bound", printed_ok,
                "cross-interaction below the quadratic pair bound for "
                "every count"),
        Verdict("energy-additivity-exact", max_add <= 1e-12,
                f"max relative error {_fmt(max_add)}"),
        Verdict("linear-ladder-with-uniform-constant", linear_ok,
                f"excess constant {_fmt(excess_constant)}"),
    ]
    attachments = {
        "ladder": np.column_stack([np.array(counts, dtype=float), energies]),
        "traces": {"bump": bump},
    }
    fields = {"bump": bump.field}
    return quantities, verdicts, attachments, fields


def _scenario_symmetry_breaking(cfg: ScenarioConfig):
    grid = _radial_grid(cfg)
    model = cfg.model
    bounds = lsc.estimate_lambda_bounds(model, grid)
    lam = _resolve_lambda(cfg, bounds, "below-energy-threshold")
    sqrt_lam = math.sqrt(lam)
    profile = cfg.profile or ChargeProfile.rational(0.9 * sqrt_lam, 2.0)
    cond = validate_conditions(profile, model, lam)

    eps_sweep = [float(e) for e in cfg.options.get(
        "eps_sweep", [0.05, 0.025, 0.0125, 0.00625, 0.003125])]
    if any(e <= 0.0 for e in eps_sweep) or list(eps_sweep) != sorted(
            eps_sweep, reverse=True):
        raise ConfigError("eps_sweep must be positive and decreasing")
    offset = float(cfg.options.get("bump_offset", 7.0))
    n_starts = int(cfg.solver.get("n_starts", 4))

    def radial_theta(prof_eps):
        starts = [rad.RadialField.gaussian(grid, 30.0, 1.2)]
        if bounds.witness_a0 is not None:
            starts.append(bounds.witness_a0)
        starts += slv.radial_gaussian_starts(grid, n_starts, seed=cfg.seed)
        best, _ = slv.multistart_minimize(starts, prof_eps, model,
                                          _opts(cfg, tol_grad_abs=1e-6),
                                          level="theta")
        return best

    # semi-analytic sweep: for each eps, the radial level theta_eps and an
    # off-center two-bump estimate (two copies of the constant-coupling
    # bump at the local charge, plus their Coulomb cross term)
    sweep_rows = []
    chosen = None
    for eps in eps_sweep:
        prof_eps = profile.scaled(eps)
        # a single quick solve is enough to rank candidate eps values;
        # the chosen eps gets the full multistart below
        theta_quick = slv.minimize(
            rad.RadialField.gaussian(grid, 30.0, 1.2), prof_eps, model,
            _opts(cfg, tol_grad_abs=1e-4))
        local_rho = float(prof_eps.at_radius(offset))
        local = slv.minimize(
            rad.RadialField.gaussian(grid, 30.0, 1.2),
            ChargeProfile.constant(local_rho), model,
            _opts(cfg, tol_grad_abs=1e-4))
        charge = local_rho * rad.l2_norm_sq(local.field)
        cross = charge * charge / (4.0 * math.pi * 2.0 * offset)
        est_alpha = 2.0 * local.energy + 0.5 * cross
        row = {"eps": eps, "theta": theta_quick.energy,
               "two_bump_estimate": est_alpha}
        sweep_rows.append(row)
        if (chosen is None and theta_quick.energy < 0.0
                and est_alpha
                < theta_quick.energy - 0.05 * abs(theta_quick.energy)):
            chosen = (eps, local)
    if chosen is None and sweep_rows:
        chosen = (eps_sweep[-1], None)
    eps, local = chosen
    prof_eps = profile.scaled(eps)
    theta_res = radial_theta(prof_eps)

    # full 3-D run at the chosen eps: one centered start (the radial
    # minimizer) and one two-bump start
    grid3 = f3d.Grid3D(cfg.cube_L, cfg.cube_n)
    # exponential tails overflow the box at the support tolerance;
    # taper them smoothly before embedding (the energy shift is far
    # below the discretization error and the descent relaxes it)
    margin = grid3.L - 2.0 * grid3.h
    centered = f3d.embed_radial(
        _taper_to_support(theta_res.field, margin - 2.5, margin - 0.5),
        grid3)
    starts3 = [centered]
    if local is not None:
        r1 = margin - offset - 0.5
        bump = _taper_to_support(local.field, max(r1 - 2.0, 1.0), r1)
        up = f3d.embed_radial(bump, grid3, center=(0.0, 0.0, offset))
        dn = f3d.embed_radial(bump, grid3, center=(0.0, 0.0, -offset))
        starts3.append(f3d.Field3D(grid3, up.values + dn.values))
    # the two-bump start is assembled from converged radial pieces and
    # already sits below the radial level; a modest number of 3-D
    # relaxation steps keeps the scenario inside its time budget
    opts3 = _opts(cfg, tol_grad=1e-3,
                  max_iter=int(cfg.solver.get("max_iter", 120)))
    _, results3 = slv.multistart_minimize(starts3, prof_eps, model,
                                          opts3, level="alpha")
    # the iteration cap can stop a descent before the gradient
    # tolerance; the energy of any admissible field still bounds the
    # full-space minimum from above, so rank by energy alone here
    best3 = min(results3, key=lambda r: r.energy)
    # evaluate both candidates on the same 3-D discretization so the
    # comparison is free of radial-vs-cube quadrature bias
    theta_cube = f3d.energy_3d(centered, prof_eps, model)
    alpha_cube = best3.energy

    # discretization error: re-evaluate both fields on a refined cube
    n_ref = int(cfg.options.get("refine_n", cfg.cube_n + 32))
    grid_ref = f3d.Grid3D(cfg.cube_L, n_ref)
    alpha_ref = f3d.energy_3d(
        f3d.Field3D(grid_ref, _trilinear_resample(
            best3.field.values, grid3, grid_ref)), prof_eps, model)
    theta_ref = f3d.energy_3d(
        f3d.Field3D(grid_ref, _trilinear_resample(
            centered.values, grid3, grid_ref)), prof_eps, model)
    disc_err = abs(alpha_ref - alpha_cube) + abs(theta_ref - theta_cube)
    margin = theta_cube - alpha_cube

    saddle = slv.mountain_pass(theta_res.field, prof_eps, model,
                               _opts(cfg, tol_grad_abs=1e-5))

    broke = alpha_cube < theta_cube < 0.0 and margin > 10.0 * disc_err
    inconclusive = (alpha_cube < theta_cube < 0.0
                    and margin <= 10.0 * disc_err)
    detail = (f"alpha {_fmt(alpha_cube)} < theta {_fmt(theta_cube)} < 0, "
              f"margin {_fmt(margin)} vs 10x error {_fmt(10.0 * disc_err)}")
    if inconclusive:
        detail = "inconclusive at this resolution; " + detail

    quantities = {
        "lambda": lam,
        "eps": eps,
        "eps_sweep": sweep_rows,
        "theta_radial_grid": theta_res.energy,
        "theta_cube": theta_cube,
        "theta_refined": theta_ref,
        "alpha_cube": alpha_cube,
        "alpha_refined": alpha_ref,
        "margin": margin,
        "discretization_error": disc_err,
        "alpha_start_energies": [r.energy for r in results3],
        "mountain_pass": {
            "energy": saddle.energy, "gradient_norm": saddle.gradient_norm,
            "classification": saddle.classification,
        },
        "conditions": {
            "radial": cond.d4_radial,
            "origin_window": cond.d5_origin_window,
            "rho_origin": cond.rho_origin,
            "d0": cond.d0, "sqrt_lambda": cond.sqrt_lambda,
        },
    }
    verdicts = [
        Verdict("profile-satisfies-origin-window-conditions",
                cond.d4_radial and cond.d5_origin_window,
                f"rho(0) {_fmt(cond.rho_origin)} < sqrt(lambda) "
                f"{_fmt(cond.sqrt_lambda)} < rho_inf {_fmt(cond.rho_inf)}"),
        Verdict("full-space-minimum-below-radial-minimum", broke, detail),
        Verdict("third-solution-positive-energy",
                saddle.converged and saddle.energy > 0.0,
                f"J {_fmt(saddle.energy)}, residual "
                f"{_fmt(saddle.gradient_norm)}"),
    ]
    attachments = {
        "sweep": np.array([[row["eps"], row["theta"],
                            row["two_bump_estimate"]]
                           for row in sweep_rows]),
        "traces": {"radial_minimizer": theta_res,
                   "full_space_minimizer": best3,
                   "mountain_pass": saddle},
    }
    fields = {"radial_minimizer": theta_res.field,
              "full_space_minimizer": best3.field,
              "mountain_pass": saddle.field}
    return quantities, verdicts, attachments, fields


_SCENARIO_BODIES: Dict[str, Callable] = {
    "verify-lemmas": _scenario_verify_lemmas,
    "autonomous": _scenario_autonomous,
    "uniqueness-scan": _scenario_uniqueness_scan,
    "ground-state": _scenario_ground_state,
    "multibump": _scenario_multibump,
    "symmetry-breaking": _scenario_symmetry_breaking,
}


# ---------------------------------------------------------------------------
# Runner and plot emission
# ---------------------------------------------------------------------------

# plot-ready CSV projection of each scenario that has one:
# (attachment key, file name, CSV header)
_PLOT_TABLES = {
    "autonomous": ("path", "path_energies.csv", "tau,energy,is_max"),
    "multibump": ("ladder", "bump_count_vs_energy.csv", "n_bumps,energy"),
    "uniqueness-scan": ("start_norms", "start_norms.csv",
                        "start,h1_norm_autonomous,h1_norm_nonautonomous"),
    "symmetry-breaking": ("sweep", "eps_sweep.csv",
                          "eps,theta,two_bump_estimate"),
}


def run(cfg: ScenarioConfig) -> ExperimentReport:
    """Execute the scenario and write report, traces, fields, plot CSVs."""
    t0 = time.perf_counter()
    os.makedirs(cfg.out_dir, exist_ok=True)
    traces_dir = os.path.join(cfg.out_dir, "traces")
    fields_dir = os.path.join(cfg.out_dir, "fields")
    os.makedirs(traces_dir, exist_ok=True)
    os.makedirs(fields_dir, exist_ok=True)

    with warnings.catch_warnings():
        # descent iterates and trial fields legitimately brush the decay
        # guard at the domain edge
        warnings.simplefilter("ignore", RuntimeWarning)
        quantities, verdicts, attachments, fields = \
            _SCENARIO_BODIES[cfg.scenario](cfg)

    artifacts = ["report.json"]
    for name, result in sorted(attachments.get("traces", {}).items()):
        rel = os.path.join("traces", f"{name}.csv")
        slv.trace_to_csv(result, os.path.join(cfg.out_dir, rel))
        artifacts.append(rel)
    for name, fld in sorted(fields.items()):
        if isinstance(fld, rad.RadialField):
            rel = os.path.join("fields", f"{name}.csv")
            fld.to_csv(os.path.join(cfg.out_dir, rel))
        else:
            rel = os.path.join("fields", f"{name}.bin")
            fld.to_bin(os.path.join(cfg.out_dir, rel))
            rel_slice = os.path.join("fields", f"{name}_slice.csv")
            fld.slice_csv(os.path.join(cfg.out_dir, rel_slice))
            artifacts.append(rel_slice)
        artifacts.append(rel)
    if cfg.scenario in _PLOT_TABLES:
        artifacts.append(_PLOT_TABLES[cfg.scenario][1])

    report = ExperimentReport(
        scenario=cfg.scenario,
        inputs=cfg.inputs_echo,
        quantities=quantities,
        verdicts=verdicts,
        runtime_seconds=time.perf_counter() - t0,
        artifacts=sorted(artifacts),
        attachments=attachments)

    emit_plot_data(report, cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    # runtime lives in a sidecar so the report is reproducible bytewise
    with open(os.path.join(cfg.out_dir, "meta.json"), "w") as fh:
        json.dump({"runtime_seconds": report.runtime_seconds}, fh)
        fh.write("\n")
    return report


def emit_plot_data(report: ExperimentReport, out_dir: str) -> List[str]:
    """Write plot-ready CSV projections of a report; deterministic bytes."""
    table = _PLOT_TABLES.get(report.scenario)
    if table is None or table[0] not in report.attachments:
        return []
    key, name, header = table
    path = os.path.join(out_dir, name)
    np.savetxt(path, np.asarray(report.attachments[key], dtype=float),
               delimiter=",", fmt="%.17g", header=header, comments="")
    return [path]


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _fail(exc: BaseException, code: int) -> int:
    """One JSON error line on stderr; returns the exit code."""
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spvlab",
        description="Variational experiments for the nonlocal "
                    "Schroedinger-Poisson energy functional.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="JSON config document")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="output directory")
        sp.add_argument("--seed", type=int, default=None, metavar="N")
        sp.add_argument("--grid-scale", choices=sorted(GRID_SCALES),
                        default="desk")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.scenario, config_path=args.config,
                          out_dir=args.out, seed=args.seed,
                          grid_scale=args.grid_scale)
        report = run(cfg)
    except (ConfigError, ModelError, slv.SolverError,
            rad.DiscretizationError, OSError, ValueError) as exc:
        return _fail(exc, 2)
    except MemoryError as exc:
        # most often the doubled cube of field3d.poisson_freespace
        return _fail(exc, 3)

    for v in report.verdicts:
        print(f"[{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.detail}")
    print(f"report: {os.path.join(cfg.out_dir, 'report.json')}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
