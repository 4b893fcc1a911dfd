"""Named, reproducible experiment scenarios with a command-line front end.

Each scenario ties the library modules into one experiment per claim
family: threshold machinery checks, the two-solution coupling regime,
the uniqueness regime, non-autonomous ground states, the multibump
energy ladder, and radial symmetry breaking.  A scenario consumes a
JSON config (versioned schema; an entry the scenario does not read is
rejected), runs fully deterministically under a fixed seed, and writes a
machine-readable report plus solver traces, field snapshots, and
plot-ready CSVs.

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
from .models import (SQRT8, ChargeProfile, ModelError, NonlinearityModel,
                     bracket_stationary_point, coercivity_floor,
                     critical_charge_threshold, energy_density_bracket,
                     validate_conditions)

SCHEMA_VERSION = 1

# the optional config entries each scenario reads, by dotted name, with
# their types ([t]: a non-empty list of t), all positive; a config entry
# neither listed for its scenario nor in _READ_BY_ALL is rejected
_SCENARIO_ENTRIES: Dict[str, Dict[str, object]] = {
    "verify-lemmas": {"options.n_fields": int},
    "autonomous": {"lambda": float, "solver.max_iter": int,
                   "solver.n_starts": int},
    "uniqueness-scan": {"lambda": float, "solver.n_starts": int},
    "ground-state": {"lambda": float, "solver.max_iter": int,
                     "solver.n_starts": int},
    "multibump": {"lambda": float, "solver.max_iter": int,
                  "options.R0": float, "options.bump_counts": [int]},
    "symmetry-breaking": {"lambda": float, "cube_grid.L": float,
                          "cube_grid.n": int, "options.refine_n": int,
                          "solver.tol_grad_abs": float, "solver.n_starts": int,
                          "solver.max_iter": int, "options.bump_offset": float,
                          "options.eps_sweep": [float]},
}
SCENARIOS = tuple(_SCENARIO_ENTRIES)

# the config entries every scenario reads, with their types (None: used
# as written), and the sections that hold entries
_READ_BY_ALL: Dict[str, Optional[Callable]] = {
    "schema": None, "scenario": None, "seed": int, "out_dir": str,
    "radial_grid.r_max": float, "radial_grid.n": int, "model.kind": str,
    "model.q": float, "model.a_q": float, "model.a2": float, "model.p": float,
    "model.csv": str, "profile.kind": str, "profile.value": float,
    "profile.rho0": float, "profile.rho_inf": float, "profile.eps": float}
_SECTIONS = ("model", "profile", "radial_grid", "cube_grid", "solver",
             "options")

# x-planes per slab of the refine resample
_RESAMPLE_SLAB = 8

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
    radial_grid: rad.RadialGrid
    cube_grid: f3d.Grid3D
    refine_grid: f3d.Grid3D  # symmetry-breaking's error-bar cube
    solver: Dict[str, float]
    options: Dict[str, object]
    seed: int
    out_dir: str
    inputs_echo: Dict[str, object] = field(repr=False, default_factory=dict)


def _required(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"missing key {key} in {where}")
    return doc[key]


def _number(value, name: str, convert: Callable, positive: bool):
    """``convert(value)``, int or float, for the config entry ``name``;
    a value that is not a finite number, not integral where ``convert``
    is int, or not positive where ``positive`` is set raises ConfigError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = convert(value)
        except (ValueError, OverflowError):
            pass
        else:
            # int() raises on NaN and inf but truncates 600.9 to 600
            if (math.isfinite(number) if convert is float
                    else number == value):
                if positive and number <= 0:
                    raise ConfigError(f"{name} must be positive, "
                                      f"got {json.dumps(value)}")
                return number
    what = "an integer" if convert is int else "a finite number"
    raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")


def _reject_unread(reader: str, names) -> None:
    """Reject the config entries ``names``, which ``reader`` does not read."""
    if names:
        raise ConfigError(f"{reader} does not read config entries: "
                          f"{', '.join(sorted(names))}")


def _entries(doc: dict, scenario: str) -> Dict[str, dict]:
    """The entries of ``doc`` by section ("" for the top level), each
    converted to its type (a null entry or section counts as absent); an
    entry the scenario does not read raises ConfigError."""
    types = {**_READ_BY_ALL, **_SCENARIO_ENTRIES[scenario]}
    given = {k: v for k, v in doc.items() if k not in _SECTIONS}
    for key in _SECTIONS:
        sec = {} if doc.get(key) is None else doc[key]
        if not isinstance(sec, dict):
            raise ConfigError(f"config section {key} must be a JSON object")
        given.update((f"{key}.{k}", v) for k, v in sec.items())
    _reject_unread(f"scenario {scenario}", set(given) - set(types))
    out = {section: {} for section in ("",) + _SECTIONS}
    for name, value in given.items():
        if value is None:
            continue
        kind, positive = types[name], name in _SCENARIO_ENTRIES[scenario]
        if isinstance(kind, list):
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{name} must be a non-empty list")
            value = [_number(v, name, kind[0], positive) for v in value]
        elif kind is str:
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, "
                                  f"got {json.dumps(value)}")
        elif kind is not None:
            value = _number(value, name, kind, positive)
        section, _, key = name.rpartition(".")
        out[section][key] = value
    return out


# the model section's defaults, which a config without one echoes with p
_DEFAULT_MODEL = {"kind": "pure-power", "q": 2.5, "a_q": 1.0}
# each model kind's entries besides p, and its constructor from them
_MODEL_KINDS = {
    "pure-power": (("q", "a_q"), NonlinearityModel.pure_power),
    "asymptotically-linear": (("a2",),
                              NonlinearityModel.asymptotically_linear),
    "table": (("csv",), NonlinearityModel.from_csv)}


def _build_model(doc: dict) -> NonlinearityModel:
    kind = doc.get("kind", _DEFAULT_MODEL["kind"])
    if kind not in _MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    reads, build = _MODEL_KINDS[kind]
    _reject_unread(f"model kind {kind}", [f"model.{key}" for key in doc
                                          if key not in ("kind", "p", *reads)])
    full = {**_DEFAULT_MODEL, **doc}
    model = build(*(_required(full, key, "model") for key in reads))
    p = doc.get("p", model.q if 2.0 < model.q < 3.0 else 2.5)
    return model.with_constants(p)


# the entries that hold rho0 and rho_inf, per config profile kind
_PROFILE_LEVELS = {"constant": ("value", "value"),
                   "rational": ("rho0", "rho_inf")}


def _build_profile(doc: dict) -> ChargeProfile:
    levels = _PROFILE_LEVELS.get(doc.get("kind"))
    if levels is None:
        raise ConfigError(f"unknown profile kind {doc.get('kind')!r}")
    _reject_unread(f"profile kind {doc['kind']}",
                   [f"profile.{key}" for key in doc
                    if key not in ("kind", "eps", *levels)])
    return ChargeProfile(*(_required(doc, key, "profile") for key in levels),
                         eps=doc.get("eps", 1.0))


def _grid(name: str, grid_type: Callable, *args):
    """``grid_type(*args)``, whose DiscretizationError names ``name``."""
    try:
        return grid_type(*args)
    except rad.DiscretizationError as exc:
        raise rad.DiscretizationError(f"{name}: {exc}") from None


def _two_bump_taper_radius(grid3: f3d.Grid3D, offset: float) -> float:
    """The two-bump taper's outer radius, off the box's last two nodes."""
    return grid3.L - 2.0 * grid3.h - offset - 0.5


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

    entries = _entries(doc, scenario)
    rg, cg = entries["radial_grid"], entries["cube_grid"]
    options = entries["options"]
    sweep = options.get("eps_sweep", [])
    if any(b >= a for a, b in zip(sweep, sweep[1:])):
        raise ConfigError(
            "options.eps_sweep must be positive and strictly decreasing")
    counts = options.get("bump_counts", [])
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ConfigError("options.bump_counts must be strictly increasing")

    model = _build_model(entries["model"])
    profile = (None if doc.get("profile") is None
               else _build_profile(entries["profile"]))
    resolved_seed = seed if seed is not None else entries[""].get("seed", 0)
    if resolved_seed < 0:
        raise ConfigError(f"seed must be at least 0, got {resolved_seed}")
    resolved_out = out_dir or entries[""].get("out_dir") or os.path.join(
        "runs", scenario)
    scale = GRID_SCALES[grid_scale]
    # the non-radial minimizer splits into two separated bumps; at the
    # default coupling each bump spans a radius-12 ball, so this scenario
    # needs a box large enough to hold two of them side by side
    default_extent = 18.0 if scenario == "symmetry-breaking" else 12.0
    radial_grid = _grid("radial_grid", rad.RadialGrid,
                        rg.get("r_max", default_extent),
                        rg.get("n", scale["radial_n"]))
    # echoed by every report, as the default where the scenario has no cube
    cube_grid = _grid("cube_grid", f3d.Grid3D, cg.get("L", default_extent),
                      cg.get("n", scale["cube_n"]))
    if scenario == "multibump":
        # each bump count's geometry and the ball of the bump's descent
        options.setdefault("R0", 3.5)
        options.setdefault("bump_counts", [1, 2, 3, 4, 5])
        try:
            for count in options["bump_counts"]:
                lsc.MultibumpSpec(R0=options["R0"], N=count)
            rad.ball_nodes(radial_grid, options["R0"])
        except (ModelError, rad.DiscretizationError) as exc:
            raise ConfigError(f"options.R0: {exc}") from None
    if scenario == "symmetry-breaking":
        offset = options.setdefault("bump_offset", 7.0)
        if _two_bump_taper_radius(cube_grid, offset) <= 1.0:
            raise ConfigError(
                f"options.bump_offset must be below the cube's L - 2h - 1.5 "
                f"= {_fmt(cube_grid.L - 2.0 * cube_grid.h - 1.5)}, got "
                f"{_fmt(offset)}")

    return ScenarioConfig(
        scenario=scenario,
        model=model,
        profile=profile,
        lam=entries[""].get("lambda"),
        radial_grid=radial_grid,
        cube_grid=cube_grid,
        refine_grid=_grid("options.refine_n", f3d.Grid3D, cube_grid.L,
                          options.get("refine_n", cube_grid.n + 32)),
        solver=entries["solver"],
        options=options,
        seed=resolved_seed,
        out_dir=resolved_out,
        inputs_echo={
            "scenario": scenario,
            "model": doc.get("model") or {**_DEFAULT_MODEL, "p": model.p},
            "profile": doc.get("profile"),
            "lambda": doc.get("lambda"),
            "radial_grid": {"r_max": radial_grid.r_max, "n": radial_grid.n},
            "cube_grid": {"L": cube_grid.L, "n": cube_grid.n},
            "solver": doc.get("solver") or {},
            "options": doc.get("options") or {},
            "seed": resolved_seed,
            "grid_scale": grid_scale,
        })


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

    ``runtime_seconds`` is written to a sidecar (meta.json) so the main
    report stays byte-identical across runs with the same seed.
    """

    scenario: str
    inputs: Dict[str, object]
    quantities: Dict[str, object]
    verdicts: List[Verdict]
    runtime_seconds: float
    artifacts: List[str]

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


def _solve_detail(r: slv.SolveResult) -> str:
    """A verdict detail naming a solve result's energy and residual."""
    return f"J {_fmt(r.energy)}, residual {_fmt(r.gradient_norm)}"


def _solve_summary(r: slv.SolveResult, *extra: str) -> dict:
    """A solve result's energy, gradient norm and classification for a
    report, with the result's fields named in ``extra``."""
    return {"energy": r.energy, "gradient_norm": r.gradient_norm,
            "classification": r.classification,
            **{name: getattr(r, name) for name in extra}}


# ---------------------------------------------------------------------------
# Shared scenario plumbing
# ---------------------------------------------------------------------------

def _opts(cfg: ScenarioConfig, **overrides) -> slv.SolveOptions:
    kw = {"seed": cfg.seed}
    if "max_iter" in cfg.solver:
        kw["max_iter"] = cfg.solver["max_iter"]
    kw.update(overrides)
    return slv.SolveOptions(**kw)


def _resolve_lambda(cfg: ScenarioConfig, bound: Optional[float]) -> float:
    """The configured coupling, by default twice the certified threshold
    bound ``bound`` (None when no bound was certified)."""
    if cfg.lam is not None:
        return cfg.lam
    if bound is None:
        raise ConfigError("no certified lower threshold bound; "
                          "set lambda explicitly in the config")
    return 2.0 * bound


def _starts(cfg: ScenarioConfig, default: int,
            *fixed: Optional[rad.RadialField]) -> List[rad.RadialField]:
    """A radial multistart's n starts, n = ``solver.n_starts``
    (``default`` when unset): the first n fixed ones that are not None,
    then random Gaussians to fill the count."""
    n = cfg.solver.get("n_starts", default)
    starts = [u for u in fixed if u is not None][:n]
    return starts + slv.radial_gaussian_starts(
        cfg.radial_grid, n - len(starts), seed=cfg.seed)


def _trilinear_resample(values: np.ndarray, grid_from: f3d.Grid3D,
                        grid_to: f3d.Grid3D) -> np.ndarray:
    """Trilinear interpolant of ``values`` at the nodes of ``grid_to``,
    zero outside ``grid_from``.

    The interpolant is evaluated on slabs of ``_RESAMPLE_SLAB`` x-planes,
    so the point arrays stay a small fraction of the output.  Each point's
    value is computed on its own, so the result is bit-identical to one
    evaluation at all points.
    """
    ax_from = grid_from.axis()
    interp = RegularGridInterpolator((ax_from, ax_from, ax_from), values,
                                     bounds_error=False, fill_value=0.0)
    ax_to = grid_to.axis()
    n = grid_to.n
    Y, Z = np.meshgrid(ax_to, ax_to, indexing="ij")
    out = np.empty((n, n, n))
    for i in range(0, n, _RESAMPLE_SLAB):
        xs = ax_to[i:i + _RESAMPLE_SLAB]
        pts = np.empty((len(xs), n, n, 3))
        pts[..., 0] = xs[:, None, None]
        pts[..., 1] = Y
        pts[..., 2] = Z
        out[i:i + len(xs)] = interp(pts)
    return out


# ---------------------------------------------------------------------------
# Scenario bodies: each returns (quantities, verdicts, traces, plot).  The
# solve results in traces are written with their fields; plot is the
# scenario's plot-ready CSV as (file name, header, rows), or None.
# ---------------------------------------------------------------------------

def _scenario_verify_lemmas(cfg: ScenarioConfig):
    model = cfg.model
    c0, p = model.C0, model.p
    d0 = critical_charge_threshold(c0, p)
    s0 = bracket_stationary_point(d0, c0, p)
    value_resid = abs(energy_density_bracket(d0, s0, c0, p))
    deriv_resid = abs(d0 / SQRT8 - c0 * (p - 2.0) / p * s0 ** (p - 3.0))

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

    grid = cfg.radial_grid
    n_fields = cfg.options.get("n_fields", 100)
    rng = np.random.default_rng(cfg.seed)
    unit_profile = ChargeProfile.constant(1.0)
    above = ChargeProfile.constant(1.1 * d0)
    interp_ok = 0
    positive_ok = 0
    for _ in range(n_fields):
        # a smooth decaying field, scaled by an amplitude in [0.1, 5]
        u = rad.RadialField(grid, np.abs(rad.random_bumps(grid, rng))
                            * rng.uniform(0.1, 5.0))
        _, _, holds = rad.strauss_check(u, unit_profile)
        interp_ok += int(holds)
        positive_ok += int(rad.energy_radial(u, above, model) > 0.0)

    floor_profile = cfg.profile or ChargeProfile(0.1, 2.0)
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
    return quantities, verdicts, {}, None


def _scenario_autonomous(cfg: ScenarioConfig):
    grid = cfg.radial_grid
    model = cfg.model
    bounds = lsc.estimate_lambda_bounds(model, grid)
    lam = _resolve_lambda(cfg, bounds.lambda0_lower)
    profile = cfg.profile or ChargeProfile.constant(math.sqrt(lam))

    best, results = slv.multistart_minimize(
        _starts(cfg, 8, bounds.witness_a0), profile, model,
        _opts(cfg, tol_grad_abs=1e-6))
    saddle = slv.mountain_pass(best.field, profile, model,
                               _opts(cfg, tol_grad_abs=1e-5))

    # energies along the broken path 0 -> saddle -> minimizer
    ws = rad.RadialDisc(grid, profile, model)
    taus = np.linspace(0.0, 1.0, 41)
    path_energies = []
    for tau in taus:
        if tau <= 0.5:
            vals = 2.0 * tau * saddle.field.values
        else:
            vals = ((2.0 - 2.0 * tau) * saddle.field.values
                    + (2.0 * tau - 1.0) * best.field.values)
        path_energies.append(ws.energy(vals)[0])
    max_node = int(np.argmax(path_energies))

    quantities = {
        "lambda": lam,
        "lambda0_lower": bounds.lambda0_lower,
        "lambda0_upper": bounds.lambda0_upper,
        "minimizer": _solve_summary(best, "nehari_residual", "iterations"),
        "mountain_pass": _solve_summary(saddle, "nehari_residual",
                                        "iterations"),
        "start_energies": [r.energy for r in results],
        "path_max_node": max_node,
    }
    verdicts = [
        Verdict("negative-energy-minimizer",
                best.converged and best.energy < 0.0
                and best.gradient_norm < 1e-6
                and best.classification == "minimizer",
                _solve_detail(best)),
        Verdict("positive-energy-saddle",
                saddle.converged and saddle.energy > 0.0
                and saddle.gradient_norm < 1e-5
                and saddle.classification == "mountain-pass",
                _solve_detail(saddle)),
        Verdict("critical-points-annihilate-derivative-along-themselves",
                abs(best.nehari_residual) < 1e-3
                and abs(saddle.nehari_residual) < 1e-3,
                f"minimizer {_fmt(best.nehari_residual)}, saddle "
                f"{_fmt(saddle.nehari_residual)}"),
        Verdict("two-distinct-solutions-ordered-by-energy",
                best.energy < 0.0 < saddle.energy,
                f"{_fmt(best.energy)} < 0 < {_fmt(saddle.energy)}"),
    ]
    path = np.column_stack([taus, path_energies,
                            (np.arange(len(taus)) == max_node).astype(float)])
    return (quantities, verdicts,
            {"minimizer": best, "mountain_pass": saddle},
            ("path_energies.csv", "tau,energy,is_max", path))


def _scenario_uniqueness_scan(cfg: ScenarioConfig):
    model = cfg.model
    bar = lsc.lambdabar0_upper_bound(model)
    lam = _resolve_lambda(cfg, bar)
    sqrt_bar = math.sqrt(bar)
    auto_profile = ChargeProfile.constant(math.sqrt(lam))
    nonauto = cfg.profile or ChargeProfile(2.0 * sqrt_bar, 4.0 * sqrt_bar)
    if nonauto.rho_min <= sqrt_bar:
        raise ConfigError(
            "non-autonomous profile must stay above the certified "
            "derivative threshold (rho_min > sqrt(lambdabar0_upper))")

    starts = _starts(cfg, 20)
    n_starts = len(starts)
    opts = _opts(cfg, tol_grad_abs=1e-8, max_iter=2000)

    def scan(profile):
        _, results = slv.multistart_minimize(starts, profile, model, opts)
        norms = [math.sqrt(rad.h1_norm_sq(r.field)) for r in results]
        zeros = sum(int(r.classification == "zero") for r in results)
        return zeros, norms

    zeros_auto, norms_auto = scan(auto_profile)
    zeros_non, norms_non = scan(nonauto)

    quantities = {
        "lambda": lam,
        "lambdabar0_upper": bar,
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
    norms = np.column_stack([np.arange(n_starts, dtype=float), norms_auto,
                             norms_non])
    return (quantities, verdicts, {},
            ("start_norms.csv",
             "start,h1_norm_autonomous,h1_norm_nonautonomous", norms))


def _scenario_ground_state(cfg: ScenarioConfig):
    grid = cfg.radial_grid
    model = cfg.model
    profile = cfg.profile or ChargeProfile(0.04, 2.0).scaled(1.0 / 32.0)
    lam_for_check = cfg.lam if cfg.lam is not None else 1.0
    cond = validate_conditions(profile, model, lam_for_check)
    floor = coercivity_floor(profile, model.C0, model.p)

    best, results = slv.multistart_minimize(
        _starts(cfg, 8, lsc.reference_start(grid)), profile, model,
        _opts(cfg, tol_grad_abs=1e-6))

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
        "ground_state": _solve_summary(best, "nehari_residual"),
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
                _solve_detail(best)),
        Verdict("critical-point-annihilates-derivative-along-itself",
                abs(best.nehari_residual) < 1e-3,
                _fmt(best.nehari_residual)),
        Verdict("coercivity-floor-respected-along-trajectories", floor_ok,
                f"worst slack {_fmt(worst_slack)}"),
    ]
    return quantities, verdicts, {"ground_state": best}, None


def _scenario_multibump(cfg: ScenarioConfig):
    R0 = cfg.options["R0"]
    counts = cfg.options["bump_counts"]
    grid = cfg.radial_grid
    model = cfg.model
    bounds = lsc.estimate_lambda_bounds(model, grid)
    lam = _resolve_lambda(cfg, bounds.lambda0_lower)
    profile = cfg.profile or ChargeProfile(0.04, 2.0).scaled(1.0 / 16.0)

    start = lsc.tapered_ball_start(grid, R0)
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
                bump.converged and bump.energy < 0.0, _solve_detail(bump)),
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
    ladder = np.column_stack([np.array(counts, dtype=float), energies])
    return (quantities, verdicts, {"bump": bump},
            ("bump_count_vs_energy.csv", "n_bumps,energy", ladder))


def _scenario_symmetry_breaking(cfg: ScenarioConfig):
    eps_sweep = cfg.options.get(
        "eps_sweep", [0.05, 0.025, 0.0125, 0.00625, 0.003125])
    offset = cfg.options["bump_offset"]
    grid3 = cfg.cube_grid
    reach = grid3.L - 2.0 * grid3.h
    r1 = _two_bump_taper_radius(grid3, offset)  # checked at load to exceed 1
    # the 3-D descents' options: the two-bump start is assembled from
    # converged radial pieces and already sits below the radial level,
    # and a modest number of 3-D relaxation steps keeps the scenario
    # inside its time budget
    opts3 = _opts(cfg, tol_grad=1e-3,
                  tol_grad_abs=cfg.solver.get("tol_grad_abs"),
                  max_iter=cfg.solver.get("max_iter", 120))

    grid = cfg.radial_grid
    model = cfg.model
    bounds = lsc.estimate_lambda_bounds(model, grid)
    lam = _resolve_lambda(cfg, bounds.lambda0_lower)
    sqrt_lam = math.sqrt(lam)
    profile = cfg.profile or ChargeProfile(0.9 * sqrt_lam, 2.0)
    cond = validate_conditions(profile, model, lam)

    # semi-analytic sweep: a single quick solve per eps is enough to rank
    # candidate eps values; the chosen eps, the first at which two bumps
    # beat theta by 5%, else the last, gets the full multistart below
    sweep = lsc.two_bump_sweep(grid, profile, model, eps_sweep, offset,
                               _opts(cfg, tol_grad_abs=1e-4))
    sweep_rows = [{"eps": e, "theta": theta, "two_bump_estimate": est}
                  for e, theta, _, est in sweep]
    eps, local = next(((e, bump) for e, theta, bump, est in sweep
                       if theta < 0.0 and est < theta - 0.05 * abs(theta)),
                      (eps_sweep[-1], None))
    prof_eps = profile.scaled(eps)
    theta_res, _ = slv.multistart_minimize(
        _starts(cfg, 6, lsc.reference_start(grid), bounds.witness_a0),
        prof_eps, model, _opts(cfg, tol_grad_abs=1e-6))

    # full 3-D run at the chosen eps: one centered start (the radial
    # minimizer) and one two-bump start
    # exponential tails overflow the box at the support tolerance;
    # taper them smoothly before embedding (the energy shift is far
    # below the discretization error and the descent relaxes it)
    centered = f3d.embed_radial(
        lsc.taper_to_support(theta_res.field, reach - 2.5, reach - 0.5),
        grid3)
    starts3 = [centered]
    if local is not None:
        bump = lsc.taper_to_support(local.field, max(r1 - 2.0, 1.0), r1)
        up = f3d.embed_radial(bump, grid3, center=(0.0, 0.0, offset))
        dn = f3d.embed_radial(bump, grid3, center=(0.0, 0.0, -offset))
        starts3.append(f3d.Field3D(grid3, up.values + dn.values))
    _, results3 = slv.multistart_minimize(starts3, prof_eps, model, opts3)
    # the iteration cap can stop a descent before the gradient
    # tolerance; the energy of any admissible field still bounds the
    # full-space minimum from above, so rank by energy alone here
    best3 = min(results3, key=lambda r: r.energy)
    # evaluate both candidates on the same 3-D discretization so the
    # comparison is free of radial-vs-cube quadrature bias
    theta_cube = f3d.energy_3d(centered, prof_eps, model)
    alpha_cube = best3.energy

    # discretization error: re-evaluate both fields on a refined cube
    alpha_ref = f3d.energy_3d(
        f3d.Field3D(cfg.refine_grid, _trilinear_resample(
            best3.field.values, grid3, cfg.refine_grid)), prof_eps, model)
    theta_ref = f3d.energy_3d(
        f3d.Field3D(cfg.refine_grid, _trilinear_resample(
            centered.values, grid3, cfg.refine_grid)), prof_eps, model)
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
        "mountain_pass": _solve_summary(saddle),
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
                _solve_detail(saddle)),
    ]
    sweep = [[row["eps"], row["theta"], row["two_bump_estimate"]]
             for row in sweep_rows]
    return (quantities, verdicts,
            {"radial_minimizer": theta_res, "full_space_minimizer": best3,
             "mountain_pass": saddle},
            ("eps_sweep.csv", "eps,theta,two_bump_estimate", sweep))


_SCENARIO_BODIES: Dict[str, Callable] = {
    "verify-lemmas": _scenario_verify_lemmas,
    "autonomous": _scenario_autonomous,
    "uniqueness-scan": _scenario_uniqueness_scan,
    "ground-state": _scenario_ground_state,
    "multibump": _scenario_multibump,
    "symmetry-breaking": _scenario_symmetry_breaking,
}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run(cfg: ScenarioConfig) -> ExperimentReport:
    """Execute the scenario and write report, traces, fields, plot CSVs."""
    t0 = time.perf_counter()
    for sub in ("traces", "fields"):
        os.makedirs(os.path.join(cfg.out_dir, sub), exist_ok=True)

    with warnings.catch_warnings():
        # descent iterates and trial fields legitimately brush the decay
        # guard at the domain edge
        warnings.simplefilter("ignore", rad.DecayWarning)
        quantities, verdicts, traces, plot = _SCENARIO_BODIES[cfg.scenario](cfg)

    artifacts = ["report.json"]
    for name, result in sorted(traces.items()):
        rel = os.path.join("traces", f"{name}.csv")
        slv.trace_to_csv(result, os.path.join(cfg.out_dir, rel))
        artifacts.append(rel)
        fld = result.field
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
    if plot is not None:
        name, header, rows = plot
        np.savetxt(os.path.join(cfg.out_dir, name),
                   np.asarray(rows, dtype=float),
                   delimiter=",", fmt="%.17g", header=header, comments="")
        artifacts.append(name)

    report = ExperimentReport(
        scenario=cfg.scenario,
        inputs=cfg.inputs_echo,
        quantities=quantities,
        verdicts=verdicts,
        runtime_seconds=time.perf_counter() - t0,
        artifacts=sorted(artifacts))
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    # runtime lives in a sidecar so the report is reproducible bytewise
    with open(os.path.join(cfg.out_dir, "meta.json"), "w") as fh:
        json.dump({"runtime_seconds": report.runtime_seconds}, fh)
        fh.write("\n")
    return report


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
    except ValueError as exc:
        return _fail(exc, 2)
    except MemoryError as exc:
        # most often the doubled cube of field3d.poisson_freespace
        return _fail(exc, 3)
    except slv.SolverError as exc:
        return _fail(exc, 4)
    except rad.DiscretizationError as exc:
        return _fail(exc, 5)
    except OSError as exc:
        return _fail(exc, 6)

    for v in report.verdicts:
        print(f"[{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.detail}")
    print(f"report: {os.path.join(cfg.out_dir, 'report.json')}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
