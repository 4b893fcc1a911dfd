"""One timed repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, so module caches
(``_KERNEL_CACHE``, the radial operator cache, imports) start cold, as
they do for a user of the ``spvlab`` command.  The script

1. imports spvlab and builds and validates the workload's configs and
   inputs (set-up, timed from the parent's spawn timestamp),
2. optionally installs the tracer,
3. runs the workload (timed), and
4. extracts the outcomes that ``run.py`` checks against the stored
   reference, then writes one JSON result file.

Usage (normally invoked by run.py):

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        --spawned-at T [--mode run|trace] [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
import warnings


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn timestamp and
    # this process's clock readings are comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# the solver scenarios run at this CLI seed whatever the benchmark seed:
# their multistart starting points come from the seed, which moves the
# iteration count, and so the time, by up to 30% from seed to seed
SOLVER_SEED = 0

RADIAL_SCENARIOS = ("verify-lemmas", "autonomous", "uniqueness-scan",
                    "ground-state", "multibump")

# dotted paths into report quantities that the reference stores
KEY_QUANTITIES = {
    "verify-lemmas": ("d0", "coercivity_floor"),
    "autonomous": ("lambda", "minimizer.energy", "mountain_pass.energy"),
    "uniqueness-scan": ("lambda",),
    "ground-state": ("ground_state.energy",),
    "multibump": ("single_bump_energy", "bump_energy_in_ball",
                  "excess_constant"),
    "symmetry-breaking": ("lambda", "theta_radial_grid", "theta_cube",
                          "alpha_cube", "mountain_pass.energy"),
}

CUBE_L = 18.0
# symmetry-breaking re-evaluates its two candidates on a cube of n + 32
CUBE_DESCENT_SIZES = (32, 64)
CUBE_REFINE_N = (64, 96, 128, 160)
SMOKE_RADIAL_N = 512
# both cube workloads in smoke mode; cube-descent refines on the second
SMOKE_CUBE_SIZES = (16, 24)


# ---------------------------------------------------------------------------
# CLI-scenario workloads (radial-suite, cube-descent)
# ---------------------------------------------------------------------------

class ScenarioWorkload:
    """Runs spvlab scenarios through ``spvlab.cli.load_config``/``run``."""

    def __init__(self, scenarios, docs, seeds):
        self.scenarios = scenarios
        self.docs = docs
        self.seeds = seeds

    def setup(self, out_dir: str) -> None:
        from spvlab import cli
        self.out_dir = out_dir
        self.cfgs = {}
        for scen in self.scenarios:
            path = None
            if self.docs.get(scen):
                path = os.path.join(out_dir, f"{scen}.config.json")
                with open(path, "w") as fh:
                    json.dump({"schema": 1, **self.docs[scen]}, fh)
            self.cfgs[scen] = cli.load_config(
                scen, config_path=path, out_dir=os.path.join(out_dir, scen),
                seed=self.seeds[scen], grid_scale="desk")
        self.errors = {}

    def run(self) -> None:
        from spvlab import cli
        for scen in self.scenarios:
            # a scenario that raises is recorded and fails its checks
            try:
                cli.run(self.cfgs[scen])
            except Exception as exc:  # noqa: BLE001 - reported as failure
                self.errors[scen] = f"{type(exc).__name__}: {exc}"

    def outcomes(self) -> dict:
        out = {}
        for scen in self.scenarios:
            if scen in self.errors:
                out[f"{scen}/error"] = self.errors[scen]
                continue
            path = os.path.join(self.out_dir, scen, "report.json")
            with open(path, "rb") as fh:
                raw = fh.read()
            out[f"{scen}/report_sha256"] = hashlib.sha256(raw).hexdigest()
            doc = json.loads(raw)
            for v in doc["verdicts"]:
                out[f"{scen}/verdict/{v['name']}"] = bool(v["passed"])
            for key in KEY_QUANTITIES[scen]:
                value = doc["quantities"]
                for part in key.split("."):
                    value = value[part]
                out[f"{scen}/{key}"] = float(value)
            if scen == "symmetry-breaking":
                q = doc["quantities"]
                out[f"{scen}/sb_margin_ratio"] = (
                    q["margin"] / (10.0 * q["discretization_error"]))
        return out

    def written_bytes(self) -> int:
        """Bytes of the scenario outputs, without meta.json, whose
        wall-clock digits vary from run to run."""
        total = 0
        for scen in self.scenarios:
            for dirpath, _, files in os.walk(os.path.join(self.out_dir, scen)):
                total += sum(os.path.getsize(os.path.join(dirpath, f))
                             for f in files if f != "meta.json")
        return total


def radial_suite(seed: int, smoke: bool) -> ScenarioWorkload:
    doc = {"radial_grid": {"n": SMOKE_RADIAL_N}} if smoke else {}
    seeds = {s: SOLVER_SEED for s in RADIAL_SCENARIOS}
    # verify-lemmas checks a fixed-size family of random fields drawn from
    # the seed; its work does not depend on the draw
    seeds["verify-lemmas"] = seed
    return ScenarioWorkload(RADIAL_SCENARIOS,
                            {s: doc for s in RADIAL_SCENARIOS}, seeds)


def cube_descent(seed: int, smoke: bool) -> ScenarioWorkload:
    if smoke:
        doc = {"radial_grid": {"n": SMOKE_RADIAL_N},
               "cube_grid": {"L": CUBE_L, "n": SMOKE_CUBE_SIZES[0]},
               "options": {"refine_n": SMOKE_CUBE_SIZES[1]}}
    else:
        doc = {"cube_grid": {"L": CUBE_L, "n": CUBE_DESCENT_SIZES[0]}}
    return ScenarioWorkload(("symmetry-breaking",),
                            {"symmetry-breaking": doc},
                            {"symmetry-breaking": SOLVER_SEED})


# ---------------------------------------------------------------------------
# cube-refine: one Poisson solve, energy and gradient per fresh cube
# ---------------------------------------------------------------------------

class CubeRefine:
    """Seed-jittered Gaussian u = A exp(-|x - c|^2 / (2 s^2)) on cubes of
    growing n, checked against closed forms (constant charge rho = 1,
    pure power F(u) = u^q / q):

    - potential of u:  Q erf(r / (sqrt(2) s)) / (4 pi r),  Q = A (2 pi s^2)^1.5
    - ||u||_H1^2 = A^2 (pi s^2)^1.5 (1 + 3 / (2 s^2))
    - int rho phi u^2 = M^2 sqrt(2 / pi) / (4 pi s),  M = A^2 (pi s^2)^1.5
    - int F(u) = A^q (2 pi s^2 / q)^1.5 / q
    """

    Q_EXP = 2.5

    def __init__(self, seed: int, smoke: bool):
        import numpy as np
        rng = np.random.default_rng(seed)
        self.amp = float(rng.uniform(0.8, 1.2))
        self.sigma = float(rng.uniform(1.6, 2.0))
        self.center = rng.uniform(-0.5, 0.5, size=3)
        self.sizes = SMOKE_CUBE_SIZES if smoke else CUBE_REFINE_N

    def setup(self, out_dir: str) -> None:
        import numpy as np
        from spvlab import ChargeProfile, Field3D, Grid3D, NonlinearityModel
        self.profile = ChargeProfile.constant(1.0)
        self.model = NonlinearityModel.pure_power(self.Q_EXP)
        self.fields = []
        for n in self.sizes:
            grid = Grid3D(CUBE_L, n)
            ax = grid.axis()
            X, Y, Z = np.meshgrid(ax - self.center[0], ax - self.center[1],
                                  ax - self.center[2], indexing="ij",
                                  sparse=True)
            r2 = X ** 2 + Y ** 2 + Z ** 2
            self.fields.append(Field3D(
                grid, self.amp * np.exp(-r2 / (2.0 * self.sigma ** 2))))
        self.results = []

    def run(self) -> None:
        from spvlab import field3d as f3d
        for u in self.fields:
            phi = f3d.poisson_freespace(u)
            J = f3d.energy_3d(u, self.profile, self.model)
            g = f3d.sobolev_gradient_3d(u, self.profile, self.model)
            self.results.append((phi, J, g))

    def outcomes(self) -> dict:
        import numpy as np
        from scipy.special import erf
        from spvlab import field3d as f3d
        A, s, q = self.amp, self.sigma, self.Q_EXP
        l2 = A ** 2 * (math.pi * s ** 2) ** 1.5
        h1 = l2 * (1.0 + 1.5 / s ** 2)
        coul = l2 ** 2 * math.sqrt(2.0 / math.pi) / (4.0 * math.pi * s)
        fint = A ** q * (2.0 * math.pi * s ** 2 / q) ** 1.5
        energy = 0.5 * h1 + 0.25 * coul - fint / q
        deriv = h1 + coul - fint
        charge = A * (2.0 * math.pi * s ** 2) ** 1.5
        out = {}
        for u, (phi, J, g) in zip(self.fields, self.results):
            grid = u.grid
            ax = grid.axis()
            X, Y, Z = np.meshgrid(ax - self.center[0], ax - self.center[1],
                                  ax - self.center[2], indexing="ij",
                                  sparse=True)
            r = np.sqrt(X ** 2 + Y ** 2 + Z ** 2)
            with np.errstate(divide="ignore", invalid="ignore"):
                exact = np.where(
                    r > 0.0, erf(r / (math.sqrt(2.0) * s))
                    / np.where(r > 0.0, r, 1.0),
                    math.sqrt(2.0 / math.pi) / s) * charge / (4.0 * math.pi)
            key = f"n{grid.n}"
            out[f"{key}/poisson_rel_err"] = float(
                np.max(np.abs(phi.values - exact)) / np.max(exact))
            out[f"{key}/energy_rel_err"] = abs(J - energy) / abs(energy)
            # <g, u>_H1 = dJ(u)[u] exactly for the discrete energy
            out[f"{key}/gradient_rel_err"] = (
                abs(f3d.h1_inner_3d(g, u) - deriv) / abs(deriv))
            out[f"{key}/finite"] = bool(
                np.all(np.isfinite(phi.values)) and math.isfinite(J)
                and np.all(np.isfinite(g.values)))
        return out

    def written_bytes(self) -> int:
        return 0


WORKLOADS = {
    "radial-suite": radial_suite,
    "cube-descent": cube_descent,
    "cube-refine": CubeRefine,
}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "trace"),
                    default="run")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    result = {"setup_s": None, "wall_s": None, "peak_rss_mib": None,
              "outcomes": {}, "layers": None, "error": None}
    try:
        warnings.simplefilter("ignore", RuntimeWarning)
        import spvlab  # noqa: F401 - the import is part of set-up
        work = WORKLOADS[args.workload](args.seed, args.smoke)
        work.setup(args.out)
        result["setup_s"] = _now() - args.spawned_at
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        work.run()
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mib"] = _peak_rss_mib()
        if tracer is not None:
            tracer.uninstall()
            from tracing import layer_metrics
            result["layers"] = layer_metrics(tracer, work.written_bytes())
            tracer.save(os.path.join(args.out, "trace.npz"))
        result["outcomes"] = work.outcomes()
    except Exception:  # noqa: BLE001 - the parent reports it as a failure
        result["error"] = traceback.format_exc()
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
