"""spvlab benchmark: timed workloads, reference checks and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload radial-suite --seed 1 --seconds 30 --trace 0

Each repetition is one fresh single-threaded ``worker.py`` process, and
only one runs at a time.  The run repeats the workload at least
``MIN_ROUNDS`` times and until ``--seconds`` would be exceeded.  With
``--trace 1`` it alternates untraced and traced repetitions, at least
once each, and reports the per-layer metrics from the traced ones.
Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``, whose metric names and units are those of
``BENCHMARK.json``.

``--smoke`` uses tiny grids (radial n=512, cube n=16) and the smoke
entries of the reference.  ``--make-reference`` runs one repetition at
each of five consecutive seeds from ``--seed`` and stores their outcomes,
with tolerances, in ``reference.json`` as the reference for that workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("radial-suite", "cube-descent", "cube-refine")

# every run must finish well inside 180 s; stop starting repetitions when
# the next one would probably end after this
RUN_BUDGET_S = 160.0
# untraced runs take wall_s and setup_s as medians over at least this
# many repetitions
MIN_ROUNDS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# reference tolerances: radial energies are converged to a gradient norm
# of 1e-6 (saddles 1e-5); cube energies also carry the radial minimizer's
# error through the embedding
REL_TOL = {"symmetry-breaking": 1e-5}
DEFAULT_REL_TOL = 1e-6
# alpha_cube ranks descents stopped at their iteration cap, so it is an
# upper bound on the cube minimum: only an increase is a failure
UPPER_ONLY = {"symmetry-breaking/alpha_cube"}
# stored error bounds are this multiple of the largest error over
# REFERENCE_SEEDS consecutive seeds, which covers the seed-jittered inputs
ERROR_BOUND_FACTOR = 2.0
REFERENCE_SEEDS = 5


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def machine_record() -> dict:
    cpu, llc = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for idx in sorted(os.listdir(cache)):
            if not idx.startswith("index"):
                continue
            with open(os.path.join(cache, idx, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(cache, idx, "size")) as fh:
                levels.append((level, fh.read().strip()))
        llc = max(levels)[1]
    except (OSError, ValueError):
        pass
    import numpy
    import scipy
    import scipy.fft
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": "scipy.fft (pocketfft)",
        "fft_workers": scipy.fft.get_workers(),
        # as inherited; every worker process runs with each of THREAD_VARS = 1
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREAD" in k or k in THREAD_VARS},
        "worker_thread_env": {v: "1" for v in THREAD_VARS},
    }


def llc_mib(text: str) -> float:
    try:
        if text.endswith("K"):
            return float(text[:-1]) / 1024.0
        if text.endswith("M"):
            return float(text[:-1])
    except ValueError:
        pass
    return float("nan")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, root, workload, seed, smoke, started):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = started
        self.base = os.path.join(root, ".perfbench_runs",
                                 f"{workload}-{seed}-{os.getpid()}")
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.join(root, "src"), self.env.get("PYTHONPATH")]))
        for var in THREAD_VARS:
            self.env[var] = "1"

    def spawn(self, mode: str) -> dict:
        self.count += 1
        out = os.path.join(self.base, f"{self.count:03d}-{mode}")
        os.makedirs(out)
        timeout = RUN_BUDGET_S + 10.0 - (now() - self.started)
        spawned = now()
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--out", out,
               "--spawned-at", repr(spawned), "--mode", mode]
        if self.smoke:
            cmd.append("--smoke")
        rep = {"mode": mode, "dir": out}
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=max(timeout, 1.0))
            with open(os.path.join(out, "result.json")) as fh:
                rep.update(json.load(fh))
            if proc.returncode != 0 and not rep.get("error"):
                rep["error"] = proc.stderr.decode(errors="replace")[-2000:]
        except subprocess.TimeoutExpired:
            rep["error"] = f"repetition exceeded {timeout:.0f} s"
        except (OSError, ValueError) as exc:
            rep["error"] = f"no result from worker: {exc}"
        return rep

    def cleanup(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


# ---------------------------------------------------------------------------
# Reference checks
# ---------------------------------------------------------------------------

def make_checks(runs: list) -> list:
    """Reference checks from the outcomes of runs at several seeds."""
    checks = []
    for key, value in sorted(runs[0].items()):
        if key.endswith("/sb_margin_ratio"):
            continue  # only reported
        if key.endswith("/report_sha256"):
            # a report that does not depend on the seed is stored; one
            # that does is compared across the repetitions of a run
            if all(run[key] == value for run in runs):
                checks.append({"key": key, "sha256": value})
        elif isinstance(value, bool):
            checks.append({"key": key, "passed": value})
        elif key.endswith("_rel_err"):
            worst = max(run[key] for run in runs)
            checks.append({"key": key, "max": ERROR_BOUND_FACTOR * worst})
        else:
            scen = key.split("/", 1)[0]
            check = {"key": key, "value": value,
                     "rel_tol": REL_TOL.get(scen, DEFAULT_REL_TOL)}
            if key in UPPER_ONLY:
                check["side"] = "upper"
            checks.append(check)
    return checks


def check_one(check: dict, outcomes: dict) -> bool:
    key = check["key"]
    if key not in outcomes:
        return False
    got = outcomes[key]
    if "sha256" in check:
        return got == check["sha256"]
    if "passed" in check:
        # a verdict that failed in the reference (the inconclusive
        # symmetry-breaking verdict at n=32) may pass; one that passed
        # must keep passing
        return got is True if check["passed"] else isinstance(got, bool)
    if "max" in check:
        return got <= check["max"]
    tol = check["rel_tol"] * abs(check["value"])
    if check.get("side") == "upper":
        return got <= check["value"] + tol
    return abs(got - check["value"]) <= tol


def run_checks(reps: list, checks: list) -> tuple:
    """Return (attempted, failed, messages) over all timed repetitions."""
    attempted = failed = 0
    messages = []
    stored = {check["key"] for check in checks}
    first_hashes = None
    for i, rep in enumerate(reps):
        if rep.get("error"):
            attempted += max(len(checks), 1)
            failed += max(len(checks), 1)
            messages.append(f"rep {i + 1} ({rep['mode']}) raised: "
                            + rep["error"].strip().splitlines()[-1])
            continue
        out = rep["outcomes"]
        for check in checks:
            attempted += 1
            if not check_one(check, out):
                failed += 1
                messages.append(f"rep {i + 1}: {check['key']} = "
                                f"{out.get(check['key'], 'missing')!r} "
                                f"fails {check}")
        for key, value in out.items():
            if key.endswith("/error"):
                messages.append(f"rep {i + 1}: {key}: {value}")
        hashes = {k: v for k, v in out.items()
                  if k.endswith("/report_sha256") and k not in stored}
        if first_hashes is None:
            first_hashes = hashes
            continue
        # same seed, same report.json bytes, traced or not
        for key, value in first_hashes.items():
            attempted += 1
            if hashes.get(key) != value:
                failed += 1
                messages.append(f"rep {i + 1} ({rep['mode']}): {key} "
                                "differs from rep 1")
    return attempted, failed, messages


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def percentile(values, q):
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def kernel_table(workload: str, smoke: bool, llc: float) -> list:
    from tracing import poisson_kernel_figures
    import worker
    if workload == "radial-suite":
        return []
    if smoke:
        sizes = worker.SMOKE_CUBE_SIZES
    elif workload == "cube-refine":
        sizes = worker.CUBE_REFINE_N
    else:
        sizes = worker.CUBE_DESCENT_SIZES
    lines = ["kernel figures per Poisson solve (computed from array sizes):"]
    for n in sizes:
        f = poisson_kernel_figures(n)
        lines.append(
            f"  n={n:4d}  (2n)^3={f['doubled_points']:>9d}  one doubled "
            f"array {f['doubled_array_mib']:7.1f} MiB vs LLC {llc:.0f} MiB  "
            f"ops {f['ops']:.3e} flop  bytes {f['bytes']:.3e} B  "
            f"ops/byte {f['ops'] / f['bytes']:.2f}")
    return lines


def load_spec(root: str) -> dict:
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def main(argv=None) -> int:
    started = now()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spvlab", "__init__.py")):
        fail("no spvlab sources under ./src; run from the root of a checkout")
    spec = load_spec(root)
    sys.path.insert(0, HERE)
    machine = machine_record()
    runner = Runner(root, args.workload, args.seed, args.smoke, started)
    ref_key = f"{args.workload}/smoke" if args.smoke else args.workload
    try:
        if args.make_reference:
            runs = []
            for seed in range(args.seed, args.seed + REFERENCE_SEEDS):
                runner.seed = seed
                runner.started = now()
                rep = runner.spawn("run")
                errors = [v for k, v in rep.get("outcomes", {}).items()
                          if k.endswith("/error")]
                if rep.get("error") or errors:
                    fail(f"reference run at seed {seed} failed:\n"
                         f"{rep.get('error') or errors}")
                runs.append(rep["outcomes"])
            try:
                with open(REFERENCE) as fh:
                    refs = json.load(fh)
            except FileNotFoundError:
                refs = {}
            checks = make_checks(runs)
            for seed, out in enumerate(runs, start=args.seed):
                bad = [c["key"] for c in checks if not check_one(c, out)]
                if bad:
                    fail(f"seed {seed} disagrees with seed {args.seed} on "
                         + ", ".join(bad))
            refs[ref_key] = {"seeds": [args.seed,
                                       args.seed + REFERENCE_SEEDS - 1],
                             "checks": checks}
            with open(REFERENCE, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"stored {len(refs[ref_key]['checks'])} checks for "
                  f"{ref_key} in {REFERENCE}")
            return 0

        try:
            with open(REFERENCE) as fh:
                checks = json.load(fh)[ref_key]["checks"]
        except (OSError, ValueError, KeyError) as exc:
            fail(f"no reference for {ref_key} in {REFERENCE}: {exc}")

        modes = ("run", "trace") if args.trace else ("run",)
        reps = []
        rounds = 0
        t0 = now()
        while True:
            for mode in modes:
                reps.append(runner.spawn(mode))
            rounds += 1
            if any(r.get("error") for r in reps):
                break
            elapsed = now() - t0
            per_round = elapsed / rounds
            if now() - started + per_round > RUN_BUDGET_S:
                break
            if (rounds >= (1 if args.trace else MIN_ROUNDS)
                    and elapsed + per_round > args.seconds):
                break
        if args.trace:
            traced = [r for r in reps if r["mode"] == "trace"
                      and not r.get("error")]
            if traced:
                keep = os.path.join(root, ".perfbench_runs",
                                    f"trace-{args.workload}.npz")
                src = os.path.join(traced[-1]["dir"], "trace.npz")
                if os.path.exists(src):
                    shutil.move(src, keep)
    finally:
        runner.cleanup()

    attempted, failed, messages = run_checks(reps, checks)
    ok_reps = [r for r in reps if not r.get("error")]
    untraced = [r for r in ok_reps if r["mode"] == "run"]
    traced = [r for r in ok_reps if r["mode"] == "trace"]
    walls = [r["wall_s"] for r in untraced]
    setups = [r["setup_s"] for r in untraced]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}"
          + ("  smoke" if args.smoke else ""))
    print("machine " + json.dumps(machine, sort_keys=True))
    for line in kernel_table(args.workload, args.smoke,
                             llc_mib(machine["llc"])):
        print(line)
    for msg in messages:
        print("check: " + msg)
    print(f"check_fail_ratio {failed}/{attempted} = "
          f"{failed / max(attempted, 1):.4g} ratio")

    metrics = {}
    if walls:
        rss = [r["peak_rss_mib"] for r in untraced]
        metrics["wall_s"] = statistics.median(walls)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mib"] = statistics.median(rss)
        print(f"wall_s median {metrics['wall_s']:.4f} s  "
              f"p90 {percentile(walls, 0.9):.4f} s  n {len(walls)}")
        print(f"setup_s median {metrics['setup_s']:.4f} s  "
              f"n {len(setups)}")
        print(f"peak_rss_mib median {metrics['peak_rss_mib']:.1f} MiB  "
              f"max {max(rss):.1f} MiB")
        first = untraced[0]["outcomes"]
        if "symmetry-breaking/sb_margin_ratio" in first:
            print("sb_margin_ratio "
                  f"{first['symmetry-breaking/sb_margin_ratio']:.6g} ratio "
                  "(margin / (10 x discretization error), higher is better)")
        top = max((k for k in first if k.endswith("/poisson_rel_err")),
                  key=lambda k: int(k[1:].split("/")[0]), default=None)
        if top is not None:
            print(f"poisson_rel_err {first[top]:.6g} ratio "
                  f"(max relative error at {top.split('/')[0]}, lower is "
                  "better)")
    if args.trace and traced and walls:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(
                r["layers"][name] for r in traced)
        layers["tracing_overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(walls))
        metrics.update(layers)
        print(f"traced repetitions {len(traced)}; spans written to "
              f".perfbench_runs/trace-{args.workload}.npz")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("perfbench: no value for " + ", ".join(missing),
              file=sys.stderr)
        failed += 1
        attempted += 1
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:<40s} {metrics[m['name']]:>16.6g} "
                  f"{m['unit']}")
    print(json.dumps(result))
    return 0


def _terminated(signum, frame):
    # unwinding through subprocess.run kills and reaps the running worker,
    # and main's finally removes the repetition outputs
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    sys.exit(main())
