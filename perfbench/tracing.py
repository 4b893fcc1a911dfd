"""Out-of-process tracing of spvlab's public functions.

The tracer wraps every public module-level function of the six spvlab
modules, plus ``scipy.fft.rfftn``/``irfftn``, and rebinds each wrapper at
every name a caller looks up: the defining module, every spvlab module
that imported the function by name (``solvers.eval_F``,
``landscape.poisson_radial``, ...), the package namespace, and
``cli._SCENARIO_BODIES``.  Callers that go through a module attribute
(``f3d.poisson_freespace``, ``rad.poisson_radial``, ``sfft.rfftn``) see
the wrapper because the attribute itself is rebound.  The package is not
modified on disk.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written once, with each span's self time, by ``Tracer.save``.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from array import array

import numpy as np

MODULES = ("models", "radial", "field3d", "solvers", "landscape", "cli")

SCENARIOS = ("verify-lemmas", "autonomous", "uniqueness-scan",
             "ground-state", "multibump", "symmetry-breaking")


def _fft_points(args, kwargs, out):
    # points of the real-space array: the input of rfftn, the output of irfftn
    return float(np.size(args[0]) if out.dtype.kind == "c" else np.size(out))


def _poisson_n(args, kwargs, out):
    return float(args[0].grid.n)


def _solve_stats(args, kwargs, out):
    return (float(out.iterations), float(out.converged))


# span name -> function(args, kwargs, result) giving the span's payload
PAYLOADS = {
    "fft.rfftn": _fft_points,
    "fft.irfftn": _fft_points,
    "field3d.poisson_freespace": _poisson_n,
    "solvers.minimize": _solve_stats,
    "solvers.mountain_pass": _solve_stats,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.payload: dict = {}
        self._stack = [-1]
        self._restore: list = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        payload = PAYLOADS.get(name)
        clock = time.perf_counter
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end, store = self.start, self.end, self.payload

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if payload is not None:
                store[idx] = payload(args, kwargs, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        import scipy.fft

        import spvlab
        mods = [importlib.import_module(f"spvlab.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{name}",
                                                        obj))
        for name in ("rfftn", "irfftn"):
            obj = getattr(scipy.fft, name)
            wrappers[id(obj)] = (obj, self.wrap(f"fft.{name}", obj))
        for ns in [vars(m) for m in mods] + [vars(spvlab), vars(scipy.fft)]:
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((ns, key, value))
                    ns[key] = hit[1]
        bodies = importlib.import_module("spvlab.cli")._SCENARIO_BODIES
        for scen, body in list(bodies.items()):
            self._restore.append((bodies, scen, body))
            bodies[scen] = self.wrap(f"cli.scenario.{scen}", body)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._restore):
            ns[key] = value
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        name_of = np.array(self.name_of, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name_of, parent, dur, dur - child

    def save(self, path) -> None:
        """Write every span with its self time (one uncompressed .npz)."""
        name_of, parent, dur, self_s = self.arrays()
        np.savez(path, names=np.array(self.names), name_of=name_of,
                 parent=parent, start=np.array(self.start),
                 end=np.array(self.end), self_s=self_s)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _fft_ops(points: float) -> float:
    """Computed flops of one real transform of N points: 5/2 N log2 N."""
    return 2.5 * points * math.log2(points)


def poisson_kernel_figures(n: int) -> dict:
    """Computed figures of one free-space Poisson solve on an n^3 cube.

    N = (2n)^3 real points on the doubled grid, half-spectrum of
    (2n)^2 (n+1) complex bins.  Bytes count one pass over each array the
    solve reads or writes: zeroing the pad, copying the source in, the
    forward transform, the kernel multiply (two complex reads, one
    write), the inverse transform and the n^3 crop.  Transform-internal
    passes and cache misses are not counted.
    """
    N = (2 * n) ** 3
    real_b = 8.0 * N
    cplx_b = 16.0 * (2 * n) ** 2 * (n + 1)
    cube_b = 8.0 * n ** 3
    bytes_moved = (real_b + 2 * cube_b + (real_b + cplx_b)
                   + 3 * cplx_b + (cplx_b + real_b) + 2 * cube_b)
    ops = 2 * _fft_ops(N) + 6.0 * (2 * n) ** 2 * (n + 1)
    return {"n": n, "doubled_points": N, "doubled_array_mib": real_b / 2 ** 20,
            "ops": ops, "bytes": bytes_moved}


def _sum(values) -> float:
    return float(np.sum(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, write_bytes: int) -> dict:
    """Aggregate spans into the per-layer metrics of BENCHMARK.json."""
    name_of, parent, dur, self_s = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(*names):
        mask = np.zeros(len(dur), dtype=bool)
        for name in names:
            if name in ids:
                mask |= name_of == ids[name]
        return mask

    out = {}

    def count_and_self(key, *names):
        m = sel(*names)
        out[f"{key}.calls"] = int(np.count_nonzero(m))
        out[f"{key}.self_s"] = _sum(self_s[m])
        return m

    # field3d
    pm = count_and_self("field3d.poisson", "field3d.poisson_freespace")
    out["field3d.poisson.total_s"] = _sum(dur[pm])
    first, warm, ops, nbytes = [], [], 0.0, 0.0
    seen = set()
    for idx in np.flatnonzero(pm):
        n = int(tracer.payload.get(int(idx), 0.0))
        if n:
            fig = poisson_kernel_figures(n)
            ops += fig["ops"]
            nbytes += fig["bytes"]
        (warm if n in seen else first).append(dur[idx])
        seen.add(n)
    out["field3d.poisson.first_call_s"] = _sum(first)
    out["field3d.poisson.warm_ms"] = (1e3 * statistics.median(warm)
                                      if warm else 0.0)
    out["field3d.poisson.computed_ops"] = ops
    out["field3d.poisson.computed_bytes"] = nbytes
    out["field3d.poisson.ops_per_byte"] = ops / nbytes if nbytes else 0.0
    count_and_self("field3d.energy", "field3d.energy_3d")
    count_and_self("field3d.gradient", "field3d.sobolev_gradient_3d")
    count_and_self("field3d.h1", "field3d.h1_norm_sq_3d", "field3d.h1_inner_3d")
    fm = count_and_self("fft", "fft.rfftn", "fft.irfftn")
    out["fft.points"] = _sum([tracer.payload.get(int(i), 0.0)
                              for i in np.flatnonzero(fm)])

    # radial
    rpm = count_and_self("radial.poisson", "radial.poisson_radial")
    count_and_self("radial.energy", "radial.energy_radial")

    # solvers
    mm = count_and_self("solvers.minimize", "solvers.minimize")
    out["solvers.minimize.total_s"] = _sum(dur[mm])
    stats = [tracer.payload[int(i)] for i in np.flatnonzero(mm)
             if int(i) in tracer.payload]
    iters = sum(s[0] for s in stats)
    out["solvers.minimize.iterations"] = int(iters)
    out["solvers.minimize.converged_ratio"] = (
        sum(s[1] for s in stats) / len(stats) if stats else 0.0)
    # Poisson solves whose span lies inside a minimize span, per accepted
    # iteration: Armijo trials, polish and classification overhead.  A
    # parent span always starts before its children, so one forward pass
    # over the spans settles every ancestor chain.
    in_min = mm.tolist()
    inside = [False] * len(in_min)
    for idx, p in enumerate(parent.tolist()):
        if p >= 0 and (in_min[p] or inside[p]):
            inside[idx] = True
    inside = np.array(inside, dtype=bool)
    solves = int(np.count_nonzero(inside & (pm | rpm)))
    out["solvers.poisson_per_iteration"] = solves / iters if iters else 0.0
    mp = count_and_self("solvers.mountain_pass", "solvers.mountain_pass")
    out["solvers.mountain_pass.iterations"] = int(sum(
        tracer.payload[int(i)][0] for i in np.flatnonzero(mp)
        if int(i) in tracer.payload))
    out["solvers.multistart.self_s"] = _sum(
        self_s[sel("solvers.multistart_minimize")])

    # landscape
    lm = count_and_self("landscape.lambda_bounds",
                        "landscape.estimate_lambda_bounds")
    out["landscape.lambda_bounds.total_s"] = _sum(dur[lm])
    out["landscape.ratio_evals"] = int(np.count_nonzero(
        sel("landscape.coulomb_self_energy")))
    out["landscape.multibump.self_s"] = _sum(self_s[sel(
        "landscape.multibump_sweep", "landscape.multibump_energy")])

    # models
    out["models.eval.calls"] = int(np.count_nonzero(
        sel("models.eval_F", "models.eval_f")))
    out["models.coercivity_floor.self_s"] = _sum(
        self_s[sel("models.coercivity_floor")])
    out["models.threshold.self_s"] = _sum(
        self_s[sel("models.critical_charge_threshold")])

    # cli: scenario bodies, and the rest of cli.run (files and plots)
    for scen in SCENARIOS:
        out[f"cli.scenario.{scen}.s"] = _sum(dur[sel(f"cli.scenario.{scen}")])
    runs = np.flatnonzero(sel("cli.run"))
    bodies = sel(*[f"cli.scenario.{s}" for s in SCENARIOS])
    write_s = 0.0
    for idx in runs:
        write_s += dur[idx] - _sum(dur[bodies & (parent == idx)])
    out["cli.write.s"] = float(write_s)
    out["cli.write.bytes"] = int(write_bytes)
    return out
