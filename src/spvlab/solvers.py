"""Critical-point searches for the nonlocal energy functional.

Two strategies mirror the two existence mechanisms.  ``minimize`` runs
projected Sobolev-gradient descent (H^1-preconditioned steepest descent
with Armijo backtracking and clamping of negative values) toward a local
or global minimizer.  ``mountain_pass`` deforms a discretized path from
the zero field to a negative-energy minimizer, repeatedly relaxing the
highest-energy node and re-spreading the nodes by arclength, then
polishes the saddle candidate by descending the squared residual norm.

Both strategies work on either the radial or the full 3-D discretization
through its evaluation kernel (``radial.RadialDisc``, ``radial.BallDisc``
or ``field3d.CubeDisc``, chosen by field type) and certify convergence
with the H^1 norm of the preconditioned residual, a metric-independent
optimality measure.  ``multistart_minimize`` runs its descents in forked
worker processes on Linux, with results bit-identical to a serial loop.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import field3d as f3d
from . import radial as rad
from .models import ChargeProfile, NonlinearityModel

FieldLike = Union[rad.RadialField, f3d.Field3D]

# below this H^1 norm a converged iterate counts as the zero solution
ZERO_NORM_TOL = 1e-6
# Armijo sufficient-decrease constant, backtracking factor, first trial step
ARMIJO_C = 1e-4
BACKTRACK = 0.5
STEP0 = 1.0
# random curvature probes per classification, and the second derivative
# below which a probe counts as a descent direction
CLASSIFY_DIRECTIONS = 20
CURVATURE_TOL = -1e-4
# nodes of the discretized mountain-pass path, endpoints included
PATH_NODES = 21


class SolverError(RuntimeError):
    """Raised when a search's geometric preconditions fail."""


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the critical-point searches.

    ``tol_grad`` is relative to the initial gradient norm of a descent;
    a set ``tol_grad_abs`` replaces it with an absolute threshold, the
    only one the mountain-pass search reads (1e-5 when None).  Both are
    finite and positive.
    ``seed`` drives the curvature probes in the classification step.
    """

    tol_grad: float = 1e-6
    tol_grad_abs: Optional[float] = None
    max_iter: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol_grad < math.inf:
            raise ValueError("tol_grad must be finite and positive, "
                             f"got {self.tol_grad!r}")
        if (self.tol_grad_abs is not None
                and not 0.0 < self.tol_grad_abs < math.inf):
            raise ValueError("tol_grad_abs must be finite and positive, "
                             f"got {self.tol_grad_abs!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class TracePoint:
    """One accepted descent step: objective, residual, step, iterate size."""

    iteration: int
    energy: float
    grad_norm: float
    step: float
    h1_norm_sq: float


@dataclass(frozen=True)
class SolveResult:
    """A critical-point candidate with its certificates.

    ``gradient_norm`` is the H^1 norm of the Riesz gradient at ``field``;
    ``nehari_residual`` is the derivative of the energy along the iterate
    itself, relative to the squared H^1 norm; ``classification`` is one of
    ``zero | minimizer | mountain-pass | non-converged``; ``converged``
    tells whether the gradient norm reached the tolerance; ``trace``
    holds the accepted steps.
    """

    field: FieldLike
    energy: float
    gradient_norm: float
    nehari_residual: float
    iterations: int
    classification: str
    converged: bool
    trace: List[TracePoint]


def trace_to_csv(result: SolveResult, path) -> None:
    """Write the accepted-step trace as CSV for convergence plots."""
    rows = np.array([[p.iteration, p.energy, p.grad_norm, p.step, p.h1_norm_sq]
                     for p in result.trace], dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, 5)
    np.savetxt(path, rows, delimiter=",", fmt="%.17g",
               header="iteration,energy,grad_norm,step,h1_norm_sq", comments="")


# ---------------------------------------------------------------------------
# Geometry dispatch: the evaluation kernel of each discretization
# ---------------------------------------------------------------------------

def _kernel(proto: FieldLike, profile: ChargeProfile,
            model: NonlinearityModel,
            support_radius: Optional[float] = None) -> rad.Disc:
    if isinstance(proto, rad.RadialField):
        if support_radius is not None:
            return rad.BallDisc(proto.grid, profile, model, support_radius)
        return rad.RadialDisc(proto.grid, profile, model)
    if isinstance(proto, f3d.Field3D):
        if support_radius is not None:
            raise SolverError(
                "ball-constrained minimization is implemented for radial "
                "fields only")
        return f3d.CubeDisc(proto.grid, profile, model)
    raise SolverError(f"unsupported field type {type(proto).__name__}")


# ---------------------------------------------------------------------------
# Descent to minimizers
# ---------------------------------------------------------------------------

def minimize(init: FieldLike, profile: ChargeProfile,
             model: NonlinearityModel, opts: Optional[SolveOptions] = None,
             support_radius: Optional[float] = None) -> SolveResult:
    """Projected Sobolev-gradient descent with Armijo backtracking.

    Negative values are clamped to zero at every step (the nonlinearity
    vanishes on negatives and the sought solutions are nonnegative).
    The accepted-step energy sequence is strictly decreasing.  A run that
    exhausts ``max_iter`` is flagged non-converged, not raised; a run
    whose Armijo search stalls first is finished by the residual polish.

    ``support_radius`` restricts the search to fields vanishing outside
    the ball of that radius (a Dirichlet-in-a-ball minimization), which
    produces compactly supported minimizers for the bump constructions.
    """
    opts = opts or SolveOptions()
    ws = _kernel(init, profile, model, support_radius)
    u = ws.project(np.asarray(init.values, dtype=float))
    J, phi = ws.energy(u)
    g, gnorm = ws.gradient(u, phi)
    tol = (opts.tol_grad_abs if opts.tol_grad_abs is not None
           else opts.tol_grad * gnorm)
    trace = [TracePoint(0, J, gnorm, 0.0, ws.h1_norm_sq(u))]
    t = STEP0
    converged = gnorm <= tol
    it = 0
    while not converged and it < opts.max_iter:
        it += 1
        step = _armijo_step(ws, u, J, g, min(2.0 * t, 1e6))
        if step is None:
            break
        t, u, J, phi = step
        g, gnorm = ws.gradient(u, phi)
        trace.append(TracePoint(it, J, gnorm, t, ws.h1_norm_sq(u)))
        converged = gnorm <= tol
    if not converged and it < opts.max_iter:
        # Armijo progress stalled at the double-precision floor of J;
        # finish with the residual-norm polish, which works on ||G||^2
        # directly and is not limited by cancellations in the energy
        u, gnorm, J, phi = _polish_residual(ws, u, tol)
        converged = gnorm <= tol
    return _finish(ws, u, J, phi, gnorm, it, converged, opts, trace)


def _armijo_step(ws: rad.Disc, u: np.ndarray, J: float, d: np.ndarray,
                 t: float):
    """Projected Armijo backtracking from u along -d, first trial step t.

    Returns (t, u_new, J(u_new), phi(u_new)) for the first step whose
    projected point decreases J sufficiently; None when the step size
    underflows or the projection stops moving u.
    """
    while t > 1e-16:
        cand = ws.project(u - t * d)
        dn2 = ws.h1_norm_sq(cand - u)
        if dn2 <= 0.0:
            return None
        Jc, phic = ws.energy(cand)
        if Jc < J and Jc <= J - ARMIJO_C * dn2 / t:
            return t, cand, Jc, phic
        t *= BACKTRACK
    return None


def _finish(ws: rad.Disc, u, J, phi, gnorm, iterations, converged, opts,
            trace, probes=()) -> SolveResult:
    """Classify a search's last iterate and package it as a result.

    ``probes`` are fields whose directions join the random curvature
    probes, ahead of them.
    """
    unorm = math.sqrt(ws.h1_norm_sq(u))
    if unorm < ZERO_NORM_TOL:
        cls = "zero"
    elif not converged:
        cls = "non-converged"
    else:
        extra = [v / math.sqrt(ws.h1_norm_sq(v)) for v in probes]
        cls = _classify(ws, u, J, unorm, opts.seed, extra)
    return SolveResult(
        field=ws.wrap(u), energy=J, gradient_norm=gnorm,
        nehari_residual=ws.nehari_relative(u, phi), iterations=iterations,
        classification=cls, converged=converged, trace=trace)


def _classify(ws: rad.Disc, u: np.ndarray, J0: float, unorm: float,
              seed: int, extra_directions: Sequence[np.ndarray]) -> str:
    """Finite-difference curvature probes along random unit directions.

    ``unorm`` is the H^1 norm of ``u``.  ``minimizer`` when the smallest
    probed second derivative stays above ``CURVATURE_TOL``;
    ``mountain-pass`` when a direction of negative curvature is found.
    """
    rng = np.random.default_rng(seed)
    eps = max(1e-3, 1e-3 * unorm)
    worst = math.inf
    dirs = list(extra_directions)
    dirs += [ws.random_direction(rng) for _ in range(CLASSIFY_DIRECTIONS)]
    for v in dirs:
        Jp, _ = ws.energy(u + eps * v)
        Jm, _ = ws.energy(u - eps * v)
        d2 = (Jp - 2.0 * J0 + Jm) / eps ** 2
        worst = min(worst, d2)
        if worst < CURVATURE_TOL:
            return "mountain-pass"
    return "minimizer"


# ---------------------------------------------------------------------------
# Multistart
# ---------------------------------------------------------------------------

def multistart_minimize(starts: Sequence[FieldLike], profile: ChargeProfile,
                        model: NonlinearityModel,
                        opts: Optional[SolveOptions] = None
                        ) -> Tuple[SolveResult, List[SolveResult]]:
    """Run ``minimize`` from every start; return (best, all results).

    Deterministic under a fixed seed: start k uses seed + k, and ties are
    broken by lowest energy, then lowest gradient norm, then earliest
    start index.  When no start converges the best non-converged result
    is returned (flagged by its ``converged`` field).

    Radial and 3-D starts run in forked worker processes when the
    platform is Linux, the process may use more than one CPU and no
    other thread runs in it (forking a threaded process can deadlock).
    There are min(starts, CPUs) workers, created for this call.  Each
    runs the unchanged ``minimize``, so every result is bit-identical to
    the serial loop's, and the warnings the workers record are re-issued
    here, in start order.  The results are read in start order, so the
    list, and the exception when starts fail (that of the lowest failing
    index, with its own type), are those of the serial loop.  Otherwise,
    and for a single start, the starts run one after another in this
    process.
    """
    if len(starts) < 1:
        raise SolverError("multistart needs at least one start field")
    opts = opts or SolveOptions()
    seeded = [replace(opts, seed=opts.seed + k) for k in range(len(starts))]
    workers = min(len(starts), _usable_cpus())
    if (workers > 1 and hasattr(os, "fork") and sys.platform == "linux"
            and threading.active_count() == 1):
        results = _minimize_forked(starts, profile, model, seeded, workers)
    else:
        results = [minimize(start, profile, model, o)
                   for start, o in zip(starts, seeded)]
    pool = [(r.energy, r.gradient_norm, k) for k, r in enumerate(results)
            if r.converged]
    if not pool:
        pool = [(r.energy, r.gradient_norm, k) for k, r in enumerate(results)]
    best = results[min(pool)[2]]
    return best, results


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _libc_prctl():
    """libc's ``prctl``, looked up at the first fork rather than at
    import, so that importing this module does not load ctypes."""
    import ctypes
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl


def _minimize_forked(starts: Sequence[FieldLike], profile: ChargeProfile,
                     model: NonlinearityModel,
                     seeded: Sequence[SolveOptions],
                     workers: int) -> List[SolveResult]:
    """``minimize`` of start k under ``seeded[k]``, in forked workers.

    Building start 0's kernel here first fills its grid's caches, so the
    workers inherit them and none factors or transforms them again.  The
    workers share the starts through the fork; each is handed one start
    index at a time, the next as soon as it sends back an outcome.  Once
    a start fails no further start is handed out: every lower index has
    already been.  Every worker is reaped before this returns or raises,
    and one still busy then (the call was interrupted) is terminated.
    """
    _kernel(starts[0], profile, model)
    ctx = multiprocessing.get_context("fork")
    pipes = {}                   # our end of each worker's pipe -> worker
    outcomes = {}                # start index -> (result or error, warnings)
    todo = iter(range(len(starts)))
    running = {}                 # pipe -> index of the start it runs
    failed = finished = False
    try:
        for _ in range(workers):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, daemon=True,
                               args=(theirs, [*pipes, ours], _libc_prctl(),
                                     starts, profile, model, seeded))
            proc.start()
            theirs.close()
            pipes[ours] = proc
            running[ours] = next(todo)
            ours.send(running[ours])
        while running:
            for pipe in multiprocessing.connection.wait(list(running)):
                k = running.pop(pipe)
                try:
                    outcomes[k] = pipe.recv()
                except (EOFError, ConnectionError):
                    proc = pipes[pipe]
                    proc.join()
                    outcomes[k] = (ChildProcessError(
                        f"the worker process running start {k} ended "
                        f"without a result (exit code {proc.exitcode})"), [])
                failed = failed or not isinstance(outcomes[k][0],
                                                  SolveResult)
                k = None if failed else next(todo, None)
                if k is not None:
                    running[pipe] = k
                    pipe.send(k)
        finished = True
    finally:
        for pipe, proc in pipes.items():
            pipe.close()
            if not finished:
                proc.terminate()
            proc.join()
    results = []
    for k in sorted(outcomes):
        outcome, caught = outcomes[k]
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if not isinstance(outcome, SolveResult):
            raise outcome
        results.append(outcome)
    return results


def _serve(pipe, inherited, prctl, starts: Sequence[FieldLike],
           profile: ChargeProfile, model: NonlinearityModel,
           seeded: Sequence[SolveOptions]) -> None:
    """Worker loop: run each start index that arrives on ``pipe`` and send
    back its result, or its exception, with the warnings it raised.

    Through libc's ``prctl`` the worker is killed when the caller dies;
    it returns at once if the caller died before that request.
    ``inherited`` are the caller's pipe ends that the fork copied; they
    are closed first, so ``pipe`` reads end of file once the caller's
    end closes, and the worker then returns.  An interrupt is left to
    the caller, which terminates its busy workers.
    """
    prctl(1, signal.SIGKILL)    # PR_SET_PDEATHSIG
    if os.getppid() != multiprocessing.parent_process().pid:
        return
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        end.close()
    while True:
        try:
            k = pipe.recv()
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = minimize(starts[k], profile, model, seeded[k])
            except Exception as exc:  # noqa: BLE001 - re-raised by the caller
                outcome = exc
        try:
            pipe.send((outcome, [(w.message, w.category, w.filename,
                                  w.lineno) for w in caught]))
        except BrokenPipeError:   # the caller is gone
            return


def radial_gaussian_starts(grid: rad.RadialGrid, n_starts: int,
                           seed: int = 0) -> List[rad.RadialField]:
    """Deterministic family of scaled radial Gaussians: amplitude in
    [0.5, 80] and width in [0.6, 3], each drawn log-uniformly."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(n_starts):
        amp = math.exp(rng.uniform(math.log(0.5), math.log(80.0)))
        sig = math.exp(rng.uniform(math.log(0.6), math.log(3.0)))
        starts.append(rad.RadialField.gaussian(grid, amplitude=amp, sigma=sig))
    return starts


# ---------------------------------------------------------------------------
# Mountain pass
# ---------------------------------------------------------------------------

def mountain_pass(u_low: FieldLike, profile: ChargeProfile,
                  model: NonlinearityModel,
                  opts: Optional[SolveOptions] = None) -> SolveResult:
    """Path-deformation search for the saddle between 0 and a minimizer.

    The segment path from the zero field to ``u_low`` is discretized into
    ``PATH_NODES`` nodes; the interior node of maximal energy takes a
    descent step, nodes are re-spread by H^1 arclength, and the loop
    stops when the max node's gradient is small.  The saddle candidate is
    then polished by descending the squared residual norm
    (finite-difference Hessian action, first-order information only).

    Raises SolverError when the geometry is absent: ``u_low`` must be a
    nonzero field with negative energy, and the path's interior maximum
    must stay above the endpoint energies.
    """
    opts = opts or SolveOptions()
    ws = _kernel(u_low, profile, model)
    anchor = ws.project(np.asarray(u_low.values, dtype=float))
    J_anchor, _ = ws.energy(anchor)
    if math.sqrt(ws.h1_norm_sq(anchor)) < ZERO_NORM_TOL or J_anchor >= 0.0:
        raise SolverError(
            "no mountain-pass geometry detected: the anchor must be a "
            "nonzero minimizer with negative energy")

    ss = np.linspace(0.0, 1.0, PATH_NODES)
    nodes = [s * anchor for s in ss]
    energies = [ws.energy(v)[0] for v in nodes]
    base = max(energies[0], energies[-1])
    target = 1e-5 if opts.tol_grad_abs is None else opts.tol_grad_abs
    coarse = max(100.0 * target, 1e-2)
    trace: List[TracePoint] = []
    t = STEP0
    it = 0
    while it < opts.max_iter:
        it += 1
        i = int(np.argmax(energies[1:-1])) + 1
        if energies[i] <= base + 1e-12:
            raise SolverError(
                "no mountain-pass geometry detected: the path's ridge "
                "collapsed to the endpoint level")
        u = nodes[i]
        J_i = energies[i]
        g, gnorm = ws.gradient(u, ws.potential(u))
        trace.append(TracePoint(it, J_i, gnorm, t, ws.h1_norm_sq(u)))
        if gnorm <= coarse:
            break
        # descend across the ridge: remove the gradient's component along
        # the path tangent so the max node does not slide down the path
        tau = nodes[i + 1] - nodes[i - 1]
        tau_n2 = ws.h1_norm_sq(tau)
        d = g - (ws.h1_inner(g, tau) / tau_n2) * tau if tau_n2 > 0.0 else g
        dn2_dir = ws.h1_norm_sq(d)
        if dn2_dir <= (1e-14 * gnorm) ** 2:
            break
        step = _armijo_step(ws, u, J_i, d, min(2.0 * t, 1e3))
        if step is None:
            break
        t, nodes[i], energies[i], _ = step
        if it % 5 == 0:
            # the endpoints stay fixed, and so do their energies
            nodes = _respread(ws, nodes)
            energies = ([energies[0]] + [ws.energy(v)[0] for v in nodes[1:-1]]
                        + [energies[-1]])

    u, gnorm, J, phi = _polish_residual(ws, u, target)
    # the anchor and the saddle itself are the likeliest descent
    # directions, so they are probed first
    return _finish(ws, u, J, phi, gnorm, it, gnorm <= target, opts, trace,
                   probes=(anchor, u))


def _respread(ws: rad.Disc, nodes: List[np.ndarray]) -> List[np.ndarray]:
    """Redistribute path nodes to uniform H^1 arclength."""
    seg = np.array([math.sqrt(ws.h1_norm_sq(nodes[k + 1] - nodes[k]))
                    for k in range(len(nodes) - 1)])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    if cum[-1] <= 0.0:
        return nodes
    targets = np.linspace(0.0, cum[-1], len(nodes))
    out = [nodes[0]]
    for s in targets[1:-1]:
        k = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
        theta = (s - cum[k]) / seg[k] if seg[k] > 0.0 else 0.0
        out.append((1.0 - theta) * nodes[k] + theta * nodes[k + 1])
    out.append(nodes[-1])
    return out


def _polish_residual(ws: rad.Disc, u0: np.ndarray, tol: float,
                     max_iter: int = 2000):
    """Drive the gradient norm to ``tol`` by descending Phi = 1/2 ||G||^2.

    The H^1 gradient of Phi is the Hessian applied to G, approximated by
    a central difference of the gradient map along G.  Converges to any
    nearby critical point, saddles included.  Only potentials and
    gradients are evaluated along the way; J is computed once, for the
    returned iterate, from its stored potential.
    """
    u = u0.copy()
    phi = ws.potential(u)
    G, gn = ws.gradient(u, phi)
    t = 1.0
    for _ in range(max_iter):
        if gn <= tol or gn == 0.0:
            break
        scale = 1e-6 * (1.0 + math.sqrt(ws.h1_norm_sq(u))) / gn
        up = u + scale * G
        um = u - scale * G
        d = (ws.riesz(up, ws.potential(up))
             - ws.riesz(um, ws.potential(um))) / (2.0 * scale)
        dn2 = ws.h1_norm_sq(d)
        if dn2 <= 0.0:
            break
        phi0 = 0.5 * gn * gn
        accepted = False
        t = min(2.0 * t, 1e3)
        while t > 1e-18:
            cand = u - t * d
            pc = ws.potential(cand)
            Gc, gc = ws.gradient(cand, pc)
            if 0.5 * gc * gc <= phi0 - ARMIJO_C * t * dn2:
                u, G, gn, phi = cand, Gc, gc, pc
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return u, gn, ws.energy_at(u, phi), phi
