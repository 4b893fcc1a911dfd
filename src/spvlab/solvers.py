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
optimality measure.
"""

from __future__ import annotations

import math
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

    ``tol_grad`` is relative to the initial gradient norm; set
    ``tol_grad_abs`` for an absolute stopping threshold (the larger of
    the two wins).  ``seed`` drives the curvature probes in the
    classification step and any randomized start families built from the
    same options.
    """

    tol_grad: float = 1e-6
    tol_grad_abs: Optional[float] = None
    max_iter: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.tol_grad <= 0.0:
            raise ValueError("tol_grad must be positive")
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

    ``nehari_residual`` is the derivative of the energy along the iterate
    itself, relative to the squared H^1 norm; ``classification`` is one of
    ``zero | minimizer | mountain-pass | non-converged``; ``level`` tags
    which variational level the search targeted (``alpha`` full-space
    infimum, ``theta`` radial infimum, ``beta`` mountain-pass level).
    """

    field: FieldLike
    energy: float
    gradient_norm: float
    nehari_residual: float
    iterations: int
    classification: str
    level: str
    converged: bool
    clamped: bool
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
             level: str = "alpha",
             support_radius: Optional[float] = None) -> SolveResult:
    """Projected Sobolev-gradient descent with Armijo backtracking.

    Negative values are clamped to zero at every step (the nonlinearity
    vanishes on negatives and the sought solutions are nonnegative);
    whether clamping was active at the last accepted step is reported.
    The accepted-step energy sequence is strictly decreasing.  A run that
    exhausts ``max_iter`` is flagged non-converged, not raised.

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
    clamped = False
    it = 0
    while not converged and it < opts.max_iter:
        it += 1
        accepted = False
        t = min(2.0 * t, 1e6)
        while t > 1e-16:
            raw = u - t * g
            cand = ws.project(raw)
            dn2 = ws.h1_norm_sq(cand - u)
            if dn2 <= 0.0:
                break
            Jc, phic = ws.energy(cand)
            if Jc < J and Jc <= J - ARMIJO_C * dn2 / t:
                clamped = bool(np.any(raw < 0.0))
                u, J, phi = cand, Jc, phic
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            break
        g, gnorm = ws.gradient(u, phi)
        trace.append(TracePoint(it, J, gnorm, t, ws.h1_norm_sq(u)))
        converged = gnorm <= tol
    if not converged and it < opts.max_iter:
        # Armijo progress stalled at the double-precision floor of J;
        # finish with the residual-norm polish, which works on ||G||^2
        # directly and is not limited by cancellations in the energy
        u, gnorm, J, phi = _polish_residual(ws, u, tol)
        converged = gnorm <= tol
    return _finish(ws, u, J, phi, gnorm, it, converged, clamped, level,
                   opts, trace)


def _finish(ws: rad.Disc, u, J, phi, gnorm, iterations, converged, clamped,
            level, opts, trace, probes=()) -> SolveResult:
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
        cls = _classify(ws, u, J, opts.seed, extra)
    return SolveResult(
        field=ws.wrap(u), energy=J, gradient_norm=gnorm,
        nehari_residual=ws.nehari_relative(u, phi), iterations=iterations,
        classification=cls, level=level, converged=converged,
        clamped=clamped, trace=trace)


def _classify(ws: rad.Disc, u: np.ndarray, J0: float, seed: int,
              extra_directions: Sequence[np.ndarray]) -> str:
    """Finite-difference curvature probes along random unit directions.

    ``minimizer`` when the smallest probed second derivative stays above
    ``CURVATURE_TOL``; ``mountain-pass`` when a direction of negative
    curvature is found.
    """
    rng = np.random.default_rng(seed)
    unorm = math.sqrt(ws.h1_norm_sq(u))
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
                        opts: Optional[SolveOptions] = None,
                        level: str = "alpha"
                        ) -> Tuple[SolveResult, List[SolveResult]]:
    """Run ``minimize`` from every start; return (best, all results).

    Deterministic under a fixed seed: start k uses seed + k, and ties are
    broken by lowest energy, then lowest gradient norm, then earliest
    start index.  When no start converges the best non-converged result
    is returned (flagged by its ``converged`` field).
    """
    if len(starts) < 1:
        raise SolverError("multistart needs at least one start field")
    opts = opts or SolveOptions()
    results = []
    for k, start in enumerate(starts):
        results.append(minimize(start, profile, model,
                                replace(opts, seed=opts.seed + k), level=level))
    pool = [(r.energy, r.gradient_norm, k) for k, r in enumerate(results)
            if r.converged]
    if not pool:
        pool = [(r.energy, r.gradient_norm, k) for k, r in enumerate(results)]
    best = results[min(pool)[2]]
    return best, results


def radial_gaussian_starts(grid: rad.RadialGrid, n_starts: int, seed: int = 0,
                           amp_range=(0.5, 80.0),
                           sigma_range=(0.6, 3.0)) -> List[rad.RadialField]:
    """Deterministic family of scaled radial Gaussians (log-uniform draws)."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(n_starts):
        amp = math.exp(rng.uniform(math.log(amp_range[0]), math.log(amp_range[1])))
        sig = math.exp(rng.uniform(math.log(sigma_range[0]), math.log(sigma_range[1])))
        starts.append(rad.RadialField.gaussian(grid, amplitude=amp, sigma=sig))
    return starts


def cube_gaussian_starts(grid: f3d.Grid3D, n_starts: int, seed: int = 0,
                         amp_range=(0.5, 80.0), sigma_range=(0.6, 3.0),
                         shift_scale: float = 0.0) -> List[f3d.Field3D]:
    """Scaled (optionally off-center) Gaussian bumps on the cube."""
    rng = np.random.default_rng(seed)
    ax = grid.axis()
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    starts = []
    for _ in range(n_starts):
        amp = math.exp(rng.uniform(math.log(amp_range[0]), math.log(amp_range[1])))
        sig = math.exp(rng.uniform(math.log(sigma_range[0]), math.log(sigma_range[1])))
        c = rng.uniform(-shift_scale, shift_scale, size=3) if shift_scale else np.zeros(3)
        vals = amp * np.exp(-(((X - c[0]) ** 2 + (Y - c[1]) ** 2
                               + (Z - c[2]) ** 2) / (2.0 * sig ** 2)))
        starts.append(f3d.Field3D(grid, vals))
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
    target = max(opts.tol_grad_abs or 1e-5, 0.0)
    coarse = max(100.0 * target, 1e-2)
    trace: List[TracePoint] = []
    t = STEP0
    it = 0
    u = nodes[int(np.argmax(energies[1:-1])) + 1]
    while it < opts.max_iter:
        it += 1
        i = int(np.argmax(energies[1:-1])) + 1
        if energies[i] <= base + 1e-12:
            raise SolverError(
                "no mountain-pass geometry detected: the path's ridge "
                "collapsed to the endpoint level")
        u = nodes[i]
        J_i, phi = ws.energy(u)
        g, gnorm = ws.gradient(u, phi)
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
        accepted = False
        t = min(2.0 * t, 1e3)
        while t > 1e-16:
            cand = ws.project(u - t * d)
            dn2 = ws.h1_norm_sq(cand - u)
            if dn2 <= 0.0:
                break
            Jc, _ = ws.energy(cand)
            if Jc < J_i and Jc <= J_i - ARMIJO_C * dn2 / t:
                nodes[i] = cand
                energies[i] = Jc
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            break
        if it % 5 == 0:
            nodes = _respread(ws, nodes)
            energies = [ws.energy(v)[0] for v in nodes]

    u, gnorm, J, phi = _polish_residual(ws, u, target)
    # the anchor and the saddle itself are the likeliest descent
    # directions, so they are probed first
    return _finish(ws, u, J, phi, gnorm, it, gnorm <= target, False, "beta",
                   opts, trace, probes=(anchor, u))


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
    nearby critical point, saddles included.
    """
    u = u0.copy()
    J, phi = ws.energy(u)
    G, gn = ws.gradient(u, phi)
    t = 1.0
    for _ in range(max_iter):
        if gn <= tol or gn == 0.0:
            break
        scale = 1e-6 * (1.0 + math.sqrt(ws.h1_norm_sq(u))) / gn
        Jp, pp = ws.energy(u + scale * G)
        Gp, _ = ws.gradient(u + scale * G, pp)
        Jm, pm = ws.energy(u - scale * G)
        Gm, _ = ws.gradient(u - scale * G, pm)
        d = (Gp - Gm) / (2.0 * scale)
        dn2 = ws.h1_norm_sq(d)
        if dn2 <= 0.0:
            break
        phi0 = 0.5 * gn * gn
        accepted = False
        t = min(2.0 * t, 1e3)
        while t > 1e-18:
            cand = u - t * d
            Jc, pc = ws.energy(cand)
            Gc, gc = ws.gradient(cand, pc)
            if 0.5 * gc * gc <= phi0 - ARMIJO_C * t * dn2:
                u, G, gn, J, phi = cand, Gc, gc, Jc, pc
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return u, gn, J, phi
