"""Nonlinearities, charge profiles, and the closed-form constant machinery.

The nonlinear term f and the charge density rho are the two pieces of data
that define a Schrodinger-Poisson energy functional

    J(u) = 1/2 ||u||_H1^2 + 1/4 int rho(x) phi u^2 dx - int F(u) dx,

where F is the antiderivative of f and phi solves -Delta phi = rho u^2.
This module houses the model catalogue (pure-power, asymptotically
linear and tabulated nonlinearities; constant and rational radial
charges), the fitting of the growth constants C0 and C1, and the
threshold machinery built from them: the bracket function
1/8 + (d/sqrt8) s - (C0/p) s^(p-2), its stationary point, the critical
charge threshold d0 at which the bracket's minimum touches zero, the
pointwise energy floor m(x), and the global coercivity floor obtained by
integrating m over the sublevel set {rho < d0}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy import integrate, optimize

SQRT8 = math.sqrt(8.0)

_MODEL_KINDS = ("pure-power", "asymptotically-linear", "table")
_PROFILE_KINDS = ("constant", "rational")


class ModelError(ValueError):
    """Raised for invalid nonlinearity or charge-profile data."""


# ---------------------------------------------------------------------------
# Nonlinearity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearityModel:
    """A nonlinearity f with known growth data.

    f vanishes on s <= 0 and grows like a_q * s^(q-1) at infinity with
    2 <= q < 3 (a_q > 1 required when q = 2).  The fitted constants p, C0
    (bound f(s) <= s/4 + C0 s^(p-1)) and C1 (bound F(s) <= s^2/2 + C1 s^3)
    are optional until ``with_constants`` is called.  A model compares and
    hashes by value; its tables are read-only copies of the caller's.
    """

    kind: str
    q: float
    a_q: float
    p: Optional[float] = None
    C0: Optional[float] = None
    C1: Optional[float] = None
    # tabulated models only: monotone sample points of f
    table_s: Optional[np.ndarray] = field(default=None, repr=False,
                                          compare=False)
    table_f: Optional[np.ndarray] = field(default=None, repr=False,
                                          compare=False)
    # the tables' bytes, which stand in for them in == and hash
    _tables: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _MODEL_KINDS:
            raise ModelError(f"unknown nonlinearity kind {self.kind!r}")
        # a table is checked first: from_csv derives q and a_q from it
        if self.kind == "table":
            s = np.array(self.table_s, dtype=float)
            fs = np.array(self.table_f, dtype=float)
            if s.ndim != 1 or s.shape != fs.shape or len(s) < 2:
                raise ModelError("table model needs two equal-length columns")
            if not (np.all(np.isfinite(s)) and np.all(np.isfinite(fs))):
                raise ModelError("table values must be finite")
            if np.any(np.diff(s) <= 0):
                raise ModelError("table abscissae must be strictly increasing")
            s.flags.writeable = fs.flags.writeable = False
            object.__setattr__(self, "table_s", s)
            object.__setattr__(self, "table_f", fs)
            object.__setattr__(self, "_tables", (s.tobytes(), fs.tobytes()))
        if not (2.0 <= self.q < 3.0):
            raise ModelError(f"exponent q={self.q} outside [2, 3)")
        if self.q == 2.0 and self.a_q <= 1.0:
            raise ModelError("asymptotic coefficient must exceed 1 when q = 2")
        if not 0.0 < self.a_q < math.inf:
            raise ModelError("asymptotic coefficient must be positive and "
                             "finite")

    def __reduce__(self):
        # rebuild through __init__: numpy unpickles arrays writeable
        return (NonlinearityModel, (self.kind, self.q, self.a_q, self.p,
                                    self.C0, self.C1, self.table_s,
                                    self.table_f))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def pure_power(q: float, a_q: float = 1.0) -> "NonlinearityModel":
        """f(s) = a_q * s^(q-1) for s > 0."""
        return NonlinearityModel(kind="pure-power", q=q, a_q=a_q)

    @staticmethod
    def asymptotically_linear(a2: float) -> "NonlinearityModel":
        """f(s) = a2 * s^2 / (1 + s): linear growth at infinity (q = 2)."""
        return NonlinearityModel(kind="asymptotically-linear", q=2.0, a_q=a2)

    @staticmethod
    def from_table(s: np.ndarray, f: np.ndarray, q: float,
                   a_q: float) -> "NonlinearityModel":
        """User-supplied sampled f; linear interpolation between samples."""
        return NonlinearityModel("table", q, a_q, table_s=s, table_f=f)

    @staticmethod
    def from_csv(path) -> "NonlinearityModel":
        """Load a tabulated f from a two-column CSV (s, f(s)), monotone s.

        The growth exponent is estimated from the last decade of the table.
        """
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        if data.shape[1] < 2:
            raise ModelError("table CSV needs two columns (s, f(s)), got "
                             f"{data.shape[1]}")
        s, fs = data[:, 0], data[:, 1]
        # checked before the growth fit, which a NaN or inf would derail
        if not np.all(np.isfinite(data[:, :2])):
            raise ModelError("table values must be finite")
        tail = s >= s[-1] / 10.0
        if np.count_nonzero(tail) < 2:
            raise ModelError("table too short to estimate growth exponent")
        slope, icpt = np.polyfit(np.log(s[tail]), np.log(np.maximum(fs[tail], 1e-300)), 1)
        q = float(np.clip(slope + 1.0, 2.0, np.nextafter(3.0, 0.0)))
        a_q = float(np.exp(icpt)) if q > 2.0 else max(float(np.exp(icpt)), np.nextafter(1.0, 2.0))
        return NonlinearityModel.from_table(s, fs, q=q, a_q=a_q)

    def with_constants(self, p: float) -> "NonlinearityModel":
        """Return a copy with the fitted constants p, C0, C1 filled in."""
        c0 = fit_growth_bound(self, p)
        c1 = fit_cubic_bound(self)
        return replace(self, p=p, C0=c0, C1=c1)


def eval_f(model: NonlinearityModel, s):
    """f(s); identically zero for s <= 0."""
    arr = np.asarray(s, dtype=float)
    pos = np.maximum(arr, 0.0)
    if model.kind == "pure-power":
        out = model.a_q * pos ** (model.q - 1.0)
    elif model.kind == "asymptotically-linear":
        out = model.a_q * pos ** 2 / (1.0 + pos)
    else:
        out = np.interp(pos, model.table_s, model.table_f, left=0.0)
    out = np.where(arr > 0.0, out, 0.0)
    return out if arr.ndim else float(out)


def eval_F(model: NonlinearityModel, s):
    """F(s) = int_0^s f;  closed form for the catalogue models."""
    arr = np.asarray(s, dtype=float)
    pos = np.maximum(arr, 0.0)
    if model.kind == "pure-power":
        out = model.a_q / model.q * pos ** model.q
    elif model.kind == "asymptotically-linear":
        out = model.a_q * (pos ** 2 / 2.0 - pos + np.log1p(pos))
    else:
        out = _table_antiderivative(model)(pos)
    return out if arr.ndim else float(out)


def _table_antiderivative(model: NonlinearityModel) -> Callable:
    s, fs = model.table_s, model.table_f
    if s[0] > 0.0:
        s = np.concatenate([[0.0], s])
        fs = np.concatenate([[0.0], fs])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fs[1:] + fs[:-1]) * np.diff(s))])

    def F(x):
        base = np.interp(x, s, cum)
        # beyond the table the interpolant is constant; extend linearly
        over = np.maximum(x - s[-1], 0.0)
        return base + over * fs[-1]

    return F


# ---------------------------------------------------------------------------
# Growth-constant fitting
# ---------------------------------------------------------------------------

def _sup_ratio(numerator: Callable, exponent: float,
               tail_limit: float) -> float:
    """sup over s > 0 of max(numerator(s), 0) / s^exponent.

    Coarse log-grid scan on [1e-6, 1e6] followed by golden-section
    refinement around the grid argmax.  ``tail_limit`` is the analytic
    value of the ratio as s -> infinity; every caller's ratio converges
    there.
    """
    s = np.logspace(-6.0, 6.0, 10_000)
    ratio = np.maximum(numerator(s), 0.0) / s ** exponent
    i = int(np.argmax(ratio))
    best = float(ratio[i])

    if i == len(s) - 1 and ratio[-1] > ratio[-2]:
        # supremum approached at infinity
        return max(best, tail_limit)

    lo = s[max(i - 1, 0)]
    hi = s[min(i + 1, len(s) - 1)]
    res = optimize.minimize_scalar(
        lambda t: -max(float(numerator(np.exp(t))), 0.0) / math.exp(t * exponent),
        bounds=(math.log(lo), math.log(hi)), method="bounded",
        options={"xatol": 1e-14})
    best = max(best, -float(res.fun))
    return max(best, tail_limit)


def fit_growth_bound(model: NonlinearityModel, p: float) -> float:
    """Minimal C0 with f(s) <= s/4 + C0 s^(p-1) on s >= 0, for 2 < p < 3.

    Strict compliance needs p > q; p = q is accepted (the supremum is then
    attained in the limit s -> infinity and equals a_q).
    """
    if not (2.0 < p < 3.0):
        raise ModelError(f"bound exponent p={p} outside (2, 3)")
    if p < model.q:
        raise ModelError(f"bound exponent p={p} below the growth exponent "
                         f"q={model.q}: the ratio diverges")
    tail = model.a_q if p == model.q else 0.0
    return _sup_ratio(lambda s: eval_f(model, s) - s / 4.0, p - 1.0, tail)


def fit_cubic_bound(model: NonlinearityModel) -> float:
    """Minimal C1 with F(s) <= s^2/2 + C1 s^3 on s >= 0."""
    # F grows like s^q / q with q < 3, so the ratio always decays at infinity
    return _sup_ratio(lambda s: eval_F(model, s) - s ** 2 / 2.0, 3.0, 0.0)


def fit_nehari_cubic_bound(model: NonlinearityModel) -> float:
    """Minimal Cbar with f(s) s <= s^2 + Cbar s^3 on s >= 0.

    Mirrors the cubic bound on F; feeds the upper bound Cbar^2/2 on the
    coupling threshold above which only the zero solution survives.
    """
    return _sup_ratio(lambda s: eval_f(model, s) * s - s ** 2, 3.0, 0.0)


# ---------------------------------------------------------------------------
# Threshold machinery
# ---------------------------------------------------------------------------

def energy_density_bracket(d: float, s, c0: float, p: float):
    """The bracket 1/8 + (d/sqrt8) s - (C0/p) s^(p-2), for s > 0.

    Multiplied by s^2 this is the pointwise integrand whose sign decides
    whether a charge level d can produce negative energy density.
    """
    if not (2.0 < p < 3.0):
        raise ModelError(f"exponent p={p} outside (2, 3)")
    if d <= 0.0:
        raise ModelError("charge level d must be positive")
    arr = np.asarray(s, dtype=float)
    if np.any(arr <= 0.0):
        raise ModelError("bracket is defined for s > 0 only")
    out = 0.125 + (d / SQRT8) * arr - (c0 / p) * arr ** (p - 2.0)
    return out if arr.ndim else float(out)


def bracket_stationary_point(d: float, c0: float, p: float) -> float:
    """The unique stationary point of the bracket: (sqrt8 C0 (p-2) / (p d))^(1/(3-p))."""
    if d <= 0.0:
        raise ModelError("charge level d must be positive")
    return (SQRT8 * c0 * (p - 2.0) / (p * d)) ** (1.0 / (3.0 - p))


def _bracket_minimum(d: float, c0: float, p: float) -> float:
    s = bracket_stationary_point(d, c0, p)
    return energy_density_bracket(d, s, c0, p)


def critical_charge_threshold(c0: float, p: float) -> float:
    """The charge level d0 at which the bracket's minimum touches zero.

    Located by bisection on d of the inner minimum (attained at the
    stationary point).  Below d0 the bracket dips negative; above d0 it is
    positive everywhere.  A closed form exists,
        d0 = sqrt8 * b * beta * (8 b (1 - beta))^((1-beta)/beta)
    with b = C0/p and beta = p-2; the bisection root matches it and is
    what we return.
    """
    if c0 <= 0.0:
        raise ModelError("C0 must be positive")
    if not (2.0 < p < 3.0):
        raise ModelError(f"exponent p={p} outside (2, 3)")
    lo, hi = 1e-12, 1.0
    while _bracket_minimum(hi, c0, p) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ModelError("bisection bracket for d0 overflow")
    while _bracket_minimum(lo, c0, p) > 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise ModelError("bisection bracket for d0 underflow")
    d0 = optimize.brentq(lambda d: _bracket_minimum(d, c0, p), lo, hi,
                         xtol=1e-15, rtol=8.9e-16)
    return float(d0)


def pointwise_energy_floor(rho_x: float, c0: float, p: float) -> float:
    """inf over s >= 0 of (s^2/8 + rho(x) s^3/sqrt8 - (C0/p) s^p).

    Zero when rho(x) >= d0 (infimum at s = 0), strictly negative below d0.
    """
    return _energy_floor(rho_x, c0, p, critical_charge_threshold(c0, p))


def _energy_floor(rho_x: float, c0: float, p: float, d0: float) -> float:
    """``pointwise_energy_floor`` with the threshold d0 already solved."""
    if rho_x >= d0:
        return 0.0

    def g(s):
        return s ** 2 / 8.0 + rho_x * s ** 3 / SQRT8 - (c0 / p) * s ** p

    # the integrand is s^2 times the bracket; its dip sits near the
    # bracket's stationary point
    s_star = bracket_stationary_point(rho_x, c0, p)
    grid = s_star * np.logspace(-3.0, 2.0, 400)
    i = int(np.argmin(g(grid)))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(g, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-14})
    return min(0.0, float(res.fun))


# ---------------------------------------------------------------------------
# Charge profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChargeProfile:
    """A positive radial charge density rho on R^3, held as its parameters.

    ``kind`` "constant" is rho = rho0 = rho_inf, and "rational" is
    rho(r) = rho0 + (rho_inf - rho0) r^2 / (1 + r^2); ``eps`` records the
    rescaling rho_eps(x) = rho(eps x).  Equal parameters compare and hash
    equal, and a profile pickles.
    """

    kind: str
    rho0: float
    rho_inf: float
    eps: float = 1.0

    def __post_init__(self):
        if self.kind not in _PROFILE_KINDS:
            raise ModelError(f"unknown profile kind {self.kind!r}")
        if not (math.isfinite(self.rho0) and math.isfinite(self.rho_inf)):
            raise ModelError("rho must be finite")
        if self.rho_min <= 0.0:
            raise ModelError("rho must be bounded below by a positive number")
        if self.kind == "constant" and self.rho0 != self.rho_inf:
            raise ModelError("a constant profile needs rho0 == rho_inf")
        if not 0.0 < self.eps < math.inf:
            raise ModelError("scaling parameter must be positive and finite")

    @property
    def rho_min(self) -> float:
        return min(self.rho0, self.rho_inf)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float) -> "ChargeProfile":
        return ChargeProfile(kind="constant", rho0=value, rho_inf=value)

    @staticmethod
    def rational(rho0: float, rho_inf: float) -> "ChargeProfile":
        """rho(r) = rho0 + (rho_inf - rho0) r^2 / (1 + r^2)."""
        return ChargeProfile(kind="rational", rho0=rho0, rho_inf=rho_inf)

    # -- evaluation ---------------------------------------------------------

    def at_radius(self, r):
        """rho at radius r; applies the eps scaling."""
        r = np.asarray(r, dtype=float)
        x = self.eps * r
        if self.kind == "constant":
            out = np.full_like(x, self.rho0)
        else:
            out = (self.rho0
                   + (self.rho_inf - self.rho0) * x ** 2 / (1.0 + x ** 2))
        return out if r.ndim else float(out)

    def scaled(self, eps: float) -> "ChargeProfile":
        """The profile rho_eps(x) = rho(eps x)."""
        return replace(self, eps=self.eps * eps)


# ---------------------------------------------------------------------------
# Coercivity floor and hypothesis validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoercivityFloor:
    floor: float          # integral of the pointwise floor over {rho < d0}
    measure: float        # Lebesgue measure of the sublevel set
    degenerate: bool      # constant profile: sublevel set empty


def coercivity_floor(profile: ChargeProfile, c0: float,
                     p: float) -> CoercivityFloor:
    """Integral of the pointwise energy floor over the sublevel set {rho < d0}.

    Finite and nonpositive under rho_min < d0 < rho_inf; the sublevel set
    is then bounded.  Constant profiles are degenerate: an empty sublevel
    set is flagged, an all-of-space one is an error (unbounded).
    """
    d0 = critical_charge_threshold(c0, p)
    if profile.kind == "constant":
        if profile.rho_min >= d0:
            return CoercivityFloor(floor=0.0, measure=0.0, degenerate=True)
        raise ModelError("constant charge below d0: sublevel set is all of "
                         "space and the floor integral diverges")
    if profile.rho_inf <= d0:
        raise ModelError("rho_inf <= d0: the sublevel set {rho < d0} is "
                         "unbounded and the floor integral may diverge")

    # outer radius beyond which rho has settled near rho_inf > d0
    r_hi = 1.0
    while (profile.at_radius(r_hi) < d0
           or abs(profile.at_radius(r_hi) - profile.rho_inf)
           > 0.5 * (profile.rho_inf - d0)):
        r_hi *= 2.0
        if r_hi > 1e9:
            raise ModelError("could not bound the sublevel set {rho < d0}")

    rgrid = np.linspace(0.0, r_hi, 20001)
    below = profile.at_radius(rgrid) < d0
    if not np.any(below):
        return CoercivityFloor(floor=0.0, measure=0.0, degenerate=True)

    # integrate shell-by-shell over the (possibly disconnected) sublevel set
    edges = np.flatnonzero(np.diff(below.astype(int)))
    bounds = [0.0] if below[0] else []
    for e in edges:
        bounds.append(optimize.brentq(
            lambda r: profile.at_radius(r) - d0, rgrid[e], rgrid[e + 1],
            xtol=1e-13))
    if below[-1]:
        raise ModelError("sublevel set {rho < d0} reaches the scan boundary")
    segments = [(bounds[i], bounds[i + 1]) for i in range(0, len(bounds), 2)]

    floor = 0.0
    measure = 0.0
    for a, b in segments:
        val, _ = integrate.quad(
            lambda r: _energy_floor(profile.at_radius(r), c0, p, d0)
            * 4.0 * math.pi * r ** 2, a, b, limit=200)
        floor += val
        measure += 4.0 * math.pi / 3.0 * (b ** 3 - a ** 3)
    return CoercivityFloor(floor=floor, measure=measure, degenerate=False)


@dataclass(frozen=True)
class ConditionReport:
    """Measured pass/fail record for the structural hypotheses on (rho, f)."""

    d1_positive_with_limit: bool
    d2_threshold_ordering: bool
    d4_radial: bool
    d5_origin_window: bool
    rho_min: float
    rho_inf: float
    rho_origin: float
    d0: float
    sqrt_lambda: float


def validate_conditions(profile: ChargeProfile, model: NonlinearityModel,
                        lam: float) -> ConditionReport:
    """Check the structural hypotheses for a given coupling lambda.

    Requires a model with fitted constants (C0, p) so d0 is defined.
    Every profile is radial, so ``d4_radial`` holds by construction.
    """
    if model.C0 is None or model.p is None:
        raise ModelError("model constants not fitted; call with_constants(p)")
    d0 = critical_charge_threshold(model.C0, model.p)
    sqrt_lam = math.sqrt(lam)

    vals = profile.at_radius(np.concatenate([[0.0], np.logspace(-3, 6, 2000)]))
    # positive, and within 1e-3 of its limit at the end of the scan
    d1 = (np.all(vals > 0.0) and abs(vals[-1] - profile.rho_inf)
          < 1e-3 * max(profile.rho_inf, 1.0))
    rho_origin = float(profile.at_radius(0.0))

    d2 = profile.rho_min < d0 < profile.rho_inf
    d5 = (0.0 < rho_origin < min(d0, sqrt_lam)
          and max(d0, sqrt_lam) < profile.rho_inf)
    return ConditionReport(
        d1_positive_with_limit=bool(d1),
        d2_threshold_ordering=bool(d2),
        d4_radial=True,
        d5_origin_window=bool(d5),
        rho_min=profile.rho_min, rho_inf=profile.rho_inf,
        rho_origin=rho_origin, d0=d0, sqrt_lambda=sqrt_lam)
