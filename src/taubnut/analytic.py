"""Closed-form geodesic families, their turning radii and first integrals,
the special-case classifier, monotone inversion of t(r), and the exact
radial passthrough of r = n.

Five families admit closed forms; the tags double as the data-format labels:

  thm1  radial: tau, theta, phi constant; the only family reaching r = n.
  thm2  tau-charged radial: theta, phi constant; conserved
        tau0 = (r-n)/(r+n) dtau/dt; turning radius R1 = n + 2 tau0^2 n / r1^2.
  thm3  equatorial: theta = pi/2, tau constant; conserved
        phi0 = (r^2-n^2) dphi/dt; turning radius R2 = sqrt(n^2 + phi0^2/r1^2).
  thm4  meridional: tau, phi constant; thm3's kernel, angular rate and
        turning radius under (phi0, R2) -> (theta0, R3).
  thm5  constant latitude with tau and phi locked by
        [4n^2 cos(theta)/(r+n)^2 - cos(theta)] dphi/dt
          + (2n/(r+n)^2) dtau/dt = 0;
        turning radii R- < 0 < n <= R+ are the roots of the radial
        quadratic F(r) = 2n r1^2 (r-R+)(r-R-).

Every curve is an antiderivative in r integrated from the turning radius R.
Three evaluation modes:

  literal    the classical closed-form brackets with their natural additive
             constants left in place; the stated anchors (t1, tau1, ...) then
             hold only up to a constant offset at r = R.
  aligned    subtracts each bracket's value at R, so the anchors hold exactly
             there. Differences f(r_b) - f(r_a) agree between the two modes.
  corrected  thm5 only: the literal thm5 brackets carry prefactors whose
             derivatives miss the first-integral velocity field by the fixed
             factors r1/sqrt(2n) (t curve) and r1*sqrt(2n) (phi, tau curves);
             corrected mode rescales the prefactors so d/dr of every curve
             matches dr/dt = eps*sqrt(F)/(sqrt(2n)(r+n)) exactly. The thm5
             brackets all vanish at R+, so literal and aligned coincide for
             thm5 and corrected needs no extra offset.

Throughout, eps = +1/-1 selects the outgoing/ingoing radial branch and r1 > 0
is the energy-like constant of each family's first integral.

Every family's radial first integral factors as
(r+n)^2 (dr/dt)^2 = r1^2 (r-R)(r-R'), with R the turning radius and R' the
second root: -n for thm1 and thm2, -R for thm3 and thm4, R- for thm5. So
family_velocities computes dr/dt = eps r1 sqrt(r-R) sqrt(r-R')/(r+n) once
for all five families, with no radius switch: (r-R)(r-R') <= (r+n)^2 keeps
|dr/dt| <= r1 up to the float maximum.

A family is one entry of the private registry _REGISTRY: its constants and
swept coordinates, default mode (the inversion mode derives from it),
turning radius pair (R, R'), curve kernel, angular first-integral rates
(with dr/dt they give the exact curve derivatives), classifier extraction
and seeded verify draw. Every function here that depends on the family,
the CLI's choices and the verify scenarios read that entry, so adding a
family means adding one entry. The curves hold at every radius up to the
float maximum, or raise DomainError where a value itself passes the float
range: every kernel builds them from the same three terms of the turning
pair (_pair_terms), with no radius switch.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from ._solvers import brentq
from .errors import (
    ConfigError,
    DegenerateError,
    DomainError,
    NotAGeodesic,
    RangeError,
    _require_count,
)
from .geometry import COORDS, ModelParams
from .integrator import HORIZON, PhaseState, Trajectory, norm

MODES = ("literal", "aligned", "corrected")


@dataclass(frozen=True)
class FamilyConstants:
    """Constants and anchors of one closed-form family.

    r1 is kept positive for the curve families; direction lives in eps alone.
    Anchors are the coordinate values attained at the turning radius (exactly
    in aligned mode, up to the documented constants in literal mode)."""

    family: str
    eps: int = 1
    r1: float = 0.0
    tau0: float | None = None
    phi0: float | None = None
    theta0: float | None = None
    theta_const: float | None = None
    t1: float = 0.0
    tau1: float | None = None
    phi1: float | None = None
    theta1: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family tag {self.family!r}")
        if self.eps not in (1, -1):
            raise ConfigError("eps must be +1 or -1")
        if self.family == "stationary":
            if self.r1 != 0.0:
                raise ConfigError("stationary points have r1 = 0")
        elif not self.r1 > 0:
            raise ConfigError("r1 must be positive (eps carries the direction)")
        spec = _REGISTRY.get(self.family)
        required = (*spec.constants, *spec.anchors) if spec else ()
        for name in _OPTIONAL_FIELDS:
            value = getattr(self, name)
            if name in required and value is None:
                raise ConfigError(f"family {self.family!r} requires {name}")
            if name not in required and value is not None:
                raise ConfigError(f"family {self.family!r} does not take {name}")
        for name in ("r1", "t1", *required):  # every numeric field that is set
            if not math.isfinite(value := getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
            object.__setattr__(self, name, float(value))  # a numpy scalar warns on overflow
        if self.theta_const is not None and not 0.0 < self.theta_const < np.pi:
            raise ConfigError("theta_const must lie in (0, pi)")


# the fields a family sets or leaves None according to its registry entry
_OPTIONAL_FIELDS = tuple(f.name for f in fields(FamilyConstants) if f.default is None)


@dataclass(frozen=True)
class TurningRadius:
    """Smallest radius R a family attains, and the second root R' of its
    radial first integral (r+n)^2 (dr/dt)^2 = r1^2 (r-R)(r-R'): -n for thm1
    and thm2, -R for thm3 and thm4, and the negative root R- of the thm5
    quadratic."""

    value: float
    r_minus: float


def _spec(family: str, lacks: str) -> _Family:
    """The registry entry of a closed-form family; ConfigError otherwise."""
    if family not in _REGISTRY:
        raise ConfigError(f"family {family!r} {lacks}")
    return _REGISTRY[family]


def turning_radius(consts: FamilyConstants, params: ModelParams) -> TurningRadius:
    """Radius at which dr/dt vanishes: n for thm1, R1/R2/R3 for thm2-4 and
    R+ for thm5, with the second root of the radial first integral (see
    TurningRadius). Always >= n, with equality exactly when the family's
    angular constant vanishes."""
    spec = _spec(consts.family, "has no turning radius")
    if consts.r1 * consts.r1 == 0:
        raise DegenerateError(f"turning radius needs r1*r1 != 0 (r1 = {consts.r1!r})")
    try:
        value, r_minus = spec.turning(consts, params.n, consts.r1 * consts.r1)
    except (OverflowError, ZeroDivisionError):  # a power of r1 or a constant left the float range
        value = r_minus = math.inf
    if not math.isfinite(value):  # inf, or NaN from inf/inf
        raise DomainError(f"the {consts.family} turning radius overflows a float")
    return TurningRadius(value, r_minus=r_minus)


def _scalar_like(template, value):  # np.ndim costs more than the isinstance test
    return float(value) if isinstance(template, float) or np.ndim(template) == 0 else value


def _radii(r, low: float, strict: bool, message: str):
    """r itself for a float, which keeps its bits, else r as a float array.
    ConfigError unless every radius is finite; DomainError, message.format(low),
    if a radius lies below low, or at it if strict."""
    one = isinstance(r, float)  # plain float checks cost less than numpy's reductions
    if not one:
        r = np.asarray(r, dtype=float)
    if not (math.isfinite(r) if one else np.isfinite(r).all()):
        raise ConfigError("radii must be finite")
    below = r <= low if strict else r < low
    if below if one else below.any():
        raise DomainError(message.format(low))
    return r


def _collapse(key: str, value: float, turn: str, n: float) -> DegenerateError:
    """The error of a family whose turning radius `turn` equals n: its
    constant `key` is 0, or so small against n that `turn` rounds to n."""
    if value == 0:
        return DegenerateError(f"{key} = 0 collapses to the radial family ({turn} = n)")
    return DegenerateError(f"{key} = {value!r} is negligible against n = {n!r}: {turn} rounds to n")


# Curve kernels: (n, c, tr, r, mode) -> curves in ("t", *swept) order, on an
# array r already checked to be finite and >= tr.value, and a checked mode.

def _pair_terms(n, tr, r):
    """The terms of every curve at radii r >= R, from the turning pair (R, R')
    with r = (R+R')/2 + ((R-R')/2) cosh H: H/2 = asinh(sqrt(r-R)/sqrt(R-R')),
    U = sqrt((r-R)(r-R')) + (R+R'+2n) H/2, which is every family's aligned t
    bracket and vanishes at R, k = sqrt((n-R')/(R-n)) and the angle
    arctan(k u) with u = sqrt((r-R)/(r-R')) in [0, 1); k and the angle are
    None when R = n. Where (r-R)(r-R') passes the float range, both factors
    exceed 1 and are scaled by 2^-600: exact, so the root keeps its bits."""
    R, Rm = tr.value, tr.r_minus
    above, below = r - R, r - Rm
    half_H = np.arcsinh(np.sqrt(above) / math.sqrt(R - Rm))
    root = np.sqrt(above * below)
    wide = np.isinf(root)
    if wide.any():
        s = 2.0 ** -600
        above, below = np.where(wide, above * s, above), np.where(wide, r * s - Rm * s, below)
        root = np.where(wide, np.sqrt(above * below) / s, root)
    U = root + (R + Rm + 2 * n) * half_H
    if R == n:
        return U, half_H, None, None
    k2 = (n - Rm) / (R - n)  # one sqrt of k^2 u^2 rounds less than k times u
    return U, half_H, math.sqrt(k2), np.arctan(np.sqrt(above / below * k2))


def _thm1_curves(n, c, tr, r, mode):
    """Radial family time curve t(r) = t1 + (eps/r1) * [sqrt(r^2-n^2)
    + 2n ln(sqrt(r+n)+sqrt(r-n))]; aligned mode takes U (_pair_terms), the
    bracket less its value 2n ln sqrt(2n) at r = n, so t(n) = t1 exactly."""
    bt = _pair_terms(n, tr, r)[0]
    if mode == "literal":
        bt = bt + 2 * n * math.log(math.sqrt(2 * n))
    return (c.t1 + c.eps / c.r1 * bt,)


def _thm2_curves(n, c, tr, r, mode):
    """Tau-charged radial curves (t, tau) for r >= R1 > n.

    t(r)   = t1 + (eps/r1)[sqrt(r-R1)sqrt(r+n) + (n+R1) ln(sqrt(r-R1)+sqrt(r+n))]
    tau(r) = tau1 + (eps tau0/r1)[(5n+R1) ln(sqrt(r-R1)+sqrt(r+n))
             + (2(2n)^{3/2}/sqrt(R1-n)) arctan(sqrt(2n)sqrt(r-R1)
                                               /(sqrt(R1-n)sqrt(r+n)))
             + sqrt(r-R1)sqrt(r+n)]

    Differentiating gives back dt/dr = (eps/r1) sqrt((r+n)/(r-R1)) and
    dtau/dr = (eps tau0/r1)(r+n)^{3/2}/((r-n)sqrt(r-R1)) identically. Less
    their values (n+R1), (5n+R1) times ln sqrt(R1+n) at R1, the brackets are
    U and U + 4n (H/2 + k arctan(k u)) (_pair_terms; 2(2n)^{3/2}/sqrt(R1-n) = 4n k)."""
    R1 = tr.value
    if R1 == n:
        raise _collapse("tau0", c.tau0, "R1", n)
    U, half_H, k, angle = _pair_terms(n, tr, r)
    bt, btau = U, U + 4 * n * (half_H + k * angle)
    if mode == "literal":
        off = math.log(math.sqrt(R1 + n))
        bt = bt + (n + R1) * off
        btau = btau + (5 * n + R1) * off
    return c.t1 + c.eps / c.r1 * bt, c.tau1 + c.eps * c.tau0 / c.r1 * btau


def _sweep_curves(n, c, tr, r, mode):
    """Equatorial (thm3) and meridional (thm4) curves (t, x) for r >= R, with
    x the family's one swept coordinate (phi or theta) and (c0, x1) its
    (phi0, phi1) or (theta0, theta1): the two families print identical
    formulas under (phi0, R2) <-> (theta0, R3) relabeling.

    t(r) = t1 + (eps/r1)[sqrt(r^2-R^2) + n ln(r + sqrt(r^2-R^2))]
    x(r) = x1 + eps arctan(r1(rn - R^2)/(c0 sqrt(r^2-R^2)))

    Less its value n ln R at R the t bracket is U (_pair_terms), and as
    arctan((y - 1/y)/2) = 2 arctan(y) - pi/2 for y = k u > 0, the arctan is
    sign(c0)(2 arctan(k u) - pi/2): -sign(c0) pi/2 at R, where aligned drops it."""
    key, c0 = _swept_constant(c)
    R = tr.value
    if R == n:
        raise _collapse(f"{key}0", c0, "R", n)
    U, _, _, angle = _pair_terms(n, tr, r)
    sign = math.copysign(1.0, c0)
    bt, angle = U, 2 * sign * angle  # aligned
    if mode == "literal":
        bt = bt + n * math.log(R)
        angle = angle - sign * math.pi / 2
    return c.t1 + c.eps / c.r1 * bt, getattr(c, f"{key}1") + c.eps * angle


def theta_range_exit(params: ModelParams, consts: FamilyConstants) -> bool:
    """Meridional swing check: the theta curve is monotone from theta1 at R3
    toward theta1 + eps [arctan(r1 n/theta0) + sign(theta0) pi/2] as r grows;
    flags families whose swing leaves the open interval (0, pi)."""
    if getattr(_REGISTRY.get(consts.family), "swept", None) != ("theta",):
        raise ConfigError("theta range check applies to thm4 only")
    swing = consts.eps * (math.atan(consts.r1 * params.n / consts.theta0)
                          + math.copysign(math.pi / 2, consts.theta0))
    lo, hi = sorted((consts.theta1, consts.theta1 + swing))
    return not (0.0 < lo and hi < math.pi)


def _thm5_curves(n, c, tr, r, mode):
    """Constant-latitude curves (t, phi, tau) for r >= R+.

    literal brackets (S := phi0^2 cos^2(theta)/(2n r1^2) = R+ + R-):
      t   = t1 + (eps/sqrt(2n)) [sqrtP + (S+2n) asinh(sqrt((r-R+)/(R+-R-)))]
      phi = phi1 + (2 eps sqrt(2n) phi0 / sqrt((R+-n)(n-R-)))
                    * arctan(sqrt((r-R+)(n-R-)/((r-R-)(R+-n))))
      tau = tau1 + (eps phi0 cos(theta)/sqrt(2n)) [sqrtP + (S+6n) asinh(...)]
    with sqrtP = sqrt((r-R+)(r-R-)). Corrected mode replaces the prefactors by
    eps/r1, 2 eps phi0/(r1 sqrt(...)), eps phi0 cos(theta)/(2n r1), which makes
    every d/dr match the first-integral field dr/dt = eps sqrt(F)/(sqrt(2n)(r+n))
    exactly. All brackets vanish at R+, so no alignment offset exists and
    aligned mode coincides with literal: they are U, arctan(k u), U + 4n H/2."""
    Rp, Rm = tr.value, tr.r_minus
    if Rp == n:
        raise _collapse("phi0", c.phi0, "R+", n)
    U, half_H, _, angle = _pair_terms(n, tr, r)
    ct = math.cos(c.theta_const)
    root_pm = math.sqrt((Rp - n) * (n - Rm))
    if mode == "corrected":
        coef_t = c.eps / c.r1
        coef_phi = 2 * c.eps * c.phi0 / (c.r1 * root_pm)
        coef_tau = c.eps * c.phi0 * ct / (2 * n * c.r1)
    else:
        root2n = math.sqrt(2 * n)
        coef_t = c.eps / root2n
        coef_phi = 2 * c.eps * root2n * c.phi0 / root_pm
        coef_tau = c.eps * c.phi0 * ct / root2n
    return c.t1 + coef_t * U, c.phi1 + coef_phi * angle, c.tau1 + coef_tau * (U + 4 * n * half_H)


# Per-family pieces of the registry below. The angular rates take a radius
# or an array of radii above n; each is a ratio that holds up to the float
# maximum.

def _thm2_extract(n, r, theta, v, radial_sq, tol):
    tau0 = (r - n) / (r + n) * v[0]
    return {"r1": math.sqrt(radial_sq + 2 * tau0 * tau0 * n / (r - n)), "tau0": tau0}


def _swept_constant(c) -> tuple:  # (x, x0) of thm3 or thm4
    (key,) = _REGISTRY[c.family].swept
    return key, getattr(c, f"{key}0")


def _sweep_turning(c, n, r1sq):
    R = math.sqrt(n * n + _swept_constant(c)[1] ** 2 / r1sq)
    return R, -R


def _sweep_rates(c, n, r):
    key, c0 = _swept_constant(c)
    rate = c0 / (r - n) / (r + n)
    return tuple(rate if k == key else 0.0 for k in COORDS[:3])


def _thm3_extract(n, r, theta, v, radial_sq, tol):
    if abs(theta - np.pi / 2) <= tol:
        phi0 = (r * r - n * n) * v[2]
        return {"r1": math.sqrt(radial_sq + phi0 * phi0 / (r * r - n * n)), "phi0": phi0}
    return None


def _thm4_extract(n, r, theta, v, radial_sq, tol):
    theta0 = (r * r - n * n) * v[1]
    return {"r1": math.sqrt(radial_sq + theta0 * theta0 / (r * r - n * n)), "theta0": theta0}


def _thm5_turning(c, n, r1sq):
    c2 = math.cos(c.theta_const) ** 2
    s2 = math.sin(c.theta_const) ** 2
    p2 = c.phi0**2
    half_sum = p2 * c2 / (4 * n * r1sq)
    rad = math.sqrt(n * n + (p2 * p2 * c2 * c2 + 8 * n * n * p2 * r1sq * c2
                             + 16 * n * n * p2 * r1sq * s2) / (16 * n * n * r1sq * r1sq))
    return half_sum + rad, half_sum - rad


def _thm5_rates(c, n, r):
    dtau = c.phi0 * math.cos(c.theta_const) / (2 * n) * ((r + 3 * n) / (r + n))
    return (dtau, 0.0, c.phi0 / (r - n) / (r + n))


def _thm5_extract(n, r, theta, v, radial_sq, tol):
    tau_d, _, phi_d, _ = v
    ct = math.cos(theta)
    rp2 = (r + n) ** 2
    resid = (4 * n * n * ct / rp2 - ct) * phi_d + 2 * n / rp2 * tau_d
    if abs(theta - np.pi / 2) > tol and abs(resid) <= tol * (abs(tau_d) + abs(phi_d)):
        phi0 = (r * r - n * n) * phi_d
        st = math.sin(theta)
        r1 = math.sqrt(radial_sq
                       + phi0 * phi0 * ct * ct / (2 * n * (r - n))
                       + phi0 * phi0 * st * st / (r * r - n * n))
        return {"r1": r1, "phi0": phi0, "theta_const": theta}
    return None


@dataclass(frozen=True)
class _Family:
    """Everything the package knows about one closed-form family. c is the
    family's FamilyConstants, r a radius or array of radii, v a velocity
    (dtau, dtheta, dphi, dr)."""

    constants: tuple      # amplitude fields such as tau0, never defaulted
    swept: tuple          # curve keys after "t" in output order; the only
                          # coordinates with nonzero velocity on the family
    mode: str             # default evaluation mode; invert_mode derives from it
    start_theta: Callable  # c -> latitude a numeric orbit of the family starts at
    turning: Callable     # (c, n, r1^2) -> (R, R'), the roots of the radial
                          # first integral; thm3, thm4 share one
    kernel: Callable      # (n, c, tr, r, mode) -> curves, unchecked
    rates: Callable       # (c, n, r) -> (dtau, dtheta, dphi) from the angular
                          # first integrals, for r > n; shared too
    extract: Callable     # (n, r, theta, v, radial_sq, tol) -> {r1, constants},
                          # or None when the state is off the family
    draw: Callable        # (rng, n, r1, sign) -> seeded verify constants

    @cached_property
    def anchors(self) -> tuple:
        """Anchor fields (tau1, ...) of the swept coordinates, in COORDS order."""
        return tuple(f"{k}1" for k in COORDS if k in self.swept)

    @property
    def invert_mode(self) -> str:  # the mode whose t(r) is exactly t1 at R
        return "corrected" if self.mode == "corrected" else "aligned"

    @property
    def json_fields(self) -> tuple:
        """The float fields of a JSON record, in order after family, eps, n."""
        return ("r1", *self.constants, "t1", *self.anchors)


# The registry's order fixes the verify scenarios and their seed streams
# (seeded_family keys its generator by position): add new families last.
_REGISTRY = {
    "thm1": _Family(
        constants=(), swept=(), mode="literal",
        start_theta=lambda c: 1.0,
        turning=lambda c, n, r1sq: (n, -n),
        kernel=_thm1_curves,
        rates=lambda c, n, r: (0.0, 0.0, 0.0),
        extract=lambda n, r, theta, v, radial_sq, tol: {"r1": math.sqrt(radial_sq)},
        draw=lambda rng, n, r1, sign: {},
    ),
    "thm2": _Family(
        constants=("tau0",), swept=("tau",), mode="literal",
        start_theta=lambda c: 1.0,
        turning=lambda c, n, r1sq: (n + 2 * c.tau0**2 * n / r1sq, -n),
        kernel=_thm2_curves,
        rates=lambda c, n, r: (c.tau0 * ((r + n) / (r - n)), 0.0, 0.0),
        extract=_thm2_extract,
        draw=lambda rng, n, r1, sign: {"tau0": sign * rng.uniform(0.3, 0.8) * r1},
    ),
    "thm3": _Family(
        constants=("phi0",), swept=("phi",), mode="literal",
        start_theta=lambda c: math.pi / 2,
        turning=_sweep_turning,
        kernel=_sweep_curves,
        rates=_sweep_rates,
        extract=_thm3_extract,
        draw=lambda rng, n, r1, sign: {"phi0": sign * rng.uniform(0.3, 0.8) * n},
    ),
    "thm4": _Family(
        constants=("theta0",), swept=("theta",), mode="literal",
        start_theta=lambda c: 1.0,
        turning=_sweep_turning,
        kernel=_sweep_curves,
        rates=_sweep_rates,
        extract=_thm4_extract,
        draw=lambda rng, n, r1, sign: {
            "theta0": sign * rng.uniform(2.0, 3.0) * n * r1,
            "theta1": (rng.uniform(0.4, 0.6) if sign > 0
                       else math.pi - rng.uniform(0.4, 0.6))},
    ),
    "thm5": _Family(
        constants=("phi0", "theta_const"), swept=("phi", "tau"), mode="corrected",
        start_theta=lambda c: c.theta_const,
        turning=_thm5_turning,
        kernel=_thm5_curves,
        rates=_thm5_rates,
        extract=_thm5_extract,
        draw=lambda rng, n, r1, sign: {
            "phi0": sign * rng.uniform(0.3, 0.8) * n,
            "theta_const": rng.uniform(0.4, math.pi - 0.4)},
    ),
}

FAMILIES = (*_REGISTRY, "stationary", "generic")


def default_mode(family: str) -> str:
    """Evaluation mode each family is quoted in by default: literal closed
    forms for thm1-4, the derivative-exact corrected forms for thm5."""
    return _spec(family, "has no curve mode").mode


def _curve_fn(params: ModelParams, consts: FamilyConstants, mode: str | None):
    """The checked part of a curve evaluation: the family's registry entry,
    its turning radius R, and its kernel bound to consts and mode (mode=None
    picks default_mode(family)), which takes a checked array of radii."""
    spec = _spec(consts.family, "has no closed-form curves")
    if mode is None:
        mode = spec.mode
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "corrected" and spec.mode != "corrected":
        raise ConfigError("corrected mode exists only for thm5")
    tr = turning_radius(consts, params)
    return spec, tr.value, lambda r: spec.kernel(params.n, consts, tr, r, mode)


def curves(params: ModelParams, consts: FamilyConstants, r, mode: str | None = None):
    """The family's closed-form curves at radii r >= its turning radius, as a
    dict keyed by coordinate name ('t' plus whichever of tau/phi/theta the
    family sweeps). mode=None picks default_mode(family)."""
    spec, R, kernel = _curve_fn(params, consts, mode)
    arr = np.asarray(_radii(r, R, False, "r must be >= the turning radius {}"))
    with np.errstate(all="ignore"):  # a curve past the float range reads inf or NaN
        values = kernel(arr)
    out = {key: _scalar_like(r, v) for key, v in zip(("t", *spec.swept), values)}
    if not (all(map(math.isfinite, out.values())) if isinstance(r, float)
            else np.isfinite(values).all()):
        raise DomainError(f"the {consts.family} curves exceed the float range at these radii")
    return out


def thm1_t_of_r(params: ModelParams, consts: FamilyConstants, r, mode: str = "literal"):
    """The radial family's time curve t(r), curves(...)["t"] in literal mode
    by default."""
    return curves(params, consts, r, mode)["t"]


def curve_derivatives(params: ModelParams, consts: FamilyConstants, r):
    """Exact d/dr of each curve from the field v of family_velocities:
    dt/dr = 1/v_r and dx/dr = v_x/v_r (mode-independent for thm1-4 and equal
    to the corrected-mode derivatives for thm5), keyed like curves(). Radii
    must sit strictly above the turning radius."""
    spec = _spec(consts.family, "has no closed-form curves")
    R = turning_radius(consts, params).value
    arr = _radii(r, R, True, "derivatives need r > turning radius {}")
    v = dict(zip(COORDS, family_velocities(consts, params, arr)))
    exact = {"t": 1.0 / v["r"], **{key: v[key] / v["r"] for key in spec.swept}}
    return {key: _scalar_like(r, d) for key, d in exact.items()}


def family_velocities(consts: FamilyConstants, params: ModelParams, r) -> tuple:
    """Velocity components (dtau, dtheta, dphi, dr) at radius r (a float or an
    array of radii above n) rebuilt from the family's first integrals, on the
    branch selected by eps: the family's angular rates, and for every family
    dr/dt = eps r1 sqrt(r-R) sqrt(r-R')/(r+n) from its turning radius pair."""
    arr = _radii(r, params.n, True, "r must exceed n = {}")
    spec = _spec(consts.family, "has no first-integral velocity field")
    tr = turning_radius(consts, params)
    _radii(arr, tr.value, False, "radius below the family's turning radius")
    n = params.n
    # (r-R)(r-R') <= (r+n)^2, so the ratio stays within 1 and |dr/dt| within r1
    dr = consts.eps * consts.r1 * (np.sqrt(arr - tr.value) * np.sqrt(arr - tr.r_minus)
                                   / (arr + n))
    return (*spec.rates(consts, n, arr), dr)


def classify(params: ModelParams, state: PhaseState, tol: float = 1e-9) -> FamilyConstants:
    """Match a phase-space state to its closed-form family.

    Decision tree on which velocity components exceed tol times the largest
    one, so the answer does not depend on the affine scale of the velocity: a
    state with every component 0 is a stationary point; dr/dt at or below
    that bound means the state cannot lie on a geodesic at all (constant r
    forces every velocity to vanish), raising NotAGeodesic. Otherwise the
    family is picked by the components above the bound, r1 is extracted from
    that family's first integral (never from the norm, which also counts
    kinetic terms the first integrals exclude), and the anchors are backed
    out so the state sits on the aligned curve (corrected for thm5) at
    affine time zero. The equator test of thm3 and thm5 compares theta with
    pi/2 to the absolute tol."""
    if not 0 < tol < math.inf:
        raise ConfigError("tol must be positive and finite")
    p = state.point
    if not all(map(math.isfinite, (p.tau, p.theta, p.phi, p.r, *state.velocity))):
        raise ConfigError("state coordinates and velocity must be finite")
    n = params.n
    tau_d, theta_d, phi_d, r_d = state.velocity
    r, theta = p.r, p.theta
    if r <= n:
        raise DomainError(f"r must exceed n = {n}")
    scale = max(abs(tau_d), abs(theta_d), abs(phi_d), abs(r_d))
    if scale == 0:
        return FamilyConstants(family="stationary", eps=1, r1=0.0)
    bound = tol * scale
    if abs(r_d) <= bound:
        raise NotAGeodesic(
            "constant r forces every velocity component to vanish; "
            "no geodesic passes through this state")
    eps = 1 if r_d > 0 else -1
    h1 = (r + n) / (r - n)
    radial_sq = h1 * r_d * r_d
    moving = {k for k, v in zip(COORDS, (tau_d, theta_d, phi_d)) if abs(v) > bound}
    for fam, spec in _REGISTRY.items():
        if set(spec.swept) != moving:
            continue
        found = spec.extract(n, r, theta, state.velocity, radial_sq, tol)
        if found is None:
            break
        trial = FamilyConstants(family=fam, eps=eps, **found,
                                **dict.fromkeys(spec.anchors, 0.0))
        vals = curves(params, trial, r, spec.invert_mode)
        return FamilyConstants(family=fam, eps=eps, **found, t1=-vals["t"],
                               **{f"{key}1": getattr(p, key) - vals[key] for key in spec.swept})
    return FamilyConstants(family="generic", eps=eps,
                           r1=math.sqrt(norm(params, state)))


def default_invert_mode(family: str) -> str:
    """Mode used when inverting t(r): aligned for thm1-4 (so the time range
    starts exactly at t1) and corrected for thm5 (whose brackets already
    vanish at R+ and whose literal time scale is off by r1/sqrt(2n))."""
    return _spec(family, "has no curve mode").invert_mode


def invert_t_of_r(params: ModelParams, consts: FamilyConstants, t,
                  mode: str | None = None):
    """Solve t_curve(r) = t on the monotone branch r >= turning radius, for
    a time or a 1-d array of times (a float for a float, like curves).

    The curve is strictly monotone (increasing for eps = +1, decreasing for
    eps = -1), so the inverse exists on one side of the curve's value at the
    turning radius; times on the other side raise RangeError, and so do
    times beyond the largest radius where the curve is finite. Each time
    gets the bracket [R, hi] with hi doubled from max(2R, R + n) until it
    passes the time, and all brackets are solved in one array root solve
    that gives each root bit for bit as scipy's brentq would
    (xtol = 1e-14)."""
    if mode is None:
        mode = default_invert_mode(consts.family)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ConfigError(f"times must be a number or a 1-d array, got shape {ts.shape}")
    flat = ts.reshape(-1)
    bad = ~np.isfinite(flat)
    if np.any(bad):
        raise ConfigError(f"t must be finite, got {float(flat[bad][0])}")
    _, R, kernel = _curve_fn(params, consts, mode)
    eps = consts.eps
    with np.errstate(all="ignore"):  # inf or NaN past the float range: checked below
        t_turn = float(kernel(np.asarray(R))[0])
        gap = eps * (flat - t_turn)
        if np.any(gap < 0):
            raise RangeError(f"t = {float(flat[gap < 0][0])} lies before the turning time "
                             f"{t_turn} on this branch")
        r = np.full_like(flat, R)
        todo = np.flatnonzero(gap > 0)
        target = flat[todo]
        hi = np.full_like(target, max(2 * R, R + params.n))
        t_hi = kernel(hi)[0]
        low = eps * (t_hi - target) < 0
        while np.any(low):
            hi[low] *= 2
            if np.any(hi > 1e300):
                raise RangeError(f"t = {float(target[hi > 1e300][0])} not reachable "
                                 f"on this branch")
            t_hi[low] = kernel(hi[low])[0]
            low = eps * (t_hi - target) < 0
        if not np.all(np.isfinite(t_hi)):
            raise RangeError(f"t = {float(target[~np.isfinite(t_hi)][0])} not reachable "
                             f"on this branch: the curve overflows first")
        r[todo] = brentq(lambda x, i: kernel(x)[0] - target[i], R, hi)
    return _scalar_like(t, r.reshape(ts.shape))


def stitched_coords(params: ModelParams, consts: FamilyConstants, ts):
    """Full two-branch trajectory of a family, sampled at times ts.

    A family's closed forms describe one radial branch; the physical geodesic
    runs the branch in reverse down to the turning radius at time t1 and back
    out, with r even about t1 and each swept coordinate odd about its anchor:
    x(t1 - d) = 2 x1 - x(t1 + d). Returns a dict of arrays keyed 't', 'r',
    plus the family's swept coordinates. All times are inverted in one
    invert_t_of_r call, in the family's default invert mode, so anchors hold
    exactly at t1."""
    mode = _spec(consts.family, "has no closed-form curves").invert_mode
    outgoing = replace(consts, eps=1)
    flat = np.atleast_1d(np.asarray(ts, dtype=float))
    r = invert_t_of_r(params, outgoing, consts.t1 + np.abs(flat - consts.t1), mode)
    vals = curves(params, outgoing, r, mode)
    out = {"t": flat.copy(), "r": r}
    for anchor in _REGISTRY[consts.family].anchors:
        x = vals[anchor[:-1]]
        out[anchor[:-1]] = np.where(flat < consts.t1, 2 * getattr(consts, anchor) - x, x)
    return out


def radial_passthrough(params: ModelParams, t1: float, r1: float, *,
                       r_max: float | None = None, samples: int = 201,
                       tau: float = 0.0, theta: float = np.pi / 2,
                       phi: float = 0.0) -> Trajectory:
    """Exact radial trajectory continued across r = n: the incoming branch
    reaches the origin point at t = t1 with coordinate speed dr/dt -> 0 but
    constant sqrt((r+n)/(r-n)) dr/dt, and the outgoing branch leaves it, so
    r(t1+d) = r(t1-d). This is the only family that touches r = n; built in
    closed form from the thm1 curve (stitched_coords) and family_velocities,
    no stepping involved. The profile is the same whichever branch is called
    incoming, so only |r1| enters it.

    The angular coordinates are constant and configurable; they do not enter
    the radial motion. samples, an odd integer of at least 3 (a bool is
    refused), are uniform in t over [t1 - T, t1 + T] where T is the time to
    reach r_max (default 5n)."""
    n = params.n
    if r1 == 0:
        raise DegenerateError("radial constant r1 must be nonzero")
    _require_count("samples", samples, 3)
    if samples % 2 == 0:
        raise ConfigError("samples must be an odd count >= 3")
    if not np.all(np.isfinite((tau, theta, phi))):
        raise ConfigError("tau, theta and phi must be finite")
    consts = FamilyConstants(family="thm1", r1=abs(float(r1)), t1=float(t1))
    top = 5 * n if r_max is None else float(r_max)
    if not n < top < math.inf:
        raise ConfigError("r_max must be finite and exceed n")

    T = thm1_t_of_r(params, consts, top, "aligned") - consts.t1
    ts = consts.t1 + np.linspace(-T, T, samples)
    r = stitched_coords(params, consts, ts)["r"]
    # family_velocities takes r > n only: the seam rows r = n keep dr/dt = 0
    dr = np.zeros(samples)
    off = r > n
    speed = family_velocities(consts, params, r[off])[3]
    dr[off] = np.sign(ts[off] - consts.t1) * speed
    # charges vanish (no tau/phi motion); norm = g_rr dr^2 = r1^2 exactly,
    # including in the r -> n limit
    rows = np.zeros((samples, 12))
    rows[:, 0], rows[:, 4], rows[:, 8], rows[:, 11] = ts, r, dr, consts.r1 * consts.r1
    rows[:, 1:4] = tau, theta, phi
    return Trajectory(rows, HORIZON)


def family_to_json(consts: FamilyConstants, params: ModelParams) -> dict:
    """Serialize a curve family (with its n) to a plain JSON-ready dict with
    a fixed, family-specific key order."""
    spec = _spec(consts.family, "is not serializable")
    return {"family": consts.family, "eps": int(consts.eps), "n": float(params.n),
            **{key: float(getattr(consts, key)) for key in spec.json_fields}}


def family_from_json(obj: dict) -> tuple[FamilyConstants, ModelParams]:
    """Inverse of family_to_json. The key set must match the family exactly;
    unknown or missing keys raise ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError("family record must be a JSON object")
    fam = obj.get("family")
    if fam not in _REGISTRY:
        raise ConfigError(f"unknown or missing family tag {fam!r}")
    numbers = ("eps", "n", *_REGISTRY[fam].json_fields)
    for key in (*numbers, *obj):
        if key not in obj:
            raise ConfigError(f"family {fam!r} record is missing {key!r}")
        if key != "family" and key not in numbers:
            raise ConfigError(f"family {fam!r} record does not take {key!r}")
    for key in numbers:
        if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
            raise ConfigError(f"{key!r} must be a number")
    params = ModelParams(n=float(obj["n"]))
    if obj["eps"] not in (1, -1):
        raise ConfigError("eps must be +1 or -1")
    return FamilyConstants(family=fam, eps=int(obj["eps"]),
                           **{k: float(obj[k]) for k in numbers[2:]}), params
