"""Adaptive numerical integration of the full geodesic system.

The equations of motion contract the geometry module's closed-form
connection coefficients with the velocity; no coefficient is written here.
Callers and rows use the 8-vector (tau, theta, phi, r, dtau, dtheta, dphi,
dr) in the fixed coordinate order. The stepper runs on the flat state
(tau, theta, phi, s, dtau, dtheta, dphi, ds) in the regular radial
coordinate s = sqrt(r - n): r = n is the nut, a regular point of the
manifold, where r(t) has a square-root singularity that DOP853 resolves
only by rejecting step after step, while s(t) passes it linearly. The
stepper is DOP853, the explicit Runge-Kutta 8(5,3) code of Hairer, Norsett
& Wanner (Solving ODEs I, sections II.5-6), in the package's port of
scipy's (_solvers), which steps bit for bit as scipy's does; no scipy module
is imported. It is driven one step at a time; its 7th-order dense output
feeds event detection for the r floor near the nut and the polar axis, and
the fixed-grid samples each step reads before its interpolant is dropped.
The interpolant costs three extra rhs calls, so it is built only for a step
that can reach the floor, the axis band or a grid time, and evaluated once
there for every event within reach. Integration also stops at the affine
horizon t_end and at the step budget. Non-finite start states or grid
entries, and relative tolerances below 100 machine epsilons (which scipy's
DOP853 would silently raise), are rejected. The two Killing charges p_tau,
p_phi and the velocity norm of all rows come from one array pass over
geometry's broadcast metric; they are monitored, never enforced. The exact
radial passthrough of r = n is a closed form in the analytic module.

Axis semantics: every 1/sin(theta) term of the equations multiplies
dtau/dt*dtheta/dt or dphi/dt*dtheta/dt, so motion with dtau/dt = dphi/dt = 0
(radial or meridional) activates no singular term and is allowed through the
axis; the axis stop applies only when those charges are active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._solvers import DOP853, brentq
from .errors import AxisError, ConfigError, DomainError, _require_count
from .geometry import (
    PHI,
    R,
    TAU,
    THETA,
    ModelParams,
    Point,
    _connection_s,
    _connection_singular,
    _ipow,
    _metric,
    _powers_s,
    metric_at,  # noqa: F401  (bench/tracing.py wraps integrator.metric_at)
)

TERMINATIONS = ("Horizon", "SingularityApproach", "AxisApproach", "StepBudget")

HORIZON = "Horizon"
SINGULARITY_APPROACH = "SingularityApproach"
AXIS_APPROACH = "AxisApproach"
STEP_BUDGET = "StepBudget"

# smallest relative tolerance accepted: scipy's DOP853, which the stepper
# reproduces, silently raises a smaller rel_tol to this value
REL_TOL_FLOOR = 100 * np.finfo(float).eps

# fractions of each accepted step at which the event scan reads the interpolant
_PROBES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


@dataclass(frozen=True)
class PhaseState:
    """A point plus coordinate velocities (dtau, dtheta, dphi, dr) with respect
    to the affine parameter."""

    point: Point
    velocity: tuple

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.point.as_array(), np.asarray(self.velocity, dtype=float)])

    @staticmethod
    def from_array(y) -> "PhaseState":
        return PhaseState(Point.from_array(y[:4]), (float(y[4]), float(y[5]), float(y[6]), float(y[7])))


@dataclass(frozen=True)
class IntegrationConfig:
    """Step-control tolerances, affine horizon, step budget and sample grid.

    rel_tol must be at least REL_TOL_FLOOR (100 machine epsilons, about
    2.2e-14). max_steps, an integer of at least 1 (a bool is refused),
    bounds the stepper calls of `integrate`, counting the ones a chart exit
    cut short; one call may reject and shrink its step internally before it
    accepts one. The class constant r_floor_rel puts the r floor, where a
    run stops with SingularityApproach, at n*(1 + r_floor_rel)."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    t_end: float = 10.0
    max_steps: int = 1_000_000
    sample_grid: tuple | None = None
    r_floor_rel: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ConfigError("abs_tol and rel_tol must be positive")
        if not self.t_end > 0:
            raise ConfigError("t_end must be positive")
        if not np.all(np.isfinite((self.abs_tol, self.rel_tol, self.t_end))):
            raise ConfigError("abs_tol, rel_tol and t_end must be finite")
        if self.rel_tol < REL_TOL_FLOOR:
            raise ConfigError(f"rel_tol must be at least 100*eps = {REL_TOL_FLOOR:.6g}")
        # a bool is an int, and a NaN or infinite budget would never run out
        _require_count("max_steps", self.max_steps, 1)
        if self.sample_grid is not None:
            grid = tuple(float(v) for v in self.sample_grid)
            if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
                raise ConfigError("sample_grid must be finite and strictly increasing")
            object.__setattr__(self, "sample_grid", grid)


class Trajectory:
    """Ordered samples of (t, state, p_tau, p_phi, norm) plus the termination
    cause. Row layout matches the CSV column order exactly.

    stats holds the run's deterministic counters when `integrate` built it
    (empty otherwise): nfev (rhs calls), accepted (steps), rejected
    (attempts the stepper's error test refused; a call cut short by a chart
    exit adds none), chart_retries, interpolants (dense outputs built),
    root_solves (brentq calls), and h_min, h_max over the accepted steps
    (inf and 0.0 when none was taken)."""

    COLUMNS = ("t", "tau", "theta", "phi", "r", "dtau", "dtheta", "dphi", "dr",
               "p_tau", "p_phi", "norm")

    def __init__(self, data: np.ndarray, termination: str, stats: dict | None = None):
        if termination not in TERMINATIONS:
            raise ConfigError(f"unknown termination cause {termination!r}")
        self.data = np.asarray(data, dtype=float).reshape(-1, 12)
        self.termination = termination
        self.stats = dict(stats or {})

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def coords(self) -> np.ndarray:
        return self.data[:, 1:5]

    @property
    def velocities(self) -> np.ndarray:
        return self.data[:, 5:9]

    @property
    def p_tau(self) -> np.ndarray:
        return self.data[:, 9]

    @property
    def p_phi(self) -> np.ndarray:
        return self.data[:, 10]

    @property
    def norm(self) -> np.ndarray:
        return self.data[:, 11]

    def state(self, i: int) -> PhaseState:
        return PhaseState.from_array(self.data[i, 1:9])

    def __len__(self) -> int:
        return self.data.shape[0]


def geodesic_rhs(params: ModelParams, y: np.ndarray) -> np.ndarray:
    """Velocity-and-acceleration 8-vector of the geodesic system,
    x''^lam = -Gamma^lam_{mu nu} x'^mu x'^nu, at the flat stepper state
    y = (tau, theta, phi, s, dtau, dtheta, dphi, ds) in the regular radial
    coordinate s = sqrt(r - n) (r = n + s**2, ds = dr/(2s)), with the
    s-chart connection from geometry's closed forms contracted by explicit
    velocity products. The metric is smooth through the nut s = 0, so purely
    radial motion passes it like any other point. The three 1/s coefficients
    multiply ds*dtau, ds*dtheta and ds*dphi and are evaluated only when one
    of those products is nonzero; such a state exactly at s = 0 raises
    DomainError (the angles are undefined at the nut), as do coordinates
    whose powers overflow a float. Likewise the 1/sin(theta) coefficients
    are evaluated only when dtau*dtheta or dphi*dtheta is nonzero, so
    radial/meridional motion evaluates cleanly arbitrarily close to (and
    across) the axis."""
    _, theta, _, s, dtau, dth, dphi, ds = y.tolist()
    n = params.n
    # numpy's cos and sin (the C library's differ in the last bit) as Python
    # floats, whose arithmetic costs less than numpy scalars'
    ct, st = float(np.cos(theta)), float(np.sin(theta))
    powers = _powers_s(n, s, ct, st)
    # Gamma^lam_{mu nu} is named lam_mu nu, with h standing for theta; the
    # three polar ones come times s
    (t_ts, t_ps, s_tt, s_tp, s_ss, s_hh, s_pp, h_tp, h_sh, h_pp,
     p_ps) = _connection_s(n, s, ct, st, powers)
    acc_tau = -2 * t_ps * dphi * ds
    acc_theta = -(2 * h_tp * dtau * dphi + h_pp * dphi * dphi)
    acc_phi = 0.0
    acc_s = -(s_tt * dtau * dtau + 2 * s_tp * dtau * dphi + s_ss * ds * ds
              + s_hh * dth * dth + s_pp * dphi * dphi)
    if ds != 0.0 and (dtau != 0.0 or dth != 0.0 or dphi != 0.0):
        if s == 0.0:
            raise DomainError("1/s term activated exactly at the nut s = 0")
        w = ds / s
        acc_tau -= 2 * t_ts * dtau * w
        acc_theta -= 2 * h_sh * dth * w
        acc_phi -= 2 * p_ps * dphi * w
    tau_theta = dtau * dth
    phi_theta = dphi * dth
    if tau_theta != 0.0 or phi_theta != 0.0:
        if st == 0.0:
            raise AxisError("1/sin(theta) term activated exactly on the axis")
        t_th, t_ph, p_th, p_ph = _connection_singular(n, ct, st, powers)
        acc_tau -= 2 * (t_th * tau_theta + t_ph * phi_theta)
        acc_phi -= 2 * (p_th * tau_theta + p_ph * phi_theta)
    return np.array([dtau, dth, dphi, ds, acc_tau, acc_theta, acc_phi, acc_s])


def _rows(params: ModelParams, ts, ys) -> np.ndarray:
    """Rows (t, state, p_tau, p_phi, norm) of sample times ts and flat states
    ys from one broadcast metric evaluation; r <= n, or a charge or norm
    past the float range, raises DomainError."""
    ys = np.reshape(ys, (-1, 8))
    n, r, v = params.n, ys[:, R], ys[:, 4:]
    if not np.all(r > n):
        raise DomainError(f"r = {np.min(r)} must exceed n = {n}")
    g = _metric(n, ys[:, THETA], r)
    with np.errstate(over="ignore", invalid="ignore"):
        p_tau = g[:, TAU, TAU] * v[:, TAU] + g[:, TAU, PHI] * v[:, PHI]
        p_phi = g[:, PHI, TAU] * v[:, TAU] + g[:, PHI, PHI] * v[:, PHI]
        norms = (v[:, None, :] @ g @ v[:, :, None])[:, 0, 0]
    if not np.all(np.isfinite([p_tau, p_phi, norms])):
        raise DomainError("p_tau, p_phi or the norm of a row is not finite")
    return np.column_stack([ts, ys, p_tau, p_phi, norms])


def killing_charges(params: ModelParams, s: PhaseState) -> tuple:
    """Conserved momenta of the two commuting symmetries:
    p_tau = g_tt tau' + g_tp phi', p_phi = g_pt tau' + g_pp phi'."""
    row = _rows(params, [0.0], [s.as_array()])[0]
    return float(row[9]), float(row[10])


def norm(params: ModelParams, s: PhaseState) -> float:
    """Velocity norm g_{mu nu} x'^mu x'^nu; nonnegative and conserved along
    exact geodesics (the metric is positive definite)."""
    return float(_rows(params, [0.0], [s.as_array()])[0, 11])


def _first_crossing(interp, ts, ys, value, index, sign, stats):
    """Earliest t in [ts[0], ts[-1]] where sign*(y[index](t) - value) reaches
    zero, given the states ys = interp(ts) at the probe times ts; None if no
    probe reaches it. Only the first probe interval that reaches zero is
    root-solved, and counted in stats["root_solves"]."""
    reached = np.flatnonzero(sign * (ys[index] - value) <= 0.0)
    if reached.size == 0:
        return None
    k = reached[0]
    if k == 0:
        return float(ts[0])
    stats["root_solves"] += 1
    return float(brentq(lambda t, _: sign * (interp(t)[index] - value), ts[k - 1], ts[k])[0])


def integrate(params: ModelParams, state: PhaseState, cfg: IntegrationConfig) -> Trajectory:
    """Integrate the geodesic system from `state` until the affine horizon
    t_end, the r floor n*(1 + r_floor_rel), an armed axis crossing, or the
    step budget, whichever comes first.

    The stepper runs on (tau, theta, phi, s, dtau, dtheta, dphi, ds) with
    s = sqrt(r - n) > 0 and ds = dr/(2s) (see geodesic_rhs), where the r
    floor is the s level sqrt(r_floor - n); rows carry r = n + s**2 and
    dr = 2s*ds, and a row at t = 0 is the caller's state itself.

    Sampling is one pass: each accepted step appends its start state or,
    with cfg.sample_grid set, its grid times up to its end or event time,
    read by one call of its interpolant, which is not kept. An event level
    is within a step's reach when its smaller endpoint margin
    sign*(y[index] - value) is at most twice the step times the largest
    |dy[index]/dt| over the step's stages (solver.K). Only levels within
    reach are scanned, at five probe times; without a grid, a step with none
    builds no interpolant. Grid entries outside [0, stop time] are dropped;
    the terminal sample is always appended if distinct. The axis event is
    armed only when the initial state has dtau/dt != 0 or dphi/dt != 0;
    unarmed motion may pass through the axis.

    A stage that leaves the chart (a coordinate whose powers overflow, or an
    active 1/sin(theta) or 1/s term exactly on the axis or at the nut), in a
    step or in its interpolant, sets the stepper back to that step's start
    with a quarter of the step; cfg.max_steps counts these calls too.
    A step() that returns False, its step NaN or below ten float spacings of
    t, also ends in StepBudget; the run reaches the horizon when the
    stepper's t lands on t_end. The run's counters are in the returned
    Trajectory's stats; its nfev counts every rhs call, the initial-step
    probe of a first stepper discarded for leaving the chart included."""
    n = params.n
    y0 = state.as_array()
    if not np.all(np.isfinite(y0)):
        raise ConfigError("state coordinates and velocity must be finite")
    start = _rows(params, [0.0], [y0])  # raises on r <= n or an overflowing charge or norm
    r_floor = n * (1.0 + cfg.r_floor_rel)

    armed = state.velocity[0] != 0.0 or state.velocity[2] != 0.0
    guard = params.axis_guard
    event_table = [(math.sqrt(r_floor - n), R, +1.0, SINGULARITY_APPROACH)]
    if armed:
        event_table += [(guard, THETA, +1.0, AXIS_APPROACH),
                        (np.pi - guard, THETA, -1.0, AXIS_APPROACH)]

    stats = {"nfev": 0, "accepted": 0, "rejected": 0, "chart_retries": 0, "interpolants": 0,
             "root_solves": 0, "h_min": math.inf, "h_max": 0.0}
    if y0[R] <= r_floor:
        return Trajectory(start, SINGULARITY_APPROACH, stats)
    if armed and not guard < y0[THETA] < np.pi - guard and state.velocity[1] != 0.0:
        return Trajectory(start, AXIS_APPROACH, stats)
    if all(v == 0.0 for v in state.velocity):
        return Trajectory(start, HORIZON, stats)
    y = y0.copy()
    y[R] = math.sqrt(y0[R] - n)
    y[7] = y0[7] / (2 * y[R])

    def rhs(_, yy):
        stats["nfev"] += 1
        return geodesic_rhs(params, yy)

    try:
        solver = DOP853(rhs, 0.0, y, cfg.t_end, cfg.rel_tol, cfg.abs_tol)
    except (DomainError, AxisError):
        # the initial-step probe left the chart: start from the whole horizon
        # and let the chart-exit retries shrink the step
        solver = DOP853(rhs, 0.0, y, cfg.t_end, cfg.rel_tol, cfg.abs_tol, first_step=cfg.t_end)
    # the stage rates, a view of solver.K, of each coordinate an event row watches
    event_rates = {index: solver.K[:, index] for _, index, _, _ in event_table}
    grid = None if cfg.sample_grid is None else np.array(cfg.sample_grid)
    sample_t, sample_y = [], []
    calls = 0
    while True:
        t, y, f = solver.t, solver.y, solver.f
        if t == cfg.t_end or calls >= cfg.max_steps:
            termination, t_stop, y_stop = HORIZON if t == cfg.t_end else STEP_BUDGET, t, y
            break
        calls += 1
        h_try = min(solver.h_abs, cfg.t_end - t)
        try:
            if not solver.step():  # a NaN step, or one below ten float spacings of t
                termination, t_stop, y_stop = STEP_BUDGET, t, y
                break
            t1, y1 = solver.t, solver.y
            # the event rows this step can reach: an endpoint margin within
            # twice the step times the largest stage rate of that coordinate
            reach = {index: 2 * (t1 - t) * max(map(abs, rates.tolist()))
                     for index, rates in event_rates.items()}
            near = [(value, index, sign, cause) for value, index, sign, cause in event_table
                    if min(sign * (y.item(index) - value), sign * (y1.item(index) - value))
                    <= reach[index]]
            interp = solver.dense_output() if near or grid is not None else None
        except (DomainError, AxisError):
            # a stage left the chart (past the float range, or onto the axis
            # or the nut): retry shorter from the step's start
            if 0.25 * h_try <= 10 * np.spacing(t):
                termination, t_stop, y_stop = STEP_BUDGET, t, y
                break
            stats["chart_retries"] += 1
            solver.t, solver.y, solver.f, solver.h_abs = t, y, f, 0.25 * h_try
            continue

        h = float(t1 - t)
        stats["accepted"] += 1
        stats["h_min"], stats["h_max"] = min(stats["h_min"], h), max(stats["h_max"], h)
        if grid is None:
            sample_t.append(t)  # the step start
            sample_y.append(y)
        if interp is None:
            continue  # no grid and no event level within reach
        stats["interpolants"] += 1
        tc, cause = t1, None
        if near:
            ts = t + (t1 - t) * _PROBES
            ts[-1] = t1
            ys = interp(ts)
            events = [(tc, cause) for value, index, sign, cause in near
                      if (tc := _first_crossing(interp, ts, ys, value, index, sign,
                                                stats)) is not None]
            tc, cause = min(events, key=lambda ev: ev[0]) if events else (t1, None)
        if grid is not None:
            # the grid times in [t, tc), read now: no interpolant outlives its step
            block = grid[np.searchsorted(grid, t):np.searchsorted(grid, tc)]
            yb = interp(block).T
            yb[block == t] = y  # a grid time at the step start is that state, signed zeros too
            sample_t.extend(block)
            sample_y.extend(yb)
        if cause is not None:
            termination, t_stop, y_stop = cause, tc, y if tc == t else interp(tc)
            break

    stats["rejected"] = solver.rejected
    if not sample_t or sample_t[-1] < t_stop:
        sample_t.append(t_stop)
        sample_y.append(y_stop)
    ys = np.array(sample_y)
    ys[:, 7] *= 2 * ys[:, R]  # dr = 2s ds
    ys[:, R] = n + _ipow(ys[:, R], 2)
    ys[np.array(sample_t) == 0.0] = y0
    return Trajectory(_rows(params, sample_t, ys), termination, stats)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize with round-trip (17 significant digit) formatting and the
    termination cause in a trailing comment line."""
    lines = [",".join(Trajectory.COLUMNS)]
    for row in traj.data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    lines.append(f"# termination={traj.termination}")
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    """Parse the CSV form back; re-emitting the result is byte-stable. A
    non-numeric or non-finite field raises ConfigError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(Trajectory.COLUMNS):
        raise ConfigError("trajectory CSV must start with the standard header")
    termination = None
    rows = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            key, _, value = ln.lstrip("# ").partition("=")
            if key.strip() == "termination":
                termination = value.strip()
            continue
        parts = ln.split(",")
        if len(parts) != 12:
            raise ConfigError(f"trajectory CSV row has {len(parts)} fields, expected 12")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise ConfigError(f"trajectory CSV row {ln!r} has a non-numeric field") from None
    if termination is None:
        raise ConfigError("trajectory CSV missing '# termination=' comment")
    data = np.asarray(rows, dtype=float).reshape(-1, 12)
    if not np.all(np.isfinite(data)):
        raise ConfigError("trajectory CSV has a non-finite field")
    return Trajectory(data, termination)
