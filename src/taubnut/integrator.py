"""Adaptive numerical integration of the full geodesic system.

The equations of motion contract the geometry module's closed-form
connection coefficients with the velocity; no coefficient is written here.
State layout is the 8-vector (tau, theta, phi, r, dtau, dtheta, dphi, dr)
in the fixed coordinate order; geodesic_rhs takes it flat. The stepper is
scipy's DOP853 (the explicit Runge-Kutta 8(5,3) code of Hairer, Norsett &
Wanner, Solving ODEs I, sections II.5-6), driven one step at a time; its
7th-order dense output, evaluated once per step for every event, feeds
event detection for the removable singularity r = n and the polar axis, and
the fixed-grid samples each step reads before its interpolant is dropped.
Integration also stops at the affine horizon t_end and at the step budget.
Non-finite start states or grid entries, and relative tolerances below 100
machine epsilons (which scipy would silently raise), are rejected. The two
Killing charges p_tau, p_phi and the velocity norm of all rows come from one
array pass over geometry's broadcast metric; they are monitored, never
enforced. The exact radial passthrough of r = n is a closed form in the
analytic module.

Axis semantics: every 1/sin(theta) term of the equations multiplies
dtau/dt*dtheta/dt or dphi/dt*dtheta/dt, so motion with dtau/dt = dphi/dt = 0
(radial or meridional) activates no singular term and is allowed through the
axis; the axis stop applies only when those charges are active.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .errors import AxisError, ConfigError, DomainError
from .geometry import (
    PHI,
    R,
    TAU,
    THETA,
    ModelParams,
    Point,
    _connection_regular,
    _connection_singular,
    _metric,
    metric_at,  # noqa: F401  (bench/tracing.py wraps integrator.metric_at)
)

TERMINATIONS = ("Horizon", "SingularityApproach", "AxisApproach", "StepBudget")

HORIZON = "Horizon"
SINGULARITY_APPROACH = "SingularityApproach"
AXIS_APPROACH = "AxisApproach"
STEP_BUDGET = "StepBudget"

# smallest relative tolerance the stepper honours; below it scipy would
# silently raise rel_tol to this value
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
    """Step-control tolerances, affine horizon, budgets and stop margins.

    rel_tol must be at least REL_TOL_FLOOR (100 machine epsilons, about
    2.2e-14). r_floor_rel must survive the addition in 1 + r_floor_rel
    (exceed half a machine epsilon, about 1.1e-16), so that the r floor
    n*(1 + r_floor_rel) sits above n. max_steps bounds the stepper calls of
    `integrate`, counting the ones a chart exit cut short; one call may
    reject and shrink its step internally before it accepts one."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    t_end: float = 10.0
    max_steps: int = 1_000_000
    r_floor_rel: float = 1e-6
    sample_grid: tuple | None = None

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ConfigError("abs_tol and rel_tol must be positive")
        if not self.t_end > 0:
            raise ConfigError("t_end must be positive")
        if not np.all(np.isfinite((self.abs_tol, self.rel_tol, self.t_end))):
            raise ConfigError("abs_tol, rel_tol and t_end must be finite")
        if self.rel_tol < REL_TOL_FLOOR:
            raise ConfigError(f"rel_tol must be at least 100*eps = {REL_TOL_FLOOR:.6g}")
        if not 0 < self.r_floor_rel < 0.5:
            raise ConfigError("r_floor_rel must be in (0, 0.5)")
        if not 1.0 + self.r_floor_rel > 1.0:
            raise ConfigError(f"r_floor_rel = {self.r_floor_rel!r} is lost in 1 + r_floor_rel, "
                              "which would put the r floor at n")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        if self.sample_grid is not None:
            grid = tuple(float(v) for v in self.sample_grid)
            if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
                raise ConfigError("sample_grid must be finite and strictly increasing")
            object.__setattr__(self, "sample_grid", grid)


class Trajectory:
    """Ordered samples of (t, state, p_tau, p_phi, norm) plus the termination
    cause. Row layout matches the CSV column order exactly."""

    COLUMNS = ("t", "tau", "theta", "phi", "r", "dtau", "dtheta", "dphi", "dr",
               "p_tau", "p_phi", "norm")

    def __init__(self, data: np.ndarray, termination: str):
        if termination not in TERMINATIONS:
            raise ConfigError(f"unknown termination cause {termination!r}")
        self.data = np.asarray(data, dtype=float).reshape(-1, 12)
        self.termination = termination

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
    x''^lam = -Gamma^lam_{mu nu} x'^mu x'^nu, at the flat state y (a
    PhaseState passes s.as_array()), with the connection from geometry's
    closed forms contracted by explicit velocity products. The 1/sin(theta)
    coefficients are evaluated only when their velocity product dtau*dtheta
    or dphi*dtheta is nonzero, so radial/meridional motion evaluates cleanly
    arbitrarily close to (and across) the axis. r <= n, and radii whose
    powers overflow a float, raise DomainError."""
    _, theta, _, r, dtau, dth, dphi, dr = y.tolist()
    n = params.n
    if not r > n:
        raise DomainError(f"r = {r} must exceed n = {n}")
    # numpy's cos and sin (the C library's differ in the last bit) as Python
    # floats, whose arithmetic costs less than numpy scalars'
    ct, st = float(np.cos(theta)), float(np.sin(theta))
    # Gamma^lam_{mu nu} is named lam_mu nu, with h standing for theta
    (t_tr, t_pr, r_tt, r_tp, r_rr, r_hh, r_pp, h_tp, h_rh, h_pp,
     p_pr) = _connection_regular(n, r, ct, st)
    acc_tau = -2 * (t_tr * dtau + t_pr * dphi) * dr
    acc_theta = -(2 * (h_tp * dtau * dphi + h_rh * dr * dth) + h_pp * dphi * dphi)
    acc_phi = -2 * p_pr * dphi * dr
    acc_r = -(r_tt * dtau * dtau + 2 * r_tp * dtau * dphi + r_rr * dr * dr
              + r_hh * dth * dth + r_pp * dphi * dphi)
    tau_theta = dtau * dth
    phi_theta = dphi * dth
    if tau_theta != 0.0 or phi_theta != 0.0:
        if st == 0.0:
            raise AxisError("1/sin(theta) term activated exactly on the axis")
        t_th, t_ph, p_th, p_ph = _connection_singular(n, r, ct, st)
        acc_tau -= 2 * (t_th * tau_theta + t_ph * phi_theta)
        acc_phi -= 2 * (p_th * tau_theta + p_ph * phi_theta)
    return np.array([dtau, dth, dphi, dr, acc_tau, acc_theta, acc_phi, acc_r])


def _rows(params: ModelParams, ts, ys) -> np.ndarray:
    """Rows (t, state, p_tau, p_phi, norm) of sample times ts and flat states
    ys from one broadcast metric evaluation; r <= n raises DomainError."""
    ys = np.reshape(ys, (-1, 8))
    n, r, v = params.n, ys[:, R], ys[:, 4:]
    if not np.all(r > n):
        raise DomainError(f"r = {np.min(r)} must exceed n = {n}")
    g = _metric(n, ys[:, THETA], r)
    p_tau = g[:, TAU, TAU] * v[:, TAU] + g[:, TAU, PHI] * v[:, PHI]
    p_phi = g[:, PHI, TAU] * v[:, TAU] + g[:, PHI, PHI] * v[:, PHI]
    return np.column_stack([ts, ys, p_tau, p_phi, (v[:, None, :] @ g @ v[:, :, None])[:, 0, 0]])


def killing_charges(params: ModelParams, s: PhaseState) -> tuple:
    """Conserved momenta of the two commuting symmetries:
    p_tau = g_tt tau' + g_tp phi', p_phi = g_pt tau' + g_pp phi'."""
    row = _rows(params, [0.0], [s.as_array()])[0]
    return float(row[9]), float(row[10])


def norm(params: ModelParams, s: PhaseState) -> float:
    """Velocity norm g_{mu nu} x'^mu x'^nu; nonnegative and conserved along
    exact geodesics (the metric is positive definite)."""
    return float(_rows(params, [0.0], [s.as_array()])[0, 11])


def _first_crossing(interp, ts, ys, value, index, sign):
    """Earliest t in [ts[0], ts[-1]] where sign*(y[index](t) - value) reaches
    zero, given the states ys = interp(ts) at the probe times ts; None if no
    probe reaches it. Only the first probe interval that reaches zero is
    root-solved."""
    reached = np.flatnonzero(sign * (ys[index] - value) <= 0.0)
    if reached.size == 0:
        return None
    k = reached[0]
    if k == 0:
        return float(ts[0])
    return float(brentq(lambda t: sign * (interp(t)[index] - value), ts[k - 1], ts[k],
                        xtol=1e-14, rtol=8.9e-16))


def integrate(params: ModelParams, state: PhaseState, cfg: IntegrationConfig) -> Trajectory:
    """Integrate the geodesic system from `state` until the affine horizon
    t_end, the r floor n*(1 + r_floor_rel), an armed axis crossing, or the
    step budget, whichever comes first.

    Sampling is one pass: each accepted step appends its start state or,
    with cfg.sample_grid set, its grid times up to its end or event time,
    read by one call of its interpolant, which is not kept. Grid entries
    outside [0, stop time] are dropped; the terminal sample is always
    appended if distinct. The axis event is armed only when
    the initial state has dtau/dt != 0 or dphi/dt != 0; unarmed motion may
    pass through the axis.

    A stage that leaves the chart (r <= n, a radius whose powers overflow,
    or an active 1/sin(theta) term exactly on the axis) restarts the stepper
    from the last accepted state with a quarter of the step it tried;
    cfg.max_steps counts these cut-short stepper calls too. The stepper giving up on a step too small to advance
    t also ends in StepBudget."""
    n = params.n
    y = state.as_array()
    if not np.all(np.isfinite(y)):
        raise ConfigError("state coordinates and velocity must be finite")
    r_floor = n * (1.0 + cfg.r_floor_rel)
    if y[R] <= r_floor and not y[R] > n:
        raise DomainError(f"initial r = {y[R]} must exceed n = {n}")

    armed = state.velocity[0] != 0.0 or state.velocity[2] != 0.0
    guard = params.axis_guard
    event_table = [(r_floor, R, +1.0, SINGULARITY_APPROACH)]
    if armed:
        event_table += [(guard, THETA, +1.0, AXIS_APPROACH),
                        (np.pi - guard, THETA, -1.0, AXIS_APPROACH)]

    if y[R] <= r_floor:
        return Trajectory(_rows(params, [0.0], [y]), SINGULARITY_APPROACH)
    if armed and not guard < y[THETA] < np.pi - guard and state.velocity[1] != 0.0:
        return Trajectory(_rows(params, [0.0], [y]), AXIS_APPROACH)
    if all(v == 0.0 for v in state.velocity):
        return Trajectory(_rows(params, [0.0], [y]), HORIZON)

    def start(t, y, first_step=None):
        return DOP853(lambda _, yy: geodesic_rhs(params, yy), t, y, cfg.t_end,
                      rtol=cfg.rel_tol, atol=cfg.abs_tol, first_step=first_step)

    try:
        solver = start(0.0, y)
    except (DomainError, AxisError):
        # the initial-step probe left the chart: start from the whole horizon
        # and let the chart-exit retries shrink the step
        solver = start(0.0, y, cfg.t_end)
    grid = None if cfg.sample_grid is None else np.array(cfg.sample_grid)
    sample_t, sample_y = [], []
    calls = 0
    while True:
        t, y = solver.t, solver.y
        if solver.status != "running" or calls >= cfg.max_steps:
            # "failed" is scipy's "step size too small": no step advances t
            termination = HORIZON if solver.status == "finished" else STEP_BUDGET
            t_stop, y_stop = t, y
            break
        calls += 1
        h_try = min(solver.h_abs, cfg.t_end - t)
        try:
            solver.step()
            if solver.status == "failed":
                continue
            interp = solver.dense_output()
        except (DomainError, AxisError):
            # a stage left the chart (past the floor or onto the axis): retry
            # shorter from the last accepted state; the event machinery stops
            # us once a step lands inside
            if 0.25 * h_try <= 10 * np.spacing(t):
                termination, t_stop, y_stop = STEP_BUDGET, t, y
                break
            solver = start(t, y, 0.25 * h_try)
            continue

        t1 = solver.t
        ts = t + (t1 - t) * _PROBES
        ts[-1] = t1
        ys = interp(ts)
        events = [(tc, cause) for value, index, sign, cause in event_table
                  if (tc := _first_crossing(interp, ts, ys, value, index, sign)) is not None]
        tc, cause = min(events, key=lambda ev: ev[0]) if events else (t1, None)
        if grid is None:
            block, yb = [t], [y]  # the step start
        else:
            # the grid times in [t, tc), read now: no interpolant outlives its step
            block = grid[np.searchsorted(grid, t):np.searchsorted(grid, tc)]
            yb = interp(block).T
            yb[block == t] = y  # a grid time at the step start is that state, signed zeros too
        sample_t.extend(block)
        sample_y.extend(yb)
        if cause is not None:
            termination, t_stop, y_stop = cause, tc, y if tc == t else interp(tc)
            break

    if not sample_t or sample_t[-1] < t_stop:
        sample_t.append(t_stop)
        sample_y.append(y_stop)
    return Trajectory(_rows(params, sample_t, sample_y), termination)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize with round-trip (17 significant digit) formatting and the
    termination cause in a trailing comment line."""
    lines = [",".join(Trajectory.COLUMNS)]
    for row in traj.data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    lines.append(f"# termination={traj.termination}")
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str) -> Trajectory:
    """Parse the CSV form back; re-emitting the result is byte-stable."""
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
        rows.append([float(v) for v in parts])
    if termination is None:
        raise ConfigError("trajectory CSV missing '# termination=' comment")
    return Trajectory(np.asarray(rows, dtype=float).reshape(-1, 12), termination)
