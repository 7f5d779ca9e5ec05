"""Adaptive numerical integration of the full geodesic system.

State layout is the 8-vector (tau, theta, phi, r, dtau, dtheta, dphi, dr) in
the fixed coordinate order. The stepper is scipy's DOP853 (the explicit
Runge-Kutta 8(5,3) code of Hairer, Norsett & Wanner, Solving ODEs I,
sections II.5-6), driven one step at a time; its 7th-order dense output
feeds event detection for the removable singularity r = n and the polar
axis, and the samples on a fixed grid. Integration also stops at the affine
horizon t_end and at the step budget. Relative tolerances below 100 machine
epsilons are rejected, since scipy would silently raise them. The two Killing
charges p_tau, p_phi and the velocity norm are recorded along every
trajectory; they are monitored, never enforced.

Axis semantics: every 1/sin(theta) term of the equations multiplies
dtau/dt*dtheta/dt or dphi/dt*dtheta/dt, so motion with dtau/dt = dphi/dt = 0
(radial or meridional) activates no singular term and is allowed through the
axis; the axis stop applies only when those charges are active.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .errors import AxisError, ConfigError, DegenerateError, DomainError
from .geometry import PHI, R, TAU, THETA, ModelParams, Point, metric_at

TERMINATIONS = ("Horizon", "SingularityApproach", "AxisApproach", "StepBudget")

HORIZON = "Horizon"
SINGULARITY_APPROACH = "SingularityApproach"
AXIS_APPROACH = "AxisApproach"
STEP_BUDGET = "StepBudget"

# smallest relative tolerance the stepper honours; below it scipy would
# silently raise rel_tol to this value
REL_TOL_FLOOR = 100 * np.finfo(float).eps


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
    2.2e-14). max_steps bounds the stepper calls of `integrate`, counting
    the ones a chart exit cut short; one call may reject and shrink its step
    internally before it accepts one."""

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
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        if self.sample_grid is not None:
            grid = tuple(float(v) for v in self.sample_grid)
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError("sample_grid must be strictly increasing")
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


def geodesic_rhs(params: ModelParams, s: PhaseState) -> np.ndarray:
    """Velocity-and-acceleration 8-vector of the geodesic system, expanded
    term by term. Singular 1/sin(theta) terms are entered only when their
    velocity product is nonzero, so radial/meridional motion evaluates cleanly
    arbitrarily close to (and across) the axis."""
    p = s.point
    n = params.n
    if not p.r > n:
        raise DomainError(f"r = {p.r} must exceed n = {n}")
    r, th = p.r, p.theta
    dtau, dth, dphi, dr = s.velocity
    ct, st = np.cos(th), np.sin(th)
    rho2 = r * r - n * n
    rp = r + n
    rm = r - n

    tau_theta = dtau * dth
    phi_theta = dphi * dth
    tau_r = dtau * dr
    phi_r = dphi * dr
    tau_phi = dtau * dphi

    acc_tau = -2 * n / rho2 * tau_r + 4 * n * ct / rp * phi_r
    acc_phi = -2 * r / rho2 * phi_r
    if tau_theta != 0.0 or phi_theta != 0.0:
        if st == 0.0:
            raise AxisError("1/sin(theta) term activated exactly on the axis")
        acc_tau -= 4 * n**2 * ct / (rp**2 * st) * tau_theta
        acc_tau -= (2 * (4 * n**3 * ct**2 - n * st**2 * rp**2 - 2 * n * rp**2 * ct**2)
                    / (rp**2 * st) * phi_theta)
        acc_phi -= 2 * (-2 * n**2 * ct / (rp**2 * st) + ct / st) * phi_theta
        acc_phi += 2 * n / (rp**2 * st) * tau_theta

    acc_theta = (-2 * r / rho2 * dr * dth
                 - (4 * n**2 * ct * st / rp**2 - st * ct) * dphi * dphi
                 - 2 * n * st / rp**2 * tau_phi)
    acc_r = (n / rho2 * dr * dr
             + n * rm / rp**3 * dtau * dtau
             + r * rm / rp * dth * dth
             + (4 * n**3 * ct**2 / rp**2 + r * st**2) * rm / rp * dphi * dphi
             + 4 * n**2 * rm * ct / rp**3 * tau_phi)
    return np.array([dtau, dth, dphi, dr, acc_tau, acc_theta, acc_phi, acc_r])


def killing_charges(params: ModelParams, s: PhaseState) -> tuple:
    """Conserved momenta of the two commuting symmetries:
    p_tau = g_tt tau' + g_tp phi', p_phi = g_pt tau' + g_pp phi'."""
    g = metric_at(params, s.point).components
    dtau, _, dphi, _ = s.velocity
    p_tau = g[TAU, TAU] * dtau + g[TAU, PHI] * dphi
    p_phi = g[PHI, TAU] * dtau + g[PHI, PHI] * dphi
    return float(p_tau), float(p_phi)


def norm(params: ModelParams, s: PhaseState) -> float:
    """Velocity norm g_{mu nu} x'^mu x'^nu; nonnegative and conserved along
    exact geodesics (the metric is positive definite)."""
    g = metric_at(params, s.point).components
    v = np.asarray(s.velocity, dtype=float)
    return float(v @ g @ v)


def _rhs_vec(params: ModelParams, y: np.ndarray) -> np.ndarray:
    return geodesic_rhs(params, PhaseState.from_array(y))


def _first_crossing(interp, t0, t1, value, index, sign):
    """Earliest t in (t0, t1] where sign*(y[index](t) - value) reaches zero,
    given sign*(y[index](t0) - value) > 0; None if no crossing."""

    def g(t):
        return sign * (interp(t)[index] - value)

    probes = [t0 + f * (t1 - t0) for f in (0.25, 0.5, 0.75)] + [t1]
    lo = t0
    for t in probes:
        if g(t) <= 0.0:
            if g(lo) <= 0.0:
                return lo
            return float(brentq(g, lo, t, xtol=1e-14, rtol=8.9e-16))
        lo = t
    return None


def _row(params: ModelParams, t: float, y: np.ndarray) -> np.ndarray:
    s = PhaseState.from_array(y)
    p_tau, p_phi = killing_charges(params, s)
    return np.concatenate([[t], y, [p_tau, p_phi, norm(params, s)]])


def integrate(params: ModelParams, state: PhaseState, cfg: IntegrationConfig) -> Trajectory:
    """Integrate the geodesic system from `state` until the affine horizon
    t_end, the r floor n*(1 + r_floor_rel), an armed axis crossing, or the
    step budget, whichever comes first.

    Samples are the accepted step endpoints, or dense-output values on
    cfg.sample_grid when that is set (grid points beyond the stop time are
    dropped; the terminal sample is always appended if distinct). The axis
    event is armed only when the initial state has dtau/dt != 0 or
    dphi/dt != 0; unarmed motion may pass through the axis.

    A stage that leaves the chart (r <= n, or an active 1/sin(theta) term
    exactly on the axis) restarts the stepper from the last accepted state
    with a quarter of the step it tried; cfg.max_steps counts these cut-short
    stepper calls too. The stepper giving up on a step too small to advance
    t also ends in StepBudget."""
    n = params.n
    y = state.as_array()
    r_floor = n * (1.0 + cfg.r_floor_rel)
    if y[R] <= r_floor and not y[R] > n:
        raise DomainError(f"initial r = {y[R]} must exceed n = {n}")

    armed = state.velocity[0] != 0.0 or state.velocity[2] != 0.0
    guard = params.axis_guard

    if y[R] <= r_floor:
        return Trajectory(_row(params, 0.0, y)[None, :], SINGULARITY_APPROACH)
    if armed and not guard < y[THETA] < np.pi - guard and state.velocity[1] != 0.0:
        return Trajectory(_row(params, 0.0, y)[None, :], AXIS_APPROACH)
    if all(v == 0.0 for v in state.velocity):
        return Trajectory(_row(params, 0.0, y)[None, :], HORIZON)

    def start(t, y, first_step=None):
        return DOP853(lambda _, yy: _rhs_vec(params, yy), t, y, cfg.t_end,
                      rtol=cfg.rel_tol, atol=cfg.abs_tol, first_step=first_step)

    try:
        solver = start(0.0, y)
    except (DomainError, AxisError):
        # the initial-step probe left the chart: start from the whole horizon
        # and let the chart-exit retries shrink the step
        solver = start(0.0, y, cfg.t_end)
    node_t, node_y, dense = [0.0], [y], []  # accepted states, step interpolants
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

        t1, y1 = solver.t, solver.y
        h = t1 - t
        events = []
        if y1[R] <= r_floor or any(interp(t + fr * h)[R] <= r_floor for fr in (0.25, 0.5, 0.75)):
            tc = _first_crossing(interp, t, t1, r_floor, R, +1.0)
            if tc is not None:
                events.append((tc, SINGULARITY_APPROACH))
        if armed:
            for value, sign in ((guard, +1.0), (np.pi - guard, -1.0)):
                crossed_end = sign * (y1[THETA] - value) <= 0.0
                if crossed_end or any(sign * (interp(t + fr * h)[THETA] - value) <= 0.0
                                      for fr in (0.25, 0.5, 0.75)):
                    tc = _first_crossing(interp, t, t1, value, THETA, sign)
                    if tc is not None:
                        events.append((tc, AXIS_APPROACH))
        dense.append(interp)
        if events:
            tc, cause = min(events, key=lambda ev: ev[0])
            termination, t_stop, y_stop = cause, tc, interp(tc)
            break
        node_t.append(t1)
        node_y.append(y1)

    if t_stop > node_t[-1]:
        node_t.append(t_stop)
        node_y.append(y_stop)

    if cfg.sample_grid is None:
        rows = [_row(params, ts, ys) for ts, ys in zip(node_t, node_y)]
    else:
        rows = []
        for tg in cfg.sample_grid:
            if tg < 0.0 or tg > t_stop:
                continue
            i = bisect.bisect_right(node_t, tg) - 1
            yg = node_y[i] if tg == node_t[i] else dense[i](tg)
            rows.append(_row(params, tg, yg))
        if not rows or rows[-1][0] < t_stop:
            rows.append(_row(params, t_stop, y_stop))
    return Trajectory(np.asarray(rows), termination)


def _radial_profile(n: float) -> tuple:
    """Antiderivative B(r) of sqrt((r+n)/(r-n)) and its value at r = n, so
    that t(r) = t1 + (B(r) - B(n))/c along the outgoing radial branch."""

    def B(r):
        return np.sqrt(r * r - n * n) + 2 * n * np.log(np.sqrt(r + n) + np.sqrt(r - n))

    return B, 2 * n * np.log(np.sqrt(2 * n))


def radial_passthrough(params: ModelParams, t1: float, r1: float, direction: int,
                       *, r_max: float | None = None, samples: int = 201,
                       tau: float = 0.0, theta: float = np.pi / 2,
                       phi: float = 0.0) -> Trajectory:
    """Exact radial trajectory continued across r = n: the incoming branch
    reaches the origin point at t = t1 with coordinate speed dr/dt -> 0 but
    constant sqrt((r+n)/(r-n)) dr/dt, and the outgoing branch leaves it, so
    r(t1+d) = r(t1-d). This is the only family that touches r = n; built in
    closed form, no stepping involved.

    The stitched profile is invariant under swapping which branch is labeled
    incoming, so `direction` (+1 or -1) is validated as bookkeeping only.
    The angular coordinates are constant and configurable; they do not enter
    the radial motion. Samples are uniform in t over [t1 - T, t1 + T] where
    T is the time to reach r_max (default 5n)."""
    n = params.n
    if r1 == 0:
        raise DegenerateError("radial constant r1 must be nonzero")
    if direction not in (1, -1):
        raise ConfigError("direction must be +1 or -1")
    if samples < 3 or samples % 2 == 0:
        raise ConfigError("samples must be an odd count >= 3")
    c = abs(float(r1))
    top = 5 * n if r_max is None else float(r_max)
    if not top > n:
        raise ConfigError("r_max must exceed n")

    B, B_n = _radial_profile(n)
    T = (B(top) - B_n) / c
    ts = t1 + np.linspace(-T, T, samples)

    def r_of_dt(dt_abs):
        if dt_abs == 0.0:
            return n
        target = c * dt_abs

        def g(r):
            return B(r) - B_n - target

        hi = top
        while g(hi) < 0:
            hi *= 2
        return float(brentq(g, n, hi, xtol=1e-14, rtol=8.9e-16))

    rows = np.empty((samples, 12))
    for i, t in enumerate(ts):
        dt = t - t1
        r = r_of_dt(abs(dt))
        dr = 0.0 if r == n else np.sign(dt) * c * np.sqrt((r - n) / (r + n))
        # charges vanish (no tau/phi motion); norm = g_rr dr^2 = c^2 exactly,
        # including in the r -> n limit
        rows[i] = [t, tau, theta, phi, r, 0.0, 0.0, 0.0, dr, 0.0, 0.0, c * c]
    return Trajectory(rows, HORIZON)


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
