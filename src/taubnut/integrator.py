"""Adaptive numerical integration of the full geodesic system.

State layout is the 8-vector (tau, theta, phi, r, dtau, dtheta, dphi, dr) in
the fixed coordinate order. The stepper is an embedded Dormand-Prince 5(4)
pair with proportional-integral step-size control, cubic Hermite dense output
(local interpolation order 3) and event detection for the removable
singularity r = n, the polar axis, the affine horizon t_end, and the step
budget. The two Killing charges p_tau, p_phi and the velocity norm are
recorded along every trajectory; they are monitored, never enforced.

Axis semantics: every 1/sin(theta) term of the equations multiplies
dtau/dt*dtheta/dt or dphi/dt*dtheta/dt, so motion with dtau/dt = dphi/dt = 0
(radial or meridional) activates no singular term and is allowed through the
axis; the axis stop applies only when those charges are active.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import AxisError, ConfigError, DegenerateError, DomainError
from .geometry import PHI, R, TAU, THETA, ModelParams, Point, metric_at

TERMINATIONS = ("Horizon", "SingularityApproach", "AxisApproach", "StepBudget")

HORIZON = "Horizon"
SINGULARITY_APPROACH = "SingularityApproach"
AXIS_APPROACH = "AxisApproach"
STEP_BUDGET = "StepBudget"


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
    """Step-control tolerances, affine horizon, budgets and stop margins."""

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


# Dormand-Prince 5(4) tableau. b is the 5th-order weight row (also the last
# stage row: first-same-as-last), bhat the embedded 4th-order row.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
])
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_BHAT = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                  187 / 2100, 1 / 40])

_SAFE = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2   # smallest allowed hnew/h
_FAC_MAX = 10.0  # largest allowed hnew/h


def _rhs_vec(params: ModelParams, y: np.ndarray) -> np.ndarray:
    return geodesic_rhs(params, PhaseState.from_array(y))


def _error_norm(y0, y1, err, abs_tol, rel_tol) -> float:
    sc = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / sc) ** 2)))


def _initial_step(params, y0, f0, abs_tol, rel_tol, t_end) -> float:
    """Starting step size from the scaled magnitudes of the state, its
    derivative, and a one-step derivative difference (standard dopri5 guess)."""
    sc = abs_tol + rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    try:
        f1 = _rhs_vec(params, y1)
    except (DomainError, AxisError):
        return min(h0 * 1e-2, t_end)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end)


def _hermite(t0, h, y0, y1, f0, f1):
    """Cubic Hermite interpolant over one accepted step; order 3 locally,
    which keeps event times well below step-control error."""

    def interp(t):
        s = (t - t0) / h
        s2, s3 = s * s, s * s * s
        return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
                + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * f1)

    return interp


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
    dphi/dt != 0; unarmed motion may pass through the axis."""
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

    f = _rhs_vec(params, y)
    t = 0.0
    h = _initial_step(params, y, f, cfg.abs_tol, cfg.rel_tol, cfg.t_end)
    facold = 1e-4
    steps = [(t, y.copy(), f.copy())]  # accepted (t, y, f) nodes
    termination = None
    t_stop = None
    y_stop = None
    attempts = 0

    while True:
        if t >= cfg.t_end * (1 - 1e-15):
            termination, t_stop, y_stop = HORIZON, t, y
            break
        if attempts >= cfg.max_steps:
            termination, t_stop, y_stop = STEP_BUDGET, t, y
            break
        attempts += 1
        h = min(h, cfg.t_end - t)
        if h <= 1e-14 * max(1.0, abs(t)):
            # controller underflow: count it against the budget and stop
            termination, t_stop, y_stop = STEP_BUDGET, t, y
            break

        k = np.empty((7, 8))
        k[0] = f
        bad = False
        try:
            for i in range(1, 6):
                k[i] = _rhs_vec(params, y + h * (_A[i, :i] @ k[:i]))
            y1 = y + h * (_B[:6] @ k[:6])
            k[6] = _rhs_vec(params, y1)
        except (DomainError, AxisError):
            bad = True
        if bad:
            # stage left the chart (past the floor or onto the axis): retry
            # shorter; the event machinery stops us once a step lands inside
            h *= 0.25
            continue

        err_vec = h * ((_B - _BHAT) @ k)
        err = _error_norm(y, y1, err_vec, cfg.abs_tol, cfg.rel_tol)
        if err > 1.0:
            fac11 = err**_EXPO1
            h = h / min(1.0 / _FAC_MIN, fac11 / _SAFE)
            continue

        f1 = k[6]
        interp = _hermite(t, h, y, y1, f, f1)
        t1 = t + h

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
        if events:
            tc, cause = min(events, key=lambda ev: ev[0])
            termination, t_stop, y_stop = cause, tc, interp(tc)
            break

        t, y, f = t1, y1, f1
        steps.append((t, y.copy(), f.copy()))
        fac11 = err**_EXPO1
        fac = fac11 / facold**_BETA
        fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFE))
        h = h / fac
        facold = max(err, 1e-4)

    if t_stop > steps[-1][0]:
        steps.append((t_stop, y_stop.copy(), _rhs_vec(params, y_stop)))

    if cfg.sample_grid is None:
        rows = [_row(params, ts, ys) for ts, ys, _ in steps]
    else:
        rows = []
        node_t = [ts for ts, _, _ in steps]
        for tg in cfg.sample_grid:
            if tg < 0.0 or tg > t_stop:
                continue
            i = min(max(bisect.bisect_right(node_t, tg) - 1, 0), len(steps) - 2)
            ts0, ys0, fs0 = steps[i]
            ts1, ys1, fs1 = steps[i + 1]
            yg = ys0 if tg == ts0 else _hermite(ts0, ts1 - ts0, ys0, ys1, fs0, fs1)(tg)
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
