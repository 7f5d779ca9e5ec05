"""Exact tensor evaluation for self-dual Taub-NUT geometry.

The line element, in coordinates ordered (tau, theta, phi, r), is

    ds^2 = (r-n)/(r+n) (dtau + 2n cos(theta) dphi)^2
           + (r^2-n^2)(dtheta^2 + sin^2(theta) dphi^2)
           + (r+n)/(r-n) dr^2,

positive definite for r > n with a removable singularity at r = n (the origin of
hyperspherical coordinates; the manifold is topologically R^4). This module
evaluates the metric, its inverse, the Christoffel symbols and an orthonormal
coframe from their closed forms, and provides independent finite-difference
oracles for the Christoffels and for curvature (Ricci residual, self-duality
residual in the orthonormal frame). The metric and Christoffel closed forms
written here are the package's only copies; the integrator reads both.

The integrator steps in the regular radial coordinate s = sqrt(r - n), so
the connection is also written there (_connection_s): with r = n + s**2 the
metric is smooth through the nut s = 0 (g_ss = 4(s**2 + 2n); with
rho = r - n it is in Gibbons-Hawking form, Gibbons & Hawking 1978), and
only three symbols keep a 1/s, as in flat polar coordinates. The r-chart
closed forms of christoffel_at are its independent route.

All functions are pure; coordinate index order is fixed by COORDS throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import AxisError, ConfigError, DomainError

COORDS = ("tau", "theta", "phi", "r")
TAU, THETA, PHI, R = 0, 1, 2, 3

# Orientation sign for the duality projection, frozen from a one-time frame
# orientation probe: with the coframe order (omega^0..omega^3) below and
# eps_{0123} = +1, the curvature two-form satisfies *R = -R, so the projection
# that vanishes is R - DUALITY_SIGN * (*R) with DUALITY_SIGN = -1. Verification
# reports record this sign.
DUALITY_SIGN = -1.0


@dataclass(frozen=True)
class ModelParams:
    """The NUT parameter n, the only field, and two fixed numerical guards.

    n sets the removable-singularity radius r = n (same length unit as r); it
    must be finite and at least about 2.8e-103, so that n**3 is a normal
    float: then (r + n)**3 and (s**2 + 2n)**3, both at least 8n**3 on the
    chart, do not underflow to 0 in the connection's denominators.
    The class constant fd_step is the relative step of the finite-difference
    oracles; axis_guard is the half-width of the excluded band around the
    polar axis where 1/sin(theta) terms are considered unsafe.
    """

    n: float
    fd_step: ClassVar[float] = 1e-4
    axis_guard: ClassVar[float] = 1e-3

    def __post_init__(self):
        n = self.n
        if not n > 0:
            raise ConfigError(f"n must be positive, got {n}")
        if not (np.isfinite(n) and n * n * n >= np.finfo(float).smallest_normal):
            raise ConfigError(f"n must be finite and at least about 2.8e-103, got {n}")


@dataclass(frozen=True)
class Point:
    """A point in (tau, theta, phi, r) coordinates. tau has period 8*pi*n (the
    Euler angle tau/2n of flat R^4 at r = n has period 4*pi); kept unreduced."""

    tau: float
    theta: float
    phi: float
    r: float

    def as_array(self) -> np.ndarray:
        return np.array([self.tau, self.theta, self.phi, self.r], dtype=float)

    @staticmethod
    def from_array(a) -> "Point":
        return Point(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def _require_interior(params: ModelParams, p: Point) -> None:
    if not p.r > params.n:
        raise DomainError(f"r = {p.r} must exceed n = {params.n}")


def _require_off_axis(params: ModelParams, theta: float) -> None:
    if not params.axis_guard < theta < np.pi - params.axis_guard:
        raise AxisError(
            f"theta = {theta} inside the axis guard band (guard {params.axis_guard})"
        )


def _metric(n, theta, r) -> np.ndarray:
    """metric_at's closed forms broadcast over n, theta and r: shape (..., 4, 4)."""
    ct, st = np.cos(theta), np.sin(theta)
    f = (r - n) / (r + n)
    rho2 = _ipow(r, 2) - _ipow(n, 2)
    g = np.zeros(np.broadcast_shapes(np.shape(n), np.shape(theta), np.shape(r)) + (4, 4))
    g[..., TAU, TAU] = f
    g[..., TAU, PHI] = g[..., PHI, TAU] = 2 * n * ct * f
    g[..., PHI, PHI] = 4 * _ipow(n, 2) * _ipow(ct, 2) * f + rho2 * _ipow(st, 2)
    g[..., R, R] = (r + n) / (r - n)
    g[..., THETA, THETA] = rho2
    return g


def metric_at(params: ModelParams, p: Point) -> np.ndarray:
    """Metric components g[mu, nu] at p in COORDS order, a symmetric 4x4
    array: the one-point case of _metric. Defined for all theta; the
    (tau, phi) block degenerates on the axis (det ~ sin^2 theta)."""
    _require_interior(params, p)
    return _metric(params.n, p.theta, p.r)


def inverse_metric_at(params: ModelParams, p: Point) -> np.ndarray:
    """Closed-form inverse metric g^{mu nu}, a symmetric 4x4 array in COORDS
    order; needs theta outside the axis guard band because g^{tautau},
    g^{tauphi}, g^{phiphi} carry 1/sin^2(theta)."""
    _require_interior(params, p)
    _require_off_axis(params, p.theta)
    n, r, th = params.n, p.r, p.theta
    ct, st = np.cos(th), np.sin(th)
    rho2 = _ipow(r, 2) - _ipow(n, 2)
    ginv = np.zeros((4, 4))
    ginv[TAU, TAU] = 4 * _ipow(n, 2) * ct**2 / (rho2 * st**2) + (r + n) / (r - n)
    ginv[TAU, PHI] = ginv[PHI, TAU] = -2 * n * ct / (rho2 * st**2)
    ginv[PHI, PHI] = 1.0 / (rho2 * st**2)
    ginv[R, R] = (r - n) / (r + n)
    ginv[THETA, THETA] = 1.0 / rho2
    return ginv


_libm_pow = np.frompyfunc(pow, 2, 1)


def _ipow(x, k: int):
    """x**k by the C library's pow, as a float x**k is rounded, also for
    every element of an array. numpy's array square (x*x) rounds about one
    result in a thousand differently, its array power about one in twenty;
    the finite-difference stencil magnifies such a last-bit change into the
    reported curvature residuals. A power beyond the float range raises
    DomainError: the closed forms cannot be evaluated that far out."""
    try:
        if isinstance(x, np.ndarray):
            return _libm_pow(x, k).astype(float)
        return x**k
    except OverflowError:
        raise DomainError(f"x**{k} overflows a float at |x| = {np.max(np.abs(x))}") from None


# (lam, mu, nu) of the fifteen independent Christoffel symbols
# Gamma^lam_{mu nu}: the eleven regular ones in _connection_regular's order,
# then the four that carry 1/sin(theta) in _connection_singular's order
_CONNECTION = ((TAU, TAU, R), (TAU, PHI, R), (R, TAU, TAU), (R, TAU, PHI), (R, R, R),
               (R, THETA, THETA), (R, PHI, PHI), (THETA, TAU, PHI), (THETA, R, THETA),
               (THETA, PHI, PHI), (PHI, PHI, R),
               (TAU, TAU, THETA), (TAU, PHI, THETA), (PHI, TAU, THETA), (PHI, PHI, THETA))


def _powers(n, r, ct, st) -> tuple:
    """The powers the r-chart connection reads, by _ipow (scalars or
    arrays): cos(theta)**2, sin(theta)**2, n**2, n**3 and (r + n)**2, the
    five _connection_singular reads, then r**2 and (r + n)**3. A point's
    powers are evaluated once, for both parts of its connection."""
    rp = r + n
    return tuple(map(_ipow, (ct, st, n, n, rp, r, rp), (2, 2, 2, 3, 2, 2, 3)))


def _connection_regular(n, r, ct, st, powers) -> tuple:
    """The eleven Christoffel symbols free of 1/sin(theta), in _CONNECTION
    order, from n, r, cos(theta), sin(theta) and their _powers."""
    ct2, st2, n2, n3, rp2, r2, rp3 = powers
    rp = r + n
    rho2 = r2 - n2
    rm = r - n
    return (n / rho2, -2 * n * ct / rp, -n * rm / rp3, -2 * n2 * rm * ct / rp3, -n / rho2,
            -r * rm / rp, -(4 * n3 * ct2 / rp2 + r * st2) * rm / rp, n * st / rp2, r / rho2,
            4 * n2 * ct * st / rp2 - st * ct, r / rho2)


def _connection_singular(n, ct, st, powers) -> tuple:
    """The four Christoffel symbols that carry 1/sin(theta), in _CONNECTION
    order after the regular ones, from n, cos(theta), sin(theta) and the
    first five powers of _powers or _powers_s, which are the same in both
    charts; st must be nonzero."""
    ct2, st2, n2, n3, rp2 = powers[:5]
    return (2 * n2 * ct / (rp2 * st),
            (4 * n3 * ct2 - n * st2 * rp2 - 2 * n * rp2 * ct2) / (rp2 * st),
            -n / (rp2 * st), -2 * n2 * ct / (rp2 * st) + ct / st)


# positions, in _connection_s's tuple, of the three s-chart symbols that
# carry 1/s and come times s: Gamma^tau_{tau s}, Gamma^theta_{s theta},
# Gamma^phi_{phi s}
_S_POLAR = (0, 8, 10)


def _powers_s(n, s, ct, st) -> tuple:
    """The powers the s-chart connection reads, as Python floats: _powers'
    first five at r = n + s**2, which _connection_singular reads, then
    s**2, q = s**2 + 2n, q**2 and q**3. q is r + n summed as the s-chart
    sums it, which can differ from _powers' r + n in the last bit. A power
    that overflows raises DomainError."""
    try:
        ct2, st2, n2, n3, s2 = ct**2, st**2, n**2, n**3, s**2
        q = s2 + 2 * n
        return ct2, st2, n2, n3, (n + s2 + n)**2, s2, q, q**2, q**3
    except OverflowError:
        raise DomainError(f"a power of n = {n} or s = {s} overflows a float") from None


def _connection_s(n, s, ct, st, powers) -> tuple:
    """The s-chart counterparts of _connection_regular's eleven symbols, in
    _CONNECTION order with s = sqrt(r - n) in place of r, from n, s,
    cos(theta), sin(theta) and their _powers_s.

    With r = n + s**2 and q = r + n = s**2 + 2n, r - n = s**2 cancels by
    hand: Gamma^s_{ss} = s/q (the r-chart's -n/(r**2 - n**2) is a chart
    artefact), each Gamma^s_{xy} with x, y angular is Gamma^r_{xy}/(2s),
    whose factor r - n leaves one s, and Gamma^x_{ys} = 2s Gamma^x_{yr}.
    Only the three at _S_POLAR carry 1/s, as the angular symbols of flat
    polar coordinates do, and the geodesic equations multiply each by ds/dt;
    they are returned times s, so every value is finite at the nut s = 0.
    The four 1/sin(theta) symbols are _connection_singular's with the same
    powers."""
    ct2, st2, n2, n3, _, s2, q, q2, q3 = powers
    r = n + s2
    return (2 * n / q, -4 * n * s * ct / q, -n * s / (2 * q3), -n2 * s * ct / q3, s / q,
            -r * s / (2 * q), -(4 * n3 * ct2 / q2 + r * st2) * s / (2 * q), n * st / q2,
            2 * r / q, 4 * n2 * ct * st / q2 - st * ct, 2 * r / q)


def _christoffel(n, theta, r) -> np.ndarray:
    """christoffel_at's closed forms broadcast over n, theta and r:
    shape (..., 4, 4, 4), [..., lam, mu, nu] = Gamma^lam_{mu nu}. Callers
    apply the chart and axis guards."""
    ct, st = np.cos(theta), np.sin(theta)
    powers = _powers(n, r, ct, st)
    values = _connection_regular(n, r, ct, st, powers) + _connection_singular(n, ct, st, powers)
    shape = np.broadcast_shapes(np.shape(n), np.shape(theta), np.shape(r))
    G = np.zeros((4, 4, 4) + shape)  # component axes first: plain-index writes
    for (lam, mu, nu), val in zip(_CONNECTION, values):
        G[lam, mu, nu] = val
        G[lam, nu, mu] = val
    return G.transpose(*range(3, 3 + len(shape)), 0, 1, 2)


def christoffel_at(params: ModelParams, p: Point) -> np.ndarray:
    """The fifteen independent nonzero Christoffel symbols (plus lower-index
    symmetry images) at p, from their closed forms: a 4x4x4 array
    G[lam, mu, nu] = Gamma^lam_{mu nu} in COORDS order, symmetric in (mu, nu).

    Whole-table axis policy: several entries carry 1/sin(theta), so the entire
    table is refused inside the guard band rather than returning a partially
    valid table.
    """
    _require_interior(params, p)
    _require_off_axis(params, p.theta)
    return _christoffel(params.n, p.theta, p.r)


def _fd_steps(n, r) -> np.ndarray:
    """Per-coordinate central-difference steps, shape (..., 4), for n and r
    of one shape. The radial step follows the distance r - n to the chart
    edge, where metric derivatives grow like inverse powers of that
    distance; tau scales with n (its period is 8*pi*n); plain angles use
    ModelParams.fd_step directly."""
    h = ModelParams.fd_step
    tau_step, angle_step = np.broadcast_arrays(h * np.maximum(1.0, n), h)
    return np.stack([tau_step, angle_step, angle_step, h * (r - n)], axis=-1)


# Finite-difference stencil of both oracles, christoffel_fd_oracle's metric
# and _riemann's Christoffel table: +/- one step along each coordinate in
# turn, then the centre (the row order is also the order in which a point's
# stencil is checked against the chart).
_STENCIL = np.vstack([sign * np.eye(4)[k] for k in range(4) for sign in (1.0, -1.0)]
                     + [np.zeros(4)])


def christoffel_fd_oracle(params: ModelParams, p: Point, metric_fn=metric_at) -> np.ndarray:
    """Independent Christoffel oracle, an array laid out as christoffel_at's:
    central differences of the metric in

        Gamma^lam_{mu nu} = 1/2 g^{lam sig} (d_mu g_{sig nu} + d_nu g_{sig mu}
                                             - d_sig g_{mu nu}),

    with the inverse taken by generic matrix inversion of metric_fn's output.
    metric_fn is evaluated on the rows of _STENCIL, the stencil _riemann
    differences the Christoffel table on. It is pluggable so perturbed
    metrics can be probed; it returns the 4x4 metric array as metric_at does.
    """
    _require_interior(params, p)
    _require_off_axis(params, p.theta)
    steps = _fd_steps(params.n, p.r)
    x0 = p.as_array()
    # the proportional radial step never crosses r = n, but this close to the
    # edge the stencil would sit below float placement accuracy
    if x0[R] - params.n <= params.fd_step * max(params.n, x0[R]):
        raise DomainError("r too close to n for a trustworthy finite-difference stencil")
    if not steps[THETA] < x0[THETA] < np.pi - steps[THETA]:
        raise DomainError("finite-difference stencil would leave theta in (0, pi)")
    g = np.array([metric_fn(params, Point.from_array(y)) for y in x0 + _STENCIL * steps])
    dg = (g[0:8:2] - g[1:8:2]) / (2 * steps)[:, None, None]  # dg[k, i, j] = d_k g_{ij}
    ginv = np.linalg.inv(g[8])
    # 1/2 g^{ls} (dg[m, s, n] + dg[n, s, m] - dg[s, m, n])
    return 0.5 * np.einsum("ls,smn->lmn", ginv, dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg)


def _frame(n, theta, tau, r) -> np.ndarray:
    """Coframe rows broadcast over n, theta, tau and r: shape (..., 4, 4).
    DomainError where the angle tau/(2n) is not finite (it overflows for
    huge tau over tiny n), since its sine and cosine are then undefined."""
    with np.errstate(over="ignore"):
        half = tau / (2 * n)
    if not np.all(np.isfinite(half)):
        raise DomainError("tau/(2n) is not a finite float, so the frame is undefined")
    ct, st = np.cos(theta), np.sin(theta)
    rad = np.sqrt(r**2 - n**2)
    lapse = np.sqrt((r - n) / (r + n))
    W1phi = rad * np.sin(half) * st
    W = np.zeros(np.shape(W1phi) + (4, 4))
    W[..., 0, R] = np.sqrt((r + n) / (r - n))
    W[..., 1, THETA] = rad * np.cos(half)
    W[..., 1, PHI] = W1phi
    W[..., 2, THETA] = -rad * np.sin(half)
    W[..., 2, PHI] = rad * np.cos(half) * st
    W[..., 3, TAU] = lapse
    W[..., 3, PHI] = lapse * 2 * n * ct
    return W


def frame_at(params: ModelParams, p: Point) -> np.ndarray:
    """Positively oriented orthonormal coframe, a 4x4 array W[a, mu]:
    omega^a = W[a, mu] dx^mu, with sum_a omega^a (x) omega^a = g at p. Valid
    for all theta (no 1/sin terms), though the matrix is singular where
    sin(theta) = 0. r**2 or tau/(2n) overflowing raises DomainError."""
    _require_interior(params, p)
    _ipow(p.r, 2)  # raises DomainError where _frame's r**2 would overflow
    return _frame(params.n, p.theta, p.tau, p.r)


def _stencil_christoffels(n, x, christoffel_fn) -> tuple:
    """Christoffel tables on every point's stencil, shape (N, 9, 4, 4, 4), and
    the steps, shape (N, 4), for n of shape (N,) and coordinates x of shape
    (N, 4). The closed form is evaluated on all stencils at once after a
    chart check of every stencil point; any other christoffel_fn is called
    point by point and applies its own guards."""
    steps = _fd_steps(n, x[:, R])
    S = x[:, None, :] + _STENCIL * steps[:, None, :]
    if christoffel_fn is not christoffel_at:
        return np.array([[christoffel_fn(ModelParams(n=q), Point.from_array(y)) for y in row]
                         for q, row in zip(n.tolist(), S)]), steps
    n, guard = n[:, None], ModelParams.axis_guard
    theta, r = S[..., THETA], S[..., R]
    ok = (r > n) & (guard < theta) & (theta < np.pi - guard)
    if not ok.all():
        i, j = np.unravel_index(np.argmin(ok), ok.shape)
        christoffel_at(ModelParams(n=n[i, 0].item()), Point.from_array(S[i, j]))  # raises
    return _christoffel(n, theta, r), steps


def _riemann(n, x, christoffel_fn=christoffel_at) -> np.ndarray:
    """Mixed Riemann tensors R^rho_{sig mu nu} at N points, n of shape (N,)
    and coordinates x of shape (N, 4): shape (N, 4, 4, 4, 4), from central
    differences of the Christoffel table plus the quadratic terms:

        R^rho_{sig mu nu} = d_mu Gamma^rho_{nu sig} - d_nu Gamma^rho_{mu sig}
                            + Gamma^rho_{mu lam} Gamma^lam_{nu sig}
                            - Gamma^rho_{nu lam} Gamma^lam_{mu sig}.
    """
    G, steps = _stencil_christoffels(n, x, christoffel_fn)
    # dG[:, k, lam, mu, nu] = d_k Gamma^lam_{mu nu}
    dG = (G[:, 0:8:2] - G[:, 1:8:2]) / (2 * steps)[:, :, None, None, None]
    G0 = G[:, 8]
    term1 = dG.transpose(0, 2, 4, 1, 3)  # [., rho, sig, mu, nu] = dG[., mu, rho, nu, sig]
    term2 = dG.transpose(0, 2, 4, 3, 1)  # [., rho, sig, mu, nu] = dG[., nu, rho, mu, sig]
    term3 = np.einsum("...rml,...lns->...rsmn", G0, G0)
    term4 = np.einsum("...rnl,...lms->...rsmn", G0, G0)
    return term1 - term2 + term3 - term4


def _ricci(Rmix: np.ndarray) -> np.ndarray:
    """Ricci tensors R_{sig nu} = R^lam_{sig lam nu} of mixed Riemann tensors."""
    return np.einsum("...lslv->...sv", Rmix)


# W^a_rho R^rho_{sig mu nu} E^sig_b E^mu_c E^nu_d as one-index contractions
# instead of one pass over all index combinations
_FRAME_PATH = np.einsum_path("...ar,...rsmn,...sb,...mc,...nd->...abcd",
                             np.empty((1, 4, 4)), np.empty((1, 4, 4, 4, 4)),
                             *[np.empty((1, 4, 4))] * 3, optimize="optimal")[0]


def _curvature(n, x) -> tuple:
    """The curvature core: Ricci tensors, shape (N, 4, 4), and frame Riemann
    tensors R_{abcd}, shape (N, 4, 4, 4, 4), at N points given as n of shape
    (N,) and coordinates x of shape (N, 4), one Riemann build per point. The
    frame is orthonormal, so lowering the first index is
    W^a_rho R^rho_{sig mu nu}; the other three contract with the inverse
    vierbein E (E[., mu, a])."""
    Rmix = _riemann(n, x)
    W = _frame(n, x[:, THETA], x[:, TAU], x[:, R])
    E = np.linalg.inv(W)
    return _ricci(Rmix), np.einsum("...ar,...rsmn,...sb,...mc,...nd->...abcd",
                                   W, Rmix, E, E, E, optimize=_FRAME_PATH)


def curvature_fd(params, points) -> tuple:
    """Finite-difference curvature at a stack of points: _curvature of
    equal-length sequences of ModelParams and Point, converted to arrays once.
    A point whose stencil leaves the chart raises the DomainError or AxisError
    christoffel_at raises there, one whose tau/(2n) is not finite a DomainError."""
    params, points = tuple(params), tuple(points)
    if len(params) != len(points):
        raise ConfigError("params and points must have the same length")
    return _curvature(np.array([q.n for q in params], dtype=float),
                      np.array([p.as_array() for p in points], dtype=float).reshape(-1, 4))


def riemann_fd(params: ModelParams, p: Point, christoffel_fn=christoffel_at) -> np.ndarray:
    """Mixed Riemann tensor R^rho_{sig mu nu} at p (the one-point case of
    curvature_fd's build); christoffel_fn is pluggable so perturbed
    connections can be probed."""
    return _riemann(np.array([params.n], dtype=float), p.as_array()[None], christoffel_fn)[0]


def ricci_fd(params: ModelParams, p: Point, christoffel_fn=christoffel_at) -> np.ndarray:
    """Ricci tensor R_{sig nu} = R^lam_{sig lam nu} from riemann_fd; the
    geometry is vacuum, so this is a pure residual (expected ~ fd noise)."""
    return _ricci(riemann_fd(params, p, christoffel_fn))


def frame_riemann_fd(params: ModelParams, p: Point) -> np.ndarray:
    """Riemann components R_{abcd} in the orthonormal frame at p."""
    return curvature_fd([params], [p])[1][0]


# (e, f) = (_DUAL_E, _DUAL_F)[a, b] completes the frame pair (a, b) to an even
# permutation (a, b, e, f) of 0123, so eps_{abef} = +1; e = f = a on the diagonal
_DUAL_E = np.array([[0, 2, 3, 1], [3, 1, 0, 2], [1, 3, 2, 0], [2, 0, 1, 3]])
_DUAL_F = np.array([[0, 3, 1, 2], [2, 1, 3, 0], [3, 0, 2, 1], [1, 2, 0, 3]])


def duality_residual(Rfr: np.ndarray, sign: float | None = None):
    """max |R_{abcd} - sign * 1/2 eps_{abef} R_{efcd}| over all frame index
    sets of the frame Riemann tensor Rfr (see frame_riemann_fd): a float for
    one tensor, an array of shape (N,) for a stack of N tensors. Of the
    sixteen terms of the dual only eps_{abef} R_{ef..} + eps_{abfe} R_{fe..}
    survive, so it is read as (R_{efcd} - R_{fecd})/2 with (e, f) from the
    pair table _DUAL_E, _DUAL_F.

    sign defaults to the frozen DUALITY_SIGN, for which the residual is ~ fd
    noise; passing -DUALITY_SIGN projects onto the opposite chirality, whose
    residual stays comparable to ||R|| (an orientation sanity check).
    """
    s = DUALITY_SIGN if sign is None else sign
    dual = (Rfr[..., _DUAL_E, _DUAL_F, :, :] - Rfr[..., _DUAL_F, _DUAL_E, :, :]) / 2
    res = np.abs(Rfr - s * dual).max(axis=(-4, -3, -2, -1))
    return float(res) if res.ndim == 0 else res


def self_duality_residual(params: ModelParams, p: Point, sign: float | None = None) -> float:
    """duality_residual of the frame Riemann tensor at p."""
    return duality_residual(frame_riemann_fd(params, p), sign)
