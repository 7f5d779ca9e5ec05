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
residual in the orthonormal frame).

All functions are pure; coordinate index order is fixed by COORDS throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

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
    """Geometry knobs: NUT parameter n plus numerical guard settings.

    n sets the removable-singularity radius r = n (same length unit as r).
    fd_step is the relative step of the finite-difference oracles; axis_guard
    is the half-width of the excluded band around the polar axis where
    1/sin(theta) terms are considered unsafe.
    """

    n: float
    fd_step: float = 1e-4
    axis_guard: float = 1e-3

    def __post_init__(self):
        if not self.n > 0:
            raise ConfigError(f"n must be positive, got {self.n}")
        if not np.isfinite(self.n):
            raise ConfigError(f"n must be finite, got {self.n}")
        if not 0 < self.fd_step < 1e-2:
            raise ConfigError(f"fd_step must be in (0, 1e-2), got {self.fd_step}")
        if not 0 < self.axis_guard < np.pi / 4:
            raise ConfigError(f"axis_guard must be in (0, pi/4), got {self.axis_guard}")


@dataclass(frozen=True)
class Point:
    """A point in (tau, theta, phi, r) coordinates. tau has period 4*pi*n on the
    full manifold but is kept unreduced here."""

    tau: float
    theta: float
    phi: float
    r: float

    def as_array(self) -> np.ndarray:
        return np.array([self.tau, self.theta, self.phi, self.r], dtype=float)

    @staticmethod
    def from_array(a) -> "Point":
        return Point(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric 4x4 component array in COORDS order."""

    components: np.ndarray


@dataclass(frozen=True)
class ChristoffelTable:
    """Rank-3 array components[lam, mu, nu] = Gamma^lam_{mu nu}, symmetric in (mu, nu)."""

    components: np.ndarray


@dataclass(frozen=True)
class FrameBasis:
    """Orthonormal coframe rows[a, mu]: omega^a = rows[a, mu] dx^mu, with
    sum_a omega^a (x) omega^a = g at the evaluation point."""

    rows: np.ndarray


def _require_interior(params: ModelParams, p: Point) -> None:
    if not p.r > params.n:
        raise DomainError(f"r = {p.r} must exceed n = {params.n}")


def _require_off_axis(params: ModelParams, theta: float) -> None:
    if not params.axis_guard < theta < np.pi - params.axis_guard:
        raise AxisError(
            f"theta = {theta} inside the axis guard band (guard {params.axis_guard})"
        )


def metric_at(params: ModelParams, p: Point) -> MetricTensor:
    """Metric components at p. Defined for all theta; the (tau, phi) block
    degenerates on the axis (its det scales like sin^2 theta)."""
    _require_interior(params, p)
    n, r, th = params.n, p.r, p.theta
    ct, st = np.cos(th), np.sin(th)
    f = (r - n) / (r + n)
    g = np.zeros((4, 4))
    g[TAU, TAU] = f
    g[TAU, PHI] = g[PHI, TAU] = 2 * n * ct * f
    g[PHI, PHI] = 4 * n**2 * ct**2 * f + (r**2 - n**2) * st**2
    g[R, R] = (r + n) / (r - n)
    g[THETA, THETA] = r**2 - n**2
    return MetricTensor(g)


def inverse_metric_at(params: ModelParams, p: Point) -> MetricTensor:
    """Closed-form inverse metric; needs theta outside the axis guard band
    because g^{tautau}, g^{tauphi}, g^{phiphi} carry 1/sin^2(theta)."""
    _require_interior(params, p)
    _require_off_axis(params, p.theta)
    n, r, th = params.n, p.r, p.theta
    ct, st = np.cos(th), np.sin(th)
    rho2 = r**2 - n**2
    ginv = np.zeros((4, 4))
    ginv[TAU, TAU] = 4 * n**2 * ct**2 / (rho2 * st**2) + (r + n) / (r - n)
    ginv[TAU, PHI] = ginv[PHI, TAU] = -2 * n * ct / (rho2 * st**2)
    ginv[PHI, PHI] = 1.0 / (rho2 * st**2)
    ginv[R, R] = (r - n) / (r + n)
    ginv[THETA, THETA] = 1.0 / rho2
    return MetricTensor(ginv)


def christoffel_at(params: ModelParams, p: Point) -> ChristoffelTable:
    """The fifteen independent nonzero Christoffel symbols (plus lower-index
    symmetry images), from their closed forms.

    Whole-table axis policy: several entries carry 1/sin(theta), so the entire
    table is refused inside the guard band rather than returning a partially
    valid table.
    """
    _require_interior(params, p)
    _require_off_axis(params, p.theta)
    n, r, th = params.n, p.r, p.theta
    ct, st = np.cos(th), np.sin(th)
    rho2 = r**2 - n**2
    rp = r + n
    rm = r - n
    G = np.zeros((4, 4, 4))

    def sym(lam, mu, nu, val):
        G[lam, mu, nu] = val
        G[lam, nu, mu] = val

    sym(TAU, TAU, R, n / rho2)
    sym(TAU, TAU, THETA, 2 * n**2 * ct / (rp**2 * st))
    sym(TAU, PHI, R, -2 * n * ct / rp)
    sym(TAU, PHI, THETA,
        (4 * n**3 * ct**2 - n * st**2 * rp**2 - 2 * n * rp**2 * ct**2) / (rp**2 * st))
    sym(R, TAU, TAU, -n * rm / rp**3)
    sym(R, TAU, PHI, -2 * n**2 * rm * ct / rp**3)
    sym(R, R, R, -n / rho2)
    sym(R, THETA, THETA, -r * rm / rp)
    sym(R, PHI, PHI, -(4 * n**3 * ct**2 / rp**2 + r * st**2) * rm / rp)
    sym(THETA, TAU, PHI, n * st / rp**2)
    sym(THETA, R, THETA, r / rho2)
    sym(THETA, PHI, PHI, 4 * n**2 * ct * st / rp**2 - st * ct)
    sym(PHI, TAU, THETA, -n / (rp**2 * st))
    sym(PHI, PHI, R, r / rho2)
    sym(PHI, PHI, THETA, -2 * n**2 * ct / (rp**2 * st) + ct / st)
    return ChristoffelTable(G)


def _fd_steps(params: ModelParams, p: Point) -> np.ndarray:
    """Per-coordinate central-difference steps. The radial step follows the
    distance r - n to the chart edge, where metric derivatives grow like
    inverse powers of that distance; tau scales with n (its period is
    4*pi*n); plain angles use fd_step directly."""
    h = params.fd_step
    return np.array([h * max(1.0, params.n), h, h, h * (p.r - params.n)])


def christoffel_fd_oracle(params: ModelParams, p: Point, metric_fn=metric_at) -> ChristoffelTable:
    """Independent Christoffel oracle: central differences of the metric in

        Gamma^lam_{mu nu} = 1/2 g^{lam sig} (d_mu g_{sig nu} + d_nu g_{sig mu}
                                             - d_sig g_{mu nu}),

    with the inverse taken by generic matrix inversion of metric_fn's output.
    metric_fn is pluggable so perturbed metrics can be probed.
    """
    _require_interior(params, p)
    _require_off_axis(params, p.theta)
    steps = _fd_steps(params, p)
    x0 = p.as_array()
    # the proportional radial step never crosses r = n, but this close to the
    # edge the stencil would sit below float placement accuracy
    if x0[R] - params.n <= params.fd_step * max(params.n, x0[R]):
        raise DomainError("r too close to n for a trustworthy finite-difference stencil")
    if not steps[THETA] < x0[THETA] < np.pi - steps[THETA]:
        raise DomainError("finite-difference stencil would leave theta in (0, pi)")
    dg = np.zeros((4, 4, 4))  # dg[k, i, j] = d_k g_{ij}
    for k in range(4):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += steps[k]
        xm[k] -= steps[k]
        gp = metric_fn(params, Point.from_array(xp)).components
        gm = metric_fn(params, Point.from_array(xm)).components
        dg[k] = (gp - gm) / (2 * steps[k])
    ginv = np.linalg.inv(metric_fn(params, p).components)
    # 1/2 g^{ls} (dg[m, s, n] + dg[n, s, m] - dg[s, m, n])
    G = 0.5 * np.einsum("ls,smn->lmn", ginv, dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg)
    return ChristoffelTable(G)


def frame_at(params: ModelParams, p: Point) -> FrameBasis:
    """Positively oriented orthonormal coframe; rows are omega^0..omega^3 in
    coordinate components. Valid for all theta (no 1/sin terms), though the
    matrix is singular where sin(theta) = 0."""
    _require_interior(params, p)
    n, r, th, tau = params.n, p.r, p.theta, p.tau
    ct, st = np.cos(th), np.sin(th)
    rad = np.sqrt(r**2 - n**2)
    half = tau / (2 * n)
    W = np.zeros((4, 4))
    W[0, R] = np.sqrt((r + n) / (r - n))
    W[1, THETA] = rad * np.cos(half)
    W[1, PHI] = rad * np.sin(half) * st
    W[2, THETA] = -rad * np.sin(half)
    W[2, PHI] = rad * np.cos(half) * st
    W[3, TAU] = np.sqrt((r - n) / (r + n))
    W[3, PHI] = np.sqrt((r - n) / (r + n)) * 2 * n * ct
    return FrameBasis(W)


def _christoffel_partials(params: ModelParams, p: Point, christoffel_fn) -> np.ndarray:
    """dG[k, lam, mu, nu] = d_k Gamma^lam_{mu nu} by central differences."""
    steps = _fd_steps(params, p)
    x0 = p.as_array()
    dG = np.zeros((4, 4, 4, 4))
    for k in range(4):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += steps[k]
        xm[k] -= steps[k]
        Gp = christoffel_fn(params, Point.from_array(xp)).components
        Gm = christoffel_fn(params, Point.from_array(xm)).components
        dG[k] = (Gp - Gm) / (2 * steps[k])
    return dG


def riemann_fd(params: ModelParams, p: Point, christoffel_fn=christoffel_at) -> np.ndarray:
    """Mixed Riemann tensor R^rho_{sig mu nu} from finite differences of the
    Christoffel table plus the quadratic terms:

        R^rho_{sig mu nu} = d_mu Gamma^rho_{nu sig} - d_nu Gamma^rho_{mu sig}
                            + Gamma^rho_{mu lam} Gamma^lam_{nu sig}
                            - Gamma^rho_{nu lam} Gamma^lam_{mu sig}.
    """
    dG = _christoffel_partials(params, p, christoffel_fn)
    G = christoffel_fn(params, p).components
    term1 = dG.transpose(1, 3, 0, 2)  # [rho, sig, mu, nu] = dG[mu, rho, nu, sig]
    term2 = dG.transpose(1, 3, 2, 0)  # [rho, sig, mu, nu] = dG[nu, rho, mu, sig]
    term3 = np.einsum("rml,lns->rsmn", G, G)
    term4 = np.einsum("rnl,lms->rsmn", G, G)
    return term1 - term2 + term3 - term4


def ricci_fd(params: ModelParams, p: Point, christoffel_fn=christoffel_at) -> np.ndarray:
    """Ricci tensor R_{sig nu} = R^lam_{sig lam nu} from riemann_fd; the
    geometry is vacuum, so this is a pure residual (expected ~ fd noise)."""
    return np.einsum("lslv->sv", riemann_fd(params, p, christoffel_fn))


_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in permutations(range(4)):
    _sign = 1
    _pl = list(_perm)
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _pl[_i] > _pl[_j]:
                _sign = -_sign
    _EPS4[_perm] = _sign


def frame_riemann_fd(params: ModelParams, p: Point) -> np.ndarray:
    """Riemann components R_{abcd} in the orthonormal frame: lower the mixed
    FD Riemann with the metric and contract with the inverse vierbein."""
    Rmix = riemann_fd(params, p)
    g = metric_at(params, p).components
    Rlow = np.einsum("al,lbcd->abcd", g, Rmix)
    E = np.linalg.inv(frame_at(params, p).rows)  # E[mu, a]
    return np.einsum("ma,nb,pc,qd,mnpq->abcd", E, E, E, E, Rlow)


def duality_residual(Rfr: np.ndarray, sign: float | None = None) -> float:
    """max |R_{abcd} - sign * 1/2 eps_{abef} R_{efcd}| over all frame index
    sets of the frame Riemann tensor Rfr (see frame_riemann_fd).

    sign defaults to the frozen DUALITY_SIGN, for which the residual is ~ fd
    noise; passing -DUALITY_SIGN projects onto the opposite chirality, whose
    residual stays comparable to ||R|| (an orientation sanity check).
    """
    s = DUALITY_SIGN if sign is None else sign
    dual = 0.5 * np.einsum("abef,efcd->abcd", _EPS4, Rfr)
    return float(np.abs(Rfr - s * dual).max())


def self_duality_residual(params: ModelParams, p: Point, sign: float | None = None) -> float:
    """duality_residual of the frame Riemann tensor at p."""
    return duality_residual(frame_riemann_fd(params, p), sign)
