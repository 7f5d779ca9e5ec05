"""The four benchmark workloads.

Each workload generates its inputs from the seed, runs one op per input and
checks the op's output against an independent route. Ops call the package
through module attributes (``integrator.integrate``), so the traced run can
replace them; checks use the names imported below, bound before any
replacement, so checking adds no spans.

check() returns an Outcome: whether the op met its check, the largest
deviation divided by the package's tolerance for that check, a signature of
the output that must repeat exactly for the same input, and output counts.
An op that misses its check counts as failed; an op that raises also makes
the run incorrect.

FIXED is each workload's fixed set: the first FIXED inputs of the pool, 3 to
8 seconds of ops on a 2-core Intel Xeon host. The error ratio, the
deterministic counts and the traced run's per-layer metrics are taken over
this set, so they do not depend on how many ops the host's speed lets a timed
phase reach.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from taubnut import analytic, cli, integrator
from taubnut.analytic import (
    FamilyConstants,
    curve_derivatives,
    curves,
    default_invert_mode,
    thm1_t_of_r,
    turning_radius,
)
from taubnut.geometry import ModelParams, Point
from taubnut.integrator import IntegrationConfig, PhaseState, norm
from taubnut.verify import (
    ANTI_SELF_DUAL_MIN_RATIO,
    CONSERVATION_TOL,
    COORD_TOL,
    DERIVATIVE_TOL,
    PASSTHROUGH_TOL,
    RICCI_TOL,
    SELF_DUAL_TOL,
    family_velocities,
)

FAMILIES = ("thm1", "thm2", "thm3", "thm4", "thm5")
SCENARIOS = (*FAMILIES, "curvature")
POOL = 256  # distinct inputs per run; ops cycle through them
TOL = 1e-12  # the integrate subcommand's default tolerance


@dataclass
class Outcome:
    ok: bool
    err_ratio: float
    signature: tuple
    counts: dict
    raised: bool = False


def failed_outcome(exc: Exception) -> Outcome:
    return Outcome(False, math.inf, (type(exc).__name__, str(exc)), {}, raised=True)


def sum_counts(outcomes) -> dict:
    total = {}
    for o in outcomes:
        for k, v in o.counts.items():
            total[k] = total.get(k, 0) + v
    return dict(sorted(total.items()))


def _combine(parts) -> Outcome:
    """One op's outcome from the outcomes of the orbits or instances in it."""
    return Outcome(all(p.ok for p in parts), max(p.err_ratio for p in parts),
                   tuple(p.signature for p in parts), sum_counts(parts))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _drift(traj) -> float:
    return max(float(np.max(np.abs(col - col[0])))
               for col in (traj.p_tau, traj.p_phi, traj.norm))


def _sign(rng) -> float:
    return 1.0 if rng.uniform() < 0.5 else -1.0


def _unit_speed(params, point, velocity, r1):
    """Rescale the velocity so the norm is r1^2, the energy scale of the
    package's own seeded families."""
    scale = r1 / math.sqrt(norm(params, PhaseState(point, tuple(velocity))))
    return PhaseState(point, tuple(float(v * scale) for v in velocity))


class VerifyAll:
    """One op: the six verify scenarios through the CLI, in process, with one
    scenario seed. The first op uses the run's seed itself and later ops seeds
    drawn from it, so a run's timing does not hinge on one seed's families."""

    FIXED = 8

    def __init__(self, outdir: str):
        self.paths = {s: os.path.join(outdir, f"{s}.json") for s in SCENARIOS}

    def inputs(self, seed: int) -> list:
        drawn = np.random.default_rng([seed, 1]).integers(0, 2**31 - 1, POOL - 1)
        return [seed, *(int(s) for s in drawn)]

    def run(self, seed):
        return [cli.main(["verify", "--scenario", s, "--seed", str(seed),
                          "--out", self.paths[s]]) for s in SCENARIOS]

    def check(self, seed, codes) -> Outcome:
        blobs = []
        ok = all(code == 0 for code in codes)
        err = 0.0
        for s in SCENARIOS:
            with open(self.paths[s], "rb") as fh:
                blob = fh.read()
            blobs.append(blob)
            report = json.loads(blob)
            ok = ok and report["passed"]
            err = max(err, _report_err_ratio(report))
        size = sum(len(b) for b in blobs)
        return Outcome(ok, err, tuple(hashlib.sha256(b).hexdigest() for b in blobs),
                       {"report_bytes": size})


def _report_err_ratio(report: dict) -> float:
    ratios = []
    if report["max_coordinate_deviation"]:
        ratios += [v / COORD_TOL for v in report["max_coordinate_deviation"].values()]
    if report["conservation_drift"]:
        ratios += [v / CONSERVATION_TOL for v in report["conservation_drift"].values()]
    if report["derivative_max_rel_error"] is not None:
        ratios.append(report["derivative_max_rel_error"] / DERIVATIVE_TOL)
    if report["passthrough"]:
        ratios.append(report["passthrough"]["max_r_deviation"] / PASSTHROUGH_TOL)
    if report["curvature"]:
        c = report["curvature"]
        ratios += [c["ricci_max_abs"] / RICCI_TOL,
                   c["self_dual_residual_max"] / SELF_DUAL_TOL,
                   ANTI_SELF_DUAL_MIN_RATIO / c["anti_self_dual_min_ratio"]]
    return max(ratios)


class OrbitDense:
    """One op: a generic scattering geodesic onto a 1001-point sample grid."""

    T_END = 60.0
    SAMPLES = 1001
    FIXED = 64

    def __init__(self, outdir: str):
        grid = np.linspace(0.0, self.T_END, self.SAMPLES)
        self.cfg = IntegrationConfig(abs_tol=TOL, rel_tol=TOL, t_end=self.T_END,
                                     sample_grid=tuple(grid))
        self.grid = np.asarray(self.cfg.sample_grid)

    def inputs(self, seed: int) -> list:
        d = np.random.default_rng([seed, 2])
        out = []
        for _ in range(POOL):
            n = d.uniform(0.5, 2.0)
            params = ModelParams(n=n)
            point = Point(tau=d.uniform(0.0, 4 * math.pi * n),
                          theta=d.uniform(0.5, math.pi - 0.5),
                          phi=d.uniform(0.0, 2 * math.pi),
                          r=d.uniform(1.2 * n, 3 * n))
            velocity = [d.uniform(0.2, 1.0) * _sign(d) for _ in range(4)]
            out.append((params, _unit_speed(params, point, np.array(velocity),
                                            d.uniform(0.8, 1.6))))
        return out

    def run(self, x):
        params, state = x
        return integrator.integrate(params, state, self.cfg)

    def check(self, x, traj) -> Outcome:
        drift = _drift(traj)
        ok = (traj.termination == "Horizon" and len(traj) == self.SAMPLES
              and np.array_equal(traj.t, self.grid) and drift <= CONSERVATION_TOL)
        return Outcome(ok, drift / CONSERVATION_TOL,
                       (traj.termination, len(traj), _digest(traj.data)),
                       {"rows": len(traj), f"termination.{traj.termination}": 1})


class OrbitEdge:
    """One op: two short orbits that end at an event. The first falls
    radially onto the chart-edge floor r = n(1 + 1e-6); the second carries
    p_phi = 2n p_tau, the only charge ratio that reaches the north axis, and
    stops at the axis guard. A radial orbit takes about four times the steps
    of an axis orbit, so one orbit per op would give a latency distribution
    with two modes, whose median jumps between them."""

    FIXED = 64

    def __init__(self, outdir: str):
        pass

    def inputs(self, seed: int) -> list:
        d = np.random.default_rng([seed, 3])
        out = []
        for i in range(POOL):
            n = d.uniform(0.5, 2.0)
            params = ModelParams(n=n)
            r0 = d.uniform(1.2 * n, 3 * n)
            r1 = d.uniform(0.8, 1.6)
            tau, phi = d.uniform(0.0, 4 * math.pi * n), d.uniform(0.0, 2 * math.pi)
            if i % 2 == 0:
                theta = d.uniform(0.3, math.pi - 0.3)
                dr = -r1 * math.sqrt((r0 - n) / (r0 + n))
                state = PhaseState(Point(tau, theta, phi, r0), (0.0, 0.0, 0.0, dr))
                radial = FamilyConstants(family="thm1", eps=1, r1=r1)
                floor = n * (1.0 + IntegrationConfig().r_floor_rel)
                t_event = thm1_t_of_r(params, radial, r0) - thm1_t_of_r(params, radial, floor)
                cfg = IntegrationConfig(abs_tol=TOL, rel_tol=TOL, t_end=2 * t_event)
                out.append(("SingularityApproach", params, state, cfg, t_event))
            else:
                # heading north near the axis, ingoing; every such state
                # reaches the axis well before t_end = 10
                theta = d.uniform(0.1, 0.6)
                p_tau = d.uniform(0.2, 1.0) * _sign(d)
                ct, st = math.cos(theta), math.sin(theta)
                dphi = 2 * n * p_tau * (1 - ct) / ((r0 * r0 - n * n) * st * st)
                dtau = p_tau * (r0 + n) / (r0 - n) - 2 * n * ct * dphi
                velocity = np.array([dtau, -d.uniform(0.5, 1.0), dphi,
                                     d.uniform(-0.3, 0.0)])
                state = _unit_speed(params, Point(tau, theta, phi, r0), velocity, r1)
                cfg = IntegrationConfig(abs_tol=TOL, rel_tol=TOL, t_end=10.0)
                out.append(("AxisApproach", params, state, cfg, None))
        return list(zip(out[::2], out[1::2]))

    def run(self, x):
        return [integrator.integrate(params, state, cfg) for _, params, state, cfg, _ in x]

    def check(self, x, trajs) -> Outcome:
        return _combine([self._check_orbit(orbit, traj) for orbit, traj in zip(x, trajs)])

    @staticmethod
    def _check_orbit(x, traj) -> Outcome:
        cause, params, _, _, t_event = x
        ratios = [_drift(traj) / CONSERVATION_TOL]
        if cause == "SingularityApproach":
            ratios.append(abs(traj.t[-1] - t_event) / COORD_TOL)
        else:
            ratios.append(abs(traj.coords[-1, 1] - params.axis_guard) / COORD_TOL)
        err = max(ratios)
        return Outcome(traj.termination == cause and err <= 1.0, err,
                       (traj.termination, len(traj), _digest(traj.data)),
                       {"rows": len(traj), f"termination.{traj.termination}": 1})


class ClosedForm:
    """One op: one instance of each family thm1..thm5 in turn. Per instance,
    stitched_coords on 256 times symmetric about t1, a classify round trip on
    16 states, and curves on a 10^4-radius grid. An instance of thm1 costs
    about half one of thm3-thm5, so single-instance ops would give a latency
    distribution with several modes, whose median jumps between them."""

    SAMPLES = 256
    STATES = 16
    RADII = 10_000
    PROBES = 64  # grid radii re-checked against the first-integral field
    FIXED = 16

    def __init__(self, outdir: str):
        pass

    def inputs(self, seed: int) -> list:
        d = np.random.default_rng([seed, 4])
        out = []
        for i in range(len(FAMILIES) * POOL // 4):  # 64 ops of five instances each
            fam = FAMILIES[i % len(FAMILIES)]
            n = d.uniform(0.5, 2.0)
            params = ModelParams(n=n)
            r1 = d.uniform(0.8, 1.6)
            sign = _sign(d)
            extra = {}
            theta = d.uniform(0.5, math.pi - 0.5)
            if fam == "thm2":
                extra = {"tau0": sign * d.uniform(0.3, 0.8) * r1, "tau1": d.uniform(-1, 1)}
            elif fam == "thm3":
                extra = {"phi0": sign * d.uniform(0.3, 0.8) * n, "phi1": d.uniform(-1, 1)}
                theta = math.pi / 2
            elif fam == "thm4":
                swing = d.uniform(0.4, 0.6)
                extra = {"theta0": sign * d.uniform(2.0, 3.0) * n * r1,
                         "theta1": swing if sign > 0 else math.pi - swing}
            elif fam == "thm5":
                theta = d.uniform(0.4, math.pi - 0.4)
                extra = {"phi0": sign * d.uniform(0.3, 0.8) * n, "theta_const": theta,
                         "tau1": d.uniform(-1, 1), "phi1": d.uniform(-1, 1)}
            consts = FamilyConstants(family=fam, eps=1, r1=r1, t1=d.uniform(-1, 1), **extra)
            R = turning_radius(consts, params).value
            span = curves(params, consts, 5 * n, default_invert_mode(fam))["t"] - consts.t1
            ts = consts.t1 + span * np.linspace(-1.0, 1.0, self.SAMPLES)
            states, expected = [], []
            for r in np.geomspace(1.01 * R, 5 * n, self.STATES // 2):
                for eps in (1, -1):
                    branch = replace(consts, eps=eps)
                    point = Point(d.uniform(0, 4 * math.pi * n), theta,
                                  d.uniform(0, 2 * math.pi), float(r))
                    states.append(PhaseState(point, family_velocities(branch, params, float(r))))
                    expected.append(branch)
            grid = np.geomspace(R * (1 + 1e-3), 10 * n, self.RADII)
            out.append((params, consts, ts, states, expected, grid))
        return [tuple(out[i:i + len(FAMILIES)]) for i in range(0, len(out), len(FAMILIES))]

    def run(self, x):
        return [self._instance(*inst) for inst in x]

    @staticmethod
    def _instance(params, consts, ts, states, _, grid):
        stitched = analytic.stitched_coords(params, consts, ts)
        fitted = [analytic.classify(params, s) for s in states]
        return stitched, fitted, analytic.curves(params, consts, grid)

    def check(self, x, outs) -> Outcome:
        return _combine([self._check_instance(inst, out) for inst, out in zip(x, outs)])

    def _check_instance(self, x, out) -> Outcome:
        params, consts, ts, _, expected, grid = x
        stitched, fitted, values = out
        mode = default_invert_mode(consts.family)
        outgoing = replace(consts, eps=1)
        t_back = curves(params, outgoing, stitched["r"], mode)["t"]
        ratios = [float(np.max(np.abs(t_back - (consts.t1 + np.abs(ts - consts.t1))))) / COORD_TOL]

        ok = True
        for got, want in zip(fitted, expected):
            ok = ok and got.family == want.family and got.eps == want.eps
            for key in ("r1", "tau0", "phi0", "theta0"):
                a, b = getattr(got, key), getattr(want, key)
                if b is not None:
                    ratios.append(abs(a - b) / abs(b) / COORD_TOL)

        # central differences of the curves against the first-integral field,
        # with derivative_sweep's step rule; the op's own values must match a
        # fresh evaluation at those radii
        R = turning_radius(consts, params).value
        idx = np.linspace(0, self.RADII - 1, self.PROBES).astype(int)
        probe = grid[idx]
        h = np.minimum(3e-4 * (probe - R), 1e-5 * np.maximum(probe, 1.0))
        plus, minus = curves(params, consts, probe + h), curves(params, consts, probe - h)
        at_probe = curves(params, consts, probe)
        for key, exact in curve_derivatives(params, consts, probe).items():
            fd = (plus[key] - minus[key]) / (2 * h)
            ratios.append(float(np.max(np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))))
                          / DERIVATIVE_TOL)
            scale = np.maximum(1.0, np.abs(at_probe[key]))
            ok = ok and bool(np.all(np.abs(values[key][idx] - at_probe[key]) <= 1e-13 * scale))
        err = max(ratios)
        signature = (_digest(*stitched.values(), *values.values()),
                     tuple((f.family, f.eps, f.r1, f.t1) for f in fitted))
        return Outcome(ok and err <= 1.0, err, signature, {})


WORKLOADS = {"verify_all": VerifyAll, "orbit_dense": OrbitDense,
             "orbit_edge": OrbitEdge, "closed_form": ClosedForm}
