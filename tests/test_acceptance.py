"""Acceptance gate: one test per headline guarantee of the package, each at
its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
guarantee:

 1. closed-form connection coefficients agree with a finite-difference oracle
 2. the metric is Ricci-flat to finite-difference accuracy
 3. the curvature is self-dual under one globally fixed orientation sign,
    and decisively not anti-self-dual
 4. conserved charges and the velocity norm hold along a long integration
 5. closed-form curve families match independent numerical integration,
    including the radial pass through r = n
 6. the constant-latitude family passes only with the corrected prefactors,
    and the verification report states the literal-mode factor explicitly
 7. turning-radius identities (lower bound, equality condition, equatorial
    reduction) hold across seeded parameter draws
 8. frozen regression values from independent quadrature oracles reproduce
 9. the state classifier recovers every seeded family and rejects
    constant-radius motion
10. the verification CLI is byte-deterministic for a fixed seed
"""

import math

import numpy as np
import pytest

import taubnut.cli as cli
from taubnut.analytic import (
    FamilyConstants,
    classify,
    curves,
    thm1_t_of_r,
    turning_radius,
)
from taubnut.errors import NotAGeodesic
from taubnut.geometry import (
    DUALITY_SIGN,
    ModelParams,
    Point,
    christoffel_at,
    christoffel_fd_oracle,
    frame_riemann_fd,
    ricci_fd,
    self_duality_residual,
)
from taubnut.integrator import IntegrationConfig, PhaseState, integrate
from taubnut.verify import compare_numeric_analytic, family_velocities, run_scenario, seeded_family


@pytest.fixture(scope="module")
def interior_points():
    """100 seeded interior points with n in [0.5, 2], r in [1.1n, 10n],
    theta in [0.2, pi - 0.2]; shared by the tensor-level checks."""
    rng = np.random.default_rng(20260815)
    points = []
    for _ in range(100):
        n = rng.uniform(0.5, 2.0)
        params = ModelParams(n=n)
        p = Point(rng.uniform(0.0, 4.0 * math.pi * n),
                  rng.uniform(0.2, math.pi - 0.2),
                  rng.uniform(0.0, 2.0 * math.pi),
                  n * rng.uniform(1.1, 10.0))
        points.append((params, p))
    return points


def test_01_connection_matches_fd_oracle(interior_points):
    worst = 0.0
    for params, p in interior_points:
        closed = christoffel_at(params, p)
        oracle = christoffel_fd_oracle(params, p)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    assert worst <= 1e-6, f"max connection deviation {worst}"


def test_02_vacuum_ricci_flatness(interior_points):
    worst = 0.0
    for params, p in interior_points:
        worst = max(worst, float(np.max(np.abs(ricci_fd(params, p)))))
    assert worst <= 1e-4, f"max Ricci residual {worst}"


def test_03_self_duality_with_fixed_orientation(interior_points):
    worst_sd = 0.0
    for params, p in interior_points:
        # one global orientation sign for every point: the library constant
        worst_sd = max(worst_sd, self_duality_residual(params, p))
        asd = self_duality_residual(params, p, sign=-DUALITY_SIGN)
        scale = float(np.max(np.abs(frame_riemann_fd(params, p))))
        assert asd >= 0.1 * scale, (
            f"anti-self-dual projection vanished at {p}: {asd} vs {scale}")
    assert worst_sd <= 1e-3, f"max self-duality residual {worst_sd}"


def test_04_conservation_along_equatorial_orbit():
    params = ModelParams(n=1.0)
    consts = FamilyConstants(family="thm3", eps=1, r1=1.0, phi0=1.0, phi1=0.0)
    state = PhaseState(Point(0.0, math.pi / 2, 0.0, 2.0),
                       family_velocities(consts, params, 2.0))
    cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=10.0)
    traj = integrate(params, state, cfg)
    assert traj.termination == "Horizon"
    for column in (traj.p_tau, traj.p_phi, traj.norm):
        assert float(np.max(np.abs(column - column[0]))) <= 1e-8
    assert float(np.max(np.abs(traj.norm - 1.0))) <= 1e-10


def test_05_curve_families_match_integration():
    for family in ("thm1", "thm2", "thm3", "thm4"):
        report = run_scenario(family, seed=42)
        deviations = report["max_coordinate_deviation"]
        for coord, value in deviations.items():
            assert value <= 1e-6, f"{family} {coord} deviation {value}"
        assert report["passed"], report["findings"]
        if family == "thm1":
            assert report["passthrough"]["max_r_deviation"] <= 1e-8


def test_06_latitude_family_needs_corrected_prefactors():
    report = run_scenario("thm5", seed=42)
    for coord, value in report["max_coordinate_deviation"].items():
        assert value <= 1e-6, f"corrected-mode {coord} deviation {value}"
    assert report["passed"], report["findings"]

    consts, params = seeded_family("thm5", 42)
    factor = consts.r1 * math.sqrt(2.0 * params.n)
    assert abs(factor - 1.0) > 1e-6  # this seed exercises the discrepancy

    literal = compare_numeric_analytic(consts, params, mode="literal")
    worst_literal = max(literal["max_coordinate_deviation"].values())
    assert worst_literal > 1e-2, "literal mode unexpectedly met the bound"

    # the failure is exactly the documented prefactors: curve spans scale by
    # r1*sqrt(2n) in the swept angles and by r1/sqrt(2n) in t
    t_factor = consts.r1 / math.sqrt(2.0 * params.n)
    R = turning_radius(consts, params).value
    grid = np.array([1.2 * R, 2.0 * R])
    t_cor, phi_cor, tau_cor = tuple(curves(params, consts, grid, "corrected").values())
    t_lit, phi_lit, tau_lit = tuple(curves(params, consts, grid, "literal").values())
    span = lambda a: a[1] - a[0]
    assert span(t_lit) / span(t_cor) == pytest.approx(t_factor, rel=1e-9)
    assert span(phi_lit) / span(phi_cor) == pytest.approx(factor, rel=1e-9)
    assert span(tau_lit) / span(tau_cor) == pytest.approx(factor, rel=1e-9)

    text = " ".join(report["findings"])
    assert "r1*sqrt(2n)" in text and repr(factor) in text


def test_07_turning_radius_identities():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = rng.uniform(0.5, 2.0)
        r1 = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.05, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        theta = rng.uniform(0.1, math.pi - 0.1)
        params = ModelParams(n=n)

        filled = {
            "thm2": dict(tau0=c, tau1=0.0),
            "thm3": dict(phi0=c, phi1=0.0),
            "thm4": dict(theta0=c, theta1=1.0),
            "thm5": dict(phi0=c, theta_const=theta, tau1=0.0, phi1=0.0),
        }
        for family, extra in filled.items():
            consts = FamilyConstants(family=family, eps=1, r1=r1, **extra)
            R = turning_radius(consts, params)
            assert R.value > n, f"{family} turning radius not above n"
            # zero angular constant collapses the bound to equality
            zeroed = dict(extra, **{next(iter(extra)): 0.0})
            at_rest = FamilyConstants(family=family, eps=1, r1=r1, **zeroed)
            assert turning_radius(at_rest, params).value == n

        equatorial = FamilyConstants(family="thm5", eps=1, r1=r1, phi0=c,
                                     theta_const=math.pi / 2, tau1=0.0,
                                     phi1=0.0)
        orbital = FamilyConstants(family="thm3", eps=1, r1=r1, phi0=c,
                                  phi1=0.0)
        r_plus = turning_radius(equatorial, params).value
        r_two = turning_radius(orbital, params).value
        assert abs(r_plus - r_two) <= 1e-12 * r_two


def test_08_frozen_regression_values():
    radial = FamilyConstants(family="thm1", eps=1, r1=1.0, t1=0.0)
    t_13 = thm1_t_of_r(ModelParams(n=0.5), radial, 1.3)
    assert abs(t_13 - 2.004718) <= 1e-5

    orbital = FamilyConstants(family="thm3", eps=1, r1=1.0, phi0=1.0,
                              phi1=0.0)
    t, _ = tuple(curves(ModelParams(n=1.0), orbital, np.array([2.0, 3.0])).values())
    assert abs((t[1] - t[0]) - 1.73451) <= 1e-3


def test_09_classifier_recovers_seeded_states():
    rng = np.random.default_rng(99)
    for family in ("thm1", "thm2", "thm3", "thm4", "thm5"):
        for seed in range(20):
            consts, params = seeded_family(family, seed)
            R = turning_radius(consts, params).value
            r = R * (1.0 + rng.uniform(0.05, 2.0))
            if family == "thm3":
                theta = math.pi / 2
            elif family == "thm5":
                theta = consts.theta_const
            elif family == "thm4":
                theta = consts.theta1
            else:
                theta = rng.uniform(0.3, math.pi - 0.3)
            state = PhaseState(Point(0.0, theta, 0.0, r),
                               family_velocities(consts, params, r))
            fitted = classify(params, state)
            assert fitted.family == family, (family, seed, fitted.family)
            assert fitted.r1 == pytest.approx(consts.r1, rel=1e-9)
            for name in ("tau0", "phi0", "theta0", "theta_const"):
                expected = getattr(consts, name)
                if expected is not None:
                    assert getattr(fitted, name) == pytest.approx(
                        expected, rel=1e-9), (family, seed, name)

    params = ModelParams(n=1.0)
    for velocity in ((0.7, 0.0, 0.0, 0.0), (0.0, 0.4, 0.0, 0.0),
                     (0.0, 0.0, 0.5, 0.0), (0.3, 0.2, 0.1, 0.0)):
        with pytest.raises(NotAGeodesic):
            classify(params, PhaseState(Point(0.0, 1.1, 0.0, 2.0), velocity))


def test_10_verification_cli_is_byte_deterministic(tmp_path, capsys):
    outputs = []
    for name in ("first.json", "second.json"):
        target = tmp_path / name
        code = cli.main(["verify", "--scenario", "all", "--seed", "42",
                         "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 1000
