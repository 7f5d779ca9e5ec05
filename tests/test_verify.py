"""Verification harness tests: first-integral velocity reconstruction, the
numeric-vs-analytic comparator, derivative sweeps, curvature audits, scenario
assembly, and byte-level report determinism."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from taubnut import geometry, integrator, verify
from taubnut.analytic import (
    FamilyConstants,
    curve_derivatives,
    curves,
    default_invert_mode,
    default_mode,
    radial_passthrough,
    turning_radius,
)
from taubnut.errors import ConfigError, DomainError
from taubnut.geometry import (
    DUALITY_SIGN,
    ModelParams,
    frame_riemann_fd,
    ricci_fd,
    self_duality_residual,
)
from taubnut.integrator import IntegrationConfig, PhaseState, geodesic_rhs, integrate, norm
from taubnut.geometry import Point
from taubnut.verify import (
    SCENARIOS,
    compare_numeric_analytic,
    curvature_audit,
    derivative_sweep,
    family_velocities,
    report_to_json,
    run_scenario,
    seeded_family,
)

P1 = ModelParams(n=1.0)


def c_thm3(**kw):
    base = dict(family="thm3", eps=1, r1=1.0, phi0=1.0, phi1=0.0)
    base.update(kw)
    return FamilyConstants(**base)


class TestFamilyVelocities:
    def test_equatorial_state(self):
        v = family_velocities(c_thm3(), P1, 2.0)
        assert v[2] == pytest.approx(1 / 3, rel=1e-15)
        assert v[3] == pytest.approx(math.sqrt(2) / 3, rel=1e-14)
        assert v[0] == 0.0 and v[1] == 0.0

    def test_tau_charged_state(self):
        consts = FamilyConstants(family="thm2", eps=1, r1=math.sqrt(2),
                                 tau0=1.0, tau1=0.0)
        v = family_velocities(consts, P1, 3.0)
        assert v[0] == pytest.approx(2.0, rel=1e-14)
        assert v[3] == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_constant_latitude_state(self):
        consts = FamilyConstants(family="thm5", eps=1, r1=1.0, phi0=1.0,
                                 theta_const=math.pi / 3, tau1=0.0, phi1=0.0)
        v = family_velocities(consts, P1, 2.0)
        assert v[0] == pytest.approx(5 / 12, rel=1e-13)
        assert v[2] == pytest.approx(1 / 3, rel=1e-15)
        assert v[3] == pytest.approx(math.sqrt(5 / 24), rel=1e-13)

    def test_ingoing_branch_flips_dr(self):
        out = family_velocities(c_thm3(), P1, 2.0)
        inn = family_velocities(c_thm3(eps=-1), P1, 2.0)
        assert inn[3] == -out[3] and inn[2] == out[2]

    def test_below_turning_radius(self):
        with pytest.raises(DomainError):
            family_velocities(c_thm3(), P1, 1.2)

    def test_generic_rejected(self):
        with pytest.raises(ConfigError):
            family_velocities(FamilyConstants(family="generic", eps=1,
                                              r1=1.0), P1, 2.0)

    def test_radial_norm_matches_energy(self):
        consts = FamilyConstants(family="thm1", eps=1, r1=1.3)
        state = PhaseState(Point(0.0, 1.0, 0.0, 2.0),
                           family_velocities(consts, P1, 2.0))
        assert norm(P1, state) == pytest.approx(1.3**2, rel=1e-13)


class TestCompareNumericAnalytic:
    def test_equatorial_family_bounds(self):
        report = compare_numeric_analytic(c_thm3(), P1)
        dev = report["max_coordinate_deviation"]
        assert dev["t"] <= 1e-6 and dev["phi"] <= 1e-6
        assert dev["theta"] <= 1e-6 and dev["tau"] <= 1e-6
        assert report["passed"]
        assert report["schema"] == 1
        assert report["family"] == "thm3"

    def test_report_shape(self):
        report = compare_numeric_analytic(c_thm3(), P1)
        assert list(report) == ["schema", "scenario", "family", "params",
                                "tolerances", "max_coordinate_deviation",
                                "conservation_drift",
                                "derivative_max_rel_error", "passthrough",
                                "curvature", "duality_sign", "work",
                                "findings", "passed"]
        drift = report["conservation_drift"]
        assert set(drift) == {"p_tau", "p_phi", "norm"}
        assert all(v >= 0 for v in drift.values())

    def test_rejects_generic(self):
        with pytest.raises(ConfigError):
            compare_numeric_analytic(
                FamilyConstants(family="generic", eps=1, r1=1.0), P1)

    def test_empty_window_rejected(self):
        # R = sqrt(26) puts r0 = 1.001R above the window's top 5n
        with pytest.raises(ConfigError, match="comparison window"):
            compare_numeric_analytic(c_thm3(phi0=5.0), P1)


class TestDerivativeSweep:
    def test_tau_charged_sweep(self):
        consts = FamilyConstants(family="thm2", eps=1, r1=2.0, tau0=1.0,
                                 tau1=0.0)
        report = derivative_sweep(consts, P1)
        assert report["derivative_max_rel_error"] <= 1e-7
        assert report["passed"]

    def test_meridional_equals_equatorial(self):
        c3 = c_thm3(r1=1.1, phi0=0.7)
        c4 = FamilyConstants(family="thm4", eps=1, r1=1.1, theta0=0.7,
                             theta1=0.0)
        r3 = derivative_sweep(c3, P1)
        r4 = derivative_sweep(c4, P1)
        assert (r4["derivative_max_rel_error"]
                == r3["derivative_max_rel_error"])

    def test_literal_latitude_sweep_is_flagged(self):
        consts = FamilyConstants(family="thm5", eps=1, r1=1.0, phi0=1.0,
                                 theta_const=math.pi / 3, tau1=0.0, phi1=0.0)
        report = derivative_sweep(consts, P1, mode="literal")
        # r1*sqrt(2n) = sqrt(2) here, so the literal prefactors are off by
        # a factor ~0.41 relative error
        assert report["derivative_max_rel_error"] > 1e-2
        assert not report["passed"]
        assert report["findings"]

    def test_bad_range(self):
        # R = sqrt(101) puts the range's bottom 1.001R above its top 10n
        with pytest.raises(DomainError, match="sweep range"):
            derivative_sweep(c_thm3(phi0=10.0), P1)


# counts outside the CLI, each with IntegrationConfig.max_steps's rule: an
# integral number that is not a bool, at or above a minimum
BAD_COUNTS = [
    ("samples", lambda: radial_passthrough(P1, 0.0, 1.0, samples=3.5)),
    ("samples", lambda: radial_passthrough(P1, 0.0, 1.0, samples=math.nan)),
    ("samples", lambda: radial_passthrough(P1, 0.0, 1.0, samples=True)),
    ("sample_count", lambda: curvature_audit(2.5)),
    ("sample_count", lambda: curvature_audit(True)),
    ("seed", lambda: curvature_audit(3, seed=1.5)),
    ("seed", lambda: run_scenario("thm1", seed=1.5)),
    ("seed", lambda: run_scenario("thm1", seed=False)),
    ("max_steps", lambda: IntegrationConfig(max_steps=4.0)),
]


@pytest.mark.parametrize("name,call", BAD_COUNTS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(BAD_COUNTS)])
def test_non_integral_count_is_config_error(name, call):
    with pytest.raises(ConfigError, match=f"^{name} must be an integer of at least"):
        call()


# (family, mode) pairs the verify scenarios sweep and compare
SWEPT = [("thm1", None), ("thm2", None), ("thm3", None), ("thm4", None),
         ("thm5", None), ("thm5", "literal")]


class TestArraySweeps:
    """The sweeps evaluate the curves on arrays of radii; the loops below
    are the radius-by-radius route they replaced, with scalar curves."""

    @pytest.mark.parametrize("family,mode", SWEPT)
    def test_derivative_sweep_matches_scalar_loop(self, family, mode):
        consts, params = seeded_family(family, 42)
        mode = mode or default_mode(family)
        R = turning_radius(consts, params).value
        worst = 0.0
        for r in np.geomspace(R * 1.001, 10 * params.n, 50):
            h = min(3e-4 * (r - R), 1e-5 * max(r, 1.0))
            plus = curves(params, consts, r + h, mode)
            minus = curves(params, consts, r - h, mode)
            for key, value in curve_derivatives(params, consts, r).items():
                fd = (plus[key] - minus[key]) / (2 * h)
                worst = max(worst, abs(fd - value) / max(1.0, abs(value)))
        report = derivative_sweep(consts, params, mode=mode)
        assert report["derivative_max_rel_error"] == worst

    @pytest.mark.parametrize("family,mode", SWEPT)
    def test_compare_matches_scalar_loop(self, monkeypatch, family, mode):
        consts, params = seeded_family(family, 42)
        mode = mode or default_invert_mode(family)
        runs = []

        def keep(*args):
            runs.append(integrate(*args))
            return runs[-1]

        monkeypatch.setattr(verify, "integrate", keep)
        report = compare_numeric_analytic(consts, params, mode=mode)
        (traj,) = runs
        sel = traj.coords[:, 3] <= 5 * params.n
        t_num, coords = traj.t[sel], traj.coords[sel]
        outgoing = replace(consts, eps=1)
        base = curves(params, outgoing, coords[0, 3], mode)
        deviation = dict.fromkeys(("t", "tau", "theta", "phi"), 0.0)
        for i, t in enumerate(t_num):
            vals = curves(params, outgoing, coords[i, 3], mode)
            deviation["t"] = max(deviation["t"],
                                 abs((t - t_num[0]) - (vals["t"] - base["t"])))
            for j, name in enumerate(("tau", "theta", "phi")):
                dev = coords[i, j] - coords[0, j]
                if name in vals:
                    dev = dev - (vals[name] - base[name])
                deviation[name] = max(deviation[name], abs(dev))
        assert report["max_coordinate_deviation"] == deviation


class TestCurvatureAudit:
    def test_bounds(self):
        report = curvature_audit(20, seed=11)
        cur = report["curvature"]
        assert cur["ricci_max_abs"] <= 1e-4
        assert cur["self_dual_residual_max"] <= 1e-3
        assert cur["anti_self_dual_min_ratio"] >= 0.1
        assert report["passed"]
        assert report["duality_sign"] == -1.0

    def test_seed_reproducibility(self):
        a = curvature_audit(10, seed=3)
        b = curvature_audit(10, seed=3)
        assert report_to_json(a) == report_to_json(b)

    def test_sample_count_validated(self):
        with pytest.raises(ConfigError):
            curvature_audit(0)

    @pytest.mark.parametrize("seed", [0, 7, 42, 123])
    def test_points_equal_per_point_draws(self, seed, monkeypatch):
        # the batched draw gives the per-point rng.uniform draws bit for bit
        drawn = []

        def keep(ps, pts):
            drawn.append((ps, pts))
            return geometry.curvature_fd(ps, pts)

        monkeypatch.setattr(verify, "curvature_fd", keep)
        curvature_audit(100, seed=seed)
        (ps, pts), = drawn
        rng = np.random.default_rng(seed)
        for params, p in zip(ps, pts, strict=True):
            n = rng.uniform(0.5, 2.0)
            assert params.n == n
            assert p == Point(tau=rng.uniform(0.0, 4 * math.pi * n),
                              theta=rng.uniform(0.2, math.pi - 0.2),
                              phi=rng.uniform(0.0, 2 * math.pi),
                              r=rng.uniform(1.1 * n, 10 * n))
            assert all(type(v) is float for v in (params.n, p.tau, p.theta, p.phi, p.r))

    @pytest.mark.parametrize("seed", [42, 7, 0])
    def test_batch_equals_one_point_route(self, seed):
        # the audit's draws, replayed through the public one-point functions
        rng = np.random.default_rng(seed)
        ricci, sd, ratio = [], [], []
        for _ in range(100):
            n = rng.uniform(0.5, 2.0)
            params = ModelParams(n=n)
            p = Point(tau=rng.uniform(0.0, 4 * math.pi * n),
                      theta=rng.uniform(0.2, math.pi - 0.2),
                      phi=rng.uniform(0.0, 2 * math.pi),
                      r=rng.uniform(1.1 * n, 10 * n))
            ricci.append(np.max(np.abs(ricci_fd(params, p))))
            sd.append(self_duality_residual(params, p))
            ratio.append(self_duality_residual(params, p, -DUALITY_SIGN)
                         / np.max(np.abs(frame_riemann_fd(params, p))))
        cur = curvature_audit(100, seed=seed)["curvature"]
        assert cur == {"ricci_max_abs": max(ricci),
                       "self_dual_residual_max": max(sd),
                       "anti_self_dual_min_ratio": min(ratio)}


class TestScenarios:
    def test_radial_scenario_with_passthrough(self):
        report = run_scenario("thm1", seed=42)
        assert report["passed"]
        assert report["passthrough"]["max_r_deviation"] <= 1e-8
        assert report["passthrough"]["passed"]

    def test_latitude_scenario_states_the_factor(self):
        report = run_scenario("thm5", seed=42)
        assert report["passed"]
        text = " ".join(report["findings"])
        assert "r1*sqrt(2n)" in text
        assert "corrected mode is the accepted form" in text

    @pytest.mark.parametrize("seed", [42, 7])
    def test_latitude_scenario_integrates_once(self, seed, monkeypatch):
        # both thm5 modes are compared against one orbit, and the literal
        # finding reads as from a comparison that integrates its own
        runs = []

        def keep(*args):
            runs.append(args)
            return integrate(*args)

        monkeypatch.setattr(verify, "integrate", keep)
        report = run_scenario("thm5", seed)
        assert len(runs) == 1
        consts, params = seeded_family("thm5", seed)
        corrected = compare_numeric_analytic(consts, params)
        literal = compare_numeric_analytic(consts, params, mode="literal")
        lit_dev = max(literal["max_coordinate_deviation"].values())
        corr_dev = max(corrected["max_coordinate_deviation"].values())
        assert report["findings"][0] == (
            "literal-mode prefactors scale the swept angles by r1*sqrt(2n) = "
            f"{consts.r1 * math.sqrt(2 * params.n)!r} and t by r1/sqrt(2n) = "
            f"{consts.r1 / math.sqrt(2 * params.n)!r}; max literal-mode deviation "
            f"{lit_dev!r} vs corrected {corr_dev!r}")

    @pytest.mark.parametrize("seed,rhs_calls", [(42, 2036), (7, 1844)])
    def test_work_counts_of_all(self, seed, rhs_calls, monkeypatch):
        # machine-independent counts of one verify op's integrator work: a
        # duplicated orbit or a changed step sequence moves them
        counts = {"rhs": 0, "integrate": 0}

        def counting_rhs(*args):
            counts["rhs"] += 1
            return geodesic_rhs(*args)

        def counting_integrate(*args):
            counts["integrate"] += 1
            return integrate(*args)

        monkeypatch.setattr(integrator, "geodesic_rhs", counting_rhs)
        monkeypatch.setattr(verify, "integrate", counting_integrate)
        doc = run_scenario("all", seed)
        assert counts == {"rhs": rhs_calls, "integrate": 7}
        # the reports' work sections name each integration once
        work = [w for r in doc["reports"] if r["work"] for w in r["work"].values()]
        assert len(work) == 7 and sum(w["nfev"] for w in work) == rhs_calls

    def test_reports_carry_each_integrations_counters(self, monkeypatch):
        runs = []

        def keep(*args):
            runs.append(integrate(*args))
            return runs[-1]

        monkeypatch.setattr(verify, "integrate", keep)
        report = run_scenario("thm1", 42)
        assert list(report["work"]) == ["orbit", "passthrough_outgoing", "passthrough_ingoing"]
        assert len(runs) == 3
        for traj, counters in zip(runs, report["work"].values()):
            assert counters == {key: traj.stats[key] for key in
                                ("nfev", "accepted", "rejected", "interpolants", "root_solves")}
        assert run_scenario("curvature", 42)["work"] is None

    def test_all_aggregates(self):
        doc = run_scenario("all", seed=42)
        assert doc["schema"] == 1
        assert [r["scenario"] for r in doc["reports"]] == list(SCENARIOS[:-1])
        assert doc["passed"] == all(r["passed"] for r in doc["reports"])

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            run_scenario("thm6")

    def test_seeded_family_windows(self):
        # every seeded turning radius sits well inside the 5n window
        from taubnut.analytic import turning_radius
        for seed in (0, 1, 42, 123):
            for name in ("thm1", "thm2", "thm3", "thm4", "thm5"):
                consts, params = seeded_family(name, seed)
                R = turning_radius(consts, params).value
                assert R * 1.001 < 5 * params.n

    def test_byte_determinism_single_scenario(self):
        a = report_to_json(run_scenario("thm3", seed=9))
        b = report_to_json(run_scenario("thm3", seed=9))
        assert a == b
        assert a.endswith("\n") and not a.endswith("\n\n")
        assert json.loads(a)["schema"] == 1

    # sha256 of report_to_json(run_scenario("all", seed)), the bytes that
    # `taubnut verify --scenario all --seed <seed>` prints. A deliberate
    # re-baseline updates the hash here and lists the moved values in
    # CHANGES.md.
    ALL_REPORT_SHA256 = {
        42: "abdccffc68217327537866285a47c7b2607ed994d9e86fe19fedbfe4cb2a7d99",
        7: "5974c66d2c65ad61d01d9953b1d953067134933937c00161248dc4555fa0a9cc",
        0: "04f9ca6fa2102336fa69211ad656d7b1f07ba138d5bcb03d4a978d4be5a14e8e",
    }

    @pytest.mark.parametrize("seed", sorted(ALL_REPORT_SHA256))
    def test_all_report_bytes_are_pinned(self, seed):
        text = report_to_json(run_scenario("all", seed=seed))
        assert hashlib.sha256(text.encode()).hexdigest() == self.ALL_REPORT_SHA256[seed]

    def test_reports_hold_only_plain_json_values(self):
        # report_to_json converts nothing, so a numpy scalar that slips into
        # a report fails here (np.float64 is a float subclass: types are
        # compared exactly)
        for seed in (42, 7, 0):
            stack = [run_scenario("all", seed)]
            while stack:
                value = stack.pop()
                if type(value) is dict:
                    assert all(type(key) is str for key in value), list(value)
                    stack.extend(value.values())
                elif type(value) is list:
                    stack.extend(value)
                else:
                    assert value is None or type(value) in (bool, int, float, str), repr(value)
