"""Geodesic right-hand side, adaptive integration with conserved-quantity
monitoring, event termination, the exact radial passthrough, and trajectory
CSV round-tripping."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut import integrator, radial_passthrough
from taubnut.analytic import FamilyConstants, curves, family_velocities
from taubnut.errors import AxisError, ConfigError, DegenerateError, DomainError
from taubnut.geometry import ModelParams, Point, christoffel_at, christoffel_fd_oracle
from taubnut.integrator import (
    REL_TOL_FLOOR,
    IntegrationConfig,
    PhaseState,
    Trajectory,
    geodesic_rhs,
    integrate,
    killing_charges,
    norm,
    trajectory_from_csv,
    trajectory_to_csv,
)

P1 = ModelParams(n=1.0)


def equatorial_state():
    """r0=2, n=1 member of the equatorial family with phi0=1, r1=1; norm 1."""
    return PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (0.0, 0.0, 1 / 3, np.sqrt(2) / 3))


class TestPhaseState:
    def test_array_round_trip(self):
        s = PhaseState(Point(0.1, 1.2, 0.3, 2.5), (0.4, -0.5, 0.6, -0.7))
        s2 = PhaseState.from_array(s.as_array())
        assert s2 == s


class TestIntegrationConfig:
    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(abs_tol=0.0)

    def test_rejects_bad_floor_margin(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(r_floor_rel=0.7)

    @pytest.mark.parametrize("value", [1e-16, 1e-20])
    def test_rejects_floor_margin_lost_in_rounding(self, value):
        # n*(1 + value) == n in floats: the floor would sit at r = n
        with pytest.raises(ConfigError):
            IntegrationConfig(r_floor_rel=value)

    def test_smallest_floor_margin_still_stops(self):
        # 2e-16 survives 1 + r_floor_rel, so the floor is one ulp above n
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (0.0, 0.0, 0.0, -0.5))
        traj = integrate(P1, s, IntegrationConfig(t_end=50.0, r_floor_rel=2e-16))
        assert traj.termination == "SingularityApproach"
        assert traj.t[-1] < 4.0
        assert traj.coords[-1, 3] > 1.0

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(t_end=-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("make,field", [
        (ModelParams, "n"), (IntegrationConfig, "t_end"),
        (IntegrationConfig, "abs_tol"), (IntegrationConfig, "rel_tol")])
    def test_rejects_non_finite(self, make, field, value):
        # construction only: an infinite t_end must never reach integrate()
        with pytest.raises(ConfigError):
            make(**{field: value})

    def test_rel_tol_floor(self):
        # the floor is the smallest rtol scipy's stepper keeps unchanged;
        # below it scipy warns and silently raises rtol
        below = np.nextafter(REL_TOL_FLOOR, 0.0)
        IntegrationConfig(rel_tol=REL_TOL_FLOOR)
        with pytest.raises(ConfigError, match="rel_tol"):
            IntegrationConfig(rel_tol=below)
        integrator.DOP853(lambda t, y: -y, 0.0, np.ones(1), 1.0, rtol=REL_TOL_FLOOR)
        with pytest.warns(UserWarning, match="rtol"):
            integrator.DOP853(lambda t, y: -y, 0.0, np.ones(1), 1.0, rtol=below)

    def test_rejects_unordered_grid(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(sample_grid=(0.0, 2.0, 1.0))


class TestGeodesicRhs:
    def test_radial_acceleration(self):
        # only dr/dt nonzero: d2r/dt2 = n/(r^2-n^2) = 1/3, everything else 0
        s = PhaseState(Point(0.0, np.pi / 3, 0.0, 2.0), (0.0, 0.0, 0.0, 1.0))
        out = geodesic_rhs(P1, s.as_array())
        assert out[7] == pytest.approx(1 / 3, abs=1e-15)
        assert np.max(np.abs(out[4:7])) == 0.0

    def test_equator_azimuthal_state(self):
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (0.0, 0.0, 1.0, 0.0))
        out = geodesic_rhs(P1, s.as_array())
        assert out[7] == pytest.approx(2 / 3, abs=1e-15)
        # sin*cos vanishes at the equator up to the cos(pi/2) rounding residue
        assert abs(out[5]) < 1e-15
        assert out[4] == 0.0 and out[6] == 0.0

    def test_theta_acceleration_from_charge_coupling(self):
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (1.0, 0.0, 1.0, 0.0))
        assert geodesic_rhs(P1, s.as_array())[5] == pytest.approx(-2 / 9, abs=1e-14)

    def test_matches_christoffel_contraction(self):
        params = ModelParams(n=0.7)
        p = Point(0.1, 1.1, 0.4, 1.7)
        v = np.array([0.3, -0.2, 0.4, 0.1])
        G = christoffel_at(params, p).components
        acc = -np.einsum("lmn,m,n->l", G, v, v)
        out = geodesic_rhs(params, PhaseState(p, tuple(v)).as_array())
        assert np.allclose(out[:4], v, atol=0)
        assert np.allclose(out[4:], acc, atol=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(n=st.floats(0.5, 2.0), theta=st.floats(0.2, math.pi - 0.2),
           r_over_n=st.floats(1.1, 10.0),
           speeds=st.tuples(*[st.floats(0.1, 1.0)] * 4),
           signs=st.tuples(*[st.sampled_from((-1.0, 1.0))] * 4))
    def test_matches_fd_oracle_contraction(self, n, theta, r_over_n, speeds, signs):
        # the independent route: -Gamma(v, v) with Gamma from central
        # differences of the metric; every velocity component is nonzero, so
        # the 1/sin(theta) terms are active. Each acceleration is compared
        # relative to the sum of its terms' magnitudes.
        params = ModelParams(n=n)
        p = Point(0.0, theta, 0.0, r_over_n * n)
        v = np.array(speeds) * np.array(signs)
        terms = np.einsum("lmn,m,n->lmn", christoffel_fd_oracle(params, p).components, v, v)
        acc = geodesic_rhs(params, PhaseState(p, tuple(v)).as_array())[4:]
        scale = np.abs(terms).sum(axis=(1, 2))
        assert np.all(np.abs(acc + terms.sum(axis=(1, 2))) <= 1e-6 * scale)

    def test_rejects_r_at_or_below_n(self):
        with pytest.raises(DomainError):
            geodesic_rhs(P1, PhaseState(Point(0.0, 1.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)).as_array())

    def test_domain_error_where_powers_overflow(self):
        # (r + n)**3 overflows a float beyond r ~ 5.6e102
        s = PhaseState(Point(0.0, 1.0, 0.0, 1e103), (0.0, 0.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            geodesic_rhs(P1, s.as_array())

    def test_axis_error_when_singular_term_active(self):
        s = PhaseState(Point(0.0, 0.0, 0.0, 2.0), (1.0, 1.0, 0.0, 0.0))
        with pytest.raises(AxisError):
            geodesic_rhs(P1, s.as_array())

    def test_meridional_clean_arbitrarily_near_axis(self):
        # no 1/sin term is activated when dtau/dt = dphi/dt = 0
        s = PhaseState(Point(0.0, 1e-9, 0.0, 2.0), (0.0, 1.0, 0.0, 0.0))
        out = geodesic_rhs(P1, s.as_array())
        assert np.all(np.isfinite(out))
        assert out[7] == pytest.approx(2 / 3, abs=1e-15)

    def test_holding_r_fixed_requires_zero_velocity(self):
        # dr/dt = 0 with dphi/dt != 0 gives d2r/dt2 != 0: r cannot stay constant
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (0.0, 0.0, 1.0, 0.0))
        assert geodesic_rhs(P1, s.as_array())[7] > 0.1


class TestKillingCharges:
    def test_pure_tau_motion_reduction(self):
        s = PhaseState(Point(0.0, 1.1, 0.0, 3.0), (2.0, 0.0, 0.0, 0.0))
        p_tau, _ = killing_charges(P1, s)
        assert p_tau == pytest.approx((3 - 1) / (3 + 1) * 2.0, abs=1e-15)

    def test_equator_azimuthal_reduction(self):
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 3.0), (0.0, 0.0, 0.5, 0.0))
        _, p_phi = killing_charges(P1, s)
        assert p_phi == pytest.approx((9 - 1) * 0.5, abs=1e-14)

    def test_mixed_state_value(self):
        s = PhaseState(Point(0.0, np.pi / 3, 0.0, 3.0), (1.0, 0.0, 2.0, 0.0))
        p_tau, _ = killing_charges(P1, s)
        assert p_tau == pytest.approx(1.5, abs=1e-14)


class TestNorm:
    def test_zero_velocity(self):
        s = PhaseState(Point(0.0, 1.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0))
        assert norm(P1, s) == 0.0

    def test_unit_norm_state(self):
        assert norm(P1, equatorial_state()) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_scaling(self):
        s = equatorial_state()
        s2 = PhaseState(s.point, tuple(3.0 * v for v in s.velocity))
        assert norm(P1, s2) == pytest.approx(9.0 * norm(P1, s), rel=1e-14)


class TestIntegrate:
    def test_conserved_quantities_drift(self):
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=10.0)
        traj = integrate(P1, equatorial_state(), cfg)
        assert traj.termination == "Horizon"
        assert np.max(np.abs(traj.p_phi - traj.p_phi[0])) <= 1e-10
        assert np.max(np.abs(traj.p_tau - traj.p_tau[0])) <= 1e-10
        assert np.max(np.abs(traj.norm - 1.0)) <= 1e-10

    def test_time_strictly_increasing(self):
        traj = integrate(P1, equatorial_state(), IntegrationConfig(t_end=3.0))
        assert np.all(np.diff(traj.t) > 0)

    def test_inward_radial_stops_at_floor(self):
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (0.0, 0.0, 0.0, -0.5))
        traj = integrate(P1, s, IntegrationConfig(t_end=50.0))
        assert traj.termination == "SingularityApproach"
        assert traj.coords[-1, 3] == pytest.approx(1.0 + 1e-6, rel=1e-9)

    def test_zero_velocity_single_row(self):
        s = PhaseState(Point(0.0, 1.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0))
        traj = integrate(P1, s, IntegrationConfig(t_end=5.0))
        assert traj.termination == "Horizon"
        assert len(traj) == 1 and traj.norm[0] == 0.0

    @pytest.mark.parametrize("state", [
        PhaseState(Point(0.0, 1.0, 0.0, 2.0), (0.0, 0.0, math.nan, 1.0)),
        PhaseState(Point(0.0, 1.0, 0.0, math.inf), (0.0, 0.0, 0.0, -1.0)),
        PhaseState(Point(math.nan, 1.0, 0.0, 2.0), (0.0, 0.0, 0.0, 1.0))])
    def test_rejects_non_finite_state(self, state):
        with pytest.raises(ConfigError):
            integrate(P1, state, IntegrationConfig(t_end=1.0))

    def test_immediate_floor_violation(self):
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 1.0 + 1e-7), (0.0, 0.0, 0.0, -0.1))
        traj = integrate(P1, s, IntegrationConfig(t_end=5.0))
        assert traj.termination == "SingularityApproach"
        assert len(traj) == 1

    def test_axis_stop_when_charged(self):
        s = PhaseState(Point(0.0, 0.2, 0.0, 3.0), (0.0, -1.0, 1e-3, 0.0))
        traj = integrate(P1, s, IntegrationConfig(t_end=5.0))
        assert traj.termination == "AxisApproach"
        assert traj.coords[-1, 1] == pytest.approx(P1.axis_guard, abs=1e-9)

    def test_upper_axis_stop(self):
        s = PhaseState(Point(0.0, np.pi - 0.2, 0.0, 3.0), (0.0, 1.0, 1e-3, 0.0))
        traj = integrate(P1, s, IntegrationConfig(t_end=5.0))
        assert traj.termination == "AxisApproach"
        assert traj.coords[-1, 1] == pytest.approx(np.pi - P1.axis_guard, abs=1e-9)

    def test_charged_start_inside_band_stops_at_once(self):
        s = PhaseState(Point(0.0, 5e-4, 0.0, 3.0), (0.0, -0.1, 1e-3, 0.0))
        traj = integrate(P1, s, IntegrationConfig(t_end=5.0))
        assert traj.termination == "AxisApproach"
        assert len(traj) == 1

    def test_meridional_passes_through_axis(self):
        s = PhaseState(Point(0.0, 0.5, 0.0, 3.0), (0.0, -0.4, 0.0, 0.0))
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=2.0)
        traj = integrate(P1, s, cfg)
        assert traj.termination == "Horizon"
        assert traj.coords[-1, 1] < 0.0  # continued past the pole
        assert np.max(np.abs(traj.norm - traj.norm[0])) <= 1e-10

    def test_equatorial_family_stays_equatorial(self):
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=10.0)
        traj = integrate(P1, equatorial_state(), cfg)
        assert np.max(np.abs(traj.coords[:, 1] - np.pi / 2)) <= 1e-8
        assert np.max(np.abs(traj.coords[:, 0])) <= 1e-8

    def test_tau_charged_family_freezes_angles(self):
        s = PhaseState(Point(0.0, np.pi / 3, 0.0, 3.0), (2.0, 0.0, 0.0, np.sqrt(0.5)))
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=5.0)
        traj = integrate(P1, s, cfg)
        assert np.all(traj.coords[:, 1] == np.pi / 3)
        assert np.all(traj.coords[:, 2] == 0.0)

    def test_constant_latitude_family_holds(self):
        # dtau = phi0 (r+3n) cos(theta) / (2n (r+n)), dphi = phi0/(r^2-n^2)
        s = PhaseState(Point(0.0, np.pi / 3, 0.0, 2.0), (5 / 12, 0.0, 1 / 3, np.sqrt(5 / 24)))
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=10.0)
        traj = integrate(P1, s, cfg)
        assert traj.termination == "Horizon"
        assert np.max(np.abs(traj.coords[:, 1] - np.pi / 3)) <= 1e-8

    def test_sample_grid_rows(self):
        grid = (0.0, 0.5, 1.0, 1.5, 2.0)
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=2.0, sample_grid=grid)
        traj = integrate(P1, equatorial_state(), cfg)
        assert len(traj) == 5
        assert np.allclose(traj.t, grid, atol=1e-12)
        assert np.max(np.abs(traj.norm - 1.0)) <= 1e-8

    def test_dense_output_conserves_on_grid(self):
        # grid samples come from the stepper's interpolant between steps
        s = PhaseState(Point(0.3, 1.1, 0.4, 2.0), (0.5, -0.3, 0.4, 0.6))
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=20.0,
                                sample_grid=tuple(np.linspace(0.0, 20.0, 401)))
        traj = integrate(P1, s, cfg)
        assert traj.termination == "Horizon" and len(traj) == 401
        for column in (traj.p_tau, traj.p_phi, traj.norm):
            assert np.max(np.abs(column - column[0])) <= 1e-9

    def test_chart_exit_retries_then_floor_stop(self, monkeypatch):
        # at a loose tolerance the stepper's stages overshoot r = n; each
        # overshoot restarts from the last accepted state with a shorter step
        raised = []

        def counting_rhs(params, y):
            try:
                return geodesic_rhs(params, y)
            except DomainError:
                raised.append(y[3])
                raise

        monkeypatch.setattr(integrator, "geodesic_rhs", counting_rhs)
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 3.0), (0.0, 0.0, 0.0, -1.0))
        traj = integrate(P1, s, IntegrationConfig(abs_tol=1e-3, rel_tol=1e-3, t_end=50.0))
        assert raised
        assert traj.termination == "SingularityApproach"
        assert traj.coords[-1, 3] == pytest.approx(1.0 + 1e-6, rel=1e-9)
        # the step budget counts every stepper call, the cut-short ones too:
        # one per row after the first (the last row ends the event step)
        calls = len(traj) - 1 + len(raised)
        for budget, cause in ((calls, "SingularityApproach"), (calls - 1, "StepBudget")):
            cfg = IntegrationConfig(abs_tol=1e-3, rel_tol=1e-3, t_end=50.0, max_steps=budget)
            assert integrate(P1, s, cfg).termination == cause

    def test_initial_step_probe_past_floor(self):
        # the stepper's initial-step guess probes beyond r = n here
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 1.001), (0.0, 0.0, 0.0, -0.01))
        traj = integrate(P1, s, IntegrationConfig(abs_tol=1e-3, rel_tol=1e-3, t_end=5.0))
        assert traj.termination == "SingularityApproach"
        assert traj.coords[-1, 3] == pytest.approx(1.0 + 1e-6, rel=1e-9)

    def test_escape_past_float_range_is_chart_exit(self):
        # the rhs refuses radii whose powers overflow; the stepper treats that
        # as a chart exit and shrinks the step until it gives up
        s = PhaseState(Point(0.0, 1.0, 0.0, 2.0), (0.0, 0.0, 0.0, 1.0))
        traj = integrate(P1, s, IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=1e308))
        assert traj.termination == "StepBudget"
        assert 1e102 < traj.coords[-1, 3] < 5.7e102

    def test_step_budget(self):
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=10.0, max_steps=5)
        traj = integrate(P1, equatorial_state(), cfg)
        assert traj.termination == "StepBudget"
        assert traj.t[-1] < 10.0

    def test_step_too_small_is_step_budget(self, monkeypatch):
        class Stalling(integrator.DOP853):
            def _step_impl(self):
                if self.t > 1.0:
                    return False, self.TOO_SMALL_STEP
                return super()._step_impl()

        monkeypatch.setattr(integrator, "DOP853", Stalling)
        traj = integrate(P1, equatorial_state(), IntegrationConfig(t_end=10.0))
        assert traj.termination == "StepBudget"
        assert 1.0 < traj.t[-1] < 10.0 and np.all(np.diff(traj.t) > 0)

    def test_convergence_order_at_least_four(self):
        ref = integrate(P1, equatorial_state(),
                        IntegrationConfig(abs_tol=REL_TOL_FLOOR, rel_tol=REL_TOL_FLOOR,
                                          t_end=2.0))
        yref = ref.data[-1, 1:9]
        errs, hs = [], []
        for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
            tr = integrate(P1, equatorial_state(),
                           IntegrationConfig(abs_tol=tol, rel_tol=tol, t_end=2.0))
            errs.append(np.max(np.abs(tr.data[-1, 1:9] - yref)))
            hs.append(2.0 / (len(tr) - 1))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 4.0


class TestRadialPassthrough:
    def test_center_sample_sits_on_the_seam(self):
        traj = radial_passthrough(P1, 1.5, 0.8, +1)
        mid = len(traj) // 2
        assert traj.t[mid] == 1.5
        assert traj.coords[mid, 3] == 1.0 and traj.velocities[mid, 3] == 0.0

    def test_branch_velocity_constant(self):
        traj = radial_passthrough(P1, 0.0, 0.8, +1)
        r = traj.coords[:, 3]
        dr = traj.velocities[:, 3]
        mid = len(traj) // 2
        out = np.sqrt((r[mid + 1:] + 1.0) / (r[mid + 1:] - 1.0)) * dr[mid + 1:]
        inc = np.sqrt((r[:mid] + 1.0) / (r[:mid] - 1.0)) * dr[:mid]
        assert np.max(np.abs(out - 0.8)) <= 1e-12
        assert np.max(np.abs(inc + 0.8)) <= 1e-12

    def test_time_reflection_symmetry(self):
        traj = radial_passthrough(P1, 0.3, 1.1, -1)
        r = traj.coords[:, 3]
        assert np.max(np.abs(r - r[::-1])) <= 1e-12

    def test_outgoing_time_regression(self):
        traj = radial_passthrough(ModelParams(n=0.5), 0.0, 1.0, +1, r_max=1.3)
        mid = len(traj) // 2
        assert traj.coords[-1, 3] == pytest.approx(1.3, abs=1e-10)
        assert traj.t[-1] - traj.t[mid] == pytest.approx(2.00471895621705, abs=1e-12)

    def test_norm_column_constant(self):
        traj = radial_passthrough(P1, 0.0, 0.7, +1)
        assert np.all(traj.norm == pytest.approx(0.49, abs=1e-15))

    def test_rejects_zero_speed_constant(self):
        with pytest.raises(DegenerateError):
            radial_passthrough(P1, 0.0, 0.0, +1)

    def test_rejects_bad_direction(self):
        with pytest.raises(ConfigError):
            radial_passthrough(P1, 0.0, 1.0, 2)

    @pytest.mark.parametrize("kwargs", [{"t1": math.nan}, {"t1": math.inf},
                                        {"r_max": math.inf}, {"r_max": math.nan},
                                        {"theta": math.nan}])
    def test_rejects_non_finite(self, kwargs):
        args = {"t1": 0.0, "r1": 1.0, "direction": +1, **kwargs}
        with pytest.raises(ConfigError):
            radial_passthrough(P1, **args)


class TestTrajectoryCsv:
    def test_header_and_termination_comment(self):
        traj = integrate(P1, equatorial_state(), IntegrationConfig(t_end=1.0))
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,tau,theta,phi,r,dtau,dtheta,dphi,dr,p_tau,p_phi,norm"
        assert lines[-1] == "# termination=Horizon"

    def test_round_trip_byte_stable(self):
        traj = integrate(P1, equatorial_state(), IntegrationConfig(t_end=1.0))
        text = trajectory_to_csv(traj)
        assert trajectory_to_csv(trajectory_from_csv(text)) == text

    def test_rejects_bad_header(self):
        with pytest.raises(ConfigError):
            trajectory_from_csv("a,b,c\n1,2,3\n# termination=Horizon\n")

    def test_rejects_missing_termination(self):
        text = ",".join(Trajectory.COLUMNS) + "\n" + ",".join(["0"] * 12) + "\n"
        with pytest.raises(ConfigError):
            trajectory_from_csv(text)

    def test_rejects_unknown_cause(self):
        with pytest.raises(ConfigError):
            Trajectory(np.zeros((1, 12)), "Elsewhere")


class TestFloorGraze:
    """An ingoing equatorial thm3 orbit at n = 1, r1 = 1 turns at
    R2 = sqrt(1 + phi0^2), just below or just above the r floor 1 + 1e-6."""

    FLOOR = 1.0 + 1e-6
    R0 = 1.5

    def orbit(self, R2, tol):
        consts = FamilyConstants(family="thm3", eps=-1, r1=1.0, phi0=-math.sqrt(R2 * R2 - 1.0),
                                 t1=0.0, phi1=0.0)
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, self.R0), family_velocities(consts, P1, self.R0))
        return consts, integrate(P1, s, IntegrationConfig(abs_tol=tol, rel_tol=tol, t_end=5.0))

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-3])
    @pytest.mark.parametrize("R2", [1.0 + 0.2e-6, 1.0 + 0.9e-6])
    def test_turning_below_floor_stops_at_floor(self, R2, tol):
        consts, traj = self.orbit(R2, tol)
        assert traj.termination == "SingularityApproach"
        if tol == 1e-12:
            t = curves(P1, replace(consts, eps=1), np.array([self.FLOOR, self.R0]), "aligned")["t"]
            assert abs(traj.t[-1] - (t[1] - t[0])) <= 1e-9

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-3])
    @pytest.mark.parametrize("R2", [1.0 + 1.1e-6, 1.0 + 2e-6])
    def test_turning_above_floor_runs_to_horizon(self, R2, tol):
        _, traj = self.orbit(R2, tol)
        assert traj.termination == "Horizon"
