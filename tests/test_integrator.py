"""Geodesic right-hand side, adaptive integration with conserved-quantity
monitoring, event termination, the exact radial passthrough, and trajectory
CSV round-tripping."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from taubnut import integrator, radial_passthrough, verify
from taubnut.analytic import FamilyConstants, curves, family_velocities
from taubnut.errors import AxisError, ConfigError, DegenerateError, DomainError
from taubnut.geometry import (
    PHI,
    TAU,
    ModelParams,
    Point,
    christoffel_at,
    christoffel_fd_oracle,
    metric_at,
)
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
# an outgoing radial orbit that runs until (s**2 + 2n)**3 overflows a float
ESCAPE = PhaseState(Point(0.0, 1.0, 0.0, 1e100), (0.0, 0.0, 0.0, 1.0))
ESCAPE_CFG = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=1e308)


def r_chart_rhs(params, state):
    """geodesic_rhs at an r-chart PhaseState, mapped through r = n + s**2
    both ways: the state goes in as s = sqrt(r - n), ds = dr/(2s), and the
    result comes out as (velocities, accelerations) in the r-chart, with
    dr = 2s*ds and d2r = 2*ds**2 + 2s*d2s."""
    y = state.as_array()
    s = math.sqrt(y[3] - params.n)
    y[3], y[7] = s, y[7] / (2 * s)
    out = geodesic_rhs(params, y)
    out[3], out[7] = 2 * s * out[3], 2 * y[7] ** 2 + 2 * s * out[7]
    return out


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

    @pytest.mark.parametrize("max_steps", [math.nan, math.inf, 2.5, True, 0, -3])
    def test_rejects_a_step_budget_that_is_not_a_positive_integer(self, max_steps):
        # `calls >= max_steps` never holds for NaN or inf: the budget would vanish
        with pytest.raises(ConfigError, match="max_steps"):
            IntegrationConfig(max_steps=max_steps)

    def test_rel_tol_floor(self):
        # the floor is the smallest rtol scipy's DOP853, which the stepper
        # reproduces, keeps unchanged; below it scipy warns and silently
        # raises rtol
        below = np.nextafter(REL_TOL_FLOOR, 0.0)
        IntegrationConfig(rel_tol=REL_TOL_FLOOR)
        with pytest.raises(ConfigError, match="rel_tol"):
            IntegrationConfig(rel_tol=below)
        scipy.integrate.DOP853(lambda t, y: -y, 0.0, np.ones(1), 1.0, rtol=REL_TOL_FLOOR)
        with pytest.warns(UserWarning, match="rtol"):
            scipy.integrate.DOP853(lambda t, y: -y, 0.0, np.ones(1), 1.0, rtol=below)

    def test_rejects_unordered_grid(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(sample_grid=(0.0, 2.0, 1.0))

    @pytest.mark.parametrize("grid", [(0.0, math.nan, 1.0), (0.0, 1.0, math.inf),
                                      (-math.inf, 0.0, 1.0)])
    def test_rejects_non_finite_grid(self, grid):
        # infinities at the ends pass the ordering check, NaN passes any
        with pytest.raises(ConfigError, match="finite"):
            IntegrationConfig(sample_grid=grid)


class TestGeodesicRhs:
    def test_radial_acceleration(self):
        # only dr/dt nonzero: d2r/dt2 = n/(r^2-n^2) = 1/3, everything else 0
        s = PhaseState(Point(0.0, np.pi / 3, 0.0, 2.0), (0.0, 0.0, 0.0, 1.0))
        out = r_chart_rhs(P1, s)
        assert out[7] == pytest.approx(1 / 3, abs=1e-15)
        assert np.max(np.abs(out[4:7])) == 0.0

    def test_equator_azimuthal_state(self):
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (0.0, 0.0, 1.0, 0.0))
        out = r_chart_rhs(P1, s)
        assert out[7] == pytest.approx(2 / 3, abs=1e-15)
        # sin*cos vanishes at the equator up to the cos(pi/2) rounding residue
        assert abs(out[5]) < 1e-15
        assert out[4] == 0.0 and out[6] == 0.0

    def test_theta_acceleration_from_charge_coupling(self):
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (1.0, 0.0, 1.0, 0.0))
        assert r_chart_rhs(P1, s)[5] == pytest.approx(-2 / 9, abs=1e-14)

    def test_matches_christoffel_contraction(self):
        params = ModelParams(n=0.7)
        p = Point(0.1, 1.1, 0.4, 1.7)
        v = np.array([0.3, -0.2, 0.4, 0.1])
        G = christoffel_at(params, p)
        acc = -np.einsum("lmn,m,n->l", G, v, v)
        out = r_chart_rhs(params, PhaseState(p, tuple(v)))
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
        terms = np.einsum("lmn,m,n->lmn", christoffel_fd_oracle(params, p), v, v)
        acc = r_chart_rhs(params, PhaseState(p, tuple(v)))[4:]
        scale = np.abs(terms).sum(axis=(1, 2))
        assert np.all(np.abs(acc + terms.sum(axis=(1, 2))) <= 1e-6 * scale)

    @pytest.mark.parametrize("velocity", [(0.5, 0.0, 0.0, 1.0), (0.0, 0.5, 0.0, -1.0),
                                          (0.0, 0.0, 0.5, 1.0)])
    def test_rejects_angular_motion_at_the_nut(self, velocity):
        # the stepper state in s = sqrt(r - n): the angles are undefined at
        # s = 0, where each 1/s term multiplies ds and an angular velocity
        with pytest.raises(DomainError):
            geodesic_rhs(P1, PhaseState(Point(0.0, 1.0, 0.0, 0.0), velocity).as_array())

    def test_domain_error_where_powers_overflow(self):
        # (r + n)**3 overflows a float beyond r ~ 5.6e102
        s = PhaseState(Point(0.0, 1.0, 0.0, 1e103), (0.0, 0.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            r_chart_rhs(P1, s)

    def test_axis_error_when_singular_term_active(self):
        s = PhaseState(Point(0.0, 0.0, 0.0, 2.0), (1.0, 1.0, 0.0, 0.0))
        with pytest.raises(AxisError):
            r_chart_rhs(P1, s)

    def test_meridional_clean_arbitrarily_near_axis(self):
        # no 1/sin term is activated when dtau/dt = dphi/dt = 0
        s = PhaseState(Point(0.0, 1e-9, 0.0, 2.0), (0.0, 1.0, 0.0, 0.0))
        out = r_chart_rhs(P1, s)
        assert np.all(np.isfinite(out))
        assert out[7] == pytest.approx(2 / 3, abs=1e-15)

    def test_holding_r_fixed_requires_zero_velocity(self):
        # dr/dt = 0 with dphi/dt != 0 gives d2r/dt2 != 0: r cannot stay constant
        s = PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (0.0, 0.0, 1.0, 0.0))
        assert r_chart_rhs(P1, s)[7] > 0.1


class TestSChart:
    """The stepper's regular radial coordinate s = sqrt(r - n)."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.floats(0.5, 2.0), theta=st.floats(0.2, math.pi - 0.2),
           s_over_root_n=st.floats(0.03, 3.0),
           speeds=st.tuples(*[st.floats(0.1, 1.0)] * 4),
           signs=st.tuples(*[st.sampled_from((-1.0, 1.0))] * 4))
    def test_rhs_matches_r_chart_contraction(self, n, theta, s_over_root_n, speeds, signs):
        # the independent route: -Gamma(v, v) with christoffel_at's r-chart
        # table, against the s-chart rhs mapped back through r = n + s**2;
        # every velocity component is nonzero, so every term is active. Each
        # acceleration is compared relative to the sum of its terms'
        # magnitudes. Nearer the nut the r-chart route itself loses digits
        # (r**2 - n**2 cancels): about eps*n/(r - n), 1e-10 at s = 1e-3*sqrt(n).
        params = ModelParams(n=n)
        p = Point(0.0, theta, 0.0, n + (s_over_root_n * math.sqrt(n)) ** 2)
        v = np.array(speeds) * np.array(signs)
        terms = np.einsum("lmn,m,n->lmn", christoffel_at(params, p), v, v)
        acc = r_chart_rhs(params, PhaseState(p, tuple(v)))[4:]
        scale = np.abs(terms).sum(axis=(1, 2))
        assert np.all(np.abs(acc + terms.sum(axis=(1, 2))) <= 1e-12 * scale)

    @pytest.mark.parametrize("ds", [0.7, -0.7, 0.0])
    def test_radial_state_at_the_nut(self, ds):
        # the r-chart's d2r/dt2 = n/(r**2 - n**2) dr**2 is singular here;
        # in s the radial motion has no acceleration at the nut
        y = PhaseState(Point(0.3, 1.0, 0.2, 0.0), (0.0, 0.0, 0.0, ds)).as_array()
        out = geodesic_rhs(ModelParams(n=0.8), y)
        assert out.tolist() == [0.0, 0.0, 0.0, ds, 0.0, 0.0, 0.0, 0.0]

    def test_radial_orbit_through_the_nut(self):
        # from s = 0, forward and backward in t: r(t) = n + s(t)**2 against
        # radial_passthrough's stitched closed form, and the norm
        # g_ss ds**2 = 4 (s**2 + 2n) ds**2 = r1**2 conserved
        params, r1 = ModelParams(n=0.8), 1.1
        y0 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, r1 / (2 * math.sqrt(2 * params.n))])
        exact = radial_passthrough(params, 0.0, r1)
        T = exact.t[-1]
        halves = [solve_ivp(lambda t, y: geodesic_rhs(params, y), (0.0, end), y0,
                            method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True)
                  for end in (T, -T)]
        s = np.where(exact.t >= 0, halves[0].sol(np.abs(exact.t))[3],
                     halves[1].sol(-np.abs(exact.t))[3])
        assert s[0] < 0.0 < s[-1]  # through the nut, not bounced off it
        assert np.max(np.abs(params.n + s**2 - exact.coords[:, 3])) <= 1e-8
        for half in halves:
            s, ds = half.y[3], half.y[7]
            assert np.max(np.abs(4 * (s**2 + 2 * params.n) * ds**2 - r1**2)) <= 1e-8

    @pytest.mark.parametrize("grid", [None, (0.0, 0.5, 1.0)])
    def test_start_row_is_the_callers_state(self, grid):
        # r -> s -> r would move the last bits of r and dr here
        n, r, dr = 0.5, 1.7, 0.3
        s = math.sqrt(r - n)
        assert (n + s**2, 2 * s * (dr / (2 * s))) != (r, dr)
        state = PhaseState(Point(0.1, 1.2, 0.3, r), (0.2, -0.1, 0.3, dr))
        traj = integrate(ModelParams(n=n), state, IntegrationConfig(t_end=1.0, sample_grid=grid))
        assert traj.t[0] == 0.0
        assert traj.data[0, 1:9].tobytes() == state.as_array().tobytes()


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

    @pytest.mark.parametrize("grid", [None, tuple(np.linspace(-1.0, 30.0, 311))])
    def test_rows_match_one_state_functions(self, grid):
        # the array row pass equals the one-state charges and norm, and the
        # contractions of metric_at's one-point matrix, bit for bit
        s = PhaseState(Point(0.3, 1.1, 0.4, 2.0), (0.5, -0.3, 0.4, 0.6))
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=20.0, sample_grid=grid)
        traj = integrate(P1, s, cfg)
        assert len(traj) > 30
        for i in range(len(traj)):
            state = traj.state(i)
            assert killing_charges(P1, state) == (traj.p_tau[i], traj.p_phi[i])
            assert norm(P1, state) == traj.norm[i]
            g = metric_at(P1, state.point)
            v = np.array(state.velocity)
            assert g[TAU, TAU] * v[TAU] + g[TAU, PHI] * v[PHI] == traj.p_tau[i]
            assert g[PHI, TAU] * v[TAU] + g[PHI, PHI] * v[PHI] == traj.p_phi[i]
            assert v @ g @ v == traj.norm[i]

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(("SingularityApproach", "AxisApproach", "Horizon")),
           n=st.floats(0.5, 2.0), r0_over_n=st.floats(1.2, 3.0), r1=st.floats(0.8, 1.6),
           theta=st.floats(0.1, 0.6), swing=st.floats(0.5, 1.0),
           tol=st.sampled_from((1e-12, 1e-6, 1e-3)))
    def test_grid_at_node_times_reproduces_nodes(self, kind, n, r0_over_n, r1, theta,
                                                 swing, tol):
        # a grid through every node time, plus entries outside [0, t_stop),
        # gives back the gridless trajectory bit for bit
        params = ModelParams(n=n)
        r0 = r0_over_n * n
        if kind == "SingularityApproach":
            # radial infall onto the r floor
            velocity = (0.0, 0.0, 0.0, -r1 * math.sqrt((r0 - n) / (r0 + n)))
        elif kind == "AxisApproach":
            # p_phi = 2n p_tau, heading north: reaches the axis guard
            ct, st_ = math.cos(theta), math.sin(theta)
            dphi = 2 * n * r1 * (1 - ct) / ((r0 * r0 - n * n) * st_ * st_)
            velocity = (r1 * (r0 + n) / (r0 - n) - 2 * n * ct * dphi, -swing, dphi, -0.1)
        else:
            velocity = (0.5 * r1, 0.3 * swing, 0.4, 0.6)
        s = PhaseState(Point(0.2, theta + 0.8 * (kind != "AxisApproach"), 0.1, r0), velocity)
        cfg = IntegrationConfig(abs_tol=tol, rel_tol=tol, t_end=10.0)
        plain = integrate(params, s, cfg)
        assert plain.termination == kind
        gridded = integrate(params, s, replace(cfg, sample_grid=(-1.0, *plain.t, 11.0)))
        assert gridded.termination == plain.termination
        assert gridded.data.tobytes() == plain.data.tobytes()

    def test_grid_start_keeps_signed_zeros(self):
        # a grid time at a step start returns that state itself, -0.0 included
        s = PhaseState(Point(-0.0, 1.0, -0.0, 2.0), (-0.0, 0.0, -0.0, 0.5))
        cfg = IntegrationConfig(t_end=2.0)
        plain = integrate(P1, s, cfg)
        gridded = integrate(P1, s, replace(cfg, sample_grid=tuple(plain.t)))
        assert np.signbit(gridded.data[0, 1:9]).tolist() == np.signbit(s.as_array()).tolist()
        assert gridded.data.tobytes() == plain.data.tobytes()

    def test_chart_exit_retries_count_against_the_budget(self, monkeypatch):
        # the escaping radial orbit exits the chart where its powers overflow;
        # each exit restarts from the last accepted state with a shorter step
        _, raised = counting(monkeypatch)
        full = integrate(P1, ESCAPE, ESCAPE_CFG)
        stats = full.stats
        assert full.termination == "StepBudget" and stats["chart_retries"] > 0
        assert len(raised) == stats["chart_retries"] + 1
        # the step budget counts every stepper call, the cut-short ones too:
        # one per accepted step, one per retry, and the last exit
        calls = stats["accepted"] + stats["chart_retries"] + 1
        same = integrate(P1, ESCAPE, replace(ESCAPE_CFG, max_steps=calls))
        assert same.data.tobytes() == full.data.tobytes() and same.stats == stats
        cut = integrate(P1, ESCAPE, replace(ESCAPE_CFG, max_steps=stats["accepted"]))
        assert cut.termination == "StepBudget" and cut.stats["chart_retries"] > 0
        assert cut.stats["accepted"] + cut.stats["chart_retries"] == stats["accepted"]

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

    def test_overflowing_norm_is_domain_error(self):
        # dr = 1e308 is finite, its square in the norm is not
        s = PhaseState(Point(0.0, 1.0, 0.0, 2.0), (0.0, 0.0, 0.0, 1e308))
        with pytest.raises(DomainError, match="not finite"):
            integrate(P1, s, IntegrationConfig(t_end=1.0))
        with pytest.raises(DomainError):
            norm(P1, s)
        # any row's overflow fails the whole array, not only a first row's
        with pytest.raises(DomainError):
            integrator._rows(P1, [0.0, 1.0], [equatorial_state().as_array(), s.as_array()])

    def test_step_budget(self):
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=10.0, max_steps=5)
        traj = integrate(P1, equatorial_state(), cfg)
        assert traj.termination == "StepBudget"
        assert traj.t[-1] < 10.0

    def test_step_too_small_is_step_budget(self, monkeypatch):
        class Stalling(integrator.DOP853):
            def step(self):
                if self.t > 1.0:
                    return False
                return super().step()

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
        traj = radial_passthrough(P1, 1.5, 0.8)
        mid = len(traj) // 2
        assert traj.t[mid] == 1.5
        assert traj.coords[mid, 3] == 1.0 and traj.velocities[mid, 3] == 0.0

    def test_branch_velocity_constant(self):
        traj = radial_passthrough(P1, 0.0, 0.8)
        r = traj.coords[:, 3]
        dr = traj.velocities[:, 3]
        mid = len(traj) // 2
        out = np.sqrt((r[mid + 1:] + 1.0) / (r[mid + 1:] - 1.0)) * dr[mid + 1:]
        inc = np.sqrt((r[:mid] + 1.0) / (r[:mid] - 1.0)) * dr[:mid]
        assert np.max(np.abs(out - 0.8)) <= 1e-12
        assert np.max(np.abs(inc + 0.8)) <= 1e-12

    def test_time_reflection_symmetry(self):
        traj = radial_passthrough(P1, 0.3, 1.1)
        r = traj.coords[:, 3]
        assert np.max(np.abs(r - r[::-1])) <= 1e-12

    def test_outgoing_time_regression(self):
        traj = radial_passthrough(ModelParams(n=0.5), 0.0, 1.0, r_max=1.3)
        mid = len(traj) // 2
        assert traj.coords[-1, 3] == pytest.approx(1.3, abs=1e-10)
        assert traj.t[-1] - traj.t[mid] == pytest.approx(2.00471895621705, abs=1e-12)

    def test_norm_column_constant(self):
        traj = radial_passthrough(P1, 0.0, 0.7)
        assert np.all(traj.norm == pytest.approx(0.49, abs=1e-15))

    def test_rejects_zero_speed_constant(self):
        with pytest.raises(DegenerateError):
            radial_passthrough(P1, 0.0, 0.0)

    @pytest.mark.parametrize("kwargs", [{"t1": math.nan}, {"t1": math.inf},
                                        {"r_max": math.inf}, {"r_max": math.nan},
                                        {"theta": math.nan}])
    def test_rejects_non_finite(self, kwargs):
        args = {"t1": 0.0, "r1": 1.0, **kwargs}
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

    @pytest.mark.parametrize("field", ["abc", "", "nan", "inf", "-inf"])
    def test_rejects_non_numeric_or_non_finite_field(self, field):
        row = ["0"] * 11 + [field]
        text = "\n".join([",".join(Trajectory.COLUMNS), ",".join(row), "# termination=Horizon"])
        with pytest.raises(ConfigError):
            trajectory_from_csv(text + "\n")

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


def counting(monkeypatch):
    """Patch integrator.geodesic_rhs to record the s of every call, and of
    every call that raised DomainError; returns (calls, raised)."""
    calls, raised = [], []

    def counting_rhs(params, y):
        calls.append(y[3])
        try:
            return geodesic_rhs(params, y)
        except DomainError:
            raised.append(y[3])
            raise

    monkeypatch.setattr(integrator, "geodesic_rhs", counting_rhs)
    return calls, raised


def attempt_calls(stats):
    """rhs calls of a run without chart exits, from its step counts: the
    2-call initial-step probe, 12 per attempt (11 stages and the end point),
    accepted or rejected, and 3 per interpolant."""
    return 2 + 12 * (stats["accepted"] + stats["rejected"]) + 3 * stats["interpolants"]


WORK = ("nfev", "accepted", "rejected", "chart_retries", "interpolants", "root_solves")


class TestStats:
    RADIAL_FLOOR = PhaseState(Point(0.0, np.pi / 2, 0.0, 3.0), (0.0, 0.0, 0.0, -1.0))

    def test_counts_of_the_radial_floor_orbit(self, monkeypatch):
        # s = sqrt(r - n) is regular at the nut, so the stages of this loose
        # radial infall stay in the chart: no retries
        calls, raised = counting(monkeypatch)
        traj = integrate(P1, self.RADIAL_FLOOR,
                         IntegrationConfig(abs_tol=1e-3, rel_tol=1e-3, t_end=50.0))
        stats = traj.stats
        assert traj.termination == "SingularityApproach"
        assert {k: stats[k] for k in WORK} == {
            "nfev": 29, "accepted": 2, "rejected": 0, "chart_retries": 0, "interpolants": 1,
            "root_solves": 1}
        assert stats["h_min"] == pytest.approx(0.3423075232191457, rel=1e-9)
        assert stats["h_max"] == pytest.approx(3.423075232191457, rel=1e-9)
        # second routes: every rhs call is counted and made by an attempt, an
        # interpolant or the probe; without a grid each accepted step leaves
        # its start row
        assert stats["nfev"] == len(calls) == attempt_calls(stats) and not raised
        assert stats["accepted"] == len(traj) - 1
        # rows are the step starts, then the event time inside the last step,
        # the longer one here
        assert np.diff(traj.t[:-1]).tolist() == [stats["h_min"]]
        assert traj.t[-1] - traj.t[-2] < stats["h_max"]

    def test_counts_of_a_chart_exit_orbit(self, monkeypatch):
        calls, raised = counting(monkeypatch)
        traj = integrate(P1, ESCAPE, ESCAPE_CFG)
        stats = traj.stats
        assert traj.termination == "StepBudget"
        # a retry resumes the one stepper, which keeps the rhs value at the
        # last accepted state: no rhs call is made again for it
        assert {k: stats[k] for k in WORK} == {
            "nfev": 2716, "accepted": 198, "rejected": 0, "chart_retries": 69,
            "interpolants": 0, "root_solves": 0}
        # every chart exit is one retry, except the last, whose quarter step
        # would not advance t
        assert stats["nfev"] == len(calls) and stats["chart_retries"] == len(raised) - 1
        assert stats["accepted"] == len(traj) - 1

    def test_rejected_attempts_of_the_ingoing_passthrough(self, monkeypatch):
        # verify's ingoing thm1 orbit at seed 42 (the r-chart rejected 39
        # attempts of it); its rhs calls are counted per integration
        calls, _ = counting(monkeypatch)
        runs = []

        def keep(*args):
            start = len(calls)
            traj = integrate(*args)
            runs.append((traj, len(calls) - start))
            return traj

        monkeypatch.setattr(verify, "integrate", keep)
        verify._radial_passthrough_check(*verify.seeded_family("thm1", 42))
        (outgoing, _), (ingoing, _) = runs
        assert ingoing.termination == "SingularityApproach"
        assert {k: ingoing.stats[k] for k in WORK} == {
            "nfev": 119, "accepted": 7, "rejected": 2, "chart_retries": 0, "interpolants": 3,
            "root_solves": 1}
        assert outgoing.stats["rejected"] == 0
        for traj, counted in runs:
            assert traj.stats["nfev"] == counted == attempt_calls(traj.stats)

    def test_chart_exit_in_an_interpolant_retries_its_step(self, monkeypatch):
        # an interpolant stage that leaves the chart discards its step: the
        # retry starts from that step's start, so no grid time is skipped
        grid = tuple(np.linspace(0.0, 10.0, 41))
        cfg = IntegrationConfig(t_end=10.0, sample_grid=grid)
        plain = integrate(P1, equatorial_state(), cfg)
        failed = []

        class Failing(integrator.DOP853):
            def dense_output(self):
                if not failed:
                    failed.append(self.t_old)
                    raise DomainError("interpolant stage left the chart")
                return super().dense_output()

        monkeypatch.setattr(integrator, "DOP853", Failing)
        traj = integrate(P1, equatorial_state(), cfg)
        assert traj.termination == "Horizon" and traj.stats["chart_retries"] == 1
        assert failed == [0.0] and traj.stats["accepted"] > plain.stats["accepted"]
        assert traj.t.tolist() == plain.t.tolist() == list(grid)
        assert np.max(np.abs(traj.data - plain.data)) <= 1e-8

    def test_interpolants_only_near_events_or_with_grid(self):
        # the equatorial orbit turns at r = sqrt(2), far from the floor, and
        # stays on the equator, far from the axis band
        cfg = IntegrationConfig(t_end=10.0)
        plain = integrate(P1, equatorial_state(), cfg)
        assert plain.termination == "Horizon"
        assert plain.stats["interpolants"] < plain.stats["accepted"]
        gridded = integrate(P1, equatorial_state(),
                            replace(cfg, sample_grid=tuple(np.linspace(0.0, 10.0, 11))))
        assert gridded.stats["interpolants"] == gridded.stats["accepted"]
        assert gridded.stats["accepted"] == plain.stats["accepted"]
        # each interpolant costs three rhs calls; the steps are the same
        extra = gridded.stats["interpolants"] - plain.stats["interpolants"]
        assert gridded.stats["nfev"] == plain.stats["nfev"] + 3 * extra

    def test_no_step_taken(self):
        s = PhaseState(Point(0.0, 1.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0))
        stats = integrate(P1, s, IntegrationConfig()).stats
        assert stats == {"nfev": 0, "accepted": 0, "rejected": 0, "chart_retries": 0,
                         "interpolants": 0, "root_solves": 0, "h_min": math.inf, "h_max": 0.0}

    def test_event_roots_use_the_module_brentq(self, monkeypatch):
        # the bench tracer wraps integrator.brentq; a rebound global is the
        # one _first_crossing calls
        solves = []

        def counted(*args, _fn=integrator.brentq, **kwargs):
            solves.append(args[1:3])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(integrator, "brentq", counted)
        traj = integrate(P1, self.RADIAL_FLOOR,
                         IntegrationConfig(abs_tol=1e-3, rel_tol=1e-3, t_end=50.0))
        assert len(solves) == traj.stats["root_solves"] == 1

    def test_closed_form_and_parsed_trajectories_carry_none(self):
        assert radial_passthrough(P1, 1.5, 0.8).stats == {}
        traj = integrate(P1, equatorial_state(), IntegrationConfig(t_end=1.0))
        assert traj.stats and trajectory_from_csv(trajectory_to_csv(traj)).stats == {}


class TestPathBytes:
    """Bytes and counters of the integrator paths verify never runs: a
    sample grid, the r floor, the axis stop and the chart exit. Each hash
    covers the rows, the termination and every stats value; they were taken
    before the stepper's in-place stage sums and Python-float step control,
    and must not move."""

    ORBITS = {
        "grid": (PhaseState(Point(0.3, 1.1, 0.4, 2.0), (0.5, -0.3, 0.4, 0.6)),
                 IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=20.0,
                                   sample_grid=tuple(np.linspace(0.0, 20.0, 401)))),
        "floor": (TestStats.RADIAL_FLOOR, IntegrationConfig(t_end=50.0)),
        "axis": (PhaseState(Point(0.0, 0.2, 0.0, 3.0), (0.0, -1.0, 1e-3, 0.0)),
                 IntegrationConfig(t_end=5.0)),
        "escape": (ESCAPE, ESCAPE_CFG),
    }
    SHA256 = {
        "grid": "af0e0fe9cdc864ba907debb100132c4fd8b64f55d4bac2cc637a7c0d55fe6911",
        "floor": "a4eeb2b2e4fae00a1834994ae0b50e5557c57f41648ad12ef74f66938860fd55",
        "axis": "91298e7a1b59eb17aae3582b94dcb630b1a45a3a767bb09ef9de26a96191b547",
        "escape": "a6bb9723dde42bc4a58de75c77151f4a3b24e10e2922f7bb7c454ad6cf118f5d",
    }

    @pytest.mark.parametrize("name", sorted(ORBITS))
    def test_trajectory_bytes_are_pinned(self, name):
        traj = integrate(P1, *self.ORBITS[name])
        digest = hashlib.sha256(traj.data.tobytes())
        digest.update(repr((traj.termination, sorted(traj.stats.items()))).encode())
        assert digest.hexdigest() == self.SHA256[name]


def scanning_dop853(levels, reached, built):
    """A DOP853 that builds each accepted step's dense output itself and
    scans it at 257 points: steps whose scan reaches one of the levels
    (value, index, sign), or whose dense output leaves the chart, go into
    `reached`; steps whose interpolant the caller asked for go into `built`.
    Steps are keyed by (start, end), so a chart-exit restart is a new step."""

    class Scanning(integrator.DOP853):
        def step(self):
            stepped = super().step()
            if stepped:
                key = (self.t_old, self.t)
                try:
                    interp = super().dense_output()
                except (DomainError, AxisError):
                    reached.add(key)
                    return stepped
                ys = interp(np.linspace(self.t_old, self.t, 257))
                if any(np.any(sign * (ys[index] - value) <= 0.0) for value, index, sign in levels):
                    reached.add(key)
            return stepped

        def dense_output(self):
            built.add((self.t_old, self.t))
            return super().dense_output()

    return Scanning


class TestEventGate:
    """`integrate` builds a step's interpolant only when an event level is
    within reach; a fine scan of every step's own interpolant must find no
    level on a step it skipped."""

    @settings(max_examples=36, deadline=None)
    @given(kind=st.sampled_from(("floor", "axis")), tol=st.sampled_from((1e-12, 1e-6, 1e-3)),
           offset=st.floats(-0.9e-6, 2e-6), r0_over_n=st.floats(1.2, 3.0),
           n=st.floats(0.5, 2.0), r1=st.floats(0.8, 1.6), theta=st.floats(0.1, 0.6),
           swing=st.floats(0.5, 1.0))
    def test_skipped_steps_reach_no_level(self, kind, tol, offset, r0_over_n, n, r1, theta,
                                          swing):
        cfg = IntegrationConfig(abs_tol=tol, rel_tol=tol, t_end=5.0 if kind == "floor" else 10.0)
        if kind == "floor":
            # ingoing thm3 orbit at n = 1, r1 = 1 turning at R2 = sqrt(1 + phi0^2),
            # within a few 1e-6 of the floor (as in TestFloorGraze)
            params, r0 = P1, r0_over_n
            R2 = 1.0 + cfg.r_floor_rel + offset
            consts = FamilyConstants(family="thm3", eps=-1, r1=1.0,
                                     phi0=-math.sqrt(R2 * R2 - 1.0), t1=0.0, phi1=0.0)
            s = PhaseState(Point(0.0, np.pi / 2, 0.0, r0), family_velocities(consts, P1, r0))
        else:
            # p_phi = 2n p_tau, heading north: reaches the axis guard (as in
            # test_grid_at_node_times_reproduces_nodes)
            params, r0 = ModelParams(n=n), r0_over_n * n
            ct, st_ = math.cos(theta), math.sin(theta)
            dphi = 2 * n * r1 * (1 - ct) / ((r0 * r0 - n * n) * st_ * st_)
            s = PhaseState(Point(0.2, theta, 0.1, r0),
                           (r1 * (r0 + n) / (r0 - n) - 2 * n * ct * dphi, -swing, dphi, -0.1))
        guard = params.axis_guard
        # the r floor as a level of the stepper's radial coordinate s = sqrt(r - n)
        levels = [(math.sqrt(params.n * (1.0 + cfg.r_floor_rel) - params.n), 3, +1.0),
                  (guard, 1, +1.0), (np.pi - guard, 1, -1.0)]
        reached, built = set(), set()
        with mock.patch.object(integrator, "DOP853", scanning_dop853(levels, reached, built)):
            traj = integrate(params, s, cfg)
        if kind == "axis":
            assert traj.termination == "AxisApproach"
        assert traj.stats["interpolants"] <= len(built)
        assert reached <= built, sorted(reached - built)


def run_fresh(code: str) -> None:
    """Run code in a fresh interpreter with the package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestLazyScipy:
    """Importing the package, or using its closed forms and the integrator,
    loads neither scipy.integrate nor scipy.optimize: the integrator's
    DOP853 and brentq are the package's own solvers."""

    def test_import_and_closed_forms_load_no_scipy_solver(self):
        run_fresh("""
            import sys
            import numpy as np
            import taubnut
            from taubnut import _solvers, integrator

            def loaded():
                return [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]

            assert loaded() == [], loaded()
            consts, params = taubnut.seeded_family("thm3", 42)
            taubnut.stitched_coords(params, consts, consts.t1 + np.linspace(-1.0, 1.0, 9))
            taubnut.radial_passthrough(params, 0.0, 1.0)
            assert loaded() == [], loaded()
            assert vars(integrator)["DOP853"] is _solvers.DOP853
            assert vars(integrator)["brentq"] is _solvers.brentq
            try:
                integrator.no_such_name
            except AttributeError:
                pass
            else:
                raise AssertionError("unknown attribute resolved")
        """)

    def test_one_integration_binds_both_globals(self):
        run_fresh("""
            import sys
            import numpy as np
            from taubnut import IntegrationConfig, ModelParams, PhaseState, Point, integrate
            from taubnut import _solvers, integrator

            state = PhaseState(Point(0.0, np.pi / 2, 0.0, 2.0), (0.0, 0.0, 0.3, 0.4))
            integrate(ModelParams(n=1.0), state, IntegrationConfig(t_end=1.0))
            assert vars(integrator)["DOP853"] is _solvers.DOP853
            assert vars(integrator)["brentq"] is _solvers.brentq
            loaded = [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]
            assert loaded == [], loaded
        """)


class TestNanStep:
    def test_nan_initial_step_fails_the_stepper(self):
        # inf - inf among the start state's accelerations makes the initial
        # step NaN, which no step-size test passes; the stepper gives up at
        # once instead of attempting NaN steps forever. A fresh interpreter's
        # timeout fails a run that never ends without hanging the suite.
        run_fresh("""
            import numpy as np
            from taubnut import ModelParams, _solvers
            from taubnut.integrator import geodesic_rhs

            params = ModelParams(n=1.0)
            # tau, theta, phi, s, dtau, dtheta, dphi, ds: r = 2, dtau = dr = 1e200
            y0 = np.array([0.0, 1.0, 0.0, 1.0, 1e200, 0.0, 0.0, 5e199])
            solver = _solvers.DOP853(lambda t, y: geodesic_rhs(params, y), 0.0, y0, 1.0,
                                     1e-10, 1e-10)
            assert np.isnan(solver.h_abs), solver.h_abs
            assert solver.step() is False
            assert (solver.t, solver.rejected) == (0.0, 0)
        """)


class TestOverflowingNorms:
    def test_a_run_whose_sums_of_squares_overflow_warns_nothing(self):
        # at dr = 1e150 the stepper's sums of squares overflow: under the
        # suite's filterwarnings = error a numpy warning would raise here.
        # The steps stay tiny and the run ends in StepBudget near t = 3e-48
        state = PhaseState(Point(0.0, 1.0, 0.0, 2.0), (0.0, 0.0, 0.0, 1e150))
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=1.0)
        traj = integrate(P1, state, cfg)
        assert traj.termination == "StepBudget" and traj.t[-1] < 1e-47

    def test_a_first_step_probe_past_the_float_range_warns_nothing(self):
        # the start accelerations over the tolerance scale overflow, so the
        # first-step probe's h0 is 0 and its d2 is 0/0; scipy's rule then
        # gives a NaN step, and the run stops at its first row
        state = PhaseState(Point(0.0, 1.0, 0.0, 2.0), (0.0, 1e150, 1e150, 1.0))
        traj = integrate(P1, state, IntegrationConfig(t_end=1.0, max_steps=50))
        assert traj.termination == "StepBudget" and len(traj.t) == 1


class TestNoScipy:
    """The package runs on numpy alone: the integrator's DOP853 and brentq
    are the package's own solvers, and importing the package, its closed
    forms, integrating and a whole verify run load no scipy module."""

    def test_import_integrate_and_verify_load_no_scipy(self):
        run_fresh("""
            import sys
            import numpy as np
            import taubnut
            from taubnut import _solvers, integrator

            def loaded():
                return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

            assert loaded() == [], loaded()
            assert vars(integrator)["DOP853"] is _solvers.DOP853
            assert vars(integrator)["brentq"] is _solvers.brentq
            consts, params = taubnut.seeded_family("thm3", 42)
            taubnut.stitched_coords(params, consts, consts.t1 + np.linspace(-1.0, 1.0, 9))
            taubnut.radial_passthrough(params, 0.0, 1.0)
            assert loaded() == [], loaded()
            state = taubnut.PhaseState(taubnut.Point(0.0, np.pi / 2, 0.0, 2.0),
                                       (0.0, 0.0, 0.3, 0.4))
            taubnut.integrate(taubnut.ModelParams(n=1.0), state,
                              taubnut.IntegrationConfig(t_end=1.0))
            assert loaded() == [], loaded()
            taubnut.run_scenario("all", 42)
            assert loaded() == [], loaded()
        """)
