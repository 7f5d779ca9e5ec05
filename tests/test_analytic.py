"""Closed-form family tests: turning radii, curve values against independently
frozen quadrature oracles, boundary and limit behavior, mode semantics, the
classifier, t(r) inversion, two-branch stitching, and the JSON record format."""

import decimal
import hashlib
import itertools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import taubnut.analytic as analytic
from taubnut._solvers import brentq
from taubnut.analytic import (
    _REGISTRY,
    FAMILIES,
    MODES,
    FamilyConstants,
    classify,
    curve_derivatives,
    curves,
    default_invert_mode,
    default_mode,
    family_from_json,
    family_to_json,
    family_velocities,
    invert_t_of_r,
    radial_passthrough,
    stitched_coords,
    theta_range_exit,
    thm1_t_of_r,
    turning_radius,
)
from taubnut.errors import (
    ConfigError,
    DegenerateError,
    DomainError,
    NotAGeodesic,
    RangeError,
    TaubnutError,
)
from taubnut.geometry import COORDS, ModelParams, Point, _metric
from taubnut.integrator import IntegrationConfig, PhaseState, integrate
from taubnut.verify import seeded_family

P1 = ModelParams(n=1.0)
P05 = ModelParams(n=0.5)

# quadrature oracles, frozen at 50-digit precision from the first-integral
# derivative fields (independent of the closed-form brackets under test)
THM1_T_13 = 2.00471895621705        # n=0.5, r1=1, aligned t(1.3)
THM1_T_20 = 2.968210207551488       # n=0.5, r1=1, aligned t(2.0)
THM2_DT = 0.9613738210583243        # n=1, tau0=1, r1=2 (R1=1.5): t(3)-t(2)
THM2_DTAU = 2.325207720799695       # same family: tau(3)-tau(2)
THM2_T_FROM_R1 = 1.1542566397523977   # t(2)-t(R1)
THM2_TAU_FROM_R1 = 4.760148178252095  # tau(2)-tau(R1)
THM3_DT = 1.7344938533287393        # n=1, phi0=1, r1=1: t(3)-t(2)
THM3_DPHI = 0.3613671239067078      # same family: phi(3)-phi(2)
THM3_T_FROM_R2 = 4.030081002721378  # t(3)-t(R2)
THM5_R_PLUS = 1.4332320124663318    # n=1, phi0=1, r1=1, theta=pi/3
THM5_R_MINUS = -1.3082320124663318
THM5_DT = 1.7761833921473098        # corrected t(3)-t(2)
THM5_DPHI = 0.370468106450203       # corrected phi(3)-phi(2)
THM5_DTAU = 0.701652236063608       # corrected tau(3)-tau(2)
THM5_DR_DT_AT_2 = 0.4564354645876384  # sqrt(5/24)


def c_thm1(eps=1, r1=1.0, t1=0.0):
    return FamilyConstants(family="thm1", eps=eps, r1=r1, t1=t1)


def c_thm2(eps=1, r1=2.0, tau0=1.0, t1=0.0, tau1=0.0):
    return FamilyConstants(family="thm2", eps=eps, r1=r1, tau0=tau0,
                           t1=t1, tau1=tau1)


def c_thm3(eps=1, r1=1.0, phi0=1.0, t1=0.0, phi1=0.0):
    return FamilyConstants(family="thm3", eps=eps, r1=r1, phi0=phi0,
                           t1=t1, phi1=phi1)


def c_thm4(eps=1, r1=1.0, theta0=1.0, t1=0.0, theta1=0.0):
    return FamilyConstants(family="thm4", eps=eps, r1=r1, theta0=theta0,
                           t1=t1, theta1=theta1)


def c_thm5(eps=1, r1=1.0, phi0=1.0, theta=math.pi / 3, t1=0.0, tau1=0.0, phi1=0.0):
    return FamilyConstants(family="thm5", eps=eps, r1=r1, phi0=phi0,
                           theta_const=theta, t1=t1, tau1=tau1, phi1=phi1)


class TestFamilyConstants:
    def test_valid_families_construct(self):
        for consts in (c_thm1(), c_thm2(), c_thm3(), c_thm4(), c_thm5(),
                       FamilyConstants(family="stationary", eps=1, r1=0.0),
                       FamilyConstants(family="generic", eps=-1, r1=2.5)):
            assert consts.family in FAMILIES

    def test_missing_required_field(self):
        with pytest.raises(ConfigError):
            FamilyConstants(family="thm2", eps=1, r1=1.0, tau1=0.0)

    def test_foreign_field_rejected(self):
        with pytest.raises(ConfigError):
            FamilyConstants(family="thm2", eps=1, r1=1.0, tau0=1.0,
                            tau1=0.0, phi0=2.0)

    def test_bad_eps(self):
        with pytest.raises(ConfigError):
            c_thm1(eps=2)

    def test_r1_must_be_positive(self):
        with pytest.raises(ConfigError):
            c_thm1(r1=-1.0)
        with pytest.raises(ConfigError):
            c_thm1(r1=0.0)

    def test_stationary_requires_zero_r1(self):
        with pytest.raises(ConfigError):
            FamilyConstants(family="stationary", eps=1, r1=1.0)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            FamilyConstants(family="thm6", eps=1, r1=1.0)

    def test_theta_const_range(self):
        with pytest.raises(ConfigError):
            c_thm5(theta=0.0)
        with pytest.raises(ConfigError):
            c_thm5(theta=math.pi)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("family,field", [
        (fam, field) for fam, spec in _REGISTRY.items()
        for field in ("r1", "t1", *spec.constants, *spec.anchors)])
    def test_non_finite_field_rejected(self, family, field, value):
        consts, _ = seeded_family(family, 0)
        with pytest.raises(ConfigError):
            replace(consts, **{field: value})


class TestTurningRadius:
    def test_thm1_reaches_center(self):
        assert turning_radius(c_thm1(), P1).value == 1.0

    def test_thm2_example(self):
        tr = turning_radius(FamilyConstants(family="thm2", eps=1,
                                            r1=math.sqrt(2), tau0=1.0,
                                            tau1=0.0), P1)
        assert tr.value == pytest.approx(2.0, rel=1e-15)

    def test_thm3_example(self):
        assert turning_radius(c_thm3(), P1).value == pytest.approx(
            math.sqrt(2), rel=0, abs=1e-15)

    def test_thm4_matches_thm3_form(self):
        assert (turning_radius(c_thm4(theta0=0.7), P1).value
                == turning_radius(c_thm3(phi0=0.7), P1).value)

    def test_thm5_frozen_roots(self):
        tr = turning_radius(c_thm5(), P1)
        assert tr.value == pytest.approx(THM5_R_PLUS, rel=0, abs=1e-14)
        assert tr.r_minus == pytest.approx(THM5_R_MINUS, rel=0, abs=1e-14)

    def test_second_root_of_each_family(self):
        # (R, R') of (r+n)^2 (dr/dt)^2 = r1^2 (r-R)(r-R'); thm5's pair is
        # test_thm5_frozen_roots
        n = 1.7
        params = ModelParams(n=n)
        R1 = n + 2 * 1.0**2 * n / 2.0**2
        R = math.sqrt(n * n + 1.0)
        for consts, pair in ((c_thm1(), (n, -n)), (c_thm2(), (R1, -n)),
                             (c_thm3(), (R, -R)), (c_thm4(), (R, -R))):
            tr = turning_radius(consts, params)
            assert (tr.value, tr.r_minus) == pair, consts.family

    def test_thm5_root_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.uniform(0.5, 2.0)
            consts = c_thm5(r1=rng.uniform(0.5, 3.0),
                            phi0=rng.uniform(0.1, 2.0) * rng.choice([-1, 1]),
                            theta=rng.uniform(0.2, math.pi - 0.2))
            tr = turning_radius(consts, ModelParams(n=n))
            assert tr.r_minus < 0.0 < n < tr.value

    def test_equality_iff_constant_vanishes(self):
        assert turning_radius(c_thm2(tau0=0.0), P1).value == 1.0
        assert turning_radius(c_thm3(phi0=0.0), P1).value == 1.0
        assert turning_radius(c_thm5(phi0=0.0), P1).value == 1.0
        assert turning_radius(c_thm2(tau0=1e-6), P1).value > 1.0
        assert turning_radius(c_thm3(phi0=1e-6), P1).value > 1.0

    def test_equatorial_thm5_equals_thm3(self):
        r2 = turning_radius(c_thm3(r1=1.3, phi0=0.8), P1).value
        rp = turning_radius(c_thm5(r1=1.3, phi0=0.8, theta=math.pi / 2), P1).value
        assert rp == pytest.approx(r2, rel=1e-12)

    def test_no_turning_radius_for_special_tags(self):
        with pytest.raises(ConfigError):
            turning_radius(FamilyConstants(family="generic", eps=1, r1=1.0), P1)

    @pytest.mark.parametrize("consts", [c_thm2(tau0=1e200), c_thm3(phi0=1e200),
                                        c_thm4(theta0=1e200), c_thm5(phi0=1e200),
                                        c_thm2(r1=1.0, tau0=np.float64(1e200))],
                             ids=["thm2", "thm3", "thm4", "thm5", "thm2-numpy-scalar"])
    def test_overflowing_constant_is_domain_error(self, consts):
        # the angular constant's square overflows a float; a numpy scalar
        # constant is stored as a float, so it raises no RuntimeWarning first
        with pytest.raises(DomainError, match="overflows"):
            turning_radius(consts, P1)


def _thm5_F(params: ModelParams, r, r1: float, phi0: float, theta: float):
    """The thm5 radial quadratic, evaluated exactly as written:
    F(r) = 2n r1^2 r^2 - phi0^2 cos^2(theta) r
           - (2n^3 r1^2 + n phi0^2 cos^2(theta) + 2n phi0^2 sin^2(theta))."""
    n = params.n
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    r = np.asarray(r, dtype=float)
    out = (2 * n * r1 * r1 * r * r - phi0 * phi0 * c2 * r
           - (2 * n**3 * r1 * r1 + n * phi0 * phi0 * c2 + 2 * n * phi0 * phi0 * s2))
    return float(out) if out.ndim == 0 else out


class TestFEval:
    """The thm5 radial quadratic F written out term by term: the reference
    for the factored form 2n r1^2 (r-R+)(r-R-) that the thm5 velocity field
    takes from the turning radius pair."""

    def test_frozen_value(self):
        assert _thm5_F(P1, 2.0, 1.0, 1.0, math.pi / 3) == pytest.approx(
            3.75, rel=0, abs=1e-14)

    def test_factorization(self):
        # family_velocities takes thm5's dr/dt = sqrt(F)/(sqrt(2n)(r+n)) as
        # r1 sqrt(r-R+) sqrt(r-R-)/(r+n), which holds by this identity
        consts = c_thm5(r1=1.2, phi0=0.9, theta=1.0)
        tr = turning_radius(consts, P1)
        for r in (1.7, 3.3, 8.0):
            expected = 2 * 1.0 * 1.2**2 * (r - tr.value) * (r - tr.r_minus)
            assert _thm5_F(P1, r, 1.2, 0.9, 1.0) == pytest.approx(
                expected, rel=1e-13)
            dr = family_velocities(consts, P1, r)[3]
            assert dr == pytest.approx(math.sqrt(_thm5_F(P1, r, 1.2, 0.9, 1.0) / 2) / (r + 1),
                                       rel=1e-13)

    def test_vanishes_at_turning_radius(self):
        tr = turning_radius(c_thm5(), P1)
        assert abs(_thm5_F(P1, tr.value, 1.0, 1.0, math.pi / 3)) < 1e-13

    def test_vectorized(self):
        vals = _thm5_F(P1, np.array([2.0, 3.0]), 1.0, 1.0, math.pi / 3)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(3.75)


class TestThm1:
    def test_frozen_values(self):
        consts = c_thm1()
        assert thm1_t_of_r(P05, consts, 1.3, "aligned") == pytest.approx(
            THM1_T_13, rel=0, abs=1e-12)
        assert thm1_t_of_r(P05, consts, 2.0, "aligned") == pytest.approx(
            THM1_T_20, rel=0, abs=1e-12)

    def test_aligned_anchor_at_center(self):
        assert thm1_t_of_r(P1, c_thm1(t1=0.7), 1.0, "aligned") == 0.7

    def test_literal_offset(self):
        n = 1.0
        offset = 2 * n * math.log(math.sqrt(2 * n))
        lit = thm1_t_of_r(P1, c_thm1(), 2.5, "literal")
        ali = thm1_t_of_r(P1, c_thm1(), 2.5, "aligned")
        assert lit - ali == pytest.approx(offset, rel=0, abs=1e-14)

    def test_ingoing_branch_decreases(self):
        consts = c_thm1(eps=-1)
        assert (thm1_t_of_r(P1, consts, 3.0, "aligned")
                < thm1_t_of_r(P1, consts, 2.0, "aligned") < 0.0)

    def test_domain_error_below_center(self):
        with pytest.raises(DomainError):
            thm1_t_of_r(P1, c_thm1(), 0.9)

    def test_corrected_mode_rejected(self):
        with pytest.raises(ConfigError):
            thm1_t_of_r(P1, c_thm1(), 2.0, "corrected")

    def test_derivative_example(self):
        d = curve_derivatives(P1, c_thm1(r1=1.3), 2.0)
        assert d["t"] == pytest.approx(math.sqrt(3.0) / 1.3, rel=1e-14)

    def test_vector_input(self):
        out = thm1_t_of_r(P1, c_thm1(), np.array([1.0, 2.0, 3.0]), "aligned")
        assert out.shape == (3,)
        assert out[0] == 0.0


class TestThm2:
    def test_frozen_differences(self):
        t3, u3 = tuple(curves(P1, c_thm2(), 3.0).values())
        t2, u2 = tuple(curves(P1, c_thm2(), 2.0).values())
        assert t3 - t2 == pytest.approx(THM2_DT, rel=0, abs=1e-12)
        assert u3 - u2 == pytest.approx(THM2_DTAU, rel=0, abs=1e-12)

    def test_frozen_from_turning_radius(self):
        ta, ua = tuple(curves(P1, c_thm2(), 2.0, "aligned").values())
        assert ta == pytest.approx(THM2_T_FROM_R1, rel=0, abs=1e-12)
        assert ua == pytest.approx(THM2_TAU_FROM_R1, rel=0, abs=1e-12)

    def test_aligned_anchors_exact(self):
        t, tau = tuple(curves(P1, c_thm2(t1=0.3, tau1=-0.2), 1.5, "aligned").values())
        assert t == 0.3 and tau == -0.2

    def test_literal_boundary_offsets(self):
        t, tau = tuple(curves(P1, c_thm2(), 1.5, "literal").values())
        log_term = math.log(math.sqrt(2.5))
        assert t == pytest.approx((1 + 1.5) * log_term / 2.0, rel=1e-14)
        assert tau == pytest.approx((5 + 1.5) * log_term / 2.0, rel=1e-14)

    def test_mode_agreement_on_differences(self):
        lit = tuple(curves(P1, c_thm2(), 4.0).values())
        lit0 = tuple(curves(P1, c_thm2(), 2.0).values())
        ali = tuple(curves(P1, c_thm2(), 4.0, "aligned").values())
        ali0 = tuple(curves(P1, c_thm2(), 2.0, "aligned").values())
        assert lit[0] - lit0[0] == pytest.approx(ali[0] - ali0[0], abs=1e-13)
        assert lit[1] - lit0[1] == pytest.approx(ali[1] - ali0[1], abs=1e-13)

    def test_derivative_example(self):
        consts = FamilyConstants(family="thm2", eps=1, r1=math.sqrt(2),
                                 tau0=1.0, tau1=0.0)
        d = curve_derivatives(P1, consts, 3.0)
        assert d["t"] == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_degenerate_without_charge(self):
        with pytest.raises(DegenerateError):
            tuple(curves(P1, c_thm2(tau0=0.0), 2.0).values())

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tuple(curves(P1, c_thm2(), 1.4).values())

    def test_ingoing_branch(self):
        t3, u3 = tuple(curves(P1, c_thm2(eps=-1), 3.0, "aligned").values())
        assert t3 == pytest.approx(-(THM2_T_FROM_R1 + THM2_DT), abs=1e-12)
        assert u3 == pytest.approx(-(THM2_TAU_FROM_R1 + THM2_DTAU), abs=1e-12)


class TestThm3:
    def test_frozen_differences(self):
        t3, f3 = tuple(curves(P1, c_thm3(), 3.0).values())
        t2, f2 = tuple(curves(P1, c_thm3(), 2.0).values())
        assert t3 - t2 == pytest.approx(THM3_DT, rel=0, abs=1e-12)
        assert f3 - f2 == pytest.approx(THM3_DPHI, rel=0, abs=1e-12)

    def test_frozen_from_turning_radius(self):
        t3, _ = tuple(curves(P1, c_thm3(), 3.0, "aligned").values())
        assert t3 == pytest.approx(THM3_T_FROM_R2, rel=0, abs=1e-12)

    def test_turning_limit_phi(self):
        r2 = math.sqrt(2)
        _, f_lit = tuple(curves(P1, c_thm3(), r2, "literal").values())
        assert f_lit == pytest.approx(-math.pi / 2, rel=1e-15)
        _, f_ali = tuple(curves(P1, c_thm3(phi1=0.4), r2, "aligned").values())
        assert f_ali == pytest.approx(0.4, rel=1e-15)

    def test_asymptotic_swing(self):
        _, f_far = tuple(curves(P1, c_thm3(), 1e8, "literal").values())
        assert f_far == pytest.approx(math.atan(1.0), abs=1e-7)
        _, f_far_neg = tuple(curves(P1, c_thm3(eps=-1, phi0=-1.0), 1e8, "literal").values())
        assert f_far_neg == pytest.approx(math.atan(1.0), abs=1e-7)

    def test_degenerate_without_charge(self):
        with pytest.raises(DegenerateError):
            tuple(curves(P1, c_thm3(phi0=0.0), 2.0).values())

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tuple(curves(P1, c_thm3(), 1.2).values())


class TestThm4:
    def test_same_kernel_as_thm3(self):
        for r in (math.sqrt(2), 1.7, 3.0, 10.0):
            assert (tuple(curves(P1, c_thm4(), r, "aligned").values())
                    == tuple(curves(P1, c_thm3(), r, "aligned").values()))

    def test_swing_exit_flag(self):
        # the asymptotic swing is always at least pi/2 in magnitude; a large
        # theta0 keeps it close to pi/2, which fits when anchored low
        safe = c_thm4(r1=1.0, theta0=8.0, theta1=0.3)
        assert not theta_range_exit(P1, safe)
        # anchored at the equator the swing always crosses a pole
        wild = c_thm4(r1=1.0, theta0=8.0, theta1=math.pi / 2)
        assert theta_range_exit(P1, wild)

    def test_flag_requires_thm4(self):
        with pytest.raises(ConfigError):
            theta_range_exit(P1, c_thm3())


class TestNearTheTurningRadius:
    @pytest.mark.parametrize("family", ["thm3", "thm4"])
    def test_aligned_t_keeps_its_digits(self, family):
        # sqrt(r^2 - R^2) + n ln((r + sqrt(r^2 - R^2))/R) evaluated in 50
        # decimal digits at the kernel's own float R; evaluated through
        # r*r - R*R in floats it would lose about six digits at R(1 + 1e-12)
        D = decimal.Decimal
        for seed in range(20):
            consts, params = seeded_family(family, seed)
            R = turning_radius(consts, params).value
            radii = R * (1 + 10.0 ** -np.arange(3, 13))
            t = curves(params, consts, radii, "aligned")["t"]
            for r, value in zip(radii.tolist(), t.tolist()):
                with decimal.localcontext(decimal.Context(prec=50)):
                    root = (D(r) * D(r) - D(R) * D(R)).sqrt()
                    bracket = root + D(params.n) * ((D(r) + root) / D(R)).ln()
                    exact = D(consts.t1) + consts.eps * bracket / D(consts.r1)
                    err = abs(D(value) - exact) / max(1, abs(exact))
                assert err <= D(1e-15), (seed, r, float(err))


class TestThm5:
    def test_frozen_corrected_differences(self):
        t3, f3, u3 = tuple(curves(P1, c_thm5(), 3.0).values())
        t2, f2, u2 = tuple(curves(P1, c_thm5(), 2.0).values())
        assert t3 - t2 == pytest.approx(THM5_DT, rel=0, abs=1e-12)
        assert f3 - f2 == pytest.approx(THM5_DPHI, rel=0, abs=1e-12)
        assert u3 - u2 == pytest.approx(THM5_DTAU, rel=0, abs=1e-12)

    def test_default_mode_is_corrected(self):
        assert default_mode("thm5") == "corrected"
        assert tuple(curves(P1, c_thm5(), 2.5).values()) == tuple(curves(
            P1, c_thm5(), 2.5, "corrected").values())

    def test_literal_scale_ratios(self):
        # literal brackets carry prefactors off by r1/sqrt(2n) on t and
        # r1*sqrt(2n) on phi and tau; here n=1, r1=1
        tc3, fc3, uc3 = tuple(curves(P1, c_thm5(), 3.0, "corrected").values())
        tc2, fc2, uc2 = tuple(curves(P1, c_thm5(), 2.0, "corrected").values())
        tl3, fl3, ul3 = tuple(curves(P1, c_thm5(), 3.0, "literal").values())
        tl2, fl2, ul2 = tuple(curves(P1, c_thm5(), 2.0, "literal").values())
        assert (tl3 - tl2) / (tc3 - tc2) == pytest.approx(
            1 / math.sqrt(2), rel=1e-13)
        assert (fl3 - fl2) / (fc3 - fc2) == pytest.approx(
            math.sqrt(2), rel=1e-13)
        assert (ul3 - ul2) / (uc3 - uc2) == pytest.approx(
            math.sqrt(2), rel=1e-13)

    def test_aligned_equals_literal(self):
        assert tuple(curves(P1, c_thm5(), 2.5, "aligned").values()) == tuple(curves(
            P1, c_thm5(), 2.5, "literal").values())

    def test_anchors_at_turning_radius(self):
        consts = c_thm5(t1=0.1, tau1=0.2, phi1=0.3)
        rp = turning_radius(consts, P1).value
        for mode in ("literal", "corrected"):
            t, f, u = tuple(curves(P1, consts, rp, mode).values())
            assert (t, f, u) == (0.1, 0.3, 0.2)

    def test_velocity_field_frozen(self):
        d = curve_derivatives(P1, c_thm5(), 2.0)
        assert 1.0 / d["t"] == pytest.approx(THM5_DR_DT_AT_2, rel=0, abs=1e-14)
        assert d["tau"] / d["t"] == pytest.approx(5.0 / 12.0, rel=1e-13)
        assert d["phi"] / d["t"] == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_equatorial_limit_matches_thm3(self):
        c5 = c_thm5(theta=math.pi / 2)
        c3 = c_thm3()
        for r in (1.8, 2.5, 4.0):
            t5, f5, u5 = tuple(curves(P1, c5, r, "corrected").values())
            t5b, f5b, u5b = tuple(curves(P1, c5, 1.5, "corrected").values())
            t3, f3 = tuple(curves(P1, c3, r, "aligned").values())
            t3b, f3b = tuple(curves(P1, c3, 1.5, "aligned").values())
            assert (t5 - t5b) == pytest.approx(t3 - t3b, abs=1e-10)
            assert (f5 - f5b) == pytest.approx(f3 - f3b, abs=1e-10)
            assert abs(u5 - u5b) < 1e-10

    def test_degenerate_without_charge(self):
        with pytest.raises(DegenerateError):
            tuple(curves(P1, c_thm5(phi0=0.0), 2.0).values())

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tuple(curves(P1, c_thm5(), 1.4).values())

    def test_velocity_below_the_turning_radius_is_domain_error(self):
        consts = c_thm5(phi0=0.8, theta=1.0)
        assert turning_radius(consts, P1).value == pytest.approx(1.2912, abs=1e-4)
        with pytest.raises(DomainError, match="below the family's turning radius"):
            family_velocities(consts, P1, 1.146)


class TestCurveDerivatives:
    CASES = (
        c_thm1(r1=1.3),
        c_thm2(eps=-1, r1=2.0, tau0=0.7, tau1=0.3),
        c_thm3(r1=1.1, phi0=-0.8),
        c_thm4(r1=0.9, theta0=0.5, theta1=1.2),
        c_thm5(r1=1.2, phi0=0.9, theta=1.0),
    )

    def test_matches_finite_differences(self):
        for consts in self.CASES:
            base = turning_radius(consts, P1).value
            r = base * 1.5 + 0.3
            mode = default_mode(consts.family)
            exact = curve_derivatives(P1, consts, r)
            for key, value in exact.items():
                lo = curves(P1, consts, r - 1e-6, mode)[key]
                hi = curves(P1, consts, r + 1e-6, mode)[key]
                est = (hi - lo) / 2e-6
                assert est == pytest.approx(value, rel=1e-8)

    def test_requires_interior_radius(self):
        with pytest.raises(DomainError):
            curve_derivatives(P1, c_thm3(), math.sqrt(2))


class TestFamilyVelocities:
    def test_arrays_match_scalar_calls(self):
        for consts in TestCurveDerivatives.CASES:
            r = turning_radius(consts, P1).value * np.array([1.5, 2.0, 3.0]) + 0.3
            fields = [np.broadcast_to(v, r.shape) for v in family_velocities(consts, P1, r)]
            for i, ri in enumerate(r):
                scalar = family_velocities(consts, P1, float(ri))
                assert [v[i] for v in fields] == list(scalar)
            # a list of radii is checked, then evaluated as the array
            listed = family_velocities(consts, P1, r.tolist())
            assert [np.broadcast_to(v, r.shape).tolist() for v in listed] == [
                v.tolist() for v in fields]

    @pytest.mark.parametrize("consts", TestCurveDerivatives.CASES, ids=lambda c: c.family)
    def test_empty_radii_give_empty_fields(self, consts):
        empty = np.array([])
        assert all(np.shape(v) in ((), (0,)) for v in family_velocities(consts, P1, empty))
        assert [d.shape for d in curve_derivatives(P1, consts, empty).values()] == [
            (0,)] * (1 + len(_REGISTRY[consts.family].swept))

    @pytest.mark.parametrize("consts, params, r", [
        (c_thm3(phi0=1e200), P1, 2.0),
        (c_thm2(tau0=1e200), P1, 2.0),
        (c_thm5(theta=1.0), ModelParams(n=1e200), 3e200),
        (c_thm5(r1=1e160), P1, 5.0),
    ], ids=["thm3-phi0", "thm2-tau0", "thm5-n", "thm5-r1"])
    def test_huge_constants_are_domain_error(self, consts, params, r):
        # c0**2, tau0**2, n*n and r1^4 overflow in the turning radius, which
        # both calls take before any field value
        for radii in (r, np.array([r, 2 * r])):
            with pytest.raises(DomainError, match="turning radius overflows"):
                family_velocities(consts, params, radii)
            with pytest.raises(DomainError, match="turning radius overflows"):
                curve_derivatives(params, consts, radii)

    @pytest.mark.parametrize("n, r, r1", [
        pytest.param(3e102, 9e102, 1, id="3e+102-9e+102"),
        pytest.param(3e102, 1e149, 1, id="3e+102-1e+149"),
        pytest.param(1e103, 3e103, 1, id="1e+103-3e+103"),
        pytest.param(3e102, 9e103, 10, id="3e+102-9e+103-r1=10")])
    def test_thm5_at_a_large_n_warns_nothing(self, n, r, r1):
        # 2n r1^2 r^2 and 2n^3 r1^2 overflow here: the field takes dr/dt
        # from the turning radius pair and forms neither. phi0 is negligible
        # against n, so (R+, R-) = (n, -n) and dr/dt = r1 sqrt((r - n)/(r + n))
        consts = FamilyConstants(family="thm5", r1=r1, phi0=1, theta_const=1, phi1=0, tau1=0)
        params = ModelParams(n=n)
        for radii in (r, np.array([r])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                dr = family_velocities(consts, params, radii)[3]
                dt_dr = curve_derivatives(params, consts, radii)["t"]
                exact = r1 * math.sqrt((r - n) / (r + n))
                assert dr == pytest.approx(exact, rel=1e-12)
                assert 1 / dt_dr == pytest.approx(exact, rel=1e-12)
            assert [str(w.message) for w in caught] == []

    @settings(max_examples=500, deadline=None)
    @given(family=st.sampled_from(tuple(_REGISTRY)), seed=st.integers(0, 2**32 - 1),
           log_n=st.floats(-3.0, 3.0), log_r1=st.floats(-3.0, 300.0),
           log_lift=st.floats(-15.0, 308.0), sign=st.sampled_from((1, -1)),
           eps=st.sampled_from((1, -1)))
    def test_velocity_fields_are_bounded(self, family, seed, log_n, log_r1, log_lift,
                                         sign, eps):
        # (r - R)(r - R') <= (r + n)^2 bounds |dr/dt| by r1 from the turning
        # radius to the float maximum, for any r1; the constants are the
        # verify draw's at this n and r1. A turning radius past the float
        # range raises DomainError instead
        n, r1 = 10.0**log_n, 10.0**log_r1
        spec = _REGISTRY[family]
        values = {**dict.fromkeys(spec.anchors, 0.0),
                  **spec.draw(np.random.default_rng(seed), n, r1, sign)}
        consts = FamilyConstants(family=family, eps=eps, r1=r1, **values)
        params = ModelParams(n=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                R = turning_radius(consts, params).value
            except DomainError as exc:
                assert "turning radius overflows" in str(exc)
                return
            r = min(R * (1 + 10.0**log_lift), 1.7e308)
            for radii in (r, np.array([r])):
                dr = family_velocities(consts, params, radii)[3]
                assert np.all(np.isfinite(dr) & (eps * dr >= 0)), (r, dr)
                assert np.all(abs(dr) <= r1 * (1 + 4 * np.finfo(float).eps)), (r, dr)

    def test_array_reaching_chart_edge_rejected(self):
        with pytest.raises(DomainError):
            family_velocities(c_thm3(), P1, np.array([0.5, 2.0]))

    @pytest.mark.parametrize("family", ["thm1", "thm2", "thm3", "thm4", "thm5"])
    def test_first_integral_matches_the_metric(self, family):
        # a route to each velocity field that skips the curves: contracted
        # with geometry's metric, v satisfies r1^2 = g(v, v) - p_tau^2, with
        # the tau charge tau0 (thm2), phi0 cos(theta)/(2n) (thm5), else 0
        worst = 0.0
        for seed in range(200):
            base, params = seeded_family(family, seed)
            n, R = params.n, turning_radius(base, params).value
            theta = _REGISTRY[family].start_theta(base)
            p_tau = (base.tau0 if family == "thm2" else
                     base.phi0 * math.cos(theta) / (2 * n) if family == "thm5" else 0.0)
            for eps, r in itertools.product((1, -1), (1.01 * R, 2 * R, 5 * n + R)):
                v = np.array(family_velocities(replace(base, eps=eps), params, r))
                energy = v @ _metric(n, theta, r) @ v - p_tau**2
                worst = max(worst, abs(energy / base.r1**2 - 1))
        assert worst <= 1e-13


class TestHugeRadii:
    # out to the float maximum every curve row holds, or the call raises
    # DomainError because a value itself passes the float range (t grows
    # like r/r1); under the suite's filterwarnings = error nothing warns
    RADII = np.concatenate([np.geomspace(1e100, 1e306, 31), np.linspace(1e307, 1.7e308, 17)])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", ["thm1", "thm2", "thm3", "thm4", "thm5"])
    def test_curves_hold_up_to_the_float_maximum(self, family, seed):
        base, params = seeded_family(family, seed)
        angles = [key for key in _REGISTRY[family].swept if key != "tau"]
        for eps, mode in itertools.product((1, -1), MODES if family == "thm5" else MODES[:2]):
            consts = replace(base, eps=eps)
            # at r = 1e100 the angles lie within 1e-90 of their r -> inf limits
            limit = curves(params, consts, 1e100, mode)
            radii, rows = [], []
            for r in self.RADII.tolist():
                try:
                    rows.append(curves(params, consts, r, mode))
                except DomainError:
                    continue
                radii.append(r)
            assert max(radii) > 1e307, (mode, eps)
            t = np.array([row["t"] for row in rows])
            assert np.all(np.isfinite(t)) and np.all(eps * np.diff(t) > 0), (mode, eps)
            for key in angles:
                assert max(abs(row[key] - limit[key]) for row in rows) <= 1e-12, (mode, eps)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_thm5_holds_where_the_radius_gap_overflows(self, eps):
        # at n = 1e-3, R+ - R- is about 2e-3, so (r - R+)/(R+ - R-) would
        # pass the float range from about r = 1e306 while the corrected t
        # stays near r; literal mode really overflows there (t is about 22 r)
        consts, params = c_thm5(eps=eps, r1=1.0, phi0=5e-4, theta=1.0), ModelParams(n=1e-3)
        limit = curves(params, consts, 1e100, "corrected")
        radii = [1e306, 1e307, 1.7e308]
        for rows in ([curves(params, consts, r, "corrected") for r in radii],
                     [dict(zip(limit, v)) for v in zip(
                         *curves(params, consts, np.array(radii), "corrected").values())]):
            t = np.array([row["t"] for row in rows])
            assert np.all(np.isfinite(t)) and np.all(eps * np.diff(t) > 0)
            assert max(abs(row["phi"] - limit["phi"]) for row in rows) <= 1e-12

    HUGE = [1e150, 1e200, 1e300, 1.7e308]

    @pytest.mark.parametrize("n", [1.0, 3.0])
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("consts", [
        c_thm1(r1=1.5), c_thm2(r1=1.5, tau0=2.0), c_thm3(r1=1.5, phi0=2.0),
        c_thm4(r1=1.5, theta0=2.0), c_thm5(r1=1.5, phi0=2.0)], ids=lambda c: c.family)
    def test_velocity_fields_reach_their_limits(self, consts, eps, n):
        # where r*r overflows, family_velocities and curve_derivatives give
        # their r -> inf limits: dr/dt = eps r1, dtau/dt = tau0 (thm2) or
        # phi0 cos(theta)/(2n) (thm5), every other rate 0
        consts, params = replace(consts, eps=eps), ModelParams(n=n)
        limit = {"tau": 0.0, "theta": 0.0, "phi": 0.0, "r": eps * consts.r1}
        if consts.family == "thm2":
            limit["tau"] = consts.tau0
        if consts.family == "thm5":
            limit["tau"] = consts.phi0 * math.cos(consts.theta_const) / (2 * n)
        d_limit = {"t": 1 / limit["r"],
                   **{k: limit[k] / limit["r"] for k in _REGISTRY[consts.family].swept}}

        def close(value, lim):
            return math.isfinite(value) and abs(value - lim) <= 1e-12 * max(abs(lim), 1.0)

        fields = family_velocities(consts, params, np.array(self.HUGE))
        for i, r in enumerate(self.HUGE):
            scalar = family_velocities(consts, params, r)
            for key, v, row in zip(COORDS, scalar, fields):
                assert close(v, limit[key]) and np.broadcast_to(row, (4,))[i] == v, (key, r)
            for key, d in curve_derivatives(params, consts, r).items():
                assert close(d, d_limit[key]), (key, r)

    @pytest.mark.parametrize("consts", [
        c_thm1(r1=1e160), c_thm2(r1=1e160), c_thm3(r1=1e160), c_thm4(r1=1e160)],
        ids=lambda c: c.family)
    def test_huge_r1_gives_a_finite_dr(self, consts):
        # r1^2 overflows, so the turning radius rounds to n and dr/dt is
        # r1 sqrt((r - n)/(r + n)); thm5's turning radius overflows instead
        # (TestFamilyVelocities::test_huge_constants_are_domain_error)
        for radii in (5.0, np.array([5.0])):
            dr = family_velocities(consts, P1, radii)[3]
            dt_dr = curve_derivatives(P1, consts, radii)["t"]
            assert dr == pytest.approx(1e160 * math.sqrt(4 / 6), rel=1e-15)
            assert 1 / dt_dr == pytest.approx(1e160 * math.sqrt(4 / 6), rel=1e-15)

    @pytest.mark.parametrize("family", ["thm1", "thm2", "thm3", "thm4", "thm5"])
    def test_inversion_past_where_r_squared_overflows(self, family):
        consts, params = seeded_family(family, 42)
        r = invert_t_of_r(params, consts, consts.t1 + 1e200)
        assert r > 1e199
        t = curves(params, consts, r, default_invert_mode(family))["t"]
        assert t == pytest.approx(consts.t1 + 1e200, rel=1e-12)


class TestCurvesDispatch:
    def test_keys_per_family(self):
        assert set(curves(P1, c_thm1(), 2.0)) == {"t"}
        assert set(curves(P1, c_thm2(), 2.0)) == {"t", "tau"}
        assert set(curves(P1, c_thm3(), 2.0)) == {"t", "phi"}
        assert set(curves(P1, c_thm4(), 2.0)) == {"t", "theta"}
        assert set(curves(P1, c_thm5(), 2.0)) == {"t", "phi", "tau"}

    def test_default_modes(self):
        assert default_mode("thm1") == "literal"
        assert default_invert_mode("thm1") == "aligned"
        assert default_invert_mode("thm5") == "corrected"
        assert curves(P1, c_thm3(), 2.0) == dict(
            zip(("t", "phi"), tuple(curves(P1, c_thm3(), 2.0, "literal").values())))

    def test_rejects_special_tags(self):
        with pytest.raises(ConfigError):
            curves(P1, FamilyConstants(family="generic", eps=1, r1=1.0), 2.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda r: curves(P1, c_thm3(), np.array([2.0, r])),
        lambda r: curve_derivatives(P1, c_thm3(), r),
        lambda r: family_velocities(c_thm3(), P1, np.array([r, 2.0])),
    ], ids=["curves", "curve_derivatives", "family_velocities"])
    def test_rejects_non_finite_radius(self, call, r):
        with pytest.raises(ConfigError):
            call(r)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            curves(P1, c_thm3(), 2.0, "exact")
        with pytest.raises(ConfigError):
            curves(P1, c_thm3(), 2.0, "corrected")
        assert "corrected" in MODES


class TestClassify:
    def test_equatorial_state(self):
        state = PhaseState(Point(0.0, math.pi / 2, 0.0, 2.0),
                           (0.0, 0.0, 1 / 3, math.sqrt(2) / 3))
        consts = classify(P1, state)
        assert consts.family == "thm3" and consts.eps == 1
        assert consts.r1 == pytest.approx(1.0, rel=0, abs=1e-13)
        assert consts.phi0 == pytest.approx(1.0, rel=0, abs=1e-13)
        vals = curves(P1, consts, 2.0, "aligned")
        assert abs(vals["t"]) < 1e-12 and abs(vals["phi"]) < 1e-12

    def test_tau_charged_state(self):
        state = PhaseState(Point(0.7, 1.1, 2.2, 3.0),
                           (2.0, 0.0, 0.0, math.sqrt(0.5)))
        consts = classify(P1, state)
        assert consts.family == "thm2"
        assert consts.r1 == pytest.approx(math.sqrt(2), rel=1e-13)
        assert consts.tau0 == pytest.approx(1.0, rel=1e-13)
        vals = curves(P1, consts, 3.0, "aligned")
        assert abs(vals["t"]) < 1e-12
        assert vals["tau"] == pytest.approx(0.7, rel=0, abs=1e-12)

    def test_constant_latitude_state(self):
        state = PhaseState(Point(0.2, math.pi / 3, 0.5, 2.0),
                           (5 / 12, 0.0, 1 / 3, math.sqrt(5 / 24)))
        consts = classify(P1, state)
        assert consts.family == "thm5"
        assert consts.r1 == pytest.approx(1.0, rel=0, abs=1e-13)
        assert consts.phi0 == pytest.approx(1.0, rel=0, abs=1e-13)
        assert consts.theta_const == math.pi / 3
        vals = curves(P1, consts, 2.0, "corrected")
        assert abs(vals["t"]) < 1e-12
        assert vals["tau"] == pytest.approx(0.2, abs=1e-12)
        assert vals["phi"] == pytest.approx(0.5, abs=1e-12)

    def test_radial_and_meridional(self):
        radial = classify(P1, PhaseState(Point(0, 1.0, 0, 2.0),
                                         (0, 0, 0, -0.5)))
        assert radial.family == "thm1" and radial.eps == -1
        assert radial.r1 == pytest.approx(math.sqrt(3) * 0.5, rel=1e-13)
        merid = classify(P1, PhaseState(Point(0, 1.0, 0, 2.0),
                                        (0, 0.4, 0, 0.5)))
        assert merid.family == "thm4"
        assert merid.theta0 == pytest.approx(1.2, rel=1e-13)

    def test_stationary_and_generic(self):
        assert classify(P1, PhaseState(Point(0, 1.0, 0, 2.0),
                                       (0, 0, 0, 0))).family == "stationary"
        mixed = classify(P1, PhaseState(Point(0, 1.0, 0, 2.0),
                                        (0.3, 0.2, 0.1, 0.5)))
        assert mixed.family == "generic" and mixed.r1 > 0

    def test_off_equator_azimuthal_state_is_generic(self):
        # phi and r moving alone is the equatorial family's signature, but
        # off the equator the state lies on no closed-form family
        state = PhaseState(Point(0, 1.0, 0, 2.0), (0.0, 0.0, 0.3, 0.5))
        assert classify(P1, state).family == "generic"

    def test_equator_breaks_latitude_lock(self):
        # tau and phi both moving at the equator cannot satisfy the lock
        state = PhaseState(Point(0, math.pi / 2, 0, 2.0),
                           (0.4, 0.0, 0.3, 0.5))
        assert classify(P1, state).family == "generic"

    def test_constant_r_is_not_a_geodesic(self):
        with pytest.raises(NotAGeodesic):
            classify(P1, PhaseState(Point(0, 1.0, 0, 2.0), (0.3, 0, 0, 0)))

    def test_tolerance_validation(self):
        with pytest.raises(ConfigError):
            classify(P1, PhaseState(Point(0, 1.0, 0, 2.0), (0, 0, 0, 0.5)),
                     tol=0.0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e6])
    def test_scale_free(self, scale):
        # the affine parameter's scale must not change the family; r1 and
        # phi0 scale with the velocity
        v = (0.0, 0.0, 1 / 3, math.sqrt(2) / 3)
        state = PhaseState(Point(0.0, math.pi / 2, 0.0, 2.0), tuple(scale * x for x in v))
        consts = classify(P1, state)
        assert consts.family == "thm3" and consts.eps == 1
        assert consts.r1 == pytest.approx(scale, rel=1e-13)
        assert consts.phi0 == pytest.approx(scale, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(tuple(_REGISTRY)), seed=st.integers(0, 10_000),
           lift=st.floats(0.05, 3.0), eps=st.sampled_from((1, -1)),
           log_scale=st.floats(-9.0, 6.0))
    def test_scale_free_on_every_family(self, family, seed, lift, eps, log_scale):
        # a state on the family at radius (1 + lift) R, its velocity scaled
        # by 10^log_scale: the family and branch hold and r1 scales along
        consts, params = seeded_family(family, seed)
        consts = replace(consts, eps=eps)
        r = (1 + lift) * turning_radius(consts, params).value
        point = Point(0.3, _REGISTRY[family].start_theta(consts), 0.2, r)
        velocity = family_velocities(consts, params, r)
        base = classify(params, PhaseState(point, velocity))
        assert (base.family, base.eps) == (family, eps)
        scale = 10.0**log_scale
        scaled = classify(params, PhaseState(point, tuple(scale * v for v in velocity)))
        assert (scaled.family, scaled.eps) == (family, eps)
        assert scaled.r1 == pytest.approx(scale * base.r1, rel=1e-12)

    @pytest.mark.parametrize("point,velocity", [
        (Point(0, 1.0, 0, 2.0), (0, 0, math.nan, 1)),
        (Point(0, 1.0, 0, 2.0), (math.inf, 0, 0, 1)),
        (Point(0, math.nan, 0, 2.0), (0, 0, 0, 1))])
    def test_rejects_non_finite_state(self, point, velocity):
        with pytest.raises(ConfigError):
            classify(P1, PhaseState(point, velocity))

    def test_consistent_along_trajectory(self):
        # every point of an integrated family trajectory classifies to the
        # same constants; t1 shifts back by the elapsed time
        cfg = IntegrationConfig(abs_tol=1e-12, rel_tol=1e-12, t_end=4.0)
        state = PhaseState(Point(0.0, math.pi / 2, 0.0, 2.0),
                           (0.0, 0.0, 1 / 3, math.sqrt(2) / 3))
        traj = integrate(P1, state, cfg)
        base = classify(P1, state, tol=1e-7)
        for i in range(len(traj)):
            consts = classify(P1, traj.state(i), tol=1e-7)
            assert consts.family == "thm3"
            assert abs(consts.r1 - base.r1) < 1e-8
            assert abs(consts.phi0 - base.phi0) < 1e-8
            assert abs(consts.t1 + traj.t[i] - base.t1) < 1e-8
            assert abs(consts.phi1 - base.phi1) < 1e-8


class TestInvert:
    FAMILIES_UNDER_TEST = (
        c_thm1(),
        c_thm2(),
        c_thm3(),
        c_thm4(eps=-1),
        c_thm5(),
    )

    def test_round_trip(self):
        for consts in self.FAMILIES_UNDER_TEST:
            mode = default_invert_mode(consts.family)
            t = curves(P1, consts, 3.7, mode)["t"]
            assert invert_t_of_r(P1, consts, t) == pytest.approx(
                3.7, rel=0, abs=1e-10)

    def test_turning_time_maps_to_turning_radius(self):
        assert invert_t_of_r(P1, c_thm3(), 0.0) == math.sqrt(2)

    def test_range_error_on_wrong_side(self):
        with pytest.raises(RangeError):
            invert_t_of_r(P1, c_thm1(), -0.5)
        with pytest.raises(RangeError):
            invert_t_of_r(P1, c_thm4(eps=-1), 0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ConfigError):
            invert_t_of_r(P1, c_thm1(), t)

    def test_frozen_radial_inversion(self):
        r = invert_t_of_r(P05, c_thm1(), THM1_T_13)
        assert r == pytest.approx(1.3, rel=0, abs=1e-9)

    def test_literal_mode_shifts_range(self):
        # literal thm1 at n=1 starts at t1 + 2n ln(sqrt(2n)) = ln 2 > t1
        with pytest.raises(RangeError):
            invert_t_of_r(P1, c_thm1(), 0.0, mode="literal")
        t = thm1_t_of_r(P1, c_thm1(), 2.2, "literal")
        assert invert_t_of_r(P1, c_thm1(), t, mode="literal") == pytest.approx(
            2.2, abs=1e-10)

    def test_checks_once_per_inversion(self, monkeypatch):
        # the root solve runs on the unchecked kernel: one turning radius
        # per inversion, and no trip through curves per iteration; one
        # stitched_coords call inverts all of its times at once
        calls = dict.fromkeys(("turning_radius", "curves", "invert_t_of_r"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(analytic, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(analytic, name, counted)
        consts, params = seeded_family("thm5", 42)
        invert_t_of_r(params, consts, consts.t1 + 1.0)
        assert calls == {"turning_radius": 1, "curves": 0, "invert_t_of_r": 0}
        calls.update(dict.fromkeys(calls, 0))
        stitched_coords(params, consts, consts.t1 + np.linspace(-3.0, 3.0, 256))
        # one turning radius for the inversion, one for curves
        assert calls == {"turning_radius": 2, "curves": 1, "invert_t_of_r": 1}

    @pytest.mark.parametrize("family", ["thm1", "thm2", "thm3", "thm4", "thm5"])
    def test_time_past_float_range_is_range_error(self, family):
        # t1 + 1e308 lies past r = 1e300, where the bracket search stops
        consts, params = seeded_family(family, 42)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="not reachable"):
                invert_t_of_r(params, consts, consts.t1 + 1e308)

    def test_array_in_array_out(self):
        consts = c_thm3()
        ts = np.array([0.0, 0.5, 2.0])
        rs = invert_t_of_r(P1, consts, ts)
        assert isinstance(rs, np.ndarray) and rs.shape == (3,)
        assert isinstance(invert_t_of_r(P1, consts, np.float64(0.5)), float)
        assert rs.tolist() == [invert_t_of_r(P1, consts, t) for t in ts.tolist()]
        assert rs[0] == math.sqrt(2)

    def test_empty_times_give_empty_arrays(self):
        assert invert_t_of_r(P1, c_thm3(), np.array([])).shape == (0,)
        out = stitched_coords(P1, c_thm3(), [])
        assert sorted(out) == ["phi", "r", "t"]
        assert all(v.shape == (0,) for v in out.values())

    def test_rejects_two_dimensional_times(self):
        with pytest.raises(ConfigError):
            invert_t_of_r(P1, c_thm3(), np.zeros((2, 2)))
        with pytest.raises(ConfigError):
            stitched_coords(P1, c_thm3(), np.zeros((2, 2)))

    def test_array_errors_name_the_first_bad_time(self):
        with pytest.raises(ConfigError, match="got nan"):
            invert_t_of_r(P1, c_thm1(), [0.5, math.nan, math.inf])
        with pytest.raises(RangeError, match=r"t = -0\.25 lies before"):
            invert_t_of_r(P1, c_thm1(), [0.5, -0.25, -1.0])


def _scipy_inversion(params, consts, t):
    """The scalar route: per-time bracket doubling and scipy's brentq on the
    family's kernel, as invert_t_of_r solved one time before it took arrays."""
    _, R, kernel = analytic._curve_fn(params, consts, default_invert_mode(consts.family))

    def t_of(rr):
        return float(kernel(np.asarray(rr, dtype=float))[0])

    if consts.eps * (t - t_of(R)) == 0:
        return R, R, R
    hi = max(2 * R, R + params.n)
    while consts.eps * (t_of(hi) - t) < 0:
        hi *= 2
    return scipy.optimize.brentq(lambda rr: t_of(rr) - t, R, hi, xtol=1e-14), R, hi


# offsets from t1 that converge at different iterations, solved in one call
DTS = np.concatenate([[0.0, 1e-13, 1e-9, 1e-6], np.geomspace(1e-12, 1e6, 37)])


class TestArrayBrent:
    """The array brentq and invert_t_of_r against per-element
    scipy.optimize.brentq on the same kernel, bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bit_identical_to_scipy(self, seed):
        for fam in ("thm1", "thm2", "thm3", "thm4", "thm5"):
            base, params = seeded_family(fam, seed)
            for eps in (1, -1):
                consts = replace(base, eps=eps)
                ts = consts.t1 + eps * DTS
                ref = [_scipy_inversion(params, consts, t) for t in ts.tolist()]
                expected = np.array([root for root, _, _ in ref])
                got = invert_t_of_r(params, consts, ts)
                assert got.tobytes() == expected.tobytes(), (fam, eps)
                # the bare solver on the same brackets, skipping t = t1
                _, _, kernel = analytic._curve_fn(params, consts,
                                                  default_invert_mode(fam))
                lo, hi = np.array([(a, b) for _, a, b in ref[1:]]).T
                roots = brentq(lambda x, i: kernel(x)[0] - ts[1:][i], lo, hi)
                assert roots.tobytes() == expected[1:].tobytes(), (fam, eps)

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(("thm1", "thm2", "thm3", "thm4", "thm5")),
           seed=st.integers(0, 10_000), log_dt=st.floats(-14.0, 6.0), eps=st.sampled_from((1, -1)))
    def test_bit_identical_property(self, family, seed, log_dt, eps):
        base, params = seeded_family(family, seed)
        consts = replace(base, eps=eps)
        ts = consts.t1 + eps * 10.0 ** np.array([log_dt, log_dt - 1.0, log_dt + 0.5])
        expected = np.array([_scipy_inversion(params, consts, t)[0] for t in ts.tolist()])
        assert invert_t_of_r(params, consts, ts).tobytes() == expected.tobytes()

    def test_roots_at_bracket_ends(self):
        roots = brentq(lambda x, i: x - np.array([0.0, 2.0])[i], [0.0, 1.0], [1.0, 2.0])
        assert roots.tolist() == [0.0, 2.0]

    def test_nan_is_domain_error(self):
        with pytest.raises(DomainError, match="NaN"):
            brentq(lambda x, i: np.where(x == 0.0, np.nan, x - 0.3), [0.0], [1.0])
        # a NaN met inside the bracket, after the ends were finite
        with pytest.raises(DomainError, match="NaN"):
            brentq(lambda x, i: np.where((x > 0.1) & (x < 0.9), np.nan, x - 0.5),
                   [0.0], [1.0])

    def test_equal_signs_are_domain_error(self):
        with pytest.raises(DomainError, match="different signs"):
            brentq(lambda x, i: x + 1.0, [0.0], [1.0])

    def test_iteration_limit_is_a_package_error(self):
        # a unit step: every secant step is refused, and bisecting 1e300
        # down to 1e-14 takes about 1040 halvings, past scipy's 100
        def step(x, i=None):
            return np.where(x < 1.0, -1.0, 1.0)

        with pytest.raises(RuntimeError):
            scipy.optimize.brentq(lambda x: float(step(x)), 0.0, 1e300, xtol=1e-14)
        with pytest.raises(TaubnutError, match="did not converge"):
            brentq(step, [0.0], [1e300])
        # within reach of 100 halvings both converge, to the same float
        root = brentq(step, [0.0], [3.0])[0]
        assert root == scipy.optimize.brentq(lambda x: float(step(x)), 0.0, 3.0, xtol=1e-14)


class TestStitched:
    def test_mirror_symmetry(self):
        consts = c_thm3(phi1=0.25)
        ts = np.linspace(-3.0, 3.0, 13)
        out = stitched_coords(P1, consts, ts)
        assert sorted(out) == ["phi", "r", "t"]
        assert np.max(np.abs(out["r"] - out["r"][::-1])) < 1e-12
        folded = (out["phi"] - 0.25) + (out["phi"][::-1] - 0.25)
        assert np.max(np.abs(folded)) < 1e-12

    def test_anchors_at_turning_time(self):
        consts = c_thm5(t1=0.5, tau1=-0.1, phi1=0.2)
        out = stitched_coords(P1, consts, [0.5])
        assert out["r"][0] == turning_radius(consts, P1).value
        assert out["tau"][0] == -0.1 and out["phi"][0] == 0.2

    def test_radial_family_has_no_swept_coords(self):
        out = stitched_coords(P1, c_thm1(), np.linspace(-1, 1, 5))
        assert sorted(out) == ["r", "t"]
        assert out["r"][0] == out["r"][-1]

    def test_ingoing_constants_give_same_curve(self):
        ts = np.linspace(-2.0, 2.0, 9)
        a = stitched_coords(P1, c_thm3(), ts)
        b = stitched_coords(P1, c_thm3(eps=-1), ts)
        assert np.allclose(a["r"], b["r"], rtol=0, atol=1e-12)

    def test_rejects_special_tags(self):
        with pytest.raises(ConfigError):
            stitched_coords(P1, FamilyConstants(family="generic", eps=1,
                                                r1=1.0), [0.0])

    def test_rejects_non_finite_time(self):
        with pytest.raises(ConfigError):
            stitched_coords(P1, c_thm1(), [0.0, math.nan, 1.0])

    @pytest.mark.parametrize("consts", [c_thm1(t1=0.3), c_thm2(t1=0.3, tau1=0.1),
                                        c_thm3(t1=0.3, phi1=0.1), c_thm4(t1=0.3, theta1=0.5),
                                        c_thm5(t1=0.3, tau1=0.1, phi1=-0.2)])
    def test_array_matches_one_time_calls(self, consts):
        # times before, at and after t1 in one call, against one call per time
        ts = consts.t1 + np.linspace(-2.0, 2.0, 9)
        out = stitched_coords(P1, consts, ts)
        for key, values in out.items():
            one = [stitched_coords(P1, consts, t)[key][0] for t in ts]
            assert values.tobytes() == np.array(one).tobytes(), key


class TestClosedFormBytes:
    # sha256 of the curves in every valid mode on 257 radii from just above
    # the turning radius to 10n, stitched_coords at 65 times symmetric about
    # t1 and invert_t_of_r at 5 times, for the seeded thm1-thm5 families. A
    # deliberate re-baseline updates the hash here and lists the moved
    # values in CHANGES.md.
    SHA256 = {
        42: "5609f9b55466f36bf58d1f9dfd4b38f8cc450d24ebdbeeb0e449b8a13f85e04f",
        7: "e4cdc7f4e3a3fd8bf1f0a29c291dc48b9b8ce5130efac7c54a3c338a52faa3e8",
    }

    @pytest.mark.parametrize("seed", sorted(SHA256))
    def test_outputs_are_pinned(self, seed):
        digest = hashlib.sha256()

        def feed(label, values):
            digest.update(label.encode())
            digest.update(np.asarray(values, dtype="<f8").tobytes())

        for fam in ("thm1", "thm2", "thm3", "thm4", "thm5"):
            consts, params = seeded_family(fam, seed)
            R = turning_radius(consts, params).value
            grid = np.geomspace(R * 1.001, 10 * params.n, 257)
            for mode in MODES if fam == "thm5" else MODES[:2]:
                for key, values in curves(params, consts, grid, mode).items():
                    feed(f"{fam} {mode} {key}", values)
            ts = consts.t1 + np.linspace(-3.0, 3.0, 65)
            for key, values in stitched_coords(params, consts, ts).items():
                feed(f"{fam} stitched {key}", values)
            feed(f"{fam} invert", [invert_t_of_r(params, consts, consts.t1 + dt)
                                   for dt in (0.0, 0.1, 0.5, 1.0, 3.0)])
        assert digest.hexdigest() == self.SHA256[seed]


def _paper_curves(params, c, r, mode):
    """The closed-form brackets as the kernel docstrings print them, in numpy
    with no radius switch: an independent route to each family's curves
    (the kernels build theirs from the turning pair's terms)."""
    n = params.n
    tr = turning_radius(c, params)
    R, Rm = tr.value, tr.r_minus
    if c.family == "thm1":
        bt = np.sqrt(r * r - n * n) + 2 * n * np.log(np.sqrt(r + n) + np.sqrt(r - n))
        if mode == "aligned":
            bt = bt - 2 * n * np.log(np.sqrt(2 * n))
        return {"t": c.t1 + c.eps / c.r1 * bt}
    if c.family == "thm2":
        sm, sp = np.sqrt(r - R), np.sqrt(r + n)
        log = np.log(sm + sp)
        bt = sm * sp + (n + R) * log
        btau = ((5 * n + R) * log + sm * sp + 2 * (2 * n) ** 1.5 / np.sqrt(R - n)
                * np.arctan(np.sqrt(2 * n) * sm / (np.sqrt(R - n) * sp)))
        if mode == "aligned":
            bt = bt - (n + R) * np.log(np.sqrt(R + n))
            btau = btau - (5 * n + R) * np.log(np.sqrt(R + n))
        return {"t": c.t1 + c.eps / c.r1 * bt, "tau": c.tau1 + c.eps * c.tau0 / c.r1 * btau}
    if c.family in ("thm3", "thm4"):
        (key,) = _REGISTRY[c.family].swept
        c0 = getattr(c, f"{key}0")
        root = np.sqrt(r * r - R * R)
        bt = root + n * np.log(r + root)
        x = np.arctan(c.r1 * (r * n - R * R) / (c0 * root))
        if mode == "aligned":
            bt, x = bt - n * np.log(R), x + np.sign(c0) * np.pi / 2
        return {"t": c.t1 + c.eps / c.r1 * bt, key: getattr(c, f"{key}1") + c.eps * x}
    ct = math.cos(c.theta_const)
    S = c.phi0**2 * ct**2 / (2 * n * c.r1**2)
    sqrtP = np.sqrt((r - R) * (r - Rm))
    ash = np.arcsinh(np.sqrt((r - R) / (R - Rm)))
    atn = np.arctan(np.sqrt((r - R) * (n - Rm) / ((r - Rm) * (R - n))))
    root_pm = np.sqrt((R - n) * (n - Rm))
    if mode == "corrected":
        coefs = (c.eps / c.r1, 2 * c.eps * c.phi0 / (c.r1 * root_pm),
                 c.eps * c.phi0 * ct / (2 * n * c.r1))
    else:
        root2n = np.sqrt(2 * n)
        coefs = (c.eps / root2n, 2 * c.eps * root2n * c.phi0 / root_pm,
                 c.eps * c.phi0 * ct / root2n)
    return {"t": c.t1 + coefs[0] * (sqrtP + (S + 2 * n) * ash), "phi": c.phi1 + coefs[1] * atn,
            "tau": c.tau1 + coefs[2] * (sqrtP + (S + 6 * n) * ash)}


class TestPaperBrackets:
    @pytest.mark.parametrize("family", ["thm1", "thm2", "thm3", "thm4", "thm5"])
    def test_kernels_match_the_printed_brackets(self, family):
        # from 1.001 R, where r*r - R*R still keeps 13 digits, out to 1e6 n
        for seed, eps in itertools.product(range(20), (1, -1)):
            consts, params = seeded_family(family, seed)
            consts = replace(consts, eps=eps)
            R = turning_radius(consts, params).value
            grid = np.geomspace(1.001 * R, 1e6 * params.n, 200)
            for mode in MODES if family == "thm5" else MODES[:2]:
                paper = _paper_curves(params, consts, grid, mode)
                for key, values in curves(params, consts, grid, mode).items():
                    err = np.abs(values - paper[key]) / np.maximum(1.0, np.abs(paper[key]))
                    assert err.max() <= 1e-12, (seed, eps, mode, key, err.max())


class TestJsonRecords:
    def test_round_trip_every_family(self):
        for consts in (c_thm1(t1=0.4), c_thm2(tau1=0.1), c_thm3(phi1=-0.2),
                       c_thm4(theta1=1.1), c_thm5(tau1=0.3, phi1=0.6)):
            obj = family_to_json(consts, P1)
            back, params = family_from_json(json.loads(json.dumps(obj)))
            assert back == consts
            assert params.n == 1.0

    def test_key_order(self):
        assert list(family_to_json(c_thm5(), P1)) == [
            "family", "eps", "n", "r1", "phi0", "theta_const",
            "t1", "tau1", "phi1"]
        assert list(family_to_json(c_thm1(), P1)) == [
            "family", "eps", "n", "r1", "t1"]

    def test_unknown_key_rejected(self):
        obj = family_to_json(c_thm3(), P1)
        obj["zeta"] = 1.0
        with pytest.raises(ConfigError):
            family_from_json(obj)

    def test_missing_key_rejected(self):
        obj = family_to_json(c_thm3(), P1)
        obj.pop("phi0")
        with pytest.raises(ConfigError):
            family_from_json(obj)

    def test_non_numeric_rejected(self):
        obj = family_to_json(c_thm3(), P1)
        obj["r1"] = "fast"
        with pytest.raises(ConfigError):
            family_from_json(obj)
        obj = family_to_json(c_thm3(), P1)
        obj["eps"] = True
        with pytest.raises(ConfigError):
            family_from_json(obj)

    def test_bad_eps_value(self):
        obj = family_to_json(c_thm3(), P1)
        obj["eps"] = 0
        with pytest.raises(ConfigError):
            family_from_json(obj)

    def test_special_tags_not_serializable(self):
        with pytest.raises(ConfigError):
            family_to_json(FamilyConstants(family="stationary", eps=1,
                                           r1=0.0), P1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: curves(P1, c_thm3(), math.inf), ConfigError, "radii must be finite"),
    (lambda: classify(P1, PhaseState(Point(0, 1.0, 0, 0.5), (0, 0, 0, 1.0))), DomainError,
     "r must exceed n"),
    (lambda: invert_t_of_r(P1, c_thm1(r1=1e-10), 1.79e308), RangeError, "overflows first"),
    (lambda: radial_passthrough(P1, 0.0, 1.0, samples=4), ConfigError, "odd count"),
    (lambda: family_from_json([1.0]), ConfigError, "JSON object"),
    (lambda: family_from_json({"family": "thm9"}), ConfigError, "unknown or missing family"),
], ids=["infinite-radius", "classify-inside-nut", "time-past-the-curve",
        "even-passthrough-samples", "record-not-an-object", "record-unknown-family"])
def test_validation_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
