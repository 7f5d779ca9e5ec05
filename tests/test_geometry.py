"""Tensor evaluation tests: closed forms vs substitution values, finite-difference
oracles, frame reconstruction, curvature residuals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut import geometry, verify
from taubnut.errors import AxisError, ConfigError, DomainError
from taubnut.geometry import (
    DUALITY_SIGN,
    PHI,
    R,
    TAU,
    THETA,
    ModelParams,
    Point,
    _CONNECTION,
    _S_POLAR,
    _connection_regular,
    _connection_s,
    _connection_singular,
    _powers,
    _powers_s,
    christoffel_at,
    christoffel_fd_oracle,
    curvature_fd,
    duality_residual,
    frame_at,
    frame_riemann_fd,
    inverse_metric_at,
    metric_at,
    ricci_fd,
    riemann_fd,
    self_duality_residual,
)

P1 = ModelParams(n=1.0)


def interior_points(count, seed=7):
    """Seeded (params, point) draws over the standard interior sampling box."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = rng.uniform(0.5, 2.0)
        r = rng.uniform(1.1 * n, 10 * n)
        th = rng.uniform(0.2, np.pi - 0.2)
        tau = rng.uniform(0.0, 4 * np.pi * n)
        phi = rng.uniform(0.0, 2 * np.pi)
        out.append((ModelParams(n=n), Point(tau, th, phi, r)))
    return out


class TestModelParams:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConfigError):
            ModelParams(n=0.0)

    def test_rejects_n_whose_square_is_not_normal(self):
        # below the cube root of the smallest normal, ~ 2.8126e-103, n**3 is
        # subnormal or 0, and so n*n below ~ 1.49e-154
        with pytest.raises(ConfigError, match="2.8e-103"):
            ModelParams(n=1e-300)
        with pytest.raises(ConfigError):
            ModelParams(n=1e-150)
        with pytest.raises(ConfigError):
            ModelParams(n=2.8126e-103)
        assert ModelParams(n=2.8127e-103).n == 2.8127e-103


class TestMetric:
    def test_equator_values(self):
        g = metric_at(P1, Point(0.0, np.pi / 2, 0.0, 3.0))
        assert g[TAU, TAU] == pytest.approx(0.5, abs=1e-15)
        assert g[TAU, PHI] == pytest.approx(0.0, abs=1e-15)
        assert g[PHI, PHI] == pytest.approx(8.0, abs=1e-14)
        assert g[R, R] == pytest.approx(2.0, abs=1e-15)
        assert g[THETA, THETA] == pytest.approx(8.0, abs=1e-14)

    def test_axis_degeneracy(self):
        g = metric_at(P1, Point(0.0, 0.0, 0.0, 3.0))
        assert g[PHI, PHI] == pytest.approx(2.0, abs=1e-14)
        det_block = g[TAU, TAU] * g[PHI, PHI] - g[TAU, PHI] ** 2
        assert det_block == pytest.approx(0.0, abs=1e-14)

    def test_axis_block_det_scales_like_sin_squared(self):
        for th in [1e-2, 1e-3, 1e-4]:
            g = metric_at(P1, Point(0.0, th, 0.0, 3.0))
            det_block = g[TAU, TAU] * g[PHI, PHI] - g[TAU, PHI] ** 2
            expected = g[TAU, TAU] * 8.0 * np.sin(th) ** 2
            assert det_block == pytest.approx(expected, rel=1e-10)

    def test_flat_limit(self):
        g = metric_at(P1, Point(0.0, 1.0, 0.0, 1e6))
        assert abs(g[TAU, TAU] - 1.0) <= 3.0 / 1e6
        assert abs(g[R, R] - 1.0) <= 3.0 / 1e6

    def test_symmetry_and_positive_definite(self):
        for params, p in interior_points(10):
            g = metric_at(params, p)
            assert np.array_equal(g, g.T)
            assert np.linalg.eigvalsh(g).min() > 0

    def test_domain_error_at_or_below_n(self):
        with pytest.raises(DomainError):
            metric_at(P1, Point(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            metric_at(P1, Point(0.0, 1.0, 0.0, 0.5))

    def test_domain_error_where_powers_overflow(self):
        # r**2 overflows a float beyond r ~ 1.3e154, n**2 beyond n ~ 1.3e154
        with pytest.raises(DomainError):
            metric_at(P1, Point(0.0, 1.0, 0.0, 1e200))
        with pytest.raises(DomainError):
            metric_at(ModelParams(n=1e300), Point(0.0, 1.0, 0.0, 2e300))


class TestInverseMetric:
    def test_equator_values(self):
        gi = inverse_metric_at(P1, Point(0.0, np.pi / 2, 0.0, 3.0))
        assert gi[TAU, TAU] == pytest.approx(2.0, abs=1e-14)
        assert gi[TAU, PHI] == pytest.approx(0.0, abs=1e-15)
        assert gi[PHI, PHI] == pytest.approx(1 / 8, abs=1e-15)
        assert gi[R, R] == pytest.approx(0.5, abs=1e-15)
        assert gi[THETA, THETA] == pytest.approx(1 / 8, abs=1e-15)

    def test_cross_component(self):
        gi = inverse_metric_at(P1, Point(0.0, np.pi / 3, 0.0, 2.0))
        assert gi[TAU, PHI] == pytest.approx(-4.0 / 9.0, rel=1e-14)

    def test_identity_contract(self):
        for params, p in interior_points(10):
            g = metric_at(params, p)
            gi = inverse_metric_at(params, p)
            assert np.abs(g @ gi - np.eye(4)).max() <= 1e-12

    def test_axis_error(self):
        with pytest.raises(AxisError):
            inverse_metric_at(P1, Point(0.0, 1e-4, 0.0, 2.0))
        with pytest.raises(AxisError):
            inverse_metric_at(P1, Point(0.0, np.pi - 1e-4, 0.0, 2.0))


class TestChristoffel:
    def test_substitution_values(self):
        G = christoffel_at(P1, Point(0.0, np.pi / 3, 0.0, 2.0))
        assert G[TAU, TAU, R] == pytest.approx(1 / 3, rel=1e-14)
        G2 = christoffel_at(P1, Point(0.0, np.pi / 2, 0.0, 3.0))
        assert G2[THETA, TAU, PHI] == pytest.approx(1 / 16, rel=1e-14)

    def test_lower_index_symmetry(self):
        for params, p in interior_points(10):
            G = christoffel_at(params, p)
            assert np.array_equal(G, G.transpose(0, 2, 1))

    def test_sparsity_pattern(self):
        # exactly 15 independent nonzero entries at a generic point
        G = christoffel_at(P1, Point(0.3, 1.1, 0.2, 2.7))
        independent = [(l, m, k) for l in range(4) for m in range(4) for k in range(m, 4)]
        nonzero = [idx for idx in independent if G[idx] != 0.0]
        assert len(nonzero) == 15

    def test_oracle_agreement_all_entries(self):
        G = christoffel_at(P1, Point(0.0, np.pi / 3, 0.0, 2.0))
        F = christoffel_fd_oracle(P1, Point(0.0, np.pi / 3, 0.0, 2.0))
        assert np.abs(G - F).max() <= 1e-6

    def test_axis_error_whole_table(self):
        with pytest.raises(AxisError):
            christoffel_at(P1, Point(0.0, 5e-4, 0.0, 2.0))

    def test_domain_error_where_powers_overflow(self):
        with pytest.raises(DomainError):
            christoffel_at(P1, Point(0.0, 1.0, 0.0, 1e200))

    @settings(max_examples=300, deadline=None)
    @given(n=st.floats(1e-3, 1e3), theta=st.floats(1e-6, math.pi - 1e-6),
           r_over_n=st.floats(1.001, 1e3))
    def test_scalar_route_matches_array_route_bits(self, n, theta, r_over_n):
        # Python floats take **, 1-element arrays the C pow element by
        # element; every entry of both connection parts agrees bit for bit
        r = r_over_n * n
        ct, sn = float(np.cos(theta)), float(np.sin(theta))
        one = [np.array([x]) for x in (n, r, ct, sn)]
        powers, one_powers = _powers(n, r, ct, sn), _powers(*one)
        for scalar, array in [
                (_connection_regular(n, r, ct, sn, powers), _connection_regular(*one, one_powers)),
                (_connection_singular(n, ct, sn, powers),
                 _connection_singular(one[0], *one[2:], one_powers))]:
            scalar, array = np.array(scalar), np.concatenate(array)
            assert np.array_equal(scalar.view(np.uint64), array.view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(n=st.floats(1e-3, 1e3), theta=st.floats(1e-6, math.pi - 1e-6),
           s_over_root_n=st.floats(0.0, 1e3))
    def test_singular_powers_are_the_r_charts(self, n, theta, s_over_root_n):
        # _connection_singular reads the first five powers in either chart:
        # the s-chart's are the r-chart's at r = n + s**2, bit for bit
        s = s_over_root_n * math.sqrt(n)
        ct, sn = float(np.cos(theta)), float(np.sin(theta))
        assert _powers_s(n, s, ct, sn)[:5] == _powers(n, n + s**2, ct, sn)[:5]


def s_chart_table(n, theta, s):
    """The s-chart Christoffel table, s = sqrt(r - n), from _connection_s
    (its _S_POLAR entries divided by s) and _connection_singular on the same
    _powers_s, with _CONNECTION's index table; s must be nonzero."""
    ct, sn = float(np.cos(theta)), float(np.sin(theta))
    powers = _powers_s(n, s, ct, sn)
    values = list(_connection_s(n, s, ct, sn, powers))
    for i in _S_POLAR:
        values[i] /= s
    values += _connection_singular(n, ct, sn, powers)
    G = np.zeros((4, 4, 4))
    for (lam, mu, nu), value in zip(_CONNECTION, values):
        G[lam, mu, nu] = G[lam, nu, mu] = value
    return G


def shifted_s_chart_metric(params, p):
    """The metric in (tau, theta, phi, u) with u = n + s, from metric_at
    pulled back through r = n + s**2 (g_uu = 4 s**2 g_rr). The shift by n
    leaves every Christoffel symbol as in the s-chart, but puts the nut s = 0
    at christoffel_fd_oracle's chart edge u = n, so its interior check and
    its radial step h*(u - n) = h*s apply as they stand."""
    s = p.r - params.n
    g = metric_at(params, Point(p.tau, p.theta, p.phi, params.n + s**2))
    g[R, R] *= 4 * s**2
    return g


class TestSChartConnection:
    """The connection in the regular radial coordinate s = sqrt(r - n)."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.floats(0.5, 2.0), theta=st.floats(0.2, math.pi - 0.2),
           s_over_root_n=st.floats(0.05, 3.0))
    def test_entries_match_fd_oracle(self, n, theta, s_over_root_n):
        # the independent route: central differences of the pulled-back metric
        params = ModelParams(n=n)
        s = s_over_root_n * math.sqrt(n)
        G = s_chart_table(n, theta, s)
        F = christoffel_fd_oracle(params, Point(0.3, theta, 0.2, n + s),
                                  metric_fn=shifted_s_chart_metric)
        assert np.abs(G - F).max() <= 1e-6 * max(1.0, np.abs(G).max())

    def test_radial_entries_at_the_nut(self):
        # Gamma^s_ss = s/(s**2 + 2n) vanishes at s = 0, and the three 1/s
        # entries come times s: 2n/q, 2r/q and 2r/q with q = 2n, r = n
        values = _connection_s(1.5, 0.0, 0.6, 0.8, _powers_s(1.5, 0.0, 0.6, 0.8))
        assert all(math.isfinite(v) for v in values)
        assert values[4] == 0.0
        assert [values[i] for i in _S_POLAR] == [1.0, 1.0, 1.0]

    def test_domain_error_where_powers_overflow(self):
        # (s**2 + 2n)**3 overflows where the r-chart's (r + n)**3 does
        with pytest.raises(DomainError):
            _powers_s(1.0, 1e52, 0.6, 0.8)


class TestChristoffelOracle:
    def test_tight_step_value(self):
        F = christoffel_fd_oracle(P1, Point(0.0, np.pi / 2, 0.0, 2.0))
        assert abs(F[TAU, TAU, R] - 1 / 3) <= 1e-8

    def test_angular_entry(self):
        F = christoffel_fd_oracle(P1, Point(0.0, np.pi / 2, 0.0, 5.0))
        assert abs(F[R, THETA, THETA] - (-10 / 3)) <= 1e-6

    def test_flat_limit_sphere_values(self):
        # far from the core the angular Christoffels approach round-sphere ones
        th = 1.1
        F = christoffel_fd_oracle(P1, Point(0.0, th, 0.0, 1e4))
        assert F[PHI, PHI, THETA] == pytest.approx(1 / np.tan(th), rel=1e-3)

    def test_stencil_domain_error(self):
        with pytest.raises(DomainError):
            christoffel_fd_oracle(P1, Point(0.0, 1.0, 0.0, 1.0 + 1e-9))

    def test_stencil_leaving_theta_range(self, monkeypatch):
        # the package's axis guard (1e-3) is wider than the oracle's angle
        # step (1e-4), so the axis check refuses first; with a guard narrower
        # than the step, the stencil check does
        monkeypatch.setattr(ModelParams, "axis_guard", 1e-5)
        with pytest.raises(DomainError, match="stencil would leave theta"):
            christoffel_fd_oracle(P1, Point(0.0, 5e-5, 0.0, 2.0))


class TestFrame:
    def test_reconstruction(self):
        for params, p in interior_points(10):
            W = frame_at(params, p)
            g = metric_at(params, p)
            scale = np.abs(g).max()
            assert np.abs(W.T @ W - g).max() <= 1e-12 * scale

    def test_component_values(self):
        W = frame_at(P1, Point(0.0, np.pi / 2, 0.0, 3.0))
        assert W[1, THETA] == pytest.approx(np.sqrt(8), rel=1e-15)
        assert W[1, PHI] == pytest.approx(0.0, abs=1e-15)
        assert W[0, R] == pytest.approx(np.sqrt(2), rel=1e-15)

    def test_domain_error_where_square_overflows(self):
        # r**2 overflows a float beyond r ~ 1.3e154, as in metric_at
        with pytest.raises(DomainError):
            frame_at(P1, Point(0.0, 1.0, 0.0, 1e200))

    def test_domain_error_where_the_angle_overflows(self):
        # tau/(2n) overflows to inf, whose sine and cosine are NaN; frame_at
        # and the curvature path both build the frame in one place
        params, p = ModelParams(n=1e-20), Point(1e300, 1.1, 0.4, 3.0)
        with pytest.raises(DomainError, match="tau"):
            frame_at(params, p)
        with pytest.raises(DomainError, match="tau"):
            curvature_fd([params], [p])


def eps_reference_residual(Rfr, sign):
    """duality_residual's reference route: the dual as the full contraction
    1/2 eps_{abef} R_{efcd} with a dense Levi-Civita tensor, whose entries are
    the signs of the permutations of 0123 (-1 to the number of inversions)."""
    eps = np.zeros((4, 4, 4, 4))
    for idx in itertools.permutations(range(4)):
        eps[idx] = (-1) ** sum(a > b for a, b in itertools.combinations(idx, 2))
    dual = 0.5 * np.einsum("abef,...efcd->...abcd", eps, Rfr)
    return np.abs(Rfr - sign * dual).max(axis=(-4, -3, -2, -1))


class TestCurvature:
    def test_ricci_residual_small(self):
        assert np.abs(ricci_fd(P1, Point(0.0, np.pi / 3, 0.0, 2.0))).max() <= 1e-4
        params = ModelParams(n=0.5)
        assert np.abs(ricci_fd(params, Point(0.0, np.pi / 2, 0.0, 1.2))).max() <= 1e-4

    def test_perturbed_metric_breaks_vacuum(self):
        # oracle sensitivity: scaling g_rr by 1.01 must be loudly non-Ricci-flat
        def perturbed(params, p):
            g = metric_at(params, p)
            g[R, R] *= 1.01
            return g

        def gamma_from_perturbed(params, p):
            return christoffel_fd_oracle(params, p, metric_fn=perturbed)

        res = np.abs(ricci_fd(P1, Point(0.0, np.pi / 3, 0.0, 2.0), christoffel_fn=gamma_from_perturbed)).max()
        # measured response is 7.7e-3 here, ~1e6 times the double-FD chain noise
        assert res > 5e-3

    def test_frame_riemann_reference_values(self):
        # frozen from an exact symbolic evaluation at this point
        Rfr = frame_riemann_fd(P1, Point(0.3, np.pi / 3, 0.2, 2.0))
        assert Rfr[0, 1, 0, 1] == pytest.approx(-1 / 27, abs=1e-7)
        assert Rfr[0, 3, 0, 3] == pytest.approx(2 / 27, abs=1e-7)
        assert Rfr[1, 2, 1, 2] == pytest.approx(2 / 27, abs=1e-7)
        assert Rfr[0, 1, 2, 3] == pytest.approx(1 / 27, abs=1e-7)

    def test_self_duality_residual(self):
        assert self_duality_residual(P1, Point(0.0, np.pi / 3, 0.0, 2.0)) <= 1e-3
        assert self_duality_residual(P1, Point(0.0, np.pi / 2, 0.0, 5.0)) <= 1e-3

    def test_duality_residual_of_projected_tensor(self):
        # X + s*(*X) is s-dual because ** = 1 on two-forms in four
        # Euclidean dimensions; eps is built from permutation determinants
        eps = np.zeros((4, 4, 4, 4))
        for idx in itertools.permutations(range(4)):
            eps[idx] = np.linalg.det(np.eye(4)[list(idx)])
        X = np.random.default_rng(3).normal(size=(4, 4, 4, 4))
        X = X - X.transpose(1, 0, 2, 3)
        X = X - X.transpose(0, 1, 3, 2)
        R = X + DUALITY_SIGN * 0.5 * np.einsum("abef,efcd->abcd", eps, X)
        assert duality_residual(R) <= 1e-13
        assert duality_residual(R, sign=-DUALITY_SIGN) == pytest.approx(2 * np.abs(R).max(), rel=1e-13)

    @pytest.mark.parametrize("sign", [DUALITY_SIGN, -DUALITY_SIGN])
    def test_pair_table_matches_the_eps_contraction_on_random_tensors(self, sign):
        R = np.random.default_rng(11).normal(size=(50, 4, 4, 4, 4))
        assert np.array_equal(duality_residual(R, sign), eps_reference_residual(R, sign))
        assert duality_residual(R[0], sign) == eps_reference_residual(R[0], sign)

    @pytest.mark.parametrize("seed", [42, 7, 0])
    def test_pair_table_matches_the_eps_contraction_on_audit_tensors(self, seed, monkeypatch):
        frames = []

        def keep(n, x):
            ricci, Rfr = geometry._curvature(n, x)
            frames.append(Rfr)
            return ricci, Rfr

        monkeypatch.setattr(verify, "_curvature", keep)
        verify.curvature_audit(100, seed=seed)
        (Rfr,) = frames
        for sign in (DUALITY_SIGN, -DUALITY_SIGN):
            assert np.array_equal(duality_residual(Rfr, sign), eps_reference_residual(Rfr, sign))

    def test_self_duality_residual_reads_the_frame_tensor(self):
        p = Point(0.3, 1.1, 0.2, 2.5)
        Rfr = frame_riemann_fd(P1, p)
        for sign in (DUALITY_SIGN, -DUALITY_SIGN):
            assert self_duality_residual(P1, p, sign) == duality_residual(Rfr, sign)

    def test_opposite_projection_does_not_vanish(self):
        p = Point(0.0, np.pi / 3, 0.0, 2.0)
        norm = np.abs(frame_riemann_fd(P1, p)).max()
        assert self_duality_residual(P1, p, sign=-DUALITY_SIGN) >= 0.1 * norm


def frame_riemann_oracle(params, p):
    """The frame rotation as one 5-operand einsum over the metric-lowered
    FD Riemann tensor: a second route beside the staged contraction."""
    Rlow = np.einsum("al,lbcd->abcd", metric_at(params, p), riemann_fd(params, p))
    E = np.linalg.inv(frame_at(params, p))
    return np.einsum("ma,nb,pc,qd,mnpq->abcd", E, E, E, E, Rlow)


class TestCurvatureStack:
    def test_frame_rotation_matches_einsum_oracle(self):
        pairs = interior_points(10, seed=5)
        _, stacked = curvature_fd(*zip(*pairs))
        for (params, p), Rfr in zip(pairs, stacked):
            oracle = frame_riemann_oracle(params, p)
            scale = np.abs(oracle).max()
            assert np.abs(frame_riemann_fd(params, p) - oracle).max() <= 1e-13 * scale
            assert np.abs(Rfr - oracle).max() <= 1e-13 * scale

    def test_stack_is_the_one_point_case(self):
        pairs = interior_points(6, seed=9)
        ricci, Rfr = curvature_fd(*zip(*pairs))
        assert ricci.shape == (6, 4, 4) and Rfr.shape == (6, 4, 4, 4, 4)
        for i, (params, p) in enumerate(pairs):
            assert np.array_equal(ricci[i], ricci_fd(params, p))
            assert np.array_equal(Rfr[i], frame_riemann_fd(params, p))
        residuals = duality_residual(Rfr)
        assert residuals.shape == (6,)
        assert residuals.tolist() == [duality_residual(R) for R in Rfr]

    @pytest.mark.parametrize("bad", [
        Point(0.1, 5e-4, 0.2, 2.0),          # axis band
        Point(0.1, 1e-3 + 5e-5, 0.2, 2.0),   # stencil reaches the axis band
        Point(0.1, 1.0, 0.2, 1.0),           # r = n
        Point(0.1, 1.0, 0.2, 1.0 + 1e-17),   # r rounds to n
        Point(0.1, 1.0, 0.2, 0.5),           # below n
    ])
    def test_invalid_point_raises_like_one_point_call(self, bad):
        with pytest.raises((AxisError, DomainError)) as one:
            ricci_fd(P1, bad)
        pairs = interior_points(4, seed=2)
        pairs.insert(2, (P1, bad))
        with pytest.raises(one.type) as stacked:
            curvature_fd(*zip(*pairs))
        assert str(stacked.value) == str(one.value)

    def test_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            curvature_fd([P1, P1], [Point(0.0, 1.0, 0.0, 2.0)])
