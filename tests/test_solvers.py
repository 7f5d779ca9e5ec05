"""The package's DOP853 port against scipy's DOP853, the independent route it
reproduces: the same tableau bit for bit, and on seeded geodesic states the
same step sequence, state, next step size, rhs call count and dense output
after every step."""

import math

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate._ivp import dop853_coefficients

from taubnut import _solvers
from taubnut.geometry import ModelParams
from taubnut.integrator import _PROBES, geodesic_rhs


@pytest.mark.parametrize("name", ["N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER",
                                  "C", "A", "B", "E3", "E5", "D"])
def test_tableau_is_scipys(name):
    ours, theirs = getattr(_solvers, name), getattr(dop853_coefficients, name)
    if isinstance(theirs, int):
        assert ours == theirs
    else:
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def seeded_state(seed):
    """Model and flat stepper state (tau, theta, phi, s, dtau, dtheta, dphi,
    ds) in the s = sqrt(r - n) chart of a seeded geodesic start."""
    rng = np.random.default_rng(seed)
    n = rng.uniform(0.5, 2.0)
    theta, r = rng.uniform(0.4, math.pi - 0.4), n * rng.uniform(1.3, 4.0)
    v = rng.normal(0.0, 0.5, 4)
    s = math.sqrt(r - n)
    tau, phi = rng.uniform(-1.0, 1.0, 2)
    return ModelParams(n=n), np.array([tau, theta, phi, s, *v[:3], v[3] / (2 * s)])


def assert_same_state(ours, nfev, ref):
    """The port, whose fun has been called nfev times, is where scipy's is."""
    assert (ours.t, ours.t == ours.t_bound, ours.h_abs, nfev) == (
        ref.t, ref.status == "finished", ref.h_abs, ref.nfev)
    assert ours.y.tobytes() == ref.y.tobytes()


def assert_same_interpolant(ours, ref):
    t0, t1 = ref.t_old, ref.t
    probes = t0 + (t1 - t0) * _PROBES
    probes[-1] = t1
    for ts in (probes, np.linspace(t0, t1, 33)):
        assert ours(ts).tobytes() == ref(ts).tobytes()
    for t in probes:
        assert ours(t).tobytes() == ref(t).tobytes()


def drive_both(seed, tol, t0, t_end, first_step):
    """Step both solvers from t0 towards t_end side by side, comparing after
    every step() call, until scipy's finishes or fails; returns the rejected
    attempts, counted from scipy's rhs calls (12 an attempt), which the
    port's own count must equal after every call, and whether the run
    finished."""
    params, y0 = seeded_state(seed)
    nfev = 0

    def fun(_, y):
        return geodesic_rhs(params, y)

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    kwargs = dict(rtol=tol, atol=tol, first_step=first_step)
    ours = _solvers.DOP853(counted, t0, y0.copy(), t_end, **kwargs)
    ref = scipy.integrate.DOP853(fun, t0, y0.copy(), t_end, **kwargs)
    assert_same_state(ours, nfev, ref)
    rejected = 0
    while ref.status == "running":
        ref_nfev = ref.nfev
        stepped = ours.step()
        assert stepped == (ref.step() is None) == (ref.status != "failed")
        # every attempt of a failed call was rejected
        rejected += (ref.nfev - ref_nfev) // 12 - stepped
        assert ours.rejected == rejected
        assert_same_state(ours, nfev, ref)
        if stepped:
            assert ours.t_old == ref.t_old and ours.K.tobytes() == ref.K.tobytes()
            assert_same_interpolant(ours.dense_output(), ref.dense_output())
            assert nfev == ref.nfev
    if ref.status == "finished":
        # the last step is clipped to land on t_bound exactly
        assert ours.t == ref.t == t_end
    return rejected, ref.status == "finished"


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("tol, t0", [(1e-10, 0.0), (1e-6, 0.0), (1e-3, 0.0), (1e-10, 2.0**46)],
                         ids=["1e-10", "1e-06", "0.001", "1e-10-from-2**46"])
def test_default_first_step_steps_as_scipy(seed, tol, t0):
    _, finished = drive_both(seed, tol, t0, t0 + 3.0, None)
    # at t = 2**46 ten float spacings are 0.16: the steps these tolerances
    # need fall below that for seeds 1, 3 and 5, and both steppers fail
    assert finished == (t0 == 0.0 or seed % 2 == 0)


@pytest.mark.parametrize("seed", range(6))
def test_given_first_step_steps_as_scipy(seed):
    # the chart-exit retry path gives the first step: one this long fails
    # the error test before a shorter one passes
    assert drive_both(seed, 1e-8, 0.0, 3.0, 1.0)[0] >= 1


def test_norms_where_the_sum_of_squares_overflows():
    # x.dot(x) overflows, where numpy would warn (an error in this suite):
    # the rms norm is taken on x scaled by a power of two, and the squared
    # norm, past the float range, is inf
    x = np.array([3e200, -4e200, 0.0, 1.0])
    assert _solvers._rms(x) == pytest.approx(5e200 / 2, rel=1e-15)
    assert _solvers._norm_2(x) == math.inf
    assert _solvers._rms(np.array([math.inf, 1.0])) == math.inf
    # below the overflow both are np.linalg.norm's, bit for bit
    y = np.array([3e150, -4e150, 1e-300, 1.0])
    assert _solvers._rms(y) == np.linalg.norm(y) / 2
    assert _solvers._norm_2(y) == np.linalg.norm(y) ** 2
