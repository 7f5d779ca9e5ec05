"""DOP853 stepping and array Brent root finding, in numpy alone.

DOP853 is the explicit Runge-Kutta 8(5,3) pair of Dormand and Prince with
its 7th-order dense output, as coded by Hairer (E. Hairer, S. P. Norsett and
G. Wanner, Solving Ordinary Differential Equations I, 2nd ed., Springer 1993,
sections II.5-6, and the Fortran code DOP853). `DOP853` ports the DOP853 path
of scipy.integrate (scipy/integrate/_ivp: rk.py, base.py, common.py and the
tableau dop853_coefficients.py, copied digit for digit below). The initial
step choice, each step, the E3/E5 error norm and the interpolant run the same
IEEE operations in the same order, so every trajectory is bit for bit the one
scipy's DOP853 gives. Where the calls differ from scipy's, they round the
same: a stage state is summed in place (dy = K[:s].T a, dy *= h, dy += y for
scipy's y + np.dot(K[:s].T, a) * h) on views of the stage array built once
per stepper, an error norm is the sqrt(x.dot(x)) that np.linalg.norm takes
of a 1-d array, and the step control runs on Python floats, whose arithmetic,
abs, nextafter and ** are those of numpy's float64 scalars. Left out is what
the package never uses: backward integration, max_step, vector tolerances,
complex or vectorized systems, the argument checks IntegrationConfig makes
first, scipy's status strings and messages, its rhs-call counter (the
caller's fun counts its own calls) and its dense-output class (dense_output()
returns the interpolant as a function). step() returns whether it stepped.

`brentq` runs the iteration of scipy's Zeros/brentq.c on arrays of brackets,
so each root is bit for bit the one scipy.optimize.brentq returns.

The ported code is covered by scipy's license:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RangeError

# The DOP853 tableau: stages 0-11 step, stage 12 is the end point, and
# stages 13-15 exist only for the dense output.
N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3


SAFETY = 0.9  # multiplies the step size the error's asymptotics suggest
MIN_FACTOR = 0.2  # smallest factor a rejected attempt shrinks the step by
MAX_FACTOR = 10  # largest factor an accepted step grows the next one by


def _stages(K, rows):
    """(K[s], K[:s].T, A[s, :s], C[s]) of the stages s in rows: the views
    into the stage array K that a stage reads and writes, and its tableau
    row and node, laid out as scipy reads them."""
    return [(K[s], K[:s].T, A[s, :s], float(C[s])) for s in rows]


def _rms(x):
    """scipy's rms norm, np.linalg.norm(x) / sqrt(x.size). Where the sum of
    squares overflows, it is taken on x scaled by a power of two instead, so
    the norm is finite wherever it fits a float, and inf, with no warning,
    past that."""
    sq = np.vdot(x, x)  # x.dot(x) bit for bit, without its overflow warning
    if sq == np.inf:
        k = np.frexp(np.max(np.abs(x)))[1]  # 0 when x holds an inf: the norm stays inf
        x = np.ldexp(x, -k)
        with np.errstate(over="ignore"):  # inf past the float range
            return np.ldexp(np.sqrt(np.vdot(x, x)) / x.size ** 0.5, k)
    return np.sqrt(sq) / x.size ** 0.5


def _norm_2(x):
    """The squared norm of a 1-d array as scipy takes it, np.linalg.norm(x)**2;
    inf, with no warning, where the sum of squares overflows."""
    return math.sqrt(np.vdot(x, x)) ** 2


class DOP853:
    """DOP853 for y' = fun(t, y) from t0 towards t_bound > t0, driven one
    step at a time: t, y, f (fun at t, y), h_abs (the next step to try), K
    (the stage derivatives of the last attempt, end point included),
    rejected (attempts the error test refused, added as step() returns),
    t_old, y_old, step() and dense_output(). A run has finished when
    t == t_bound. fun returns a float array shaped like y. first_step=None
    picks the first step as scipy does (Hairer's algorithm, Solving ODEs I,
    section II.4)."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, first_step=None):
        self.fun = fun
        self.t, self.y, self.t_bound = t0, np.asarray(y0, dtype=float), t_bound
        self.rtol, self.atol = rtol, atol
        self.rejected = 0
        self.t_old = self.y_old = None
        self.f = fun(t0, self.y)
        self.h_abs = float(self._initial_step()) if first_step is None else first_step
        self.K_extended = K = np.empty((N_STAGES_EXTENDED, self.y.size))
        self.K = K[:N_STAGES + 1]
        # stages 1-11, then the end point: A[N_STAGES, :N_STAGES] is B and
        # C[N_STAGES] is 1, so its state is the step's y_new
        self._step_stages = _stages(K, range(1, N_STAGES + 1))
        self._extra_stages = _stages(K, range(N_STAGES + 1, N_STAGES_EXTENDED))
        self._KT_error = self.K.T  # the stages E3 and E5 weigh

    def _initial_step(self):
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        with np.errstate(over="ignore", invalid="ignore"):  # d1 = inf makes h0 0
            d1 = _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        with np.errstate(over="ignore", invalid="ignore"):  # as scipy: inf -> h1 = 0, 0/0 -> NaN
            d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval_length)

    def _run_stages(self, stages, t, y, h):
        """K[s] = fun(t + c h, y + h K[:s].T a) for each stage, its state
        summed in place; h multiplies as a 0-d array, which numpy takes
        without converting a Python float each stage. Returns the last
        stage's state and fun's value there."""
        fun, h_arr = self.fun, np.array(h)
        for row, KT, a, c in stages:
            dy = KT.dot(a)
            dy *= h_arr
            dy += y
            row[...] = f = fun(t + c * h, dy)
        return dy, f

    def _estimate_error_norm(self, h, scale):
        err5 = self._KT_error.dot(E5)
        err5 /= scale
        err3 = self._KT_error.dot(E3)
        err3 /= scale
        err5_norm_2 = _norm_2(err5)
        err3_norm_2 = _norm_2(err3)
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        if denom == 0:  # 0.01 * err3_norm_2 underflowed: scipy's 0/0
            return math.nan
        return abs(h) * err5_norm_2 / math.sqrt(denom * scale.size)

    def step(self):
        """Attempt steps from t until one passes the error test and advance
        to it, the last one clipped to land on t_bound exactly: True. False,
        with t and y unchanged, once the step is NaN or would fall below ten
        float spacings of t. Either adds the refused attempts to rejected."""
        t, y = self.t, self.y
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        abs_y = np.abs(y)
        rejected = 0
        while True:
            if not h_abs >= min_step:  # NaN too, on which scipy loops forever
                self.rejected += rejected
                return False
            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            self.K[0] = self.f
            y_new, f_new = self._run_stages(self._step_stages, t, y, h)
            scale = np.maximum(abs_y, np.abs(y_new))
            scale *= self.rtol
            scale += self.atol
            error_norm = self._estimate_error_norm(h, scale)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** (-1 / 8))
            rejected += 1
        factor = MAX_FACTOR if error_norm == 0 else SAFETY * error_norm ** (-1 / 8)
        factor = min(1 if rejected else MAX_FACTOR, factor)
        self.rejected += rejected
        self.t_old, self.y_old = t, y
        self.t, self.y, self.h_abs, self.f = t_new, y_new, h_abs * factor, f_new
        return True

    def dense_output(self):
        """The 7th-order interpolant over the last accepted step [t_old, t]:
        called with a time it returns the state, with a 1-d array of times
        the states as columns. Its three extra stages cost three calls of
        fun."""
        K = self.K_extended
        t_old, y_old = self.t_old, self.y_old
        h = self.t - t_old
        self._run_stages(self._extra_stages, t_old, y_old, h)
        F = np.empty((INTERPOLATOR_POWER, self.y.size))
        f_old = K[0]
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(D, K)

        def interpolant(t):
            t = np.asarray(t)
            x = (t - t_old) / h
            if t.ndim == 0:
                y = np.zeros_like(y_old)
            else:
                x = x[:, None]
                y = np.zeros((len(x), len(y_old)))
            for i, f in enumerate(reversed(F)):
                y += f
                if i % 2 == 0:
                    y *= x
                else:
                    y *= 1 - x
            y += y_old
            return y.T

        return interpolant


def brentq(f, a, b):
    """Roots of f in the brackets [a, b], one per element, by the iteration
    of scipy's Zeros/brentq.c with xtol = 1e-14, rtol = 4 machine epsilons
    and at most 100 iterations, so each root is bit for bit the one scipy's
    brentq returns for that element alone.

    f(x, idx) evaluates the function of the elements idx (indices into a
    and b) at x. Every element runs its own state machine; np.where makes
    each one's choice between inverse quadratic extrapolation, secant
    interpolation and bisection. An element that converges is written out
    and dropped, so f sees only the elements still iterating. A NaN from f
    raises DomainError, equal signs at an element's bracket ends
    DomainError, and an element still iterating after 100 steps
    RangeError."""
    xtol, rtol = 1e-14, 4 * np.finfo(float).eps
    xpre, xcur = (np.array(v, dtype=float).reshape(-1) for v in np.broadcast_arrays(a, b))
    out = np.empty_like(xcur)
    idx = np.arange(out.size)
    fpre, fcur = f(xpre, idx), f(xcur, idx)
    if np.any(np.isnan(fpre)) or np.any(np.isnan(fcur)):
        raise DomainError("root solve met a NaN function value")
    ends = (fpre == 0) | (fcur == 0)
    out[ends] = np.where(fpre == 0, xpre, xcur)[ends]
    if np.any(~ends & (np.signbit(fpre) == np.signbit(fcur))):
        raise DomainError("root solve needs f(a) and f(b) of different signs")
    xpre, xcur, fpre, fcur, idx = (v[~ends] for v in (xpre, xcur, fpre, fcur, idx))
    xblk, fblk, spre, scur = (np.zeros_like(xcur) for _ in range(4))
    if idx.size == 0:
        return out
    for _ in range(100):
        # a sign change between pre and cur makes pre the new contrapoint
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        # cur is always the end with the smaller |f|
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            out[idx[done]] = xcur[done]
            live = ~done
            xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, idx = (
                v[live] for v in (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, idx))
            if idx.size == 0:
                return out
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolated = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolated = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolated, extrapolated)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, idx)
        if np.any(np.isnan(fcur)):
            raise DomainError("root solve met a NaN function value")
    raise RangeError(f"root solve did not converge in 100 iterations ({idx.size} left)")
