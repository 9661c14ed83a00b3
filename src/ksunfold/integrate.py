"""Adaptive Runge-Kutta integration with dense output.

One step loop drives two embedded explicit pairs, chosen by
`IntegratorConfig.method`:

- "dp5" (the default): Dormand-Prince 5(4), 7 stages with the FSAL
  property (6 right-hand-side calls a step) and a free quartic interpolant.
  `simulate`, `demo`, `check_equivariance` and the period search run it.
- "dop853": Dormand-Prince 8(5,3) (Hairer, Norsett and Wanner, "Solving
  Ordinary Differential Equations I", Sec. II.10, and their DOP853 code),
  12 stages with FSAL (12 calls a step), the error of the 5th-order
  estimate corrected by the 3rd-order one, and a 7th-order interpolant
  that costs 3 more calls per accepted step.  The unfold's direct Kepler
  comparison leg runs it (`reduction.DIRECT_LEG_CONFIG`).

A step whose right-hand side evaluation lands in a forbidden region
(DomainError) is retried at half the step before the failure is surfaced
with the offending time and state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationError
from .systems import DynamicalSystem, _positive_count

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "find_return_time",
    "write_table",
]

# Dormand-Prince 5(4) tableau
_A = np.zeros((7, 7))
_A[1, 0] = 1 / 5
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4

# dense-output coefficients: y(t0 + theta*h) = y0 + h * K^T P (theta, ..., theta^4)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# Dormand-Prince 8(5,3), copied from SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py (from Hairer's DOP853 code).
# Rows 1-11 form the stages, row 12 is the 8th-order solution (its rhs is
# the FSAL stage 12), rows 13-15 the dense-output stages.
_A8 = np.zeros((16, 16))
_A8[1, 0] = 5.26001519587677318785587544488e-2
_A8[2, [0, 1]] = [1.97250569845378994544595329183e-2,
    5.91751709536136983633785987549e-2]
_A8[3, [0, 2]] = [2.95875854768068491816892993775e-2,
    8.87627564304205475450678981324e-2]
_A8[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1]
_A8[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1]
_A8[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2]
_A8[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]
_A8[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1]
_A8[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]
_A8[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209, 1.09143734899672957818500254654,
    -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
    -3.0467644718982195003823669022]
_A8[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674, -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]
_A8[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2]
_A8[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
    2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
    -8.298e-3]
_A8[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
    2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2, -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1]
_A8[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
    -4.69762141536116384314449447206, 7.68342119606259904184240953878,
    4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
    -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
    -9.15095847217987001081870187138]
# the 5th- and 3rd-order error estimates' weights of stages 0-12
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
_E3 = np.zeros(13)
_E3[:12] = _A8[12, :12]
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
# the interpolant's last four coefficient rows, from all 16 stages
_D8 = np.zeros((4, 16))
_D8[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]
# Row j holds the coefficients of theta, ..., theta^7 in theta^a (1 - theta)^b
# with a = (j + 2) // 2 and b = (j + 1) // 2, so that F^T _DOP853_POWERS is
# the DOP853 code's interpolant theta (F0 + (1 - theta) (F1 + theta (F2 +
# ...))) in the power basis
_DOP853_POWERS = np.array([
    [1, 0, 0, 0, 0, 0, 0],
    [1, -1, 0, 0, 0, 0, 0],
    [0, 1, -1, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0],
    [0, 0, 1, -3, 3, -1, 0],
    [0, 0, 0, 1, -3, 3, -1],
], dtype=float)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXP = -1.0 / 5.0  # DP5's step-size exponent


def _dp5_error(K, h, scale):
    z = (h * _E.dot(K)) / scale
    return math.sqrt(np.add.reduce(z * z) / z.size)


def _dp5_dense(K, h, y, y_new):
    return h * K.T.dot(_P)


def _dop853_error(K, h, scale):
    """The DOP853 code's norm: the 5th-order error estimate, scaled by
    |err5|^2 / sqrt(|err5|^2 + 0.01 |err3|^2) against the 3rd-order one."""
    err5 = _E5.dot(K[:13]) / scale
    err3 = _E3.dot(K[:13]) / scale
    e5, e3 = err5.dot(err5), err3.dot(err3)
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return h * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)


def _dop853_dense(K, h, y, y_new):
    dy = y_new - y
    F = np.empty((7, y.size))
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2.0 * dy - h * (K[12] + K[0])
    F[3:] = h * _D8.dot(K)
    return F.T.dot(_DOP853_POWERS)


class _Tableau(NamedTuple):
    """An embedded pair as the step loop drives it.  Row i - 1 of `stages`
    forms stage i from K[:i]; the last row forms y_new, whose rhs is the
    next step's K[0] (FSAL).  `extra` rows form the stages that only the
    dense output of an accepted step needs.  `error(K, h, scale)` is the
    RMS norm of the scaled error estimate, `dense(K, h, y, y_new)` the
    step's interpolant coefficients of theta, ..., theta^m, shape (dim, m),
    and `exponent` is -1 / (q + 1) for an error estimate of order q."""

    stages: tuple
    extra: tuple
    error: Callable
    dense: Callable
    exponent: float


_TABLEAUS = {
    "dp5": _Tableau(tuple(_A[i, :i] for i in range(1, 6)) + (_B5[:6],), (),
                    _dp5_error, _dp5_dense, _ORDER_EXP),
    "dop853": _Tableau(tuple(_A8[i, :i] for i in range(1, 13)),
                       tuple(_A8[i, :i] for i in range(13, 16)),
                       _dop853_error, _dop853_dense, -1.0 / 8.0),
}

# a step below this times max(|t|, 1) has underflowed
_FLOOR_EPS = 16.0 * float(np.finfo(float).eps)

# most rows per block in `write_table`: bounds the encoder's working memory
_CSV_BLOCK = 512

# The `%.16e` encoder forms s = |v| 10^(16-e), for the decimal exponent e
# of v, in float64 as hi + lo.  For each _POW10_MIN <= k <= _POW10_MAX,
# `_pow10_table` holds 2^c, c = floor(log2(10^k) / 2), and a double-double
# t_hi + t_lo within 2^-106 relative of t = 10^k 2^-c.  Halving the binary
# exponent between them keeps x = |v| 2^c exact and every product below in
# the normal range.  Then hi + err = x t_hi exactly (Dekker's TwoProduct)
# and lo = err + x t_lo.  With u = 2^-53, |err| and |x t_lo| are at most
# u (1 + u) s, so the table's error (u^2 s), the rounding of x t_lo (u^2 s)
# and of lo (2 u^2 s), and that of the fraction of lo (2^-54, under
# 0.46 u^2 s for s >= 1e16) put that fraction within 4.5 u^2 s of exact.
# _ROUND_EPS is 8 u^2: under 1e-14 for s < 1e17.
_POW10_MIN, _POW10_MAX = -360, 360
_ROUND_EPS = 2.0 ** -103
_VELTKAMP = 2.0 ** 27 + 1.0  # splits a 53-bit significand in two halves
# exponent e of a value is stored at index e + _EXP_BIAS
_EXP_BIAS = 400
_ENCODER_TABLES = None  # built by `_encoder_tables` on first use

# iteration cap of `_safeguarded_newton`, and the largest last step,
# relative to max(1, |x|), of the roots it refines
_ROOT_MAX_ITER = 64
_ROOT_TOL = 1e-14


def brentq(*args, **kwargs):
    """SciPy's `brentq`, imported only when called; ksunfold never calls it.
    Bound here and in `reduction` only because the benchmark's tracer
    (bench/tracing.py) patches `brentq` on both modules by name; ROADMAP
    item 5 (a tracer that tolerates its absence) removes it."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(*args, **kwargs)


def _safeguarded_newton(fdf, lo, hi, x, tol):
    """Roots of increasing brackets, elementwise: f(lo) <= 0 <= f(hi).

    `fdf(x)` returns (f(x), f'(x)).  Each iteration shrinks the bracket to
    the sign of f at x, then takes the Newton step if it lands inside the
    bracket and bisects otherwise (f' = 0 included), on every element at
    once, until every last step is at most tol max(1, |x|) or after
    _ROOT_MAX_ITER iterations (Numerical Recipes' `rtsafe`)."""
    for _ in range(_ROOT_MAX_ITER):
        f, df = fdf(x)
        lo = np.where(f <= 0.0, x, lo)
        hi = np.where(f >= 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / df
        inside = (newton >= lo) & (newton <= hi)
        step = np.where(inside, newton, 0.5 * (lo + hi)) - x
        x = x + step
        if not np.any(np.abs(step) > tol * np.maximum(1.0, np.abs(x))):
            break
    return x


def _up_crossings(times, g, fdf):
    """Refined up-crossings of g, in order: for each node pair with
    g[i] < 0 <= g[i + 1], the root of `fdf` (as `_safeguarded_newton`
    takes it) in [times[i], times[i + 1]], started from the secant point."""
    for i in np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0)):
        g0, g1 = g[i], g[i + 1]
        lo, hi = times[i], times[i + 1]
        yield float(_safeguarded_newton(
            fdf, lo, hi, lo + (hi - lo) * (g0 / (g0 - g1)), _ROOT_TOL))


def write_table(path, header, table):
    """CSV of a float table: the header through `csv.writer`, then every
    value as `%.16e` (17 significant digits, as f"{v:.16e}"), CRLF line
    ends, encoded by `_encode_rows` in blocks of at most _CSV_BLOCK rows of
    nearly equal size."""
    table = np.asarray(table, dtype=float)
    n = len(table)
    blocks = -(-n // _CSV_BLOCK)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()  # the body goes to the byte stream under the text layer
        for i in range(blocks):
            fh.buffer.write(_encode_rows(
                table[i * n // blocks:(i + 1) * n // blocks]))


def _pow10_table():
    """(2^c, t_hi, t_lo) for each _POW10_MIN <= k <= _POW10_MAX, with
    c = floor(log2(10^k) / 2), t_hi the double nearest t = 10^k 2^-c and t_lo
    the double nearest t - t_hi, from exact integer ratios (an int / int
    quotient is correctly rounded)."""
    scale, t_hi, t_lo = [], [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        n, d = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)  # 10^k = n / d
        b = n.bit_length() - d.bit_length()
        b -= (n << max(-b, 0)) < (d << max(b, 0))  # now b = floor(log2 n/d)
        c = b // 2
        n, d = (n, d << c) if c >= 0 else (n << -c, d)  # t = n / d
        hi = n / d
        m, q = hi.as_integer_ratio()
        scale.append(math.ldexp(1.0, c))
        t_hi.append(hi)
        t_lo.append((n * q - m * d) / (d * q))
    return np.array(scale), np.array(t_hi), np.array(t_lo)


def _encoder_tables():
    """(`_pow10_table`, 4-digit words, exponent head and tail words) of
    `_encode_rows`, built once."""
    global _ENCODER_TABLES
    if _ENCODER_TABLES is None:
        quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
        e = np.arange(-_EXP_BIAS, _EXP_BIAS + 1)
        ae = np.abs(e)
        head = (ord("e") + np.where(e < 0, ord("-"), ord("+")) * 2 ** 8
                + np.where(ae >= 100, 48 + ae // 100, 0) * 2 ** 16
                + (48 + ae // 10 % 10) * 2 ** 24)
        _ENCODER_TABLES = (_pow10_table(),
                           (48 + quads).astype(np.uint8).view("<u4").ravel(),
                           head.astype("<u4"), (48 + ae % 10).astype("<u4"))
    return _ENCODER_TABLES


def _split(x):
    """Veltkamp's split: x = high + low exactly, each half of 26 bits (the
    sign carries the 53rd)."""
    c = x * _VELTKAMP
    high = c - (c - x)
    return high, x - high


def _scaled(a, k):
    """s = a 10^k as hi + lo, for positive finite a and integers k in the
    table: hi is the double nearest s, and hi + lo is within 4.01 u^2 s of s
    (see _ROUND_EPS)."""
    scale, t_hi, t_lo = _encoder_tables()[0]
    i = k - _POW10_MIN
    x = a * scale.take(i, mode="clip")
    t = t_hi.take(i, mode="clip")
    (xh, xl), (th, tl) = _split(x), _split(t)
    hi = x * t
    err = ((xh * th - hi) + xh * tl + xl * th) + xl * tl
    return hi, err + x * t_lo.take(i, mode="clip")


def _fallback_text(values):
    """`%.16e` of each value, NUL-padded to 25 bytes."""
    text = np.array(["%.16e" % v for v in values.tolist()], dtype="S25")
    return text.view(np.uint8).reshape(-1, 25)


def _encode_rows(block):
    """The CSV body of a (rows, cols) float block, as a uint8 array of the
    bytes that formatting every value with `"%.16e" %`, joined by "," with
    CRLF row ends, gives.

    For finite nonzero v with decimal exponent e, s = |v| 10^(16-e) lies in
    [1e16, 1e17) and `_scaled` gives it as hi + lo with hi an integer and
    the fraction of lo within _ROUND_EPS s of exact, so the 17 digits are
    D = hi + floor(lo) + [frac(lo) > 1/2] unless that fraction is within
    the bound of 1/2 (exact ties among them).  Those values and the
    non-finite ones take `_fallback_text`.  Zero has D = 0 and e = 0.
    """
    _, quads, exp_head, exp_tail = _encoder_tables()
    rows, cols = block.shape
    v = block.reshape(-1)
    finite = np.isfinite(v)
    zero = v == 0.0
    a = np.where(finite & ~zero, np.abs(v), 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    s_hi, s_lo = _scaled(a, 16 - e)
    floor = np.floor(s_lo)
    d = s_hi.astype(np.int64) + floor.astype(np.int64)
    # next to a power of ten log10 can miss e by one
    low, high = d < 10 ** 16, d >= 10 ** 17
    miss = np.flatnonzero(low | high)
    if miss.size:
        e += high
        e -= low
        s_hi[miss], s_lo[miss] = _scaled(a[miss], 16 - e[miss])
        floor[miss] = np.floor(s_lo[miss])
        d[miss] = s_hi[miss].astype(np.int64) + floor[miss].astype(np.int64)
    frac = s_lo - floor
    exact = finite & (d >= 10 ** 16) & (
        np.abs(frac - 0.5) > _ROUND_EPS * (s_hi + s_lo))
    d += frac > 0.5
    exact &= d <= 10 ** 17
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    d[zero] = 0
    e[zero] = 0
    hi = d // 10 ** 8
    lo = (d - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    # a value is 7 little-endian words (28 bytes), NUL bytes dropped:
    #   NUL sign D "." | DDDD | DDDD | DDDD | DDDD | "e" sign H T | U sep NUL
    # sign is "-" or NUL, H the exponent's hundreds digit or NUL, and sep
    # "," NUL after a row's inner values and CR LF after its last
    w = np.empty((7, v.size), dtype="<u4")
    np.multiply(np.signbit(v), np.uint32(ord("-") << 8), out=w[0])
    w[0] += (lead << 16) + np.uint32(0x2E300000)
    # every index is in range; "clip" only spares take a checked copy
    q = hi // 10 ** 4
    np.take(quads, q, out=w[1], mode="clip")
    np.take(quads, hi - q * 10 ** 4, out=w[2], mode="clip")
    q = lo // 10 ** 4
    np.take(quads, q, out=w[3], mode="clip")
    np.take(quads, lo - q * 10 ** 4, out=w[4], mode="clip")
    e += _EXP_BIAS
    np.take(exp_head, e, out=w[5], mode="clip")
    np.take(exp_tail, e, out=w[6], mode="clip")
    sep = np.full(cols, ord(",") << 8, dtype="<u4")
    sep[-1] = 0x0A0D00
    w[6].reshape(rows, cols)[:] += sep
    out = np.ascontiguousarray(w.T).view(np.uint8)
    bad = np.flatnonzero(~exact)
    if bad.size:
        out[bad, :25] = _fallback_text(v[bad])
    return np.frombuffer(out.tobytes().translate(None, b"\0"), np.uint8)


def _require_finite_positive(name, value):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, the cap on step attempts, and the pair: "dp5" (the
    default, and what every caller but the unfold's direct leg runs) or
    "dop853" (that leg's, at rel_tol 1e-11; see `reduction`).  A bad field
    raises ValueError naming it."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10_000_000
    method: str = "dp5"

    def __post_init__(self):
        _require_finite_positive("rel_tol", self.rel_tol)
        _require_finite_positive("abs_tol", self.abs_tol)
        _positive_count("max_steps", self.max_steps)
        if not isinstance(self.method, str) or self.method not in _TABLEAUS:
            raise ValueError(f"method must be 'dp5' or 'dop853', got "
                             f"{self.method!r}")


@dataclass(frozen=True)
class Trajectory:
    """Accepted times, states, monitor values, and per-step interpolants.

    `dense` holds each step's interpolant in the power basis, shape
    (n_steps, dim, m) with m = 4 (DP5) or 7 (DOP853), so the state inside
    step i is states[i] + dense[i] @ (theta, theta^2, ..., theta^m) with
    theta = (t - times[i]) / (times[i+1] - times[i]).

    `stats` holds the integrator's counts: `rhs_evals` (every right-hand
    side call, failed ones included), `rejected_steps` (error test failed)
    and `domain_retries` (a right-hand side raised DomainError and the step
    was shrunk).
    """

    times: np.ndarray
    states: np.ndarray
    monitors: dict = field(default_factory=dict)
    dense: Optional[np.ndarray] = None
    state_names: tuple = ()
    stats: dict = field(default_factory=dict)

    def _locate(self, t):
        """For times t inside the span (to 1e-12), the index i of the step
        [times[i], times[i+1]] holding each, the position theta in [0, 1]
        inside it, and the step's length."""
        if self.dense is None:
            raise ValueError("trajectory has no dense output")
        t = np.asarray(t, dtype=float)
        nodes = self.times
        if np.any(t < nodes[0] - 1e-12) or np.any(t > nodes[-1] + 1e-12):
            raise ValueError("time outside trajectory span")
        idx = np.clip(np.searchsorted(nodes, t, side="right") - 1,
                      0, len(nodes) - 2)
        h = nodes[idx + 1] - nodes[idx]
        theta = np.clip((t - nodes[idx]) / h, 0.0, 1.0)
        return idx, theta, h

    def eval(self, t):
        """Dense-output states at times t (scalar or array) inside the span."""
        idx, theta, _ = self._locate(t)
        return self._value(idx, theta, self.dense[idx])

    def deriv(self, t):
        """Time derivative of the interpolant at times t inside the span."""
        idx, theta, h = self._locate(t)
        return _slope(theta, h, self.dense[idx])

    def eval_and_deriv(self, t):
        """(`eval(t)`, `deriv(t)`), locating t and indexing `dense` once."""
        idx, theta, h = self._locate(t)
        coeffs = self.dense[idx]
        return self._value(idx, theta, coeffs), _slope(theta, h, coeffs)

    def _value(self, idx, theta, coeffs):
        powers = np.stack([theta**p for p in range(1, coeffs.shape[-1] + 1)],
                          axis=-1)
        return self.states[idx] + np.einsum("...dm,...m->...d", coeffs, powers)

    def to_csv(self, path):
        """State and monitor columns at accepted steps, 17 significant digits."""
        names = self.state_names or tuple(
            f"s{i}" for i in range(self.states.shape[1])
        )
        write_table(path, ["t", *names, *self.monitors],
                    np.column_stack([self.times, self.states,
                                     *self.monitors.values()]))


def _slope(theta, h, coeffs):
    """d/dt of the interpolants `coeffs` at theta, steps of length h."""
    dpow = np.stack([p * theta**(p - 1)
                     for p in range(1, coeffs.shape[-1] + 1)], axis=-1)
    return np.einsum("...dm,...m->...d", coeffs, dpow) / h[..., None]


def _monitor_values(system, monitors, states):
    obs = system.monitors if monitors is None else tuple(monitors)
    out = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for o in obs:
            out[o.name] = np.asarray(o.fn(states), dtype=float)
    return out


def _initial_step(f, y0, f0, t_end, cfg, exponent):
    """Hairer-Norsett-Wanner starting-step heuristic for an error estimate
    with step-size `exponent` -1 / (q + 1), clipped to the span; returns
    the step and whether its rhs probe raised DomainError."""
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    try:
        f1 = f(y0 + h0 * f0)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    except DomainError:
        return min(h0 * 1e-3, t_end), True
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -exponent
    return min(100 * h0, h1, t_end), False


def _stats(nfev, rejected, retries) -> dict:
    return {"rhs_evals": nfev, "rejected_steps": rejected,
            "domain_retries": retries}


def _failure(message, t, y, stats, nonfinite=0) -> IntegrationError:
    counts = ", ".join(f"{k}={v}" for k, v in stats.items())
    note = (f"; rhs returned inf or NaN, or the error estimate overflowed, "
            f"on {nonfinite} rejected attempts" if nonfinite else "")
    return IntegrationError(f"{message} ({counts}){note}", t=t, state=y,
                            stats=stats)


def integrate(
    system: DynamicalSystem,
    s0,
    t_end: float,
    config: Optional[IntegratorConfig] = None,
    monitors: Optional[Sequence] = None,
    t0: float = 0.0,
) -> Trajectory:
    """Integrate ds/dt = rhs(s) from t0 to t_end with the pair that
    `config.method` names (DP5 by default)."""
    cfg = config or IntegratorConfig()
    tab = _TABLEAUS[cfg.method]
    t0, t_end = float(t0), float(t_end)
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    y = np.array(s0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"initial state must be finite, got {y}")
    f = system.rhs
    t = t0
    k0 = f(y)  # a bad initial state surfaces immediately

    h, probe_failed = _initial_step(f, y, k0, t_end - t0, cfg, tab.exponent)
    nfev = 2  # k0 and the step-size probe
    rejected = 0
    retries = int(probe_failed)
    ts = [t]
    ys = [y.copy()]
    dense = []
    n_main = len(tab.stages)
    K = np.empty((1 + n_main + len(tab.extra), y.size))
    # each stage row with the view of K it combines; views stay current
    stages = [(row, K[:i]) for i, row in enumerate(tab.stages, 1)]
    extra = [(row, K[:i]) for i, row in enumerate(tab.extra, n_main + 1)]
    error_norm, dense_of, exponent = tab.error, tab.dense, tab.exponent
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    abs_y = np.abs(y)
    attempts = 0
    nonfinite = 0  # rejected attempts whose error norm was inf or NaN
    last_domain_error = None

    while t < t_end:
        attempts += 1
        if attempts > cfg.max_steps:
            raise _failure(f"step count exceeded max_steps={cfg.max_steps}",
                           t, y, _stats(nfev, rejected, retries), nonfinite)
        if h < _FLOOR_EPS * max(abs(t), 1.0):
            detail = (f": rhs domain error persisted ({last_domain_error})"
                      if last_domain_error is not None else "")
            raise _failure(
                f"step size {h:.3g} underflowed at t={t:.6g}{detail}",
                t, y, _stats(nfev, rejected, retries), nonfinite)
        clamped = t + h >= t_end
        h_step = t_end - t if clamped else h
        K[0] = k0
        # K[i] is the attempt's i-th rhs call, so i counts them
        try:
            for i, (row, Ki) in enumerate(stages, 1):
                y_new = y + h_step * row.dot(Ki)
                K[i] = f(y_new)
            abs_new = np.abs(y_new)
            scale = abs_tol + rel_tol * np.maximum(abs_y, abs_new)
            err = error_norm(K, h_step, scale)
            if extra and err <= 1.0:
                for i, (row, Ki) in enumerate(extra, n_main + 1):
                    K[i] = f(y + h_step * row.dot(Ki))
        except DomainError as exc:
            nfev += i
            retries += 1
            h = h_step / 2.0
            last_domain_error = exc
            continue
        nfev += i
        if err <= 1.0:
            t_new = t_end if clamped else t + h_step
            dense.append(dense_of(K, h_step, y, y_new))
            ts.append(t_new)
            ys.append(y_new)
            t, y, k0, abs_y = t_new, y_new, K[n_main].copy(), abs_new
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err**exponent
            )
            h = h_step * factor
        else:
            rejected += 1
            nonfinite += not math.isfinite(err)
            h = h_step * max(_MIN_FACTOR, _SAFETY * err**exponent)

    times = np.array(ts)
    states = np.array(ys)
    return Trajectory(
        times=times,
        states=states,
        monitors=_monitor_values(system, monitors, states),
        dense=np.array(dense),
        state_names=system.state_names,
        stats=_stats(nfev, rejected, retries),
    )


def find_return_time(
    traj,
    reference,
    tol: float,
    components: Optional[Sequence[int]] = None,
) -> float:
    """First t > t0 at which the trajectory returns within `tol` of
    `reference` (optionally comparing only the listed state components).

    `traj` is a dense `Trajectory` or any flow with the same `times`,
    `states`, `eval`, `deriv` and `eval_and_deriv` (such as the closed-form
    unfold flow); each Newton iteration calls `eval_and_deriv` once.
    Detection: the trajectory must first leave a neighbourhood of the
    reference; afterwards, crossings of the hyperplane through the reference
    normal to the flow direction there are bracketed on the node grid
    and refined by `_safeguarded_newton` on the state and its derivative,
    from the secant point of the bracket.
    """
    ref = np.asarray(reference, dtype=float).reshape(-1)
    comp = np.arange(ref.size) if components is None else np.asarray(components)
    refc = ref[comp]

    # flow direction at the reference: interpolant derivative where the
    # trajectory is closest to it (the start, in every supported use)
    diff_nodes = traj.states[:, comp] - refc
    dist_nodes = np.linalg.norm(diff_nodes, axis=1)
    w = traj.deriv(traj.times[int(np.argmin(dist_nodes))])[comp]
    wn = np.linalg.norm(w)
    if wn == 0.0:
        raise ValueError("flow direction vanishes at the reference")
    w = w / wn

    g_nodes = diff_nodes @ w
    departed = dist_nodes > max(4.0 * tol, 0.25 * float(np.max(dist_nodes)))
    if not np.any(departed):
        raise ValueError("trajectory never leaves the reference neighbourhood")
    start = int(np.argmax(departed))

    def fdf(t):
        state, slope = traj.eval_and_deriv(t)  # one flow evaluation
        return (state[comp] - refc) @ w, slope[comp] @ w

    for t_star in _up_crossings(traj.times[start:], g_nodes[start:], fdf):
        if np.linalg.norm(traj.eval(t_star)[comp] - refc) < tol:
            return t_star
    raise ValueError("no return within the trajectory span")
