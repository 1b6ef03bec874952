"""The three special functions the package needs: the logistic ``expit`` and
the standard normal cdf ``ndtr`` and quantile ``ndtri``.

``ndtr`` and ``ndtri`` transcribe Cephes ``ndtr.c`` and ``ndtri.c``
(Moshier 1989), the routines behind ``scipy.special``, so they return the
same bytes: the same coefficients, the same branch points, the same order
of operations (plain multiply and add, no fused multiply-add), and ``exp``
and ``log`` from the C library through ``math``. numpy's vectorized
``exp`` and ``log`` round differently from the C library on some inputs,
so they call ``math`` on just the rows whose branch needs it. Both read
their input as a float64 array and return ``np.float64`` for a scalar or a
0-d array, as scipy does. ``ndtr_float`` is ``ndtr`` of one float in pure
``math``, for the critical-value solve's many scalar calls.
"""

from __future__ import annotations

import math

import numpy as np

# erf on |x| <= 1: x * T(x^2) / U(x^2)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
# erfc on 1 <= z < 8: exp(-z^2) * P(z) / Q(z)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc on z >= 8: exp(-z^2) * R(z) / S(z)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_t0, _t1, _t2, _t3, _t4 = _T
_u0, _u1, _u2, _u3, _u4 = _U
_p0, _p1, _p2, _p3, _p4, _p5, _p6, _p7, _p8 = _P
_q0, _q1, _q2, _q3, _q4, _q5, _q6, _q7 = _Q
_MAXLOG = 7.09782712893383996843E2
_SQRTH = 7.07106781186547524401E-1

# ndtri on exp(-2) < y < 1 - exp(-2): y + y * y^2 * P0(y^2) / Q0(y^2), y = p - 1/2
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# ndtri tails, x = sqrt(-2 log y) < 8: z * P1(z) / Q1(z), z = 1/x
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# ndtri tails, x >= 8
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_S2PI = 2.50662827463100050242E0
_EXPM2 = 0.13533528323661269189  # exp(-2)
_UPPER = 1.0 - _EXPM2


def _polevl(x, coef):
    """Horner's rule from ``coef[0]``, on a float or (in place) an array."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """Horner's rule with an implicit leading coefficient of one."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ratio(x, num, den, scale):
    """``scale * num(x) / den(x)``, rounded in Cephes' order."""
    ans = _polevl(x, num)
    ans *= scale
    ans /= _p1evl(x, den)
    return ans


def _map_c(fn, v):
    """``fn`` (``math.exp`` or ``math.log``) on each value of ``v``."""
    return np.fromiter(map(fn, v.tolist()), float, v.size)


# ---------------------------------------------------------------------------
# ndtr

def ndtr_float(a: float) -> float:
    """``ndtr`` of one float, as a float. The critical-value solve calls
    this about 130 times per replication, so the two common branches
    evaluate their polynomials unrolled."""
    if a >= 9.0:
        # the upper tail is below 1.2e-19 here, far under half an ulp of 1
        # (2**-54), so Cephes' 1 - y is exactly 1
        return 1.0
    if a != a:
        return math.nan
    x = a * _SQRTH
    z = abs(x)
    if z < 1.0:
        t = x if z < _SQRTH else z
        w = t * t
        erf = (t * ((((_t0 * w + _t1) * w + _t2) * w + _t3) * w + _t4)
               / (((((w + _u0) * w + _u1) * w + _u2) * w + _u3) * w + _u4))
        if z < _SQRTH:
            return 0.5 + 0.5 * erf
        y = 0.5 * (1.0 - erf)
    else:
        e = -z * z
        if e < -_MAXLOG:
            y = 0.0
        elif z < 8.0:
            y = 0.5 * (math.exp(e) * ((((((((
                _p0 * z + _p1) * z + _p2) * z + _p3) * z + _p4) * z + _p5) * z + _p6)
                * z + _p7) * z + _p8) / ((((((((
                    z + _q0) * z + _q1) * z + _q2) * z + _q3) * z + _q4) * z + _q5)
                    * z + _q6) * z + _q7))
        else:
            y = 0.5 * _ratio(z, _R, _S, math.exp(e))
    return 1.0 - y if x > 0 else y


def ndtr(a):
    """Standard normal cdf, byte for byte ``scipy.special.ndtr``."""
    a = np.asarray(a, dtype=float)
    xs = a.reshape(-1) * _SQRTH
    z = np.abs(xs)  # NaN rows match no branch and stay NaN
    small = np.flatnonzero(z < 1.0)
    large = np.flatnonzero(z >= 1.0)
    if small.size:
        # erf(|x|) / 2 serves both signs: Cephes gives 0.5 + erf(x) / 2 below
        # SQRTH and 1 - erfc(|x|) / 2 = 1 - (0.5 - erf / 2) above it for x > 0
        v = z[small]
        h = _ratio(v * v, _T, _U, v)
        h *= 0.5
        lower = 0.5 - h
        upper = np.where(v < _SQRTH, 0.5 + h, 1.0 - lower)
        z[small] = np.where(xs[small] > 0, upper, lower)
    if large.size:
        v = z[large]
        with np.errstate(over="ignore"):
            e = -v
            e *= v
        y = np.zeros(v.size)  # erfc(v), left at 0 where exp(-v^2) underflows
        live = np.flatnonzero(e >= -_MAXLOG)
        w = v[live]
        ex = _map_c(math.exp, e[live])
        near = w < 8.0
        if near.all():
            y[live] = _ratio(w, _P, _Q, ex)
        else:
            y[live] = np.where(near, _ratio(w, _P, _Q, ex), _ratio(w, _R, _S, ex))
        y *= 0.5
        np.subtract(1.0, y, out=y, where=xs[large] > 0)
        z[large] = y
    return z.reshape(a.shape)[()]


# ---------------------------------------------------------------------------
# ndtri

def ndtri(y0):
    """Standard normal quantile, byte for byte ``scipy.special.ndtri``."""
    p = np.asarray(y0, dtype=float)
    out = np.empty(p.shape)
    o = out.reshape(-1)
    ps = p.reshape(-1)
    upper = ps > _UPPER
    y = np.where(upper, 1.0 - ps, ps)
    is_central = y > _EXPM2
    central = np.flatnonzero(is_central)
    if central.size:
        v = y[central]
        v -= 0.5
        v2 = v * v
        x = _ratio(v2, _P0, _Q0, v2)
        x *= v
        x += v
        x *= _S2PI
        o[central] = x
    is_tail = (y > 0.0) & ~is_central
    tail = np.flatnonzero(is_tail)
    if tail.size:
        x = -2.0 * _map_c(math.log, y[tail])
        np.sqrt(x, out=x)
        x0 = x - _map_c(math.log, x) / x
        z = 1.0 / x
        near = x < 8.0
        if near.all():
            x1 = _ratio(z, _P1, _Q1, z)
        else:
            x1 = np.where(near, _ratio(z, _P1, _Q1, z), _ratio(z, _P2, _Q2, z))
        x0 -= x1
        np.negative(x0, out=x0, where=~upper[tail])
        o[tail] = x0
    if central.size + tail.size < ps.size:
        rest = np.flatnonzero(~(is_central | is_tail))
        v = ps[rest]
        # 0 and 1 map to the infinities; a NaN comes back negated, as it
        # does from the lower tail's arithmetic; the rest is out of range
        o[rest] = np.where(v == 0.0, -np.inf, np.where(
            v == 1.0, np.inf, np.where(np.isnan(v), -v, np.nan)))
    return out[()]


# ---------------------------------------------------------------------------
# expit

def expit(x):
    """Logistic function ``1 / (1 + exp(-x))``. numpy's ``exp`` keeps it
    within a few ulp of ``scipy.special.expit``, not byte-identical."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
