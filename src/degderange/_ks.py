# The functions below follow scipy 1.17: scipy/stats/_ksstats.py, the
# kolmogorov and kolmogi of scipy.special (Cephes, kolmogorov.h) and
# scipy/optimize/Zeros/brentq.c:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""Two-sided one-sample Kolmogorov-Smirnov distribution: P(D_n <= x) and its
inverse, the critical value of the sampler's KS check.

A port of the path that scipy 1.17 takes for ``scipy.stats.kstwo.cdf`` and
``kstwo.ppf`` (``scipy/stats/_ksstats.py``, BSD-3-Clause, notice above), so
that the check needs no ``scipy.stats`` import.  It uses numpy, and it ports
the scipy functions that path calls: ``brentq`` (Brent's root finder), the
inverse ``_kolmogi`` of Kolmogorov's limit law with the ``_kolmogorov`` it
inverts, and ``loggamma`` at the integers (Cephes ``lgam``).  The one piece
still taken from scipy is ``scipy.special.smirnov``, imported by the one CDF
branch that uses it (x >= 1/2, or n <= 140 with n*x^2 > 4), so only a KS
check on a small sample loads scipy.  The CDF takes the branches of Simard &
L'Ecuyer (J. Stat. Softw. 39(11), 2011), as scipy does:

- the Ruben-Gambino closed forms for n*x <= 1 and n*x >= n - 1;
- 2*smirnov(n, x) for x >= 0.5, and for n <= 140 with n*x^2 > 4;
- for n <= 140, the Durbin matrix method in the form of Marsaglia, Tsang &
  Wang (J. Stat. Softw. 8(18), 2003) for n*x^2 <= 0.754693, and Pomeranz's
  recursion (Comm. ACM 17(12), 1974) for n*x^2 <= 4;
- for n > 140, 1 for n*x^2 >= 18, Durbin/MTW for n <= 100,000 with
  n*x^1.5 <= 1.4, and otherwise the Pelz-Good series (JRSS B 38(2), 1976).

Durbin/MTW and Pomeranz rescale by 2^128 as scipy does, and the numpy
operations, their order and their types are scipy's: where scipy's rescale
turns a float64 into a longdouble, the rest of that product runs in
longdouble here too.  So the CDF agrees with scipy's bit for bit, and the
root find of ``kstwo_ppf`` starts from scipy's bracket, visits the same
points and lands on the same root: ``tests/test_quadpack.py`` checks the
critical value against ``scipy.stats.kstwo.ppf`` for equality, and
``tests/test_ks.py`` to 1e-12 relative over n = 1 ... 10^6.
"""

from __future__ import annotations

import math

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6

# B_{2j}/(2j)/(2j-1) for j = 8, ..., 1 (B_m the Bernoulli numbers)
_STIRLING_COEFFS = [
    -2.955065359477124183e-2,
    6.4102564102564102564e-3,
    -1.9175269175269175269e-3,
    8.4175084175084175084e-4,
    -5.952380952380952381e-4,
    7.9365079365079365079e-4,
    -2.7777777777777777778e-3,
    8.3333333333333333333e-2,
]


def _log_nfactorial_div_n_pow_n(n: int):
    """log(n!/n^n) by Stirling's series, with n*log(n) removed up front."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _durbin(n: int, d: float):
    """P(D_n <= d) for 1/n < d < 1/2: the k-th diagonal entry of H^n times
    n!/n^n, where d = (k - h)/n and H is the (2k-1)-square Durbin matrix."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    # v is the first column (and, reversed, the last row) of H; w[j] = 1/j!
    v = 1.0 - h ** np.arange(1, m + 1)
    w = np.empty(m)
    fac = 1.0
    for j in range(1, m + 1):
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    H = np.zeros([m, m])
    for i in range(1, m):
        H[i - 1 :, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    # H^n by squaring; H is rescaled by 2^-128 whenever its k-th diagonal
    # entry passes 2^128, and expnt counts the scaling of the product
    Hpwr = np.eye(m)
    nn, expnt, Hexpnt = n, 0, 0
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn //= 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128  # longdouble from here on, as in scipy
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return p


def _pomeranz_j1j2(i: int, n: int, ll: int, ceilf: int, roundf: int):
    """The endpoints of the nonzero stretch of row i of Pomeranz's recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz(n: int, x: float):
    """P(D_n <= x) by Pomeranz's recursion: each of the 2n + 1 rows convolves
    the previous one with one of three Poisson-like weight vectors, and the
    answer is n! times the final entry.  Two rows are kept, each from the
    start index of its nonzero stretch."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)  # the most powers a convolution needs
    # (g/n)^m/m!, (2g/n)^m/m!, ((1-2g)/n)^m/m!
    gpower, twogpower, onem2gpower = np.empty(npwrs), np.empty(npwrs), np.empty(npwrs)
    gpower[0] = twogpower[0] = onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0
    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s : k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start : conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:  # rescale against underflow
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128  # longdouble from here on, as in scipy
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return ans


def _pelz_good(n: int, x: float):
    """The Pelz-Good approximation K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5, z = x*sqrt(n), for 0 < x < 1: the Li-Chien/Korolyuk
    expansion turned into a series for small z by the Jacobi theta
    functional equation."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.0417
        return 0.0
    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # sum of c_i q^(i^2) over odd i, by Horner
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array(
            [
                1.0,
                k1a + k1b * msquared,
                k2a + k2b * msquared + k2c * mfour,
                k3a + k3b * msquared + k3c * mfour + k3d * msix,
            ]
        )
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])  # z^10 > 0 as z > 0.04

    # the sums over all k of (pi^2 k^2) q^(k^2) for K2 and
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) for K3, summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)


def kstwo_cdf(n: int, x: float):
    """P(D_n <= x) for an integer n >= 1; a numpy float64 or longdouble."""
    t = n * x
    if x >= 1.0:
        prob = 1.0
    elif x <= 0.0 or t <= 0.5:
        prob = 0.0
    elif t <= 1.0:  # Ruben-Gambino
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
    elif t >= n - 1:  # Ruben-Gambino
        prob = 1 - 2 * (1.0 - x) ** n
    elif x >= 0.5 or (n <= 140 and t * x > 4):  # exact, or Miller's approximation
        from scipy import special  # the one branch that needs scipy

        prob = 1.0 - 2 * special.smirnov(n, x)
    elif n <= 140:
        prob = _durbin(n, x) if t * x <= 0.754693 else _pomeranz(n, x)
    elif t * x >= 18.0:
        prob = 1.0
    elif n <= 100000 and n * x**1.5 <= 1.4:
        prob = _durbin(n, x)
    else:
        prob = _pelz_good(n, x)
    return np.clip(prob, 0.0, 1.0)


_DBL_EPSILON = 2.0**-52
_LOGSQRT2PI = math.log(math.sqrt(2 * math.pi))  # scipy's value: 1 ulp below ln(sqrt(2 pi))
_KOLMOG_CUTOFF = 0.82  # the series in u up to here, the series in v above


def _kolmogorov(x: float) -> tuple[float, float, float]:
    """(sf, cdf, pdf) of Kolmogorov's limit law at x, as scipy.special's
    ``kolmogorov``, ``_kolmogc`` and ``-_kolmogp`` compute them: the first
    terms of the Jacobi theta series in u = exp(-pi^2/(8 x^2)) for small x,
    of the alternating series in v = exp(-2 x^2) for large x."""
    if x <= math.pi / math.sqrt(746 * 8):  # exp(-746) underflows
        return 1.0, 0.0, 0.0
    P = 1.0
    D = 0.0
    if x <= _KOLMOG_CUTOFF:
        # P = w*u*(1 + u^8 + u^24 + u^48), w = sqrt(2 pi)/x
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        if u == 0:
            P = math.exp(logu8 / 8 + math.log(w))
        else:
            u8 = math.exp(logu8)
            u8cub = u8**3
            P = 1 + u8cub * P
            D = 5 * 5 + u8cub * D
            P = 1 + u8 * u8 * P
            D = 3 * 3 + u8 * u8 * D
            P = 1 + u8 * P
            D = 1 * 1 + u8 * D
            D = math.pi * math.pi / 4 / (x * x) * D - P
            D *= w * u / x
            P = w * u * P
        cdf = P
        sf = 1 - P
        pdf = D
    else:
        # P = 2v(1 - v^3 (1 - v^5 (1 - v^7)))
        v = math.exp(-2 * x * x)
        vsq = v * v
        v3 = v**3
        vpwr = v3 * v3 * v
        P = 1 - vpwr * P
        D = 3 * 3 - vpwr * D
        vpwr = v3 * vsq
        P = 1 - vpwr * P
        D = 2 * 2 - vpwr * D
        vpwr = v3
        P = 1 - vpwr * P
        D = 1 * 1 - vpwr * D
        P = 2 * v * P
        D = 8 * v * x * D
        sf = P
        cdf = 1 - sf
        pdf = D
    return min(max(sf, 0.0), 1.0), min(max(cdf, 0.0), 1.0), max(0.0, pdf)


def _kolmogi(psf: float, pcdf: float) -> float:
    """The x with P(K > x) = psf and P(K <= x) = pcdf for Kolmogorov's limit
    law K, as scipy.special's ``_kolmogi`` computes it (``kolmogi(q)`` is
    ``_kolmogi(q, 1 - q)``, ``_kolmogci(p)`` is ``_kolmogi(1 - p, p)``):
    Newton steps on the bracketed root, from a start given by the leading
    term of the series, on the smaller of the two probabilities."""
    if not (psf >= 0 and pcdf >= 0 and pcdf <= 1 and psf <= 1):
        return math.nan
    if abs(1.0 - pcdf - psf) > 4 * _DBL_EPSILON:
        return math.nan
    if pcdf == 0.0:
        return 0.0
    if psf == 0.0:
        return math.inf
    if pcdf <= 0.5:
        # p ~ (sqrt(2 pi)/x) exp(-pi^2/(8 x^2)): two fixed-point steps from
        # a lower and an upper bound
        logpcdf = math.log(pcdf)
        sqrt2 = math.sqrt(2)
        a = math.pi / (2 * sqrt2 * math.sqrt(-(logpcdf + logpcdf / 2 - _LOGSQRT2PI)))
        b = math.pi / (2 * sqrt2 * math.sqrt(-(logpcdf + 0 - _LOGSQRT2PI)))
        a = math.pi / (2 * sqrt2 * math.sqrt(-(logpcdf + math.log(a) - _LOGSQRT2PI)))
        b = math.pi / (2 * sqrt2 * math.sqrt(-(logpcdf + math.log(b) - _LOGSQRT2PI)))
        x = (a + b) / 2.0
    else:
        # p ~ 2 exp(-2 x^2), and q = exp(-2 x^2) from the inverted series
        # p/2 = q - q^4 + q^9 - ...
        jiggerb = 256 * _DBL_EPSILON
        pba = psf / (1.0 - math.exp(-4)) / 2
        pbb = psf * (1 - jiggerb) / 2
        a = math.sqrt(-0.5 * math.log(pba))
        b = math.sqrt(-0.5 * math.log(pbb))
        p = psf / 2.0
        p2 = p * p
        p3 = p * p * p
        q0 = 1 + p3 * (1 + p3 * (4 + p2 * (-1 + p * (22 + p2 * (-13 + 140 * p)))))
        q0 *= p
        x = math.sqrt(-math.log(q0) / 2)
        if x < a or x > b:
            x = (a + b) / 2
    for _ in range(500):
        x0 = x
        sf, cdf, pdf = _kolmogorov(x0)
        df = (pcdf - cdf) if pcdf < 0.5 else (sf - psf)
        if abs(df) == 0:
            break
        if df > 0 and x > a:
            a = x
        elif df < 0 and x < b:
            b = x
        dfdx = -pdf
        if abs(dfdx) <= 0.0:
            x = (a + b) / 2
        else:
            x = x0 - df / dfdx
        if a <= x <= b:
            if abs(x - x0) <= _DBL_EPSILON + 2 * _DBL_EPSILON * abs(x0):
                break
            if x == a or x == b:
                x = (a + b) / 2.0
                if x == a or x == b:
                    break
        else:
            x = (a + b) / 2.0
            if abs(x - x0) <= _DBL_EPSILON + 2 * _DBL_EPSILON * abs(x0):
                break
    return x


def brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of f in [xa, xb] by Brent's method (Algorithms for Minimization
    without Derivatives, 1973), as scipy's ``optimize.brentq`` finds it with
    its default rtol and maxiter: the steps of scipy/optimize/Zeros/brentq.c,
    with f's value rounded to a float as scipy rounds it."""
    rtol, maxiter = 4 * _DBL_EPSILON, 100
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    fcur = float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre = scur
                scur = stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# Stirling's series for log(Gamma(x)) - ((x - 1/2) log x - x + log(sqrt(2 pi))),
# as polynomial coefficients in 1/x^2, highest power first (Cephes lgam)
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_factorial(n: int) -> float:
    """log(n!) for an integer n >= 1, as ``scipy.special.loggamma(n + 1)``
    computes it (Cephes ``lgam``): the log of the exact product while n + 1
    < 13, Stirling's series above.  ``math.lgamma`` differs from it in the
    last bit at about half the integers."""
    x = float(n + 1)
    if x < 13.0:
        return math.log(float(math.factorial(n)))
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    a = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        a = a * p + c
    return q + a / x


def kstwo_ppf(n: int, p: float) -> float:
    """The x with P(D_n <= x) = p, for an integer n >= 1 and 0 < p < 1.

    The ends have closed forms; between them ``brentq`` (xtol 1e-14) finds
    the root on [1/n, x1], x1 from the inverse of Kolmogorov's limit law at
    (q, p), scipy's ``_kolmogci(p)``.
    """
    q = 1 - p
    if q <= 0:
        return 1.0
    delta = np.exp((np.log(p) - _log_factorial(n)) / n)
    if delta <= 1.0 / n:
        return float((delta + 1.0 / n) / 2)
    x = -np.expm1(np.log(q / 2.0) / n)
    if x >= 1 - 1.0 / n:
        return float(x)
    x1 = min(_kolmogi(q, p) / np.sqrt(n), 1.0 - 1.0 / n)
    return brentq(lambda v: kstwo_cdf(n, v) - p, 1.0 / n, x1, xtol=1e-14)
