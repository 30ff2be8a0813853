# The functions below follow QUADPACK (Piessens, de Doncker-Kapenga,
# Ueberhuber & Kahaner, Springer 1983; public domain) as scipy 1.17 ships it
# for ``scipy.integrate.quad``, and the messages are those of
# scipy/integrate/_quadpack_py.py:
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
"""Adaptive Gauss-Kronrod quadrature on [0, inf): QUADPACK's ``dqagie``, the
routine behind ``scipy.integrate.quad`` for an infinite upper limit without
points or weights, in pure Python, so that a quadrature loads no scipy.

The map x = (1 - t)/t takes [0, inf) to (0, 1], where the 15-point Kronrod
rule ``dqk15i`` integrates.  The adaptive loop bisects the interval
of largest error estimate, keeps the error list in descending order as
``dqpsrt`` does, and accelerates the sequence of approximations with Wynn's
epsilon algorithm (``dqelg``).  Every arithmetic step, its order and each
constant are QUADPACK's, and QUADPACK's own double-precision machine
constants are Python's float limits, so ``quad(f, epsabs, epsrel, limit)``
returns scipy's (value, abserr, neval, ier) for the lower limit 0 bit for
bit; ``tests/test_quadpack.py`` checks this against the installed scipy.
The integrand must return a float.

Each dqk15i call takes its 15 function values from a *rule*: ``rule(a, b)``
returns the mapped integrand f((1 - t)/t)/t/t at ``nodes(a, b)``, in that
order, as a list of floats.  An integrand may carry its own ``rule`` method,
so that a family of integrands can share the work per node that its members
have in common (``probability`` does so for its damped moment integrands),
or so that one integrand evaluates its 15 nodes in one call rather than
15 (``probability``'s density does so).
A plain callable gets ``_point_rule``: one call f((1 - t)/t) per node,
divided by t twice, the per-node path dqk15i always had, so a scalar
``quad`` is unchanged.  Either way the Kronrod sums are straight-line
expressions over the 15 floats that add them left to right in the order of
QUADPACK's loops, each product by a zero Gauss weight kept, so that an inf
or NaN value reaches the Gauss sum as in Fortran.  So a rule that returns
the very floats of the per-node calls leaves every value, error and neval
unchanged, and scipy, which calls the integrand per node, still agrees bit
for bit.
"""

from __future__ import annotations

import sys
from typing import Callable

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # the longest epsilon table

# Gauss-Kronrod 7-15 rule: Kronrod nodes xgk, Kronrod weights wgk, and Gauss
# weights wg at the same positions (zero at the Kronrod-only nodes); the
# last entry of each is the centre.
_XGK15 = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK15 = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG15 = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)

# the weights one by one, outermost node first: wk8 and wg8 are the centre's
_WK1, _WK2, _WK3, _WK4, _WK5, _WK6, _WK7, _WK8 = _WGK15
_WG1, _WG2, _WG3, _WG4, _WG5, _WG6, _WG7, _WG8 = _WG15

# scipy.integrate.quad's text for each ier
_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
    "If increasing the limit yields no improvement it is advised to "
    "analyze \n  the integrand in order to determine the difficulties.  "
    "If the position of a \n  local difficulty can be determined "
    "(singularity, discontinuity) one will \n  probably gain from "
    "splitting up the interval and calling the integrator \n  on the "
    "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
    "the requested tolerance from being achieved.  "
    "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
    "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
    "in the extrapolation table.  It is assumed that the requested "
    "tolerance\n  cannot be achieved, and that the returned result "
    "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


def message(ier: int, limit: int) -> str:
    """scipy.integrate.quad's warning text for a nonzero ier (1 to 5)."""
    return _MESSAGES[ier].format(limit=limit)


def nodes(a: float, b: float) -> list[float]:
    """The 15 abscissae of dqk15i on [a, b], in the order of its function
    values: the centre, then centr - hlgth*x and centr + hlgth*x for each
    Kronrod node x, outermost first."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    out = [centr]
    for x in _XGK15:
        absc = hlgth * x
        out.append(centr - absc)
        out.append(centr + absc)
    return out


def _point_rule(f: Callable[[float], float]) -> Callable[[float, float], list]:
    """The rule of a plain integrand: f((1 - t)/t)/t^2 at each node t, one
    call of f per node."""

    def rule(a: float, b: float) -> list[float]:
        return [(f((1.0 - t) / t) / t) / t for t in nodes(a, b)]

    return rule


def _qk15i(rule: Callable[[float, float], list], a: float, b: float):
    """dqk15i for inf = 1: the 15-point Kronrod rule on a sub-interval
    [a, b] of (0, 1] of the mapped integrand, whose values at ``nodes(a, b)``
    rule(a, b) gives, with QUADPACK's error estimate from |Kronrod - Gauss|.

    Returns (result, abserr, resabs, resasc): resabs and resasc are the
    integrals of |f| and of |f - mean| over [a, b].  The four sums are
    QUADPACK's loops written out: the centre term first, then the node
    pairs from the outermost in, each term the Fortran's product, the
    products by the zero Gauss weights included, so every sum rounds as
    the loop does and 0.0 * inf is NaN in resg as it is there."""
    hlgth = 0.5 * (b - a)
    fc, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7 = rule(a, b)
    s1 = l1 + r1
    s2 = l2 + r2
    s3 = l3 + r3
    s4 = l4 + r4
    s5 = l5 + r5
    s6 = l6 + r6
    s7 = l7 + r7
    resg = (_WG8 * fc + _WG1 * s1 + _WG2 * s2 + _WG3 * s3 + _WG4 * s4
            + _WG5 * s5 + _WG6 * s6 + _WG7 * s7)
    resk = (_WK8 * fc + _WK1 * s1 + _WK2 * s2 + _WK3 * s3 + _WK4 * s4
            + _WK5 * s5 + _WK6 * s6 + _WK7 * s7)
    resabs = (abs(_WK8 * fc) + _WK1 * (abs(l1) + abs(r1)) + _WK2 * (abs(l2) + abs(r2))
              + _WK3 * (abs(l3) + abs(r3)) + _WK4 * (abs(l4) + abs(r4))
              + _WK5 * (abs(l5) + abs(r5)) + _WK6 * (abs(l6) + abs(r6))
              + _WK7 * (abs(l7) + abs(r7)))
    reskh = resk * 0.5
    resasc = (_WK8 * abs(fc - reskh) + _WK1 * (abs(l1 - reskh) + abs(r1 - reskh))
              + _WK2 * (abs(l2 - reskh) + abs(r2 - reskh))
              + _WK3 * (abs(l3 - reskh) + abs(r3 - reskh))
              + _WK4 * (abs(l4 - reskh) + abs(r4 - reskh))
              + _WK5 * (abs(l5 - reskh) + abs(r5 - reskh))
              + _WK6 * (abs(l6 - reskh) + abs(r6 - reskh))
              + _WK7 * (abs(l7 - reskh) + abs(r7 - reskh)))
    dhlgth = abs(hlgth)
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """dqpsrt: keep iord[1..] listing the intervals by descending error after
    interval maxerr was bisected into maxerr and last; returns the next
    (maxerr, errmax, nrmax).  Indices are 1-based, as in QUADPACK."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # the bisected error grew: move it up past the nrmax - 1 larger ones
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the first jupbn entries are kept in order, as many as the
        # bisections still allowed can reach
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd:  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
            i += 1
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
            maxerr = iord[nrmax]
            return maxerr, elist[maxerr], nrmax
        iord[i - 1] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):  # insert errmin bottom-up
            isucc = iord[k]
            if errmin < elist[isucc]:
                iord[k + 1] = last
                break
            iord[k + 1] = isucc
            k -= 1
        else:
            iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


class _Epsilon:
    """dqelg: Wynn's epsilon algorithm on the sequence of integral
    approximations, with QUADPACK's table (epstab, 1-based), its length n
    and the last three results (res3la).  It starts from the first two
    approximations."""

    def __init__(self, first: float, second: float):
        self.epstab = [0.0] * (_LIMEXP + 3)
        self.epstab[1] = first
        self.epstab[2] = second
        self.n = 2
        self.res3la = [0.0] * 4
        self.nres = 0

    def extrapolate(self, value: float) -> tuple[float, float]:
        """Append value and return (result, abserr) of the extrapolation."""
        self.n += 1
        n = self.n
        epstab = self.epstab
        epstab[n] = value
        self.nres += 1
        abserr = _OFLOW
        result = epstab[n]
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                self.n = n
                return res, max(err2 + err3, 5.0 * _EPMACH * abs(res))
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements, or irregular behaviour: cut the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 0.1e-03:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        # shift the table
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        self.n = n
        res3la = self.res3la
        if self.nres < 4:
            res3la[self.nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
        return result, max(abserr, 5.0 * _EPMACH * abs(result))


def _adapt(rule: Callable[[float, float], list], epsabs: float, epsrel: float, limit: int):
    """The adaptive loop of dqagie: dqk15i on [0, 1] and on its bisections;
    returns (result, abserr, last, ier), ier already renumbered as QUADPACK
    returns it."""
    result, abserr, defabs, resabs = _qk15i(rule, 0.0, 1.0)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 1, ier

    # 1-based lists, as in QUADPACK, with one entry per interval so far:
    # each bisection adds entry last, and no entry past it is ever read
    alist = [0.0, 0.0]
    blist = [0.0, 1.0]
    rlist = [0.0, result]
    elist = [0.0, abserr]
    iord = [0, 1]
    table = None  # the epsilon table, from the second bisection on
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    parts = False  # the result is the sum over the intervals

    for last in range(2, limit + 1):
        alist.append(0.0)
        blist.append(0.0)
        rlist.append(0.0)
        elist.append(0.0)
        iord.append(0)
        # bisect the interval of the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk15i(rule, a1, b1)
        area2, error2, _, defab2 = _qk15i(rule, a2, b2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 0.1e-04 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subdivision limit, and bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)

        if errsum <= errbnd:
            parts = True
            break
        if ier != 0:
            break
        if last == 2:
            small = 0.375
            erlarg = errsum
            ertest = errbnd
            table = _Epsilon(result, area)
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # go on bisecting unless the next interval is the smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the larger
            # intervals first, while their error (erlarg) is above ertest
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        reseps, abseps = table.extrapolate(area)
        ktmin += 1
        if ktmin > 5 and abserr < 0.1e-02 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # go back to bisecting the largest interval
        if table.n == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # final result and error: the extrapolated one, or the sum of the parts
    parts = parts or abserr == _OFLOW
    if not parts and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            parts = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            parts = True
        elif area == 0.0:
            return result, abserr, last, ier - 1 if ier > 2 else ier
    if parts:
        result, abserr = _sum(rlist, last), errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.1e-01):
        # test on divergence
        if 0.1e-01 > result / area or result / area > 0.1e03 or errsum > abs(area):
            ier = 6
    return result, abserr, last, ier - 1 if ier > 2 else ier


def _sum(rlist: list, last: int) -> float:
    """rlist[1] + ... + rlist[last], added in order."""
    total = 0.0
    for k in range(1, last + 1):
        total = total + rlist[k]
    return total


def quad(f: Callable[[float], float], epsabs: float, epsrel: float, limit: int):
    """The integral of f over [0, inf) as ``scipy.integrate.quad(f, 0,
    math.inf, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=True)``
    computes it, with dqagie.

    f is called per node, unless it has a ``rule(a, b)`` method, which then
    gives the 15 mapped values of each rule call (see the module docstring).

    Returns (value, abserr, neval, ier); ier 1 to 5 means not converged, and
    ``message(ier, limit)`` explains it.  Invalid input (scipy's ier 6)
    raises ValueError with scipy's text."""
    if limit < 1:
        raise ValueError("Invalid 'limit' argument. There must be at least one subinterval")
    if epsabs <= 0 and epsrel < max(50 * _EPMACH, 5e-29):
        raise ValueError(
            "If 'epsabs'<=0, 'epsrel' must be greater than both 5e-29 and 50*(machine epsilon)."
        )
    rule = getattr(f, "rule", None) or _point_rule(f)
    value, abserr, last, ier = _adapt(rule, epsabs, epsrel, limit)
    return value, abserr, 30 * last - 15, ier
