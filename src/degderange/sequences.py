"""The named degenerate sequences, each computable by two independent paths.

Public operations return the fast path (explicit sum or triangular
recurrence); each has a ``*_series`` companion that extracts the same values
from the defining generating function.  The two paths share nothing beyond
the exact-core primitives, which is what makes the cross-checks in the test
suite meaningful.  ``set_cross_check(True)`` makes every public operation
verify its companion path on each call.

All values are exact rationals.  Negative deformation parameters are fully
supported (the sign-flipped identities need them).

Every memoised sequence lives in one :class:`_Memo`: a list of values per
key (the deformation parameter, with the argument where there is one),
grown on demand under one lock, in place and exactly to the requested n.
The ``*_row`` accessors return a new list of values 0..n, keyed once per
call; each scalar operation is a validated index into the same memo.

The fast paths grow by recurrences (falling factorials, derangement partial
sums, both Stirling triangles) and by sums over a second-kind Stirling row
(the Fubini and Bell values, grown by ``_s2_sums``).  The series paths
(order-r derangements, whose r = 1 case is the derangement series, both
series triangles, Fubini, Bell) grow online: value k, k! times coefficient k
of the generating function F, comes from the values below k through F's own
coefficient equation, an exponential convolution
sum_j binom(k, j) w_j v_{k-j} whose weights w_j are k! times the
coefficients of the series F is built from:

  order-r derangement  F (1-t)^r = deg_exp(x-1)        (F * denominator
  Fubini               F (1 - y(deg_exp(1)-1)) = 1      = numerator)
  series triangles     m F_m = base F_{m-1}, F_m = base^m/m!, with base
                       deg_exp(1)-1 (second kind) or deg_log (first kind);
                       one memo list per column m, so entry (n, m) costs
                       columns 1..m only
  Bell                 B G' = a B' G for G = B^a, B = 1 + lam x(deg_exp(1)-1),
                       a = 1/lam (J.C.P. Miller's power recurrence); at
                       lam = 0, G = exp(x(e^t-1)) and the same sum is
                       G' = h' G

Each step runs on integers, the values scaled by powers of one fixed
integer with at most one exact division; Fubini runs on the ordinary
coefficients v_k/k! over one common denominator instead, since there the
exponential form is slower.  Each builds its weights itself from lam and x,
reading no memo but its own.  So a series path shares with its fast
path only the exact-core primitives: it steps along the power of t of one
generating-function product, where a triangle steps a Stirling row by a
linear factor and an explicit sum adds falling factorials.

Derangement values always come from the explicit sum
n! * sum_{l<=n} falling(x-1, l, lam)/l!: the memo carries the partial sum
forward and stores each value already scaled by n!.  They are never grown
by D(n) = n D(n-1) + falling(x-1, n, lam): that recurrence is the identity
THM2_REC, which must stay a check and not become a tautology.  The series
path at r = 1 does step by d_k = e_k + k d_{k-1}, the coefficient equation
of F (1-t) = deg_exp(x-1), with e_k from its own falling product; no
identity sets it against THM2_REC, whose both sides are fast-path values.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import partial
from math import comb, perm
from operator import mul

from .exactcore import (
    ExactScalar,
    Poly,
    as_fractions,
    as_ints,
    binomial,
    dot,
    factorial,
    widen,
)

_lock = threading.RLock()

_cross_check = False


def set_cross_check(flag: bool) -> None:
    """Toggle the debug mode in which every public op verifies its dual path."""
    global _cross_check
    _cross_check = bool(flag)


def _key(v: ExactScalar) -> Fraction:
    return Fraction(v)


class _Memo:
    """Lists of sequence values per key, grown on demand under one lock.

    ``grow(key, row, n)`` receives the key's list (empty for a new key) and
    returns it extended in place to entries 0..n (a new list for a new key).
    Readers never see a list shrink or change an entry.  The lock is
    reentrant because growing one memo may read another.
    """

    __slots__ = ("grow", "rows")

    def __init__(self, grow):
        self.grow = grow
        self.rows: dict = {}

    def row(self, key, n: int) -> list:
        """The memo list for key, filled for indices 0..n at least."""
        row = self.rows.get(key)
        if row is None or len(row) <= n:
            with _lock:
                row = self.rows.get(key, [])
                if len(row) <= n:
                    row = self.rows[key] = self.grow(key, row, n)
        return row


def _nums(vals: list, s: int) -> list[int]:
    """The integers s^k * vals[k] of a series memo list, whose entry k has a
    denominator dividing s^k."""
    out, sk = [], 1
    for v in vals:
        out.append(v.numerator * (sk // v.denominator))
        sk *= s
    return out


def _products(a: int, b: int, n: int, lead: int | None = None, c: int = 1) -> list[int]:
    """[1, lead, lead (a-b) c, lead (a-b)(a-2b) c^2, ...], entries 0..n: entry
    j >= 2 is entry j-1 times (a - (j-1) b) c.  lead defaults to a, so that
    entry j is c^(j-1) prod_{i<j} (a - i b), the weights of the series steps
    (whose sums start at j = 1 and never read entry 0)."""
    out = [1, a if lead is None else lead]
    for j in range(2, n + 1):
        out.append(out[-1] * (a - (j - 1) * b) * c)
    return out[: n + 1]


def _grow_online(vals: list, n: int, s: int, step, first: Fraction = Fraction(1)) -> list:
    """A series memo list extended in place to entries 0..n (a new list
    starts at first).  Entry k is N_k / s^k, and step(k, nums) gives the
    integer N_k from nums = [N_0, ..., N_{k-1}]."""
    vals = vals or [first]
    nums = _nums(vals, s)
    sk = s ** (len(vals) - 1)
    for k in range(len(vals), n + 1):
        sk *= s
        nums.append(step(k, nums))
        vals.append(Fraction(nums[k], sk))
    return vals


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")


def _dual(value, other, *args):
    """value, after checking it against other(*args), its companion path, when
    the cross-check mode is on."""
    if _cross_check and other(*args) != value:
        raise AssertionError(f"dual-path mismatch with {other.__name__}{args}")
    return value


def _entry(memo: _Memo, n: int, m: int, lam: ExactScalar) -> Fraction:
    """Entry (n, m) of a Stirling triangle memo; 0 above the diagonal."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    if m > n:
        return Fraction(0)
    return memo.row(_key(lam), n)[n][m]


# ---------------------------------------------------------------------------
# generalized falling factorials


def _grow_falling(key, vals, n):
    x, lam = key
    vals = vals or [Fraction(1)]
    for k in range(len(vals), n + 1):
        vals.append(vals[-1] * (x - (k - 1) * lam))
    return vals


_FALLING = _Memo(_grow_falling)


def falling_row(x: ExactScalar, n: int, lam: ExactScalar) -> list[Fraction]:
    """[falling_deg(x, k, lam) for k = 0..n], as a new list."""
    _check_index(n)
    return _FALLING.row((_key(x), _key(lam)), n)[: n + 1]


def falling_deg(x: ExactScalar, n: int, lam: ExactScalar) -> Fraction:
    """x(x-lam)(x-2*lam)...(x-(n-1)*lam); empty product 1 at n = 0."""
    if n < 0:
        raise ValueError(f"falling factorial length must be >= 0, got {n}")
    return _FALLING.row((_key(x), _key(lam)), n)[n]


def falling_poly(n: int, lam: ExactScalar) -> Poly:
    """The falling factorial of length n as a polynomial in its argument."""
    lam = _key(lam)
    p = Poly((1,))
    for i in range(n):
        p = p * Poly((-i * lam, 1))
    return p


# ---------------------------------------------------------------------------
# degenerate derangement polynomials and numbers


def _grow_derange(key, vals, n):
    """Derangement values k! * sum_{l<=k} falling(x-1, l, lam)/l!, each formed
    from its partial sum, which is carried forward."""
    lam, x = key
    vals = vals or [Fraction(1)]
    total = vals[-1] / factorial(len(vals) - 1)
    falls = _FALLING.row((x - 1, lam), n)
    for k in range(len(vals), n + 1):
        total += falls[k] / factorial(k)
        vals.append(total * factorial(k))
    return vals


_DERANGE = _Memo(_grow_derange)


def derange_row(n: int, lam: ExactScalar, x: ExactScalar = 0) -> list[Fraction]:
    """[derange_deg(k, lam, x) for k = 0..n], as a new list."""
    _check_index(n)
    lam, x = _key(lam), _key(x)
    vals = _DERANGE.row((lam, x), n)[: n + 1]
    return _dual(vals, lambda: [derange_deg_series(k, lam, x) for k in range(n + 1)])


def derange_deg(n: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Degenerate derangement value: n! * sum_{l<=n} falling(x-1, l, lam)/l!."""
    _check_index(n)
    value = _DERANGE.row((_key(lam), _key(x)), n)[n]
    return _dual(value, derange_deg_series, n, lam, x)


def derange_deg_series(n: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Series-extraction path: n! times coefficient n of deg_exp(x-1)/(1-t),
    the order-r series at r = 1."""
    _check_index(n)
    return _DERANGE_ORDER_SERIES.row((_key(lam), _key(x), 1), n)[n]


def derange_deg_poly(n: int, lam: ExactScalar) -> Poly:
    """The degree-<=n derangement polynomial in x, built from the convolution
    with derangement numbers and falling-factorial polynomials."""
    _check_index(n)
    lam = _key(lam)
    p, q = lam.numerator, lam.denominator
    # falls[k]: integer coefficients of q^k * falling_poly(k, lam), grown one
    # linear factor (q*x - k*p) at a time
    falls = [[1]]
    for k in range(n):
        prev = falls[-1]
        falls.append([q * a - k * p * b for a, b in zip([0] + prev, prev + [0])])
    weights, wden = as_ints(
        [Fraction(binomial(n, l) * d, q ** (n - l)) for l, d in enumerate(derange_row(n, lam))]
    )
    acc = [0] * (n + 1)
    for w, fall in zip(weights, reversed(falls)):
        for j, c in enumerate(fall):
            acc[j] += w * c
    return Poly(as_fractions(acc, wden))


def derange_deg_order(n: int, r: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Order-r degenerate derangement value:
    n! * sum_{l<=n} falling(x-1, l, lam)/l! * binom(r+n-l-1, n-l)."""
    _check_index(n)
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")
    lam = _key(lam)
    x = _key(x)
    value = dot(
        _FALLING.row((x - 1, lam), n)[: n + 1],
        [factorial(n) // factorial(l) * binomial(r + n - l - 1, n - l) for l in range(n + 1)],
    )
    return _dual(value, derange_deg_order_series, n, r, lam, x)


def _grow_derange_order_series(key, vals, n):
    """d_k = k! [t^k] F for F (1-t)^r = deg_exp(x-1), from its coefficient
    equation d_k = e_k - sum_{i=1..min(r,k)} binom(k,i) (-1)^i i! binom(r,i) d_{k-i}
    with e_k = falling(x-1, k, lam).  At lam = p/q, x = u/v and s = q v it
    runs on N_k = s^k d_k and E_k = s^k e_k = prod_{i<k} ((u-v) q - i p v):
    N_k = E_k - sum_i (-1)^i binom(r,i) s^i k!/(k-i)! N_{k-i}."""
    lam, x, r = key
    p, q, u, v = lam.numerator, lam.denominator, x.numerator, x.denominator
    s = q * v
    e = _products((u - v) * q, p * v, n)
    w = [(-1) ** i * binomial(r, i) * s**i for i in range(min(r, n) + 1)]

    def step(k, nums):
        return e[k] - sum(w[i] * perm(k, i) * nums[k - i] for i in range(1, min(r, k) + 1))

    return _grow_online(vals, n, s, step)


_DERANGE_ORDER_SERIES = _Memo(_grow_derange_order_series)


def derange_deg_order_series(n: int, r: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Series path for the order-r values: n! times coefficient n of
    deg_exp(x-1)/(1-t)^r."""
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")
    _check_index(n)
    return _DERANGE_ORDER_SERIES.row((_key(lam), _key(x), r), n)[n]


# ---------------------------------------------------------------------------
# degenerate Stirling numbers, both kinds, both paths


def _grow_triangle(second_kind: bool, lam, rows, n):
    """Rows 0..n of the triangle at lam = p/q, built on the integers
    T(k, m) = q^k S(k, m):
    second kind T(k,m) = q T(k-1,m-1) + (m q - (k-1) p) T(k-1,m),
    first kind  T(k,m) = q T(k-1,m-1) + (m p - (k-1) q) T(k-1,m).
    Each row is kept reduced; the integer form of the last one is rebuilt
    from it (q^k S(k, m) is an integer, so q^k // denominator is exact)."""
    p, q = lam.numerator, lam.denominator
    a, b = (q, p) if second_kind else (p, q)
    rows = rows or [[Fraction(1)]]
    scale = q ** (len(rows) - 1)
    top = [v.numerator * (scale // v.denominator) for v in rows[-1]]
    for k in range(len(rows), n + 1):
        top = [
            q * left + (m * a - (k - 1) * b) * up
            for m, (left, up) in enumerate(zip([0] + top, top + [0]))
        ]
        rows.append(as_fractions(top, q**k))
    return rows


_S2 = _Memo(partial(_grow_triangle, True))
_S1 = _Memo(partial(_grow_triangle, False))


def stirling2_row(n: int, lam: ExactScalar) -> list[Fraction]:
    """[stirling2_deg(n, m, lam) for m = 0..n], as a new list."""
    _check_index(n)
    lam = _key(lam)
    return _dual(
        list(_S2.row(lam, n)[n]), lambda: [stirling2_deg_series(n, m, lam) for m in range(n + 1)]
    )


def stirling1_row(n: int, lam: ExactScalar) -> list[Fraction]:
    """[stirling1_deg(n, m, lam) for m = 0..n], as a new list."""
    _check_index(n)
    lam = _key(lam)
    return _dual(
        list(_S1.row(lam, n)[n]), lambda: [stirling1_deg_series(n, m, lam) for m in range(n + 1)]
    )


def stirling2_deg(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Degenerate Stirling number of the second kind via the triangular
    recurrence S(n+1,m) = S(n,m-1) + (m - n*lam) S(n,m)."""
    return _dual(_entry(_S2, n, m, lam), stirling2_deg_series, n, m, lam)


def stirling1_deg(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Degenerate Stirling number of the first kind via the triangular
    recurrence S(n+1,m) = S(n,m-1) + (lam*m - n) S(n,m)."""
    return _dual(_entry(_S1, n, m, lam), stirling1_deg_series, n, m, lam)


def _grow_series_column(second_kind: bool, key, col, n):
    """Entries k = 0..n of column m of a series triangle,
    S(k, m) = k! [t^k] base^m/m!, from m F_m = base F_{m-1}:
    m S(k,m) = sum_{j=1..k-m+1} binom(k,j) beta_j S(k-j,m-1), with
    beta_j = j! [t^j] base: falling(1, j, lam) for base = deg_exp(1)-1 and
    (lam-1)(lam-2)...(lam-j+1) for base = deg_log.  At lam = p/q it runs on
    T(k, m) = q^k S(k, m) with B_j = q^j beta_j, both integers:
    m T(k,m) = sum_j binom(k,j) B_j T(k-j,m-1), an exact division by m.
    Column m-1 is read to n-1 from the same memo."""
    lam, m = key
    p, q = lam.numerator, lam.denominator
    if m == 0:
        return _grow_online(col, n, q, lambda k, nums: 0)
    big = _products(q, p, n) if second_kind else _products(p, q, n, lead=q)
    memo = _S2_SERIES if second_kind else _S1_SERIES
    prev = _nums(memo.row((lam, m - 1), n - 1)[:n], q)

    def step(k, nums):
        return sum(comb(k, j) * big[j] * prev[k - j] for j in range(1, k - m + 2)) // m

    return _grow_online(col, n, q, step, Fraction(0))


_S2_SERIES = _Memo(partial(_grow_series_column, True))
_S1_SERIES = _Memo(partial(_grow_series_column, False))


def _series_entry(memo: _Memo, n: int, m: int, lam: ExactScalar) -> Fraction:
    """Entry (n, m) of a series triangle; 0 above the diagonal.  Columns
    1..m grow in turn, so that no grow step recurses into the one below."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    if m > n:
        return Fraction(0)
    lam = _key(lam)
    for i in range(1, m):
        memo.row((lam, i), n)
    return memo.row((lam, m), n)[n]


def stirling2_deg_series(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Definitional path: n! times coefficient n of (deg_exp(1)-1)^m / m!,
    grown column from column by m F_m = (deg_exp(1)-1) F_{m-1}."""
    return _series_entry(_S2_SERIES, n, m, lam)


def stirling1_deg_series(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Definitional path: n! times coefficient n of deg_log^m / m!, grown
    column from column by m F_m = deg_log F_{m-1}."""
    return _series_entry(_S1_SERIES, n, m, lam)


def _grow_s1_classical(key, rows, n):
    rows = rows or [[1]]
    for k in range(len(rows), n + 1):
        prev = rows[-1]
        row = [0] * (k + 1)
        for j in range(k + 1):
            acc = prev[j - 1] if 1 <= j <= k else 0
            if j < k:
                acc -= (k - 1) * prev[j]
            row[j] = acc
        rows.append(row)
    return rows


_S1_CLASSICAL = _Memo(_grow_s1_classical)


def stirling1_classical(n: int, m: int) -> int:
    """Classical signed Stirling numbers of the first kind,
    s(n+1,k) = s(n,k-1) - n*s(n,k)."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    if m > n:
        return 0
    return _S1_CLASSICAL.row(None, n)[n][m]


# ---------------------------------------------------------------------------
# degenerate Fubini and fully degenerate Bell polynomials


def _s2_sums(weights):
    """Grow step for sums[j] = sum_m w[m] S2(j, m; mu), j = 0..n, where
    weights(key, n) gives (w, mu) with w[0..n].  The triangle is read once."""

    def grow(key, sums, n):
        w, mu = weights(key, n)
        rows = _S2.row(mu, n)
        for j in range(len(sums), n + 1):
            sums.append(dot(w[: j + 1], rows[j]))
        return sums

    return grow


def _fubini_weights(key, n):
    lam, y = key
    return [factorial(m) * y**m for m in range(n + 1)], lam


def _bell_weights(key, n):
    lam, x = key
    falls = _FALLING.row((Fraction(1), lam), n)
    return [falls[m] * x**m for m in range(n + 1)], lam


_FUBINI = _Memo(_s2_sums(_fubini_weights))
_BELL = _Memo(_s2_sums(_bell_weights))


def fubini_row(n: int, lam: ExactScalar, y: ExactScalar) -> list[Fraction]:
    """[fubini_deg(k, lam, y) for k = 0..n], as a new list."""
    _check_index(n)
    lam, y = _key(lam), _key(y)
    return _dual(_FUBINI.row((lam, y), n)[: n + 1], fubini_series_row, n, lam, y)


def fubini_deg(n: int, lam: ExactScalar, y: ExactScalar) -> Fraction:
    """Degenerate Fubini polynomial value: sum_m m! y^m S2(n,m)."""
    _check_index(n)
    lam, y = _key(lam), _key(y)
    return _dual(_FUBINI.row((lam, y), n)[n], fubini_deg_series, n, lam, y)


def _grow_fubini_series(key, vals, n):
    """f_k = k! [t^k] F for F (1 - y(deg_exp(1)-1)) = 1, from its coefficient
    equation on the ordinary coefficients F_k = f_k/k!:
    F_k = y sum_{j=1..k} h_j F_{k-j} with h_j = falling(1, j, lam)/j!.  The
    h_j and the F_k are kept as integers over one common denominator each.
    The exponential form of ``_grow_online`` is slower here: its terms carry
    k!-sized factors."""
    lam, y = key
    q = lam.denominator
    c = _products(q, lam.numerator, n)
    hn, hd = as_ints([Fraction(0)] + [Fraction(c[j], q**j * factorial(j)) for j in range(1, n + 1)])
    vals = vals or [Fraction(1)]
    nums, den = as_ints([v / factorial(k) for k, v in enumerate(vals)])
    for k in range(len(vals), n + 1):
        f = y * Fraction(sum(map(mul, hn[k:0:-1], nums)), hd * den)
        nums, den = widen(nums, den, f.denominator)
        nums.append(f.numerator * (den // f.denominator))
        vals.append(f * factorial(k))
    return vals


_FUBINI_SERIES = _Memo(_grow_fubini_series)


def fubini_series_row(n: int, lam: ExactScalar, y: ExactScalar) -> list[Fraction]:
    """[fubini_deg_series(k, lam, y) for k = 0..n], as a new list."""
    _check_index(n)
    return _FUBINI_SERIES.row((_key(lam), _key(y)), n)[: n + 1]


def fubini_deg_series(n: int, lam: ExactScalar, y: ExactScalar) -> Fraction:
    """Series path: n! times coefficient n of 1/(1 - y(deg_exp(1)-1))."""
    _check_index(n)
    return _FUBINI_SERIES.row((_key(lam), _key(y)), n)[n]


def bell_row(n: int, lam: ExactScalar, x: ExactScalar = 1) -> list[Fraction]:
    """[bell_deg(k, lam, x) for k = 0..n], as a new list."""
    _check_index(n)
    lam, x = _key(lam), _key(x)
    return _dual(_BELL.row((lam, x), n)[: n + 1], bell_series_row, n, lam, x)


def bell_deg(n: int, lam: ExactScalar, x: ExactScalar = 1) -> Fraction:
    """Fully degenerate Bell polynomial value: sum_m falling(1,m,lam) x^m S2(n,m).

    The plain Bell number variant is the x = 1 value.
    """
    _check_index(n)
    lam, x = _key(lam), _key(x)
    return _dual(_BELL.row((lam, x), n)[n], bell_deg_series, n, lam, x)


def _grow_bell_series(key, vals, n):
    """g_k = k! [t^k] G for G = B^(1/lam), B = 1 + lam x(deg_exp(1)-1), from
    Miller's power recurrence B G' = (1/lam) B' G:
    k g_k = x sum_{j=1..k} binom(k,j) ((1+lam) j - lam k) falling(1,j,lam) g_{k-j}.
    At lam = 0 this is k g_k = x sum_j binom(k,j) j g_{k-j}, the equation
    G' = h' G of G = exp(h), h = x(e^t-1).  At lam = p/q, x = u/v it runs on
    N_k = (q^2 v)^k g_k:
    k N_k = u sum_j binom(k,j) ((q+p) j - p k) q^j falling(1,j,lam) (q v)^(j-1) N_{k-j},
    an exact division by k."""
    lam, x = key
    p, q, u, v = lam.numerator, lam.denominator, x.numerator, x.denominator
    c = _products(q, p, n, c=q * v)  # q^j falling(1, j, lam) (q v)^(j-1)

    def step(k, nums):
        tot = sum(comb(k, j) * ((q + p) * j - p * k) * c[j] * nums[k - j] for j in range(1, k + 1))
        return u * tot // k

    return _grow_online(vals, n, q * q * v, step)


_BELL_SERIES = _Memo(_grow_bell_series)


def bell_series_row(n: int, lam: ExactScalar, x: ExactScalar = 1) -> list[Fraction]:
    """[bell_deg_series(k, lam, x) for k = 0..n], as a new list."""
    _check_index(n)
    return _BELL_SERIES.row((_key(lam), _key(x)), n)[: n + 1]


def bell_deg_series(n: int, lam: ExactScalar, x: ExactScalar = 1) -> Fraction:
    """Series path: n! times coefficient n of deg_exp(1) composed with
    x*(deg_exp(1)-1), that is of (1 + lam x(deg_exp(1)-1))^(1/lam), or of
    exp(x(e^t-1)) at lam = 0, grown by Miller's power recurrence."""
    _check_index(n)
    return _BELL_SERIES.row((_key(lam), _key(x)), n)[n]
