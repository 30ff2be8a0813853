"""The named degenerate sequences, each computable by two independent paths.

Public operations return the fast path (explicit sum or triangular
recurrence); each has a ``*_series`` companion that extracts the same values
from the defining generating function.  The two paths share nothing beyond
the exact-core primitives, which is what makes the cross-checks in the test
suite meaningful.  ``set_cross_check(True)`` makes every public operation
verify its companion path on each call.

All values are exact rationals.  Negative deformation parameters are fully
supported (the sign-flipped identities need them).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .exactcore import ExactScalar, Poly, as_fractions, as_ints, binomial, dot, factorial
from .series import Series, deg_exp, deg_log, geometric, one

_lock = threading.RLock()

_cross_check = False


def set_cross_check(flag: bool) -> None:
    """Toggle the debug mode in which every public op verifies its dual path."""
    global _cross_check
    _cross_check = bool(flag)


def _key(v: ExactScalar) -> Fraction:
    return Fraction(v)


# ---------------------------------------------------------------------------
# generalized falling factorials


_falling_cache: dict[tuple[Fraction, Fraction], list[Fraction]] = {}


def _falling_row(x: Fraction, lam: Fraction, n: int) -> list[Fraction]:
    """The memo list of falling_deg(x, k, lam), filled for k = 0..n at least."""
    key = (x, lam)
    vals = _falling_cache.get(key)
    if vals is None or len(vals) <= n:
        with _lock:
            vals = _falling_cache.setdefault(key, [Fraction(1)])
            while len(vals) <= n:
                k = len(vals)
                vals.append(vals[-1] * (x - (k - 1) * lam))
    return vals


def falling_deg(x: ExactScalar, n: int, lam: ExactScalar) -> Fraction:
    """x(x-lam)(x-2*lam)...(x-(n-1)*lam); empty product 1 at n = 0."""
    if n < 0:
        raise ValueError(f"falling factorial length must be >= 0, got {n}")
    return _falling_row(_key(x), _key(lam), n)[n]


def falling_poly(n: int, lam: ExactScalar) -> Poly:
    """The falling factorial of length n as a polynomial in its argument."""
    lam = _key(lam)
    p = Poly((1,))
    for i in range(n):
        p = p * Poly((-i * lam, 1))
    return p


# ---------------------------------------------------------------------------
# degenerate derangement polynomials and numbers


_derange_sums: dict[tuple[Fraction, Fraction], list[Fraction]] = {}


def derange_deg(n: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Degenerate derangement value: n! * sum_{l<=n} falling(x-1, l, lam)/l!."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    key = (_key(lam), _key(x))
    sums = _derange_sums.get(key)
    if sums is None or len(sums) <= n:
        with _lock:
            sums = _derange_sums.setdefault(key, [Fraction(1)])
            falls = _falling_row(key[1] - 1, key[0], n)
            while len(sums) <= n:
                l = len(sums)
                sums.append(sums[-1] + falls[l] / factorial(l))
    value = sums[n] * factorial(n)
    if _cross_check:
        other = derange_deg_series(n, lam, x)
        if other != value:
            raise AssertionError(f"derange_deg dual-path mismatch at n={n}")
    return value


_derange_series: dict[tuple[Fraction, Fraction], list[Fraction]] = {}


def derange_deg_series(n: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Series-extraction path: n! times coefficient n of geometric * deg_exp(x-1)."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    key = (_key(lam), _key(x))
    coeffs = _derange_series.get(key)
    if coeffs is None or len(coeffs) <= n:
        with _lock:
            order = max(n, 2 * len(_derange_series.get(key, ())), 8)
            s = geometric(order) * deg_exp(key[1] - 1, key[0], order)
            _derange_series[key] = coeffs = list(s.coeffs)
    return coeffs[n] * factorial(n)


def derange_deg_poly(n: int, lam: ExactScalar) -> Poly:
    """The degree-<=n derangement polynomial in x, built from the convolution
    with derangement numbers and falling-factorial polynomials."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    lam = _key(lam)
    p, q = lam.numerator, lam.denominator
    # falls[k]: integer coefficients of q^k * falling_poly(k, lam), grown one
    # linear factor (q*x - k*p) at a time
    falls = [[1]]
    for k in range(n):
        prev = falls[-1]
        falls.append([q * a - k * p * b for a, b in zip([0] + prev, prev + [0])])
    weights, wden = as_ints(
        [Fraction(binomial(n, l) * derange_deg(l, lam, 0), q ** (n - l)) for l in range(n + 1)]
    )
    acc = [0] * (n + 1)
    for w, fall in zip(weights, reversed(falls)):
        for j, c in enumerate(fall):
            acc[j] += w * c
    return Poly(as_fractions(acc, wden))


def derange_deg_order(n: int, r: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Order-r degenerate derangement value:
    n! * sum_{l<=n} falling(x-1, l, lam)/l! * binom(r+n-l-1, n-l)."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")
    lam = _key(lam)
    x = _key(x)
    value = dot(
        _falling_row(x - 1, lam, n)[: n + 1],
        [factorial(n) // factorial(l) * binomial(r + n - l - 1, n - l) for l in range(n + 1)],
    )
    if _cross_check:
        other = derange_deg_order_series(n, r, lam, x)
        if other != value:
            raise AssertionError(f"derange_deg_order dual-path mismatch at n={n}, r={r}")
    return value


def derange_deg_order_series(n: int, r: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Series path for the order-r values: deg_exp(x-1) divided by (1-t)^r."""
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")
    denom = Poly((1,))
    for _ in range(r):
        denom = denom * Poly((1, -1))
    s = deg_exp(_key(x) - 1, lam, n) / Series.from_poly(denom, n)
    return s.coeff(n) * factorial(n)


# ---------------------------------------------------------------------------
# degenerate Stirling numbers, both kinds, both paths


class _Triangle:
    """Rows 0..k of a Stirling triangle as reduced fractions, plus row k in
    integer form T(k, m) = q^k S(k, m), from which the next row is built."""

    __slots__ = ("rows", "top")

    def __init__(self):
        self.rows: list[list[Fraction]] = [[Fraction(1)]]
        self.top: list[int] = [1]


_s2_rows: dict[Fraction, _Triangle] = {}
_s1_rows: dict[Fraction, _Triangle] = {}


def _recurrence_rows(cache, lam: Fraction, n: int, second_kind: bool) -> list[list[Fraction]]:
    """Rows 0..n (at least) of the triangle at lam = p/q, built on the integers
    T(k, m) = q^k S(k, m):
    second kind T(k,m) = q T(k-1,m-1) + (m q - (k-1) p) T(k-1,m),
    first kind  T(k,m) = q T(k-1,m-1) + (m p - (k-1) q) T(k-1,m)."""
    tri = cache.get(lam)
    if tri is None or len(tri.rows) <= n:
        with _lock:
            tri = cache.setdefault(lam, _Triangle())
            p, q = lam.numerator, lam.denominator
            a, b = (q, p) if second_kind else (p, q)
            rows, top = tri.rows, tri.top
            while len(rows) <= n:
                k = len(rows)  # building row k from row k-1
                top = [
                    q * left + (m * a - (k - 1) * b) * up
                    for m, (left, up) in enumerate(zip([0] + top, top + [0]))
                ]
                rows.append(as_fractions(top, q**k))
            tri.top = top
    return tri.rows


def stirling2_deg(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Degenerate Stirling number of the second kind via the triangular
    recurrence S(n+1,m) = S(n,m-1) + (m - n*lam) S(n,m)."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    if m > n:
        return Fraction(0)
    rows = _recurrence_rows(_s2_rows, _key(lam), n, second_kind=True)
    value = rows[n][m]
    if _cross_check:
        other = stirling2_deg_series(n, m, lam)
        if other != value:
            raise AssertionError(f"stirling2_deg dual-path mismatch at ({n},{m})")
    return value


def stirling1_deg(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Degenerate Stirling number of the first kind via the triangular
    recurrence S(n+1,m) = S(n,m-1) + (lam*m - n) S(n,m)."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    if m > n:
        return Fraction(0)
    rows = _recurrence_rows(_s1_rows, _key(lam), n, second_kind=False)
    value = rows[n][m]
    if _cross_check:
        other = stirling1_deg_series(n, m, lam)
        if other != value:
            raise AssertionError(f"stirling1_deg dual-path mismatch at ({n},{m})")
    return value


_s2_series_rows: dict[Fraction, list[list[Fraction]]] = {}
_s1_series_rows: dict[Fraction, list[list[Fraction]]] = {}


def _series_triangle(cache, lam: Fraction, n: int, second_kind: bool):
    tri = cache.get(lam)
    if tri is None or len(tri) <= n:
        with _lock:
            order = max(n, 2 * len(cache.get(lam, ())), 8)
            base = (
                deg_exp(1, lam, order) - one(order)
                if second_kind
                else deg_log(lam, order)
            )
            power = one(order)
            cols = [power]
            for m in range(1, order + 1):
                power = (power * base).scale(Fraction(1, m))
                cols.append(power)
            tri = [
                [cols[m].coeff(k) * factorial(k) for m in range(k + 1)]
                for k in range(order + 1)
            ]
            cache[lam] = tri
    return tri


def stirling2_deg_series(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Definitional path: n! times coefficient n of (deg_exp(1)-1)^m / m!."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    if m > n:
        return Fraction(0)
    return _series_triangle(_s2_series_rows, _key(lam), n, second_kind=True)[n][m]


def stirling1_deg_series(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Definitional path: n! times coefficient n of deg_log^m / m!."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    if m > n:
        return Fraction(0)
    return _series_triangle(_s1_series_rows, _key(lam), n, second_kind=False)[n][m]


_s1_classical_rows: list[list[int]] = [[1]]


def stirling1_classical(n: int, m: int) -> int:
    """Classical signed Stirling numbers of the first kind,
    s(n+1,k) = s(n,k-1) - n*s(n,k)."""
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    if m > n:
        return 0
    if len(_s1_classical_rows) <= n:
        with _lock:
            while len(_s1_classical_rows) <= n:
                prev = _s1_classical_rows[-1]
                k = len(_s1_classical_rows)
                row = [0] * (k + 1)
                for j in range(k + 1):
                    acc = prev[j - 1] if 1 <= j <= k else 0
                    if j < k:
                        acc -= (k - 1) * prev[j]
                    row[j] = acc
                _s1_classical_rows.append(row)
    return _s1_classical_rows[n][m]


# ---------------------------------------------------------------------------
# degenerate Fubini and fully degenerate Bell polynomials


def fubini_deg(n: int, lam: ExactScalar, y: ExactScalar) -> Fraction:
    """Degenerate Fubini polynomial value: sum_m m! y^m S2(n,m)."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    lam = _key(lam)
    y = _key(y)
    row = _recurrence_rows(_s2_rows, lam, n, second_kind=True)[n]
    acc = dot([factorial(m) * y**m for m in range(n + 1)], row)
    if _cross_check:
        other = fubini_deg_series(n, lam, y)
        if other != acc:
            raise AssertionError(f"fubini_deg dual-path mismatch at n={n}")
    return acc


_fubini_series: dict[tuple[Fraction, Fraction], list[Fraction]] = {}


def fubini_deg_series(n: int, lam: ExactScalar, y: ExactScalar) -> Fraction:
    """Series path: n! times coefficient n of 1/(1 - y(deg_exp(1)-1))."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    key = (_key(lam), _key(y))
    coeffs = _fubini_series.get(key)
    if coeffs is None or len(coeffs) <= n:
        with _lock:
            order = max(n, 2 * len(_fubini_series.get(key, ())), 8)
            denom = one(order) - (deg_exp(1, key[0], order) - one(order)).scale(key[1])
            _fubini_series[key] = coeffs = list((one(order) / denom).coeffs)
    return coeffs[n] * factorial(n)


def bell_deg(n: int, lam: ExactScalar, x: ExactScalar = 1) -> Fraction:
    """Fully degenerate Bell polynomial value: sum_m falling(1,m,lam) x^m S2(n,m).

    The plain Bell number variant is the x = 1 value.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    lam = _key(lam)
    x = _key(x)
    row = _recurrence_rows(_s2_rows, lam, n, second_kind=True)[n]
    falls = _falling_row(Fraction(1), lam, n)
    acc = dot([falls[m] * x**m for m in range(n + 1)], row)
    if _cross_check:
        other = bell_deg_series(n, lam, x)
        if other != acc:
            raise AssertionError(f"bell_deg dual-path mismatch at n={n}")
    return acc


_bell_series: dict[tuple[Fraction, Fraction], list[Fraction]] = {}


def bell_deg_series(n: int, lam: ExactScalar, x: ExactScalar = 1) -> Fraction:
    """Series path: n! times coefficient n of deg_exp(1) composed with
    x*(deg_exp(1)-1)."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    key = (_key(lam), _key(x))
    coeffs = _bell_series.get(key)
    if coeffs is None or len(coeffs) <= n:
        with _lock:
            order = max(n, 2 * len(_bell_series.get(key, ())), 8)
            outer = deg_exp(1, key[0], order)
            inner = (deg_exp(1, key[0], order) - one(order)).scale(key[1])
            _bell_series[key] = coeffs = list(outer.compose(inner).coeffs)
    return coeffs[n] * factorial(n)


# ---------------------------------------------------------------------------
# emission container


@dataclass(frozen=True)
class SequenceTable:
    """Tagged table of exact sequence values for emission and cross-checks."""

    name: str
    lam: Fraction
    x: Fraction | None = None
    r: int | None = None
    m: int | None = None
    values: tuple[tuple[int, Fraction], ...] = field(default_factory=tuple)
