"""The named degenerate sequences, each computable by two independent paths.

Public operations return the fast path (explicit sum or triangular
recurrence); each has a ``*_series`` companion that extracts the same values
from the defining generating function.  The two paths share nothing beyond
the exact-core primitives, which is what makes the cross-checks in the test
suite meaningful.  ``set_cross_check(True)`` makes every public operation
verify its companion path on each call.

All values are exact rationals.  Negative deformation parameters are fully
supported (the sign-flipped identities need them).

Every memoised sequence lives in one :class:`_Memo`: an integer row per key,
built on demand under one lock, exactly to the requested n (the derangement
row as far as the terms row it is read from).  A key holds one
(numerator, denominator) int pair per rational parameter (the deformation
parameter, with the argument where there is one), so a lookup hashes ints
only.  Every live memo is listed, weakly, in ``_MEMOS``, so that the
identity runner can empty them all (``_Memo.clear``) after each |lam|
group, and a memo that nothing else holds is freed.  A row keeps integer
numerators over shared denominators, the layout of FLINT's ``fmpq_poly``,
in one of two forms:

  _Memo          (nums, den): value k is nums[k]/den     falling factorials,
                                                         derangements, the
                                                         order-r terms and
                                                         weights, the Fubini
                                                         and Bell sums, every
                                                         series path
  _TriangleMemo  (rows, q): row k is (nums, q^k)         both Stirling triangles

``ints(key, n)`` gives exactly the values 0..n (row n of a triangle) as
one (nums, den) pair, the form that the kernel's ``dot`` and
``binomial_conv`` take; ``row(key, n)`` gives the published row, which
covers 0..n and may run past n; and ``pair(key, n)`` gives value n as an
unreduced int pair (num, den).  The identity verifiers read all three:
``row`` for every operand of a ``binomial_conv`` at n and of a ``dot``
against a Stirling row n (their sums stop at n), ``ints`` for the Stirling
rows themselves and ``pair`` for single values.  The public ``*_row``
accessors, ``_entry`` and the grow steps read ``ints``, and only the public
``*_row`` and scalar accessors build ``Fraction`` values, at the API
boundary.  A read that hits serves its row with one dict read, and ``ints``
may return the published list itself, not a copy (a whole row of n + 1
values, or row n of a triangle), but copies a slice of a longer row: no
reader mutates what it is given.  A grow step builds a key's row for 0..n
from the key alone, reading no earlier row of that key, and the memo
publishes it in place of the old one: a published row is never changed, so
a reader outside the lock, holding one reference to a row, never pairs new
numerators with an old denominator.  A row is built whole, so many values
of n are read through one row or column accessor, top n first, not through
scalar calls in ascending n, each of which would rebuild the row.

The fast paths grow by recurrences (falling factorials, both Stirling
triangles), by sums over one row of explicit-sum terms (the derangement and
order-r values) and by sums over the rows of a weighted second-kind triangle
(the Fubini and Bell values): one triangle step,
``_triangle_step``, serves both Stirling triangles, their columns
(``stirling1_column``, ``stirling2_column``: the step capped to columns
0..m, with no memo) and the weighted triangles of Fubini and Bell, in which
the weights' ratio w_m / w_{m-1}, one linear factor in m, is folded into the
diagonal step so that each value is the plain sum of one row; Fubini and
Bell take the same step factors on the same scale (q v)^k and differ only in
the diagonal leads.  The series paths (order-r derangements, whose r = 1
case is the derangement series, both series triangles, Fubini, Bell) grow
online: value k, k! times coefficient k of the generating function F, comes
from the values below k through an equation that F satisfies, an
exponential convolution sum_j binom(k, j) w_j v_{k-j} whose weights w_j are
k! times the coefficients of a series built from lam and x, or, for Fubini,
the values of F itself:

  order-r derangement  F (1-t)^r = deg_exp(x-1)        (F * denominator
                                                        = numerator)
  Fubini               (1 + lam t) F' = (1 + y) F^2 - F, from
                       deg_exp(1)' = deg_exp(1)/(1 + lam t) and
                       y deg_exp(1) = 1 + y - 1/F for F = 1/(1 - y(deg_exp(1)-1))
  series triangles     m F_m = base F_{m-1}, F_m = base^m/m!, with base
                       deg_exp(1)-1 (second kind) or deg_log (first kind);
                       one memo row per column m, so entry (n, m) costs
                       columns 1..m only
  Bell                 B G' = a B' G for G = B^a, B = 1 + lam x(deg_exp(1)-1),
                       a = 1/lam (J.C.P. Miller's power recurrence); at
                       lam = 0, G = exp(x(e^t-1)) and the same sum is
                       G' = h' G

The binomials binom(k, j) of the Fubini, Bell and series-triangle steps
come from row k of Pascal's triangle, which each grow step keeps and
advances once per k through the kernel's ``pascal_step``: no step calls
``comb`` per term, and the rows are rolled, one held at a time, not cached.
(The order-r step's sum has at most r terms, with binom(r, i) taken once.)

Each step runs on integers, value k scaled by s^k for one fixed integer s,
with at most one exact division (Fubini's with none; a series column also
divides the column below back to its integers), and publishes its row over
s^n (``_over_power``).  Each builds its weights itself from lam and x,
reading no memo but its own.  So a series
path shares with its fast path only the exact-core primitives: it steps
along the power of t of one generating-function product, where a triangle
steps a Stirling row by a linear factor and an explicit sum adds falling
factorials.  The Fubini series reads no deg_exp coefficient and no Stirling
row, so it shares no integer step with the weighted triangle of ``_FUBINI``.

Derangement values come from the explicit sum
n! * sum_{l<=n} T_l, T_l = falling(x-1, l, lam)/l!, read from one terms row
(over L! s^L for a row covering 0..L) that the order-r sums share: value n
is n! times the plain prefix sum of the row's numerators 0..n, over the
row's denominator, with L! divided out of both.  The values are never grown
by D(n) = n D(n-1) + falling(x-1, n, lam), nor by its integer Horner form
acc s k + E_k: that recurrence is the identity THM2_REC, which must stay a
check, and its integer form is the series path's step at r = 1,
d_k = e_k + k d_{k-1}, the coefficient equation of F (1-t) = deg_exp(x-1)
with e_k from its own falling product.
``derange_row``'s cross-check, ``theorem11_check`` and THM2_CONV set the
series path against these values.

The derangement polynomials in x, unlike the values, grow by THM2_REC and
read no values row: no identity verifier reads the polynomials, so none
compares the recurrence with itself.  The values still never grow by it.

Order-r values come from the same terms row with n! taken out,
D_r(n) = n! sum_{l<=n} binom(r-1+n-l, n-l) T_l, by one of two paths:

  prefix sums   dividing a series by 1 - t takes the partial sums of its
                coefficients, so the values 0..n are r passes of prefix
                sums over the terms row's numerators (``_order_sums``, r n
                additions, whose r = 1 call is the derangement row):
                ``derange_order_row`` for r <= n
  dot product   each value one dot product of the binomials (one weights
                row per r) against the terms row, O(n) products per value:
                the scalar ``derange_deg_order``, the lhs of THM9_VS_SERIES
                and ``derange_order_row`` for r > n, where r passes would
                cost more than the n + 1 dot products

No identity compares a value with itself.  THM9_VS_SERIES, which
``certify`` runs at r = 1, reads the dot product, a sum of independently
weighted terms, never Horner in l nor r nested running sums, and sets it
against the series path's recurrence in k (N_k = E_k + s k N_{k-1} at
r = 1): two structurally different sides.  The verifiers read prefix sums
only as the derangement row, r = 1, which THM2_CONV and ``derange_row``'s
cross-check set against that series path; an order-r row of r > 1 is read
by no verifier, and its own cross-check sets it against the series path
too.  The order-r values are not memoised: each read sums over memoised
rows.
"""

from __future__ import annotations

import threading
import weakref
from fractions import Fraction
from functools import partial
from itertools import accumulate, count, repeat
from math import comb, perm
from operator import add, mul

from .exactcore import ExactScalar, IntPair, Poly, as_fractions, factorial, pascal_step

_lock = threading.RLock()
_MEMOS = weakref.WeakSet()  # every live _Memo

_cross_check = False


def set_cross_check(flag: bool) -> None:
    """Toggle the debug mode in which every public op verifies its dual path."""
    global _cross_check
    _cross_check = bool(flag)


def _key(v: ExactScalar) -> tuple[int, int]:
    """The memo key of a rational: its reduced (numerator, denominator) pair
    of plain ints.  An exact ``int`` or ``Fraction``, every key that the
    runners and the CLI make, gives its own ``as_integer_ratio()``; anything
    else that ``Fraction`` accepts goes through it once, its parts taken as
    ints (a numpy integer has no ``as_integer_ratio``, and ``Fraction`` keeps
    its numerator as given), so no subclass's or third party's ratio reaches
    a key."""
    t = type(v)
    if t is Fraction or t is int:
        return v.as_integer_ratio()
    num, den = Fraction(v).as_integer_ratio()
    return int(num), int(den)


class _Memo:
    """Integer rows per key, built on demand under one lock.  A key holds
    ints only: a (numerator, denominator) pair per rational parameter.  Rows
    are (nums, den), value k being nums[k] / den; only the two Stirling
    triangles keep another layout (``_TriangleMemo``).

    ``grow(key, n)`` builds the row covering indices 0..n from the key
    alone; ``row`` calls it when the key is missing or its row too short and
    publishes the result in place of the old row, which it never changes.
    Every layout is a tuple whose first item is the list indexed by k.  The
    lock is reentrant because building one memo's row may read another.
    ``clear`` drops rows, never changes one: a reader holding a row keeps
    a whole row, and a later read builds it anew.  Each memo registers
    itself in ``_MEMOS``, weakly: a memo that nothing else holds is freed,
    rows and all, and leaves the registry.
    """

    __slots__ = ("grow", "rows", "__weakref__")

    def __init__(self, grow):
        self.grow = grow
        self.rows: dict = {}
        _MEMOS.add(self)

    def row(self, key, n: int):
        """The row for key, covering indices 0..n at least: the published
        layout itself, which may run past n.  The identity verifiers read
        this wherever their kernel sum stops at n (a ``binomial_conv`` at n,
        or a ``dot`` against a Stirling row of n + 1 entries)."""
        row = self.rows.get(key)
        if row is None or len(row[0]) <= n:
            with _lock:
                row = self.rows.get(key)
                if row is None or len(row[0]) <= n:
                    row = self.rows[key] = self.grow(key, n)
        return row

    def ints(self, key, n: int) -> tuple[list[int], int]:
        """Values 0..n in integer-numerator form (nums, den), exactly n + 1
        of them: the published list itself when it holds exactly that many,
        else a copied slice.  The public ``*_row`` accessors, ``_entry`` and
        the grow steps read this; a per-case read whose sum stops at n reads
        ``row`` and copies nothing."""
        row = self.rows.get(key)
        if row is None or len(row[0]) <= n:
            row = self.row(key, n)
        nums = row[0]
        return (nums if len(nums) == n + 1 else nums[: n + 1]), row[1]

    def pair(self, key, n: int) -> IntPair:
        """Value n as an unreduced int pair (num, den)."""
        row = self.rows.get(key)
        if row is None or len(row[0]) <= n:
            row = self.row(key, n)
        return row[0][n], row[1]

    def value(self, key, n: int) -> Fraction:
        return Fraction(*self.pair(key, n))

    def clear(self) -> None:
        """Drop every row."""
        with _lock:
            self.rows.clear()


class _TriangleMemo(_Memo):
    """Rows (rows, q) of a triangle at lam = p/q: row k is (nums, q^k)."""

    __slots__ = ()

    def ints(self, key, n: int) -> tuple[list[int], int]:
        """Row n, entries 0..n: the published (nums, q^n) itself."""
        row = self.rows.get(key)
        if row is None or len(row[0]) <= n:
            row = self.row(key, n)
        return row[0][n]


def _over_power(nums: list[int], s: int) -> tuple[list[int], int]:
    """The values nums[i] / s^i, i = 0..len(nums)-1 = n, as one row over s^n,
    the form in which a grow step publishes values it ran on scaled by s^i;
    at s = 1 (every integer point) nums itself, over 1."""
    if s == 1:
        return nums, 1
    out, f = [], 1
    for v in reversed(nums):
        out.append(v * f)
        f *= s
    out.reverse()
    return out, f // s


def _products(a: int, b: int, n: int, lead: int | None = None, c: int = 1) -> list[int]:
    """[1, lead, lead (a-b) c, lead (a-b)(a-2b) c^2, ...], entries 0..n: entry
    j >= 2 is entry j-1 times (a - (j-1) b) c.  lead defaults to a, so that
    entry j is c^(j-1) prod_{i<j} (a - i b), the weights of the series steps
    (whose sums start at j = 1 and never read entry 0)."""
    out = [1, a if lead is None else lead]
    for j in range(2, n + 1):
        out.append(out[-1] * (a - (j - 1) * b) * c)
    return out[: n + 1]


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")


def _check_indices(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")


def _dual(value, other, *args):
    """value, after checking it against other(*args), its companion path, when
    the cross-check mode is on."""
    if _cross_check and other(*args) != value:
        raise AssertionError(f"dual-path mismatch with {other.__name__}{args}")
    return value


def _entry(memo: _TriangleMemo, n: int, m: int, lam: ExactScalar) -> Fraction:
    """Entry (n, m) of a Stirling triangle memo; 0 above the diagonal."""
    _check_indices(n, m)
    if m > n:
        return Fraction(0)
    nums, den = memo.ints(_key(lam), n)
    return Fraction(nums[m], den)


# ---------------------------------------------------------------------------
# generalized falling factorials


def _grow_falling(key, n):
    """Values falling(x, k, lam) = E_k / s^k at x = u/v, lam = p/q and s = q v,
    with E_k = prod_{i<k} (u q - i p v), over s^n."""
    (u, v), (p, q) = key
    e = [1]
    for k in range(1, n + 1):
        e.append(e[-1] * (u * q - (k - 1) * p * v))
    return _over_power(e, q * v)


_FALLING = _Memo(_grow_falling)


def falling_row(x: ExactScalar, n: int, lam: ExactScalar) -> list[Fraction]:
    """[falling_deg(x, k, lam) for k = 0..n], as a new list."""
    _check_index(n)
    return as_fractions(*_FALLING.ints((_key(x), _key(lam)), n))


def falling_deg(x: ExactScalar, n: int, lam: ExactScalar) -> Fraction:
    """x(x-lam)(x-2*lam)...(x-(n-1)*lam); empty product 1 at n = 0."""
    if n < 0:
        raise ValueError(f"falling factorial length must be >= 0, got {n}")
    return _FALLING.value((_key(x), _key(lam)), n)


# ---------------------------------------------------------------------------
# degenerate derangement polynomials and numbers


def _grow_derange_terms(key, n):
    """The terms T_l = falling(x-1, l, lam)/l! of the explicit sums, shared
    by the derangement values and the order-r sums of every r.  At lam = p/q,
    x = u/v and s = q v, T_l = E_l / (s^l l!) with
    E_l = prod_{i<l} ((u-v) q - i p v); the row keeps them over n! s^n,
    numerator l being E_l prod_{j=l+1..n} (j s)."""
    (p, q), (u, v) = key
    s = q * v
    e = [1]
    for l in range(1, n + 1):
        e.append(e[-1] * ((u - v) * q - (l - 1) * p * v))
    f = 1  # prod_{j=l+1..n} (j s) for the entry l being scaled
    for l in range(n, 0, -1):
        e[l] *= f
        f *= l * s
    e[0] = f
    return e, f


_DERANGE_TERMS = _Memo(_grow_derange_terms)


def _order_sums(key, n: int, r: int) -> tuple[list[int], int]:
    """Order-r values D_r(k) = k! sum_{l<=k} binom(r-1+k-l, k-l) T_l,
    k = 0..n, as (nums, den): dividing a series by 1 - t takes the partial
    sums of its coefficients, so they are r passes of prefix sums over the
    terms row's numerators 0..n, each times k!, over the terms row's
    denominator L! s^L, L! divided out of both exactly (each numerator is
    then a weighted sum of E_l (k!/l!) s^(L-l) over l <= k, over s^L).  The
    passes take r n additions: for r > n they cost more than n + 1 dot
    products, which ``derange_order_row`` takes there instead."""
    terms, den = _DERANGE_TERMS.row(key, n)
    f = factorial(len(terms) - 1)
    sums = terms[: n + 1]
    for _ in range(r):
        sums = list(accumulate(sums))
    return [factorial(k) * t // f for k, t in enumerate(sums)], den // f


def _grow_derange(key, n):
    """Derangement values D(k) = k! sum_{l<=k} T_l, the order-r sums at
    r = 1: one pass of prefix sums.  The row covers what the terms row
    covers."""
    return _order_sums(key, len(_DERANGE_TERMS.row(key, n)[0]) - 1, 1)


_DERANGE = _Memo(_grow_derange)


def derange_row(n: int, lam: ExactScalar, x: ExactScalar = 0) -> list[Fraction]:
    """[derange_deg(k, lam, x) for k = 0..n], as a new list."""
    _check_index(n)
    key = (_key(lam), _key(x))
    return _dual(
        as_fractions(*_DERANGE.ints(key, n)),
        lambda: as_fractions(*_DERANGE_ORDER_SERIES.ints((*key, 1), n)),
    )


def derange_deg(n: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Degenerate derangement value: n! * sum_{l<=n} falling(x-1, l, lam)/l!."""
    _check_index(n)
    value = _DERANGE.value((_key(lam), _key(x)), n)
    return _dual(value, derange_deg_series, n, lam, x)


def derange_deg_series(n: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Series-extraction path: n! times coefficient n of deg_exp(x-1)/(1-t),
    the order-r series at r = 1."""
    _check_index(n)
    return _DERANGE_ORDER_SERIES.value((_key(lam), _key(x), 1), n)


def _derange_polys(n: int, lam: ExactScalar, ks) -> list[Poly]:
    """The derangement polynomials of degree <= k for each k in ks, all
    k <= n, in one pass of THM2_REC on integer coefficients in x at lam = p/q:
    E_k = q^k (x-1)_{k,lam} = E_{k-1} (q x - q - (k-1) p) and
    A_k = q^k D_k(x) = k q A_{k-1} + E_k."""
    _check_index(n)
    p, q = _key(lam)
    e = a = [1]
    polys = []
    for k in range(n + 1):
        if k:
            e = [q * up - (q + (k - 1) * p) * c for up, c in zip([0] + e, e + [0])]
            a = [k * q * c + d for c, d in zip(a + [0], e)]
        if k in ks:
            polys.append(Poly(as_fractions(a, q**k)))
    return polys


def derange_deg_poly(n: int, lam: ExactScalar) -> Poly:
    """The degree-<=n derangement polynomial in x, stepped from degree 0 by
    the recurrence D_k(x) = k D_{k-1}(x) + (x-1)_{k,lam}."""
    return _derange_polys(n, lam, [n])[0]


def derange_poly_row(n: int, lam: ExactScalar) -> list[Poly]:
    """[derange_deg_poly(k, lam) for k = 0..n], as a new list: one pass of
    the recurrence to n, not one per k."""
    return _derange_polys(n, lam, range(n + 1))


def _grow_order_weights(r, n):
    """The weights binom(r-1+k, k), k = 0..n, of the order-r sums (weight k
    multiplies the term T_{n-k}), under the key r."""
    w = [1]
    for k in range(1, n + 1):
        w.append(w[-1] * (r - 1 + k) // k)
    return w, 1


_ORDER_WEIGHTS = _Memo(_grow_order_weights)


def _derange_order(n: int, r: int, lam: IntPair, x: IntPair) -> IntPair:
    """The explicit order-r sum at int-pair keys with n! taken out:
    n! sum_l binom(r-1+n-l, n-l) T_l, one dot product over the terms row, as
    an unreduced int pair (num, den)."""
    nums, den = _DERANGE_TERMS.row((lam, x), n)
    w = _ORDER_WEIGHTS.row(r, n)[0]
    return factorial(n) * sum(map(mul, w[n::-1], nums)), den


def _check_order(r: int) -> None:
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")


def derange_order_row(n: int, r: int, lam: ExactScalar, x: ExactScalar = 0) -> list[Fraction]:
    """[derange_deg_order(k, r, lam, x) for k = 0..n], as a new list: for
    r <= n, r passes of prefix sums over the terms row (``_order_sums``);
    for r > n, where the passes would cost more, each value the scalar's dot
    product over the terms row."""
    _check_index(n)
    _check_order(r)
    key = (_key(lam), _key(x))
    if r <= n:
        values = as_fractions(*_order_sums(key, n, r))
    else:
        _DERANGE_TERMS.row(key, n)
        _ORDER_WEIGHTS.row(r, n)
        values = [Fraction(*_derange_order(k, r, *key)) for k in range(n + 1)]
    return _dual(values, lambda: as_fractions(*_DERANGE_ORDER_SERIES.ints((*key, r), n)))


def derange_deg_order(n: int, r: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Order-r degenerate derangement value:
    n! * sum_{l<=n} falling(x-1, l, lam)/l! * binom(r+n-l-1, n-l)."""
    _check_index(n)
    _check_order(r)
    value = Fraction(*_derange_order(n, r, _key(lam), _key(x)))
    return _dual(value, derange_deg_order_series, n, r, lam, x)


def _grow_derange_order_series(key, n):
    """d_k = k! [t^k] F for F (1-t)^r = deg_exp(x-1), from its coefficient
    equation d_k = e_k - sum_{i=1..min(r,k)} binom(k,i) (-1)^i i! binom(r,i) d_{k-i}
    with e_k = falling(x-1, k, lam).  At lam = p/q, x = u/v and s = q v it
    runs on N_k = s^k d_k and E_k = s^k e_k = prod_{i<k} ((u-v) q - i p v):
    N_k = E_k - sum_i (-1)^i binom(r,i) s^i k!/(k-i)! N_{k-i}, published
    over s^n."""
    (p, q), (u, v), r = key
    s = q * v
    e = _products((u - v) * q, p * v, n)
    w = [(-1) ** i * comb(r, i) * s**i for i in range(min(r, n) + 1)]
    nums = [1]
    for k in range(1, n + 1):
        nums.append(e[k] - sum(w[i] * perm(k, i) * nums[k - i] for i in range(1, min(r, k) + 1)))
    return _over_power(nums, s)


_DERANGE_ORDER_SERIES = _Memo(_grow_derange_order_series)


def derange_deg_order_series(n: int, r: int, lam: ExactScalar, x: ExactScalar = 0) -> Fraction:
    """Series path for the order-r values: n! times coefficient n of
    deg_exp(x-1)/(1-t)^r."""
    _check_order(r)
    _check_index(n)
    return _DERANGE_ORDER_SERIES.value((_key(lam), _key(x), r), n)


# ---------------------------------------------------------------------------
# degenerate Stirling numbers, both kinds, both paths


def _triangle_step(top: list[int], leads, a: int, b: int, width: int | None = None) -> list[int]:
    """The integer row after top in a triangle
    T(k, m) = lead_m T(k-1, m-1) + (m a - b) T(k-1, m), top being row k-1,
    b the factor's constant at k and leads giving lead_0, lead_1, ... (lead_0
    multiplies T(k-1, -1) = 0).  With a width, only the entries m < width are
    kept: no entry reads one to its right."""
    ups = top + [0] if width is None or len(top) < width else top
    return list(map(add, map(mul, leads, [0] + top), map(mul, count(-b, a), ups)))


def _stirling_steps(second_kind: bool, lam, n: int, width=None):
    """Rows 1..n of a Stirling triangle at lam = p/q, stepped from row 0,
    [1]; row k holds the integers T(k, m) = q^k S(k, m):
    second kind T(k,m) = q T(k-1,m-1) + (m q - (k-1) p) T(k-1,m),
    first kind  T(k,m) = q T(k-1,m-1) + (m p - (k-1) q) T(k-1,m)."""
    p, q = lam
    a, b = (q, p) if second_kind else (p, q)
    top = [1]
    for j in range(1, n + 1):
        top = _triangle_step(top, repeat(q), a, (j - 1) * b, width)
        yield top


def _grow_triangle(second_kind: bool, lam, n):
    """Rows 0..n of the triangle at lam = p/q, row k being the integers
    T(k, m) = q^k S(k, m) over q^k, each stepped from the last one's."""
    q = lam[1]
    rows, den = [([1], 1)], 1
    for top in _stirling_steps(second_kind, lam, n):
        den *= q
        rows.append((top, den))
    return rows, q


_S2 = _TriangleMemo(partial(_grow_triangle, True))
_S1 = _TriangleMemo(partial(_grow_triangle, False))


def _stirling_column(second_kind: bool, n: int, m: int, lam: ExactScalar) -> list[Fraction]:
    """Entries (k, m), k = 0..n, of a Stirling triangle: the rows are
    stepped with width m + 1, columns 0..m, in O(n m) and with no memo."""
    _check_indices(n, m)
    if m > n:
        return [Fraction(0)] * (n + 1)
    lam = _key(lam)
    col, den = [Fraction(int(m == 0))], 1
    for k, top in enumerate(_stirling_steps(second_kind, lam, n, m + 1), 1):
        den *= lam[1]
        col.append(Fraction(top[m], den) if k >= m else Fraction(0))
    return col


def stirling2_column(n: int, m: int, lam: ExactScalar) -> list[Fraction]:
    """[stirling2_deg(k, m, lam) for k = 0..n], as a new list."""
    return _dual(_stirling_column(True, n, m, lam), stirling2_series_column, n, m, lam)


def stirling1_column(n: int, m: int, lam: ExactScalar) -> list[Fraction]:
    """[stirling1_deg(k, m, lam) for k = 0..n], as a new list."""
    return _dual(_stirling_column(False, n, m, lam), stirling1_series_column, n, m, lam)


def stirling2_row(n: int, lam: ExactScalar) -> list[Fraction]:
    """[stirling2_deg(n, m, lam) for m = 0..n], as a new list."""
    _check_index(n)
    return _dual(
        as_fractions(*_S2.ints(_key(lam), n)),
        lambda: [stirling2_deg_series(n, m, lam) for m in range(n + 1)],
    )


def stirling1_row(n: int, lam: ExactScalar) -> list[Fraction]:
    """[stirling1_deg(n, m, lam) for m = 0..n], as a new list."""
    _check_index(n)
    return _dual(
        as_fractions(*_S1.ints(_key(lam), n)),
        lambda: [stirling1_deg_series(n, m, lam) for m in range(n + 1)],
    )


def stirling2_deg(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Degenerate Stirling number of the second kind via the triangular
    recurrence S(n+1,m) = S(n,m-1) + (m - n*lam) S(n,m)."""
    return _dual(_entry(_S2, n, m, lam), stirling2_deg_series, n, m, lam)


def stirling1_deg(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Degenerate Stirling number of the first kind via the triangular
    recurrence S(n+1,m) = S(n,m-1) + (lam*m - n) S(n,m)."""
    return _dual(_entry(_S1, n, m, lam), stirling1_deg_series, n, m, lam)


def _grow_series_column(second_kind: bool, key, n):
    """Entries k = 0..n of column m of a series triangle,
    S(k, m) = k! [t^k] base^m/m!, from m F_m = base F_{m-1}:
    m S(k,m) = sum_{j=1..k-m+1} binom(k,j) beta_j S(k-j,m-1), with
    beta_j = j! [t^j] base: falling(1, j, lam) for base = deg_exp(1)-1 and
    (lam-1)(lam-2)...(lam-j+1) for base = deg_log.  At lam = p/q it runs on
    T(k, m) = q^k S(k, m) with B_j = q^j beta_j, both integers:
    m T(k,m) = sum_j binom(k,j) B_j T(k-j,m-1), an exact division by m,
    published over q^n.  Column m-1 is read to n-1 from the same memo: entry
    k of its row over q^N is T(k, m-1) q^(N-k), an exact division away.
    Column 0 is 1, 0, 0, ...; a column is grown to n >= m only, since
    ``_series_column`` answers entries above the diagonal itself."""
    lam, m = key
    p, q = lam
    if m == 0:
        return _over_power([1] + [0] * n, q)
    big = _products(q, p, n) if second_kind else _products(p, q, n, lead=q)
    memo = _S2_SERIES if second_kind else _S1_SERIES
    col = memo.row((lam, m - 1), n - 1)[0]
    prev, f = [], q ** (len(col) - n)  # q^(N-k) at k = n-1
    for v in col[n - 1 :: -1]:
        prev.append(v // f)
        f *= q
    prev.reverse()
    nums, binom = [0], [1]
    for k in range(1, n + 1):
        binom = pascal_step(binom)
        top = k - m + 2  # the sum runs over j < top
        terms = map(mul, map(mul, binom[1:top], big[1:top]), reversed(prev[m - 1 : k]))
        nums.append(sum(terms) // m)
    return _over_power(nums, q)


_S2_SERIES = _Memo(partial(_grow_series_column, True))
_S1_SERIES = _Memo(partial(_grow_series_column, False))


def _series_column(memo: _Memo, n: int, m: int, lam: ExactScalar) -> tuple[list[int], int]:
    """Column m of a series triangle as its memo row (nums, den), covering
    k = 0..n at least, entry (k, m) being nums[k] / den; all 0 above the
    diagonal.  Columns 1..m are built in turn, each once, to n, so that no
    grow step recurses into the one below."""
    _check_indices(n, m)
    if m > n:
        return [0] * (n + 1), 1
    lam = _key(lam)
    for i in range(1, m):
        memo.row((lam, i), n)
    return memo.row((lam, m), n)


def _series_entry(memo: _Memo, n: int, m: int, lam: ExactScalar) -> Fraction:
    """Entry (n, m) of a series triangle; 0 above the diagonal."""
    nums, den = _series_column(memo, n, m, lam)
    return Fraction(nums[n], den)


def stirling2_deg_series(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Definitional path: n! times coefficient n of (deg_exp(1)-1)^m / m!,
    grown column from column by m F_m = (deg_exp(1)-1) F_{m-1}."""
    return _series_entry(_S2_SERIES, n, m, lam)


def stirling1_deg_series(n: int, m: int, lam: ExactScalar) -> Fraction:
    """Definitional path: n! times coefficient n of deg_log^m / m!, grown
    column from column by m F_m = deg_log F_{m-1}."""
    return _series_entry(_S1_SERIES, n, m, lam)


def stirling2_series_column(n: int, m: int, lam: ExactScalar) -> list[Fraction]:
    """[stirling2_deg_series(k, m, lam) for k = 0..n], as a new list; the
    series columns are built once, to n."""
    nums, den = _series_column(_S2_SERIES, n, m, lam)
    return as_fractions(nums[: n + 1], den)


def stirling1_series_column(n: int, m: int, lam: ExactScalar) -> list[Fraction]:
    """[stirling1_deg_series(k, m, lam) for k = 0..n], as a new list; the
    series columns are built once, to n."""
    nums, den = _series_column(_S1_SERIES, n, m, lam)
    return as_fractions(nums[: n + 1], den)


def stirling1_classical(n: int, m: int) -> int:
    """Classical signed Stirling numbers of the first kind,
    s(n+1,k) = s(n,k-1) - n*s(n,k): the first-kind triangle at lam = 0."""
    _check_indices(n, m)
    if m > n:
        return 0
    return _S1.ints((0, 1), n)[0][m]


# ---------------------------------------------------------------------------
# degenerate Fubini and fully degenerate Bell polynomials


def _grow_weighted_sums(bell: bool, key, n):
    """Values sum_m w_m S2(k, m; lam), k = 0..n, at lam = p/q and argument
    u/v: Fubini w_m = m! y^m, Bell w_m = falling(1, m, lam) x^m.  The weight
    ratio w_m / w_{m-1} = c_m / (q v) is one linear factor in m (Fubini
    c_m = q m u, Bell c_m = (q - (m-1) p) u), folded into the diagonal step of
    the second-kind triangle: X(k, m) = (q v)^k w_m S2(k, m; lam) are the
    integers X(k,m) = c_m X(k-1,m-1) + v (m q - (k-1) p) X(k-1,m), and value
    k is the plain sum of row k over (q v)^k, and the row's values are over
    (q v)^n."""
    (p, q), (u, v) = key
    if bell:
        leads = [(q - (m - 1) * p) * u for m in range(n + 1)]
    else:
        leads = [q * m * u for m in range(n + 1)]
    top, sums = [1], [1]
    for k in range(1, n + 1):
        top = _triangle_step(top, leads, q * v, (k - 1) * p * v)
        sums.append(sum(top))
    return _over_power(sums, q * v)


_FUBINI = _Memo(partial(_grow_weighted_sums, False))
_BELL = _Memo(partial(_grow_weighted_sums, True))


def fubini_row(n: int, lam: ExactScalar, y: ExactScalar) -> list[Fraction]:
    """[fubini_deg(k, lam, y) for k = 0..n], as a new list."""
    _check_index(n)
    return _dual(
        as_fractions(*_FUBINI.ints((_key(lam), _key(y)), n)), fubini_series_row, n, lam, y
    )


def fubini_deg(n: int, lam: ExactScalar, y: ExactScalar) -> Fraction:
    """Degenerate Fubini polynomial value: sum_m m! y^m S2(n,m)."""
    _check_index(n)
    return _dual(_FUBINI.value((_key(lam), _key(y)), n), fubini_deg_series, n, lam, y)


def _grow_fubini_series(key, n):
    """f_k = k! [t^k] F for F = 1/(1 - y(deg_exp(1)-1)), from the equation
    (1 + lam t) F' = (1 + y) F^2 - F that F satisfies, since
    deg_exp(1)' = deg_exp(1)/(1 + lam t) and y deg_exp(1) = 1 + y - 1/F:
    f_{k+1} = (1+y) sum_j binom(k,j) f_j f_{k-j} - (1 + lam k) f_k.  At
    lam = p/q, y = u/v it runs on N_k = (q v)^k f_k:
    N_{k+1} = q(u+v) sum_j binom(k,j) N_j N_{k-j} - v(q + p k) N_k,
    with no division, published over (q v)^n; the sum is symmetric in j, so
    it takes j < k/2 twice and the middle term once."""
    (p, q), (u, v) = key
    c = q * (u + v)
    nums, binom = [1], [1]
    for k in range(n):  # N_{k+1} from N_0..N_k and binom, row k
        h = (k + 1) // 2
        tot = 2 * sum(map(mul, map(mul, binom[:h], nums[:h]), nums[k : k - h : -1]))
        if k % 2 == 0:
            tot += binom[h] * nums[h] ** 2
        nums.append(c * tot - v * (q + p * k) * nums[k])
        binom = pascal_step(binom)
    return _over_power(nums, q * v)


_FUBINI_SERIES = _Memo(_grow_fubini_series)


def fubini_series_row(n: int, lam: ExactScalar, y: ExactScalar) -> list[Fraction]:
    """[fubini_deg_series(k, lam, y) for k = 0..n], as a new list."""
    _check_index(n)
    return as_fractions(*_FUBINI_SERIES.ints((_key(lam), _key(y)), n))


def fubini_deg_series(n: int, lam: ExactScalar, y: ExactScalar) -> Fraction:
    """Series path: n! times coefficient n of 1/(1 - y(deg_exp(1)-1))."""
    _check_index(n)
    return _FUBINI_SERIES.value((_key(lam), _key(y)), n)


def bell_row(n: int, lam: ExactScalar, x: ExactScalar = 1) -> list[Fraction]:
    """[bell_deg(k, lam, x) for k = 0..n], as a new list."""
    _check_index(n)
    return _dual(as_fractions(*_BELL.ints((_key(lam), _key(x)), n)), bell_series_row, n, lam, x)


def bell_deg(n: int, lam: ExactScalar, x: ExactScalar = 1) -> Fraction:
    """Fully degenerate Bell polynomial value: sum_m falling(1,m,lam) x^m S2(n,m).

    The plain Bell number variant is the x = 1 value.
    """
    _check_index(n)
    return _dual(_BELL.value((_key(lam), _key(x)), n), bell_deg_series, n, lam, x)


def _grow_bell_series(key, n):
    """g_k = k! [t^k] G for G = B^(1/lam), B = 1 + lam x(deg_exp(1)-1), from
    Miller's power recurrence B G' = (1/lam) B' G:
    k g_k = x sum_{j=1..k} binom(k,j) ((1+lam) j - lam k) falling(1,j,lam) g_{k-j}.
    At lam = 0 this is k g_k = x sum_j binom(k,j) j g_{k-j}, the equation
    G' = h' G of G = exp(h), h = x(e^t-1).  At lam = p/q, x = u/v it runs on
    N_k = (q^2 v)^k g_k:
    k N_k = u sum_j binom(k,j) ((q+p) j - p k) q^j falling(1,j,lam) (q v)^(j-1) N_{k-j},
    an exact division by k, published over (q^2 v)^n."""
    (p, q), (u, v) = key
    c = _products(q, p, n, c=q * v)  # q^j falling(1, j, lam) (q v)^(j-1)
    nums, binom = [1], [1]
    for k in range(1, n + 1):
        binom = pascal_step(binom)
        lin = count(q - p * (k - 1), q + p)  # (q+p) j - p k for j = 1, 2, ...
        terms = map(mul, map(mul, map(mul, binom[1:], lin), c[1 : k + 1]), reversed(nums))
        nums.append(u * sum(terms) // k)
    return _over_power(nums, q * q * v)


_BELL_SERIES = _Memo(_grow_bell_series)


def bell_series_row(n: int, lam: ExactScalar, x: ExactScalar = 1) -> list[Fraction]:
    """[bell_deg_series(k, lam, x) for k = 0..n], as a new list."""
    _check_index(n)
    return as_fractions(*_BELL_SERIES.ints((_key(lam), _key(x)), n))


def bell_deg_series(n: int, lam: ExactScalar, x: ExactScalar = 1) -> Fraction:
    """Series path: n! times coefficient n of deg_exp(1) composed with
    x*(deg_exp(1)-1), that is of (1 + lam x(deg_exp(1)-1))^(1/lam), or of
    exp(x(e^t-1)) at lam = 0, grown by Miller's power recurrence."""
    _check_index(n)
    return _BELL_SERIES.value((_key(lam), _key(x)), n)
