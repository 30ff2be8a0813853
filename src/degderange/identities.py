"""Executable verifiers for the identity catalog.

Each identity is evaluated at concrete rational parameters; the two sides are
computed by structurally independent code paths, sharing only the exact-core
primitives (factorials, binomials, falling-factorial products).  The
verifiers read the memo rows of ``sequences`` as integers over one
denominator and sum them with the kernel's ``dot`` and ``binomial_conv``,
and each returns its two sides as unreduced int pairs (num, den).  ``verify``
compares a/b with c/d as a*d == c*b, with no gcd (Knuth, TAOCP vol. 2,
4.5.1), and only then builds ``Fraction`` values: one, reduced once, for a
case whose sides agree, returned as both sides, and two for a case whose
sides differ.  The runs of ``verify_grid`` and ``certify`` build them for
failing cases only (see "Per case").  The path mapping, per identity:

  THM2_CONV          lhs: series extraction of the derangement generating
                     function; rhs: convolution sum over derangement numbers
                     (explicit sums) and falling factorials.
  THM2_REC/_X0       lhs: falling-factorial product; rhs: D(n) - n D(n-1)
                     over explicit-sum derangement values (prefix sums of
                     the shared terms row).
  THM3               lhs: double sum (explicit-sum derangements, recurrence
                     Stirling triangle); rhs: alternating single sum over
                     the falling-factorial row at (1-x, -lam), since
                     falling(1-x, m; -lam) = (-1)^m falling(x-1, m; lam).
  THM4               lhs: recurrence triangle + explicit-sum derangements;
                     rhs: double sum with series-extracted Fubini values.
  THM5               three expressions: Fubini values (row sums of the
                     weighted second-kind triangle) with the first-kind
                     triangle / derangement-number convolution / x-shifted
                     convolution; all must also equal n!.  The first two
                     are free of x and come from a per-lam row
                     (``_THM5_FREE``); the x-shifted one is summed per case.
  LEMMA6             both sides weighted by the same second-kind triangle,
                     falling products vs derangement differences.
  THM7_A             lhs: falling product; rhs: composition-path Bell values
                     with the first-kind triangle.
  THM7_B             lhs: composition-path Bell value; rhs: falling products
                     with the second-kind triangle.
  THM8_A             lhs: alternating derangement sum over the sign-flipped
                     second-kind triangle; rhs: composition-path Bell values
                     at the flipped parameter.
  THM8_B             lhs: Bell values (row sums of the weighted
                     second-kind triangle) with the first-kind triangle;
                     rhs: signed falling product at the flipped parameter.
  EQ24_25            lhs: signed falling products with the first-kind
                     triangle, free of x: its unsigned sum comes from a
                     per-lam row (``_EQ24_25_FREE``) and the sign per case;
                     rhs: derangement-polynomial convolution, per case.
  THM9_VS_SERIES     lhs: explicit order-r sum, n! taken out, over the
                     shared terms row; rhs: the series path's
                     coefficient recurrence for F (1-t)^r = deg_exp(x-1).
  THM10              lhs: composition-path Bell value at the flipped
                     parameter; rhs: double sum over the original one.
  EXP_MOMENT_BRIDGE  lhs: moment-weighted convolution (exponential moments
                     m! substituted exactly); rhs: series extraction.

The Fubini and Bell values are the only ones read from a weighted
triangle, and no identity sets them against the same triangle: THM5 and
THM8_B compare them with n! and a falling product, and THM7_B's rhs dots
the memoised second-kind triangle with falling products.  Every row of sums
sum_m w[m] T(j, m; mu) over a memoised Stirling triangle comes from one
step, ``_triangle_sums``: the inner sums of THM3, THM4 and THM10 over the
second-kind triangle, and the x-free THM5 Fubini expression and EQ24_25 lhs
over the first-kind one.

The mutation mode applies one deliberate sign flip per identity (negative
control for the harness itself).

Per case.  ``_run_group`` calls the public ``verify`` once per distinct
(identity, n, lam, x, r) case, so a count of its calls is the number of
cases run.  One call unpacks the case once, checks it against its
``_Spec``, makes each parameter's memo key with one ``_key`` call (an exact
``Fraction`` or ``int``, as every runner key is, gives its own ratio) and
runs the verifier, whose work is a fixed handful of memo reads and one or
two kernel sums over them (``dot``, ``binomial_conv``; signs and
differences enter as ``map`` chains, never as a list built per case); then
``verify`` compares the two int pairs inline, by cross-multiplication.  A
read that hits is one dict read and copies nothing.  Every operand of a
``binomial_conv`` at n, and of a ``dot`` against a Stirling row n, is the
published row (``_Memo.row``), which may run past n, since the run's top n
built it: both sums stop at n.  The Stirling rows are read exactly
(``ints``: row n of a triangle is published as its n + 1 entries), and
single values as pairs (``pair``).  Runs compare int pairs and build
``Fraction`` values for failures only: ``_run_group`` reads just whether a
case passed, and a failing case's sides, so it calls ``verify`` with
``values=False``, under which a passing case returns before any gcd and a
failing one returns the two reduced ``Fraction`` values of the default
call.  A side that does not involve x is not summed per case: the x-free
THM5 expressions and the EQ24_25 lhs are read as entry n of a row keyed by
lam alone, which holds the int pairs of that side for every n up to its
length, each its own sum over the source rows, so one row serves every x
point of a lam.  Each case still makes its own comparisons and its own
mutation flip.  Verifiers over whole runs, one call per (identity, lam, x)
for all of its n, would remove most of these steps, and the ``values``
keyword with them, but a call would then no longer be a case; they wait
for a case counter of their own.

Evaluation order.  A memo row is built whole, to the largest n asked of
it, a larger n building a new row, and each smaller n reads the published
row, its kernel sum stopping at n, so ``_run_group`` evaluates each run,
one (identity, lam, x) key, top n first, each distinct case once, and each
caller writes its runs in closed form.  The per-lam rows of the x-free
sides follow the same rule: the first run of a lam starts at the largest n
of every run, so each is built once, and its grow step reads each source
row once, at its top n (a ``dot`` stops at the shorter row, and a
convolution at k reads entries 0..k), never at an ascending k, which would
rebuild the source row at every step.
Every caller's runs come in groups, one per |lam| (THM8_A and THM10 read
lam and -lam), and the runner empties every memo (``_Memo.clear``) after
each: each row is built once, the order-r weights, keyed by r alone, once
per group, and memory holds one group's rows.  ``_run`` deals a pooled
run's groups round-robin to the workers, whole.
The order never reaches the output: failures are reported in
``IdentityCase.sort_key`` order, a case repeated in a grid once per copy,
and certification per identity and n.

Degree bounds.  At fixed n every side is a polynomial in lam and x, of
degree at most (d_lam, d_x) = (max(n-1, 0), n) for an identity that uses x
and (max(n-1, 0), 0) for one that does not (``_degrees``, read from
``_Spec.uses_x``).  The bounds are derived, not measured, from the
per-sequence bounds:

  falling(x, k; lam) = prod_{i<k} (x - i lam)   x-degree k, lam-degree k-1
  S1(n, m; lam), S2(n, m; lam)                  lam-degree n-m (each step of
                                                the recurrence off the
                                                diagonal multiplies by a
                                                linear factor in lam)
  D(n; lam, x) = n! sum_{l<=n} falling(x-1, l; lam)/l!
                                                x-degree n, lam-degree n-1
  D_r(n; lam, x), order r                       as D: the binomial weights
                                                are constants
  Fubini F(n; lam, y) = sum_m m! y^m S2(n, m; lam)
                                                lam-degree n-1
  Bell(n; lam, x) = sum_m falling(1, m; lam) x^m S2(n, m; lam)
                                                x-degree n, lam-degree n-1

(every lam-degree k-1 or n-1 reads 0 at k = 0 or n = 0; a generating-function
path computes the same polynomial as its explicit sum, coefficient by
coefficient).  Degrees add in products, and the two sums the identities use
keep the bound n-1 in lam and n in x:

  sum_m a_m S(n, m; lam) with deg_lam a_m <= m-1:   (m-1) + (n-m) = n-1;
  sum_l binom(n, l) a_l b_{n-l} with deg_lam a_l <= l-1 and
  deg_lam b_k <= k-1:   (l-1) + (n-l-1) <= n-1, the terms l = 0 and l = n
  (a constant a_0 or b_0) reaching n-1.

Where x occurs, it does so through D, falling(x-1, .) and the inner sums
over them, each of x-degree at most its index, so n bounds the x-degree;
THM5's three expressions share that bound although their common value n! is
constant.  Where it does not, -lam in place of lam leaves each degree.

THM9_VS_SERIES has degree <= n in r as well (through
binom(n-l+r-1, n-l)); ``certify`` fixes r = 1, so it certifies that
identity at r = 1 only.

Points.  The degree argument needs d + 1 distinct points per axis and
nothing else of them, so ``certify_ranges`` uses the integers 0, 1, -1, 2,
-2, ...  Any distinct points are sound because no point is a pole: every
side is a polynomial in lam and x, and every grow step that a verifier
reads divides only by an index, exactly (``// m``, ``// k``, ``// f`` with
f = L!), never by lam or x.  The one other division, the series-triangle
step's exact division by a power of lam's denominator, feeds only
``_S1_SERIES`` and ``_S2_SERIES``, which no verifier reads.
"""

from __future__ import annotations

import os
from collections import Counter
from enum import Enum
from fractions import Fraction
from itertools import chain, count, cycle, groupby, repeat
from operator import mul, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .exactcore import ExactScalar, IntRow, binomial_conv, dot, factorial, factorials
from .sequences import (
    _BELL,
    _BELL_SERIES,
    _DERANGE,
    _DERANGE_ORDER_SERIES,
    _FALLING,
    _FUBINI,
    _FUBINI_SERIES,
    _MEMOS,
    _S1,
    _S2,
    _derange_order,
    _key,
    _Memo,
    _TriangleMemo,
)

MAX_N = 256

# the default grid of ``verify_grid`` and of the CLI's ``verify``: the full
# certification grid
DEFAULT_LAMBDA_GRID = (0, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3),
                       Fraction(2, 7))
DEFAULT_X_GRID = (0, 1, -2, Fraction(3, 4))


class IdentityId(str, Enum):
    THM2_CONV = "THM2_CONV"
    THM2_REC = "THM2_REC"
    THM2_REC_X0 = "THM2_REC_X0"
    THM3 = "THM3"
    THM4 = "THM4"
    THM5 = "THM5"
    LEMMA6 = "LEMMA6"
    THM7_A = "THM7_A"
    THM7_B = "THM7_B"
    THM8_A = "THM8_A"
    THM8_B = "THM8_B"
    EQ24_25 = "EQ24_25"
    THM9_VS_SERIES = "THM9_VS_SERIES"
    THM10 = "THM10"
    EXP_MOMENT_BRIDGE = "EXP_MOMENT_BRIDGE"


class IdentityCase(NamedTuple):
    identity_id: IdentityId
    n: int
    lam: Fraction
    x: Fraction | None = None
    r: int | None = None

    def sort_key(self):
        return (
            self.identity_id.value,
            self.n,
            self.lam,
            self.x if self.x is not None else Fraction(0),
            self.r if self.r is not None else 0,
        )


class VerificationReport(NamedTuple):
    cases_run: int
    failures: list[tuple[IdentityCase, Fraction, Fraction]]

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# verifiers; each takes lam and x as (numerator, denominator) int pairs, the
# memo keys, reads the memo rows as integers over one denominator and
# returns (lhs, rhs), each side an unreduced int pair (num, den)

_ZERO, _ONE, _MINUS_ONE = (0, 1), (1, 1), (-1, 1)


def _neg(a):
    return -a[0], a[1]


def _shift(a, c: int):
    """a + c for an integer c, still reduced."""
    return a[0] + c * a[1], a[1]


def _equal(a, b) -> bool:
    """a == b for two int pairs, by cross-multiplication."""
    return a[0] * b[1] == b[0] * a[1]


def _alternating(row: IntRow) -> IntRow:
    """The entries (-1)^m row[m]."""
    nums, den = row
    return [-v if m % 2 else v for m, v in enumerate(nums)], den


def _thm2_conv(n, lam, x, r, mutate):
    lhs = _DERANGE_ORDER_SERIES.pair((lam, x, 1), n)
    d, f = _DERANGE.row((lam, _ZERO), n), _FALLING.row((x, lam), n)
    num, den = binomial_conv(d, f, n)
    if mutate:  # flip the sign of the top summand
        num -= 2 * d[0][n] * f[0][0]
    return lhs, (num, den)


def _thm2_rec(n, lam, x, r, mutate):
    lhs = _FALLING.pair((_shift(x, -1), lam), n)
    d, den = _DERANGE.row((lam, x), n)
    sign = 1 if mutate else -1
    return lhs, (d[n] + sign * n * d[n - 1], den)


def _thm2_rec_x0(n, lam, x, r, mutate):
    return _thm2_rec(n, lam, _ZERO, r, mutate)


def _triangle_sums(w: IntRow, tri: _TriangleMemo, mu, n: int) -> IntRow:
    """The row sums[j] = sum_m w[m] T(j, m; mu), j = 0..n, over a Stirling
    triangle memo at mu = p/q, for the weights w[0..n] as (nums, den): the
    triangle is read once, at n, and sums[j], an integer dot product over
    den q^j, is put over den q^n."""
    wn, wd = w
    rows, q = tri.row(mu, n)
    return [sum(map(mul, wn, rows[j][0])) * q ** (n - j) for j in range(n + 1)], wd * q**n


# inner[j] = sum_l (-1)^l D(l; lam, x) S2(j, l; mu) at the key (lam, x, mu),
# for THM3 (mu = lam) and THM10 (x = 0, mu = -lam)
_ALTERNATING_INNER = _Memo(
    lambda key, n: _triangle_sums(_alternating(_DERANGE.ints(key[:2], n)), _S2, key[2], n)
)


def _thm3(n, lam, x, r, mutate):
    lhs = binomial_conv(_ALTERNATING_INNER.row((lam, x, lam), n), _FALLING.row((_ONE, lam), n), n)
    # (-1)^m falling(x-1, m; lam) = falling(1-x, m; -lam), whose row holds
    # the same integers up to sign, over the same denominator
    rhs = dot(_FALLING.row((_shift(_neg(x), 1), _neg(lam)), n), _S2.ints(lam, n))
    if mutate:
        rhs = _neg(rhs)
    return lhs, rhs


# inner[l] = sum_m falling(x-1, m; lam) S2(l, m; lam) at the key (lam, x)
_THM4_INNER = _Memo(
    lambda key, n: _triangle_sums(_FALLING.ints((_shift(key[1], -1), key[0]), n), _S2, key[0], n)
)


def _thm4(n, lam, x, r, mutate):
    lhs = dot(_S2.ints(lam, n), _DERANGE.row((lam, x), n))
    rhs = binomial_conv(_THM4_INNER.row((lam, x), n), _FUBINI_SERIES.row((lam, _ONE), n), n)
    if mutate:  # negate every Fubini value
        rhs = _neg(rhs)
    return lhs, rhs


def _thm5_free_sides(lam, n):
    """Grow step for the x-free THM5 expressions at k = 0..n, the row
    ([(expr_a, expr_b), ...],) read through ``_Memo.row``: the Fubini values
    against the first-kind triangle, and the derangement-number
    convolution.  Each source row is read once, at n (a convolution at k
    reads k + 1 entries), and each k is its own sum."""
    nums, den = _triangle_sums(_FUBINI.ints((lam, _ONE), n), _S1, lam, n)
    d, f = _DERANGE.ints((lam, _ZERO), n), _FALLING.ints((_ONE, lam), n)
    return [((a, den), binomial_conv(d, f, k)) for k, a in enumerate(nums)],


# keyed by lam alone: the two sides of THM5 that do not involve x
_THM5_FREE = _Memo(_thm5_free_sides)


def _thm5(n, lam, x, r, mutate):
    expr_a, expr_b = _THM5_FREE.row(lam, n)[0][n]
    d, f = _DERANGE.row((lam, x), n), _FALLING.row((_shift(_neg(x), 1), lam), n)
    num, den = binomial_conv(d, f, n)
    if mutate:  # flip the sign of the top summand of the x-shifted form
        num -= 2 * d[0][n] * f[0][0]
    # surface whichever pair differs first
    if not _equal(expr_a, expr_b):
        return expr_a, expr_b
    nfact = factorial(n), 1
    if not _equal(expr_a, nfact):
        return expr_a, nfact
    return expr_a, (num, den)


def _lemma6(n, lam, x, r, mutate):
    # both sums run over m = 1..n; their terms at m = 0 carry S2(n, 0; lam),
    # which is 0 at n >= 1, so each is taken over the whole row
    f, s = _FALLING.row((_shift(x, -1), lam), n), _S2.ints(lam, n)
    num, den = dot(f, s)
    if mutate:
        num -= 2 * f[0][1] * s[0][1]
    d, dd = _DERANGE.row((lam, x), n)
    differences = map(sub, d, map(mul, count(), chain((0,), d)))  # D(m) - m D(m-1)
    return (num, den), dot((differences, dd), s)


def _thm7_a(n, lam, x, r, mutate):
    lhs = _FALLING.pair((_ONE, lam), n)
    b, s = _BELL_SERIES.row((lam, _ONE), n), _S1.ints(lam, n)
    num, den = dot(b, s)
    if mutate:
        num -= 2 * b[0][n] * s[0][n]
    return lhs, (num, den)


def _thm7_b(n, lam, x, r, mutate):
    lhs = _BELL_SERIES.pair((lam, _ONE), n)
    f, s = _FALLING.row((_ONE, lam), n), _S2.ints(lam, n)
    num, den = dot(f, s)
    if mutate:
        num -= 2 * f[0][n] * s[0][n]
    return lhs, (num, den)


def _thm8_a(n, lam, x, r, mutate):
    d, dd = _DERANGE.row((lam, _ZERO), n)
    lhs = dot((map(mul, cycle((1, -1)), d), dd), _S2.ints(_neg(lam), n))
    b, f = _BELL_SERIES.row((_neg(lam), _ONE), n), _FALLING.row((_MINUS_ONE, _neg(lam)), n)
    num, den = binomial_conv(b, f, n)
    if mutate:
        num -= 2 * b[0][n] * f[0][0]
    return lhs, (num, den)


def _thm8_b(n, lam, x, r, mutate):
    lhs = dot(_BELL.row((lam, _ONE), n), _S1.ints(lam, n))
    f, den = _FALLING.row((_MINUS_ONE, _neg(lam)), n)
    sign = -1 if mutate else 1
    return lhs, (sign * (-1) ** n * f[n], den)


# keyed by lam alone: the unsigned lhs of EQ24_25, which does not involve x,
# the falling products at -1 against the first-kind triangle
_EQ24_25_FREE = _Memo(
    lambda lam, n: _triangle_sums(_FALLING.ints((_MINUS_ONE, lam), n), _S1, lam, n)
)


def _eq24_25(n, lam, x, r, mutate):
    num, den = _EQ24_25_FREE.pair(lam, n)
    lhs = (-num if (n + mutate) % 2 else num), den  # (-1)^n, and the mutation's flip
    rhs = binomial_conv(_DERANGE.row((lam, x), n), _FALLING.row((_shift(_neg(x), 1), lam), n), n)
    return lhs, rhs


def _thm9_vs_series(n, lam, x, r, mutate):
    num, den = _derange_order(n, r, lam, x)
    if mutate:  # flip the sign of the top summand (l = n) of the explicit sum
        f, fd = _FALLING.pair((_shift(x, -1), lam), n)
        num, den = num * fd - 2 * f * den, den * fd
    rhs = _DERANGE_ORDER_SERIES.pair((lam, x, r), n)
    return (num, den), rhs


def _thm10(n, lam, x, r, mutate):
    lhs = _BELL_SERIES.pair((_neg(lam), _ONE), n)
    inner = _ALTERNATING_INNER.row((lam, _ZERO, _neg(lam)), n)
    f = _FALLING.row((_ONE, _neg(lam)), n)
    num, den = binomial_conv(inner, f, n)
    if mutate:
        num -= 2 * f[0][n] * inner[0][0]
    return lhs, (num, den)


def _exp_moment_bridge(n, lam, x, r, mutate):
    f = _FALLING.row((_shift(x, -1), lam), n)
    facts = factorials(n)
    num, den = binomial_conv((facts, 1), f, n)
    if mutate:
        num -= 2 * f[0][0] * facts[n]
    rhs = _DERANGE_ORDER_SERIES.pair((lam, x, 1), n)
    return (num, den), rhs


class _Spec(NamedTuple):
    fn: Callable
    uses_x: bool = False
    uses_r: bool = False
    min_n: int = 0


_REGISTRY: dict[IdentityId, _Spec] = {
    IdentityId.THM2_CONV: _Spec(_thm2_conv, uses_x=True),
    IdentityId.THM2_REC: _Spec(_thm2_rec, uses_x=True, min_n=1),
    IdentityId.THM2_REC_X0: _Spec(_thm2_rec_x0, min_n=1),
    IdentityId.THM3: _Spec(_thm3, uses_x=True),
    IdentityId.THM4: _Spec(_thm4, uses_x=True),
    IdentityId.THM5: _Spec(_thm5, uses_x=True),
    IdentityId.LEMMA6: _Spec(_lemma6, uses_x=True, min_n=1),
    IdentityId.THM7_A: _Spec(_thm7_a),
    IdentityId.THM7_B: _Spec(_thm7_b),
    IdentityId.THM8_A: _Spec(_thm8_a),
    IdentityId.THM8_B: _Spec(_thm8_b),
    IdentityId.EQ24_25: _Spec(_eq24_25, uses_x=True),
    IdentityId.THM9_VS_SERIES: _Spec(_thm9_vs_series, uses_x=True, uses_r=True),
    IdentityId.THM10: _Spec(_thm10),
    IdentityId.EXP_MOMENT_BRIDGE: _Spec(_exp_moment_bridge, uses_x=True),
}


def verify(
    case: IdentityCase, mutate: bool = False, *, values: bool = True
) -> tuple[Fraction | None, Fraction | None, bool]:
    """Evaluate both sides of one identity case exactly.

    Returns (lhs, rhs, passed) with passed meaning exact equality; lhs and
    rhs are reduced ``Fraction`` values, one object when they agree.  The
    sides are compared as int pairs by cross-multiplication, before any
    ``Fraction`` is built.  With ``values=False`` a passing case returns
    (None, None, True) and builds no ``Fraction``; a failing case still
    returns both sides.  The runner behind ``verify_grid``, ``certify`` and
    ``certify_ranges`` passes it: it reads only ``passed`` of a passing
    case, yet calls this function once per case, so that a count of its
    calls stays the count of cases run.  Row verifiers, one call per run,
    retire the keyword once a case counter of their own exists.

    The verifier reads its memo rows uncopied: as published rows
    (``_Memo.row``, possibly longer than n + 1) wherever its kernel sum
    stops at n, a ``binomial_conv`` at n or a ``dot`` against a Stirling
    row n; as exact rows (``ints``) for those Stirling rows; and as single
    values (``pair``).  So its result does not depend on how far an earlier
    case built a row.
    """
    ident, n, lam, x, r = case
    try:
        fn, uses_x, uses_r, min_n = _REGISTRY[ident]
    except KeyError:
        raise ValueError(f"unsupported identity {ident!r}") from None
    if not min_n <= n <= MAX_N:
        raise ValueError(f"{ident.value} needs {min_n} <= n <= {MAX_N}, got {n}")
    if uses_x != (x is not None):
        raise ValueError(f"{ident.value} {'requires' if uses_x else 'does not take'} x")
    if uses_r != (r is not None):
        raise ValueError(f"{ident.value} {'requires' if uses_r else 'does not take'} r")
    if uses_r and r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    (a, b), (c, d) = fn(n, _key(lam), x if x is None else _key(x), r, mutate)
    if a * d == c * b:
        if not values:
            return None, None, True
        value = Fraction(a, b)
        return value, value, True
    return Fraction(a, b), Fraction(c, d), False


def _axis(values, order=lambda v: v) -> list:
    """The distinct values of one grid axis as (value, copies) pairs, sorted
    by order(value), ascending values by default; copies counts each value's
    repeats."""
    return sorted(Counter(values).items(), key=lambda item: order(item[0]))


def _degrees(spec: _Spec, n: int) -> tuple[int, int]:
    """The bound (d_lam, d_x) on the degrees of an identity's sides at n,
    derived in the module docstring: max(n - 1, 0) in lam, and n in x for an
    identity that uses x, else 0."""
    return max(n - 1, 0), n if spec.uses_x else 0


def _check_points(spec: _Spec, n: int, n_lams: int, n_xs: int) -> None:
    """Raise ValueError unless n_lams distinct deformation points and n_xs
    distinct x points reach the identity's degree bounds at n, plus one."""
    d_lam, d_x = _degrees(spec, n)
    if n_lams < d_lam + 1:
        raise ValueError(f"need at least {d_lam + 1} distinct deformation points")
    if n_xs < d_x + 1:
        raise ValueError(f"need at least {d_x + 1} distinct x points")


def _run_group(runs, mutate, failures: list) -> None:
    """Add the failures of the runs' cases to failures, each listed once per
    copy; each distinct case is evaluated once, top n first."""
    new = tuple.__new__  # an IdentityCase without the argument handling of its __new__
    for ident, lam, x, rs, copies, ns in runs:
        for n in ns:
            for r in rs:
                case = new(IdentityCase, (ident, n, lam, x, r))
                lhs, rhs, passed = verify(case, mutate, values=False)
                if not passed:
                    failures += [(case, lhs, rhs)] * copies


def _run_groups(groups, mutate) -> list[tuple[IdentityCase, Fraction, Fraction]]:
    """The failures of the groups' runs, every memo emptied after each group."""
    failures = []
    for runs in groups:
        _run_group(runs, mutate, failures)
        for memo in _MEMOS:
            memo.clear()
        del runs  # freed before the next group is made
    return failures


def _run(groups, mutate, jobs: int = 1) -> list[tuple[IdentityCase, Fraction, Fraction]]:
    """``_run_groups`` in ``jobs`` processes at most, one per CPU and group,
    dealt whole groups round-robin; one worker reads them in-process, lazily."""
    if jobs > 1:
        groups = list(groups)
        jobs = min(jobs, os.cpu_count() or 1, len(groups))
    if jobs <= 1:
        return _run_groups(groups, mutate)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = pool.map(_run_groups, [groups[i::jobs] for i in range(jobs)], repeat(mutate))
        return [f for part in parts for f in part]


def _grid_runs(ids, lam_grid, x_grid, n_max: int, r_max: int) -> list:
    """The runs (ident, lam, x, rs, copies, ns) of a grid that is the same at
    every n: one per identity and distinct (lam, x) point, lam-major in
    (|lam|, lam) order, then by identity in the order of ids, then by x
    ascending (None for an identity free of x).  ns runs from n_max down to
    the identity's least n, rs over 1..r_max for THM9_VS_SERIES, and copies
    is the product of the point's multiplicities on the two axes."""
    lams = _axis(lam_grid, lambda v: (abs(v), v))
    xs = _axis(x_grid)
    specs = [(ident, _REGISTRY[ident]) for ident in ids if _REGISTRY[ident].min_n <= n_max]
    return [
        (ident, lam, x, range(1, r_max + 1) if spec.uses_r else (None,), lam_copies * x_copies,
         range(n_max, spec.min_n - 1, -1))
        for lam, lam_copies in lams
        for ident, spec in specs
        for x, x_copies in (xs if spec.uses_x else [(None, 1)])
    ]


def verify_grid(
    ids: Iterable[IdentityId] | None = None,
    n_max: int = 32,
    lam_grid: Sequence[ExactScalar] = DEFAULT_LAMBDA_GRID,
    x_grid: Sequence[ExactScalar] = DEFAULT_X_GRID,
    r_max: int = 4,
    mutate: bool = False,
    jobs: int = 1,
) -> VerificationReport:
    """Evaluate every requested identity over the full parameter grid.

    The default grid, ``DEFAULT_LAMBDA_GRID`` x ``DEFAULT_X_GRID``, is the
    full certification grid.  Each distinct case is evaluated once, a value
    repeated in a grid counting its copies in ``cases_run`` and in the
    failures.  The runs go one |lam| group at a time, top n first, and every
    memo is emptied after each group, rows a caller built before included.
    ``jobs`` worker processes, at least one and at most one per CPU and per
    group, are dealt whole groups; one worker runs them in-process, without
    the process pool.  The report is deterministic regardless of order and
    scheduling: the failures are listed in ``IdentityCase.sort_key`` order.
    Raises ValueError unless 0 <= n_max <= MAX_N, 1 <= r_max <= MAX_N and
    jobs >= 1, for an empty ``ids`` or ``lam_grid``, or an empty ``x_grid``
    when an identity references x, and when no identity of ``ids`` has an n
    in range, so that no case would run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not 0 <= n_max <= MAX_N:
        raise ValueError(f"n_max must lie in [0, {MAX_N}], got {n_max}")
    if not 1 <= r_max <= MAX_N:
        raise ValueError(f"r_max must lie in [1, {MAX_N}], got {r_max}")
    id_list = sorted(set(ids), key=lambda i: i.value) if ids is not None else list(IdentityId)
    lams, xs = list(map(Fraction, lam_grid)), list(map(Fraction, x_grid))
    if not id_list:
        raise ValueError("empty identity list")
    if not lams:
        raise ValueError("empty lam grid")
    if not xs and any(_REGISTRY[ident].uses_x for ident in id_list):
        raise ValueError("empty x grid for an identity that references x")
    runs = _grid_runs(id_list, lams, xs, n_max, r_max)
    if not runs:
        raise ValueError(f"no case to run: every identity starts past n_max = {n_max}")
    groups = [list(group) for _, group in groupby(runs, lambda run: abs(run[1]))]
    failures = sorted(_run(groups, mutate, jobs), key=lambda t: t[0].sort_key())
    cases_run = sum(copies * len(ns) * len(rs) for _, _, _, rs, copies, ns in runs)
    return VerificationReport(cases_run=cases_run, failures=failures)


def certify(
    identity_id: IdentityId,
    n: int,
    lam_points: Sequence[ExactScalar],
    x_points: Sequence[ExactScalar] | None = None,
    mutate: bool = False,
) -> bool:
    """Upgrade grid agreement at fixed n to a polynomial identity proof.

    At fixed n both sides are polynomials of degree <= d_lam in the
    deformation parameter and <= d_x in x (derived in the module
    docstring).  A polynomial of degree <= d in each variable that vanishes
    on a tensor grid of d + 1 distinct points per variable is zero, so exact
    agreement on lam_points x x_points proves the identity at n.
    THM9_VS_SERIES is evaluated at r = 1 only.  Raises ValueError when fewer
    than d_lam + 1 (or d_x + 1) distinct points are supplied for a referenced
    variable, and when x_points are given for an identity that does not take
    x.  Every memo is emptied afterwards, rows a caller built before
    included.  ``certify_ranges`` runs the same evaluation for every n up to
    a bound, on one nested point set, for a set of identities.
    """
    spec = _REGISTRY[identity_id]
    lams = _axis(map(Fraction, lam_points))
    if spec.uses_x:
        if x_points is None:
            raise ValueError(f"{identity_id.value} references x; supply x points")
        xs = _axis(map(Fraction, x_points))
    elif x_points is not None:
        raise ValueError(f"{identity_id.value} does not take x")
    else:
        xs = [(None, 1)]
    _check_points(spec, n, len(lams), len(xs))
    rs = (1,) if spec.uses_r else (None,)
    runs = [(identity_id, lam, x, rs, 1, (n,)) for lam, _ in lams for x, _ in xs]
    return not _run([runs], mutate)


def _range_groups(ids, n_max: int):
    """The runs of ``certify_ranges``, one |lam| group at a time, lazily."""
    points = [Fraction((i + 1) // 2 * (1 if i % 2 else -1)) for i in range(n_max + 1)]
    for k in range((n_max + 1) // 2 + 1):  # |lam| = k at the indices 2k - 1 and 2k
        runs = []
        for ident in ids:
            spec = _REGISTRY[ident]
            rs = (1,) if spec.uses_r else (None,)
            xs = list(enumerate(points)) if spec.uses_x else [(0, None)]
            for i in range(max(2 * k - 1, 0), min(2 * k, n_max) + 1):
                for j, x in xs:
                    ns = range(n_max, max(i, j, spec.min_n) - 1, -1)
                    runs.append((ident, points[i], x, rs, 1, ns))
        yield runs


def certify_ranges(
    ids: Iterable[IdentityId], n_max: int, mutate: bool = False
) -> dict[IdentityId, dict[int, bool]]:
    """``certify`` at every n of each identity's range up to n_max, on nested
    integer points: n uses the first n + 1 entries, on each referenced axis,
    of the symmetric sequence 0, 1, -1, 2, -2, ...  Returns
    {identity: {n: certified}}, an identity listed twice certified once, in
    the order of first listing, each in ascending n.  Raises ValueError
    unless 0 <= n_max <= MAX_N, for an empty ``ids``, and when no identity
    of ``ids`` has an n in range (each needs n >= 1 > n_max).

    Every degree bound is <= n, so n + 1 points suffice, and integers are as
    good as any distinct points (no point is a pole; see the module
    docstring).  Their memo keys have denominator 1, so no row carries a
    power of a point's denominator.  The point of indices (i, j) serves
    every n >= max(i, j), top n first.  The runs of all identities go one
    |lam| group at a time (THM8_A and THM10 read lam and -lam), so each memo
    row of the group's keys is built once, to its final length, and then
    every memo is emptied, rows a caller built before included.  Memory
    holds one group's rows at a time.
    """
    if not 0 <= n_max <= MAX_N:
        raise ValueError(f"n_max must lie in [0, {MAX_N}], got {n_max}")
    certified = {
        ident: dict.fromkeys(range(_REGISTRY[ident].min_n, n_max + 1), True)
        for ident in dict.fromkeys(ids)
    }
    if not certified:
        raise ValueError("empty identity list")
    if not any(certified.values()):
        raise ValueError(f"no case to run: every identity starts past n_max = {n_max}")
    for case, _, _ in _run(_range_groups(certified, n_max), mutate):
        certified[case.identity_id][case.n] = False
    return certified
