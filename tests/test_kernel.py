"""The integer-numerator kernel against plain-Fraction reference code.

Series and polynomial arithmetic, the Stirling triangles and their columns,
the weighted triangles of the Fubini and Bell sums, the explicit sums and
the online series memos run on integers over one common denominator.
The reference implementations are the textbook Fraction loops: those below,
and the falling factorials, Stirling rows and derangement and order-r sums
of ``reference_identities``, which reads no part of the library; so the
library's two dual paths, which now share the kernel, are still checked
against code that does not use it.  The series memos grow coefficient by
coefficient from a recurrence; their references are products, long
divisions and Horner compositions of truncated series instead, as is that
of ``binomial_pow``.

The memos keep their rows as integers over shared denominators, and the
kernel's ``dot`` and ``binomial_conv`` take that form; both are checked
against plain-Fraction sums, and each memo's integer rows against the
reference values.
"""

import functools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degderange import exactcore, sequences
from degderange.exactcore import (
    FACTORIAL_CACHE_CAP,
    Poly,
    as_fractions,
    as_ints,
    binomial,
    binomial_conv,
    dot,
    factorial,
    pascal_step,
)
from degderange.identities import verify_grid
from degderange.sequences import (
    _key,
    bell_deg,
    bell_deg_series,
    derange_deg_order,
    derange_deg_order_series,
    derange_deg_poly,
    derange_deg_series,
    derange_order_row,
    fubini_deg,
    fubini_deg_series,
    set_cross_check,
    stirling1_column,
    stirling1_deg,
    stirling1_deg_series,
    stirling2_column,
    stirling2_deg,
    stirling2_deg_series,
)
from degderange.series import Series, binomial_pow
from reference_identities import derange, derange_order, derange_order_rows, falling, stirling_rows

N_MAX = 40

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)
# deformation parameters: 0, negatives and assorted denominators
lambdas = st.one_of(st.sampled_from([F(0), F(-1, 3), F(2, 7)]), small_rationals)
orders = st.integers(min_value=0, max_value=N_MAX)


def coeff_lists(n):
    return st.lists(small_rationals, min_size=n + 1, max_size=n + 1)


# ---------------------------------------------------------------------------
# plain-Fraction reference implementations


def ref_mul(a, b, n):
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_div(a, b, n):
    out = []
    for k in range(n + 1):
        acc = a[k]
        for j in range(1, k + 1):
            acc -= b[j] * out[k - j]
        out.append(acc / b[0])
    return out


def ref_compose(outer, inner, n):
    acc = [outer[n]] + [F(0)] * n
    for k in range(n - 1, -1, -1):
        acc = ref_mul(acc, inner, n)
        acc[0] += outer[k]
    return acc


def ref_poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def ref_binomial(q, k):
    return falling(q, k, 1) / factorial(k)


def ref_deg_exp(x, lam, n):
    """Coefficients 0..n of (1 + lam t)^(x/lam)."""
    return [falling(x, k, lam) / factorial(k) for k in range(n + 1)]


def ref_deg_log(lam, n):
    """Coefficients 0..n of ((1+t)^lam - 1)/lam, or log(1+t) at lam = 0."""
    if lam == 0:
        return [F(0)] + [F((-1) ** (k - 1), k) for k in range(1, n + 1)]
    return [F(0)] + [ref_binomial(lam, k) / lam for k in range(1, n + 1)]


def exponential(coeffs):
    """k! times coefficient k."""
    return [c * factorial(k) for k, c in enumerate(coeffs)]


# ---------------------------------------------------------------------------
# kernel helpers


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=12))
def test_as_ints_roundtrip(values):
    nums, den = as_ints(values)
    assert all(isinstance(v, int) for v in nums)
    assert [F(v, den) for v in nums] == values
    assert as_fractions(nums, den) == values


def int_row(values, scale, extra=()):
    """values in (nums, den) form over scale times their least denominator,
    as memo rows are, followed by the entries extra."""
    nums, den = as_ints(list(values) + list(extra))
    return [v * scale for v in nums], den * scale


@settings(max_examples=40, deadline=None)
@given(
    orders.flatmap(lambda n: st.tuples(coeff_lists(n), coeff_lists(n))),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.lists(small_rationals, max_size=3),
)
def test_dot_and_binomial_conv_match_reference(ab, sa, sb, extra):
    _check_dot_and_binomial_conv(*ab, sa, sb, extra)


def _check_dot_and_binomial_conv(a, b, sa, sb, extra):
    """Both kernel sums, as (num, den) pairs, against plain-Fraction sums."""
    n = len(a) - 1
    assert F(*dot(int_row(a, sa), int_row(b, sb))) == sum((u * v for u, v in zip(a, b)), F(0))
    # entries past n are ignored, as in memo rows grown beyond n
    ref = sum((binomial(n, l) * a[l] * b[n - l] for l in range(n + 1)), F(0))
    assert F(*binomial_conv(int_row(a, sa, extra), int_row(b, sb, extra), n)) == ref


@pytest.mark.parametrize("n", [0, *range(FACTORIAL_CACHE_CAP + 1, 301)])
def test_binomial_conv_at_the_ends_of_the_binomial_row_cache(n):
    # n = 0, and every n from just past the cap, where binomial rows are
    # computed on each call and never kept
    a = [F((-1) ** l * (l % 7 + 1), l % 5 + 1) for l in range(n + 1)]
    b = [F(l % 11 - 5, 3) for l in range(n + 1)]
    _check_dot_and_binomial_conv(a, b, 2, 3, [F(1, 2)])
    assert len(exactcore._comb_rows) <= FACTORIAL_CACHE_CAP + 1


def test_pascal_step_rows_match_math_comb():
    # past the cap as well, where the series grow steps roll rows that no
    # cache holds
    row = [1]
    for k in range(301):
        assert row == [math.comb(k, l) for l in range(k + 1)], k
        assert exactcore._binomial_row(k) == row
        row = pascal_step(row)


# ---------------------------------------------------------------------------
# Series and Poly arithmetic


@settings(max_examples=30, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(coeff_lists(n), coeff_lists(n))))
def test_series_mul_matches_reference(ab):
    a, b = ab
    n = len(a) - 1
    assert list((Series(a) * Series(b)).coeffs) == ref_mul(a, b, n)


@settings(max_examples=30, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(coeff_lists(n), coeff_lists(n))))
def test_series_div_matches_reference(ab):
    a, b = ab
    if b[0] == 0:
        b[0] = F(1)
    n = len(a) - 1
    assert list((Series(a) / Series(b)).coeffs) == ref_div(a, b, n)


@settings(max_examples=20, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(coeff_lists(n), coeff_lists(n))))
def test_series_compose_matches_reference(ab):
    outer, inner = ab
    inner[0] = F(0)
    n = len(outer) - 1
    assert list(Series(outer).compose(Series(inner)).coeffs) == ref_compose(outer, inner, n)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(small_rationals, min_size=1, max_size=N_MAX + 1),
    st.lists(small_rationals, min_size=1, max_size=N_MAX + 1),
    small_rationals,
)
def test_series_scale_and_poly_mul_match_reference(a, b, c):
    assert list(Series(a).scale(c).coeffs) == [c * v for v in a]
    assert Poly(a) * Poly(b) == Poly(ref_poly_mul(a, b))


# ---------------------------------------------------------------------------
# sequences


@settings(max_examples=25, deadline=None)
@given(lambdas, orders)
def test_stirling_triangles_match_reference(lam, n):
    for fn, second_kind in ((stirling2_deg, True), (stirling1_deg, False)):
        ref = stirling_rows(n, lam, second_kind)
        assert [[fn(k, m, lam) for m in range(k + 1)] for k in range(n + 1)] == ref


@settings(max_examples=25, deadline=None)
@given(lambdas, small_rationals, orders)
def test_fubini_and_bell_match_reference(lam, x, n):
    row = stirling_rows(n, lam, second_kind=True)[n]
    assert fubini_deg(n, lam, x) == sum(factorial(m) * x**m * s for m, s in enumerate(row))
    assert bell_deg(n, lam, x) == sum(
        falling(F(1), m, lam) * x**m * s for m, s in enumerate(row)
    )


@settings(max_examples=25, deadline=None)
@given(lambdas, small_rationals, orders, st.integers(min_value=1, max_value=5))
def test_derange_order_matches_reference(lam, x, n, r):
    assert derange_deg_order(n, r, lam, x) == derange_order(n, r, lam, x)


ORDER_LAMBDAS = (F(0), F(2, 7), F(-1, 3), F(1, 2))
ORDER_XS = (F(0), F(1), F(-2), F(3, 4))
# small orders, and orders on both sides of the row's choice at n = N_MAX
# (prefix sums for r <= n, one dot product per value for r > n)
ORDERS = (*range(1, 5), N_MAX - 1, N_MAX, N_MAX + 1, 3 * N_MAX)


@functools.cache
def order_refs(lam, x):
    return derange_order_rows(N_MAX, ORDERS, lam, x)


@pytest.mark.parametrize("history", ["ascending", "bulk", "bulk_after_smaller"])
def test_derange_order_row_matches_reference(history):
    # Every r reads one terms row per (lam, x), over n! s^n for a row built
    # to n, so the values are checked after three read histories of a fresh
    # row: one n at a time (a new row for each n), one bulk call, and a bulk
    # call after a smaller one.  The derangement row (r = 1) is read from the
    # same terms row and covers what it covers, so it is read before and
    # after the order-r reads rebuild the terms row to a larger n.  The
    # ascending history meets every r of ORDERS on both sides of r <= n.
    for lam in ORDER_LAMBDAS:
        for x in ORDER_XS:
            key = (_key(lam), _key(x))
            refs = order_refs(lam, x)
            sequences._DERANGE_TERMS.rows.pop(key, None)
            sequences._DERANGE.rows.pop(key, None)
            if history == "ascending":
                for n in range(N_MAX + 1):
                    for r in ORDERS:
                        assert derange_deg_order(n, r, lam, x) == refs[r][n]
                        assert derange_order_row(n, r, lam, x) == refs[r][: n + 1]
                    assert len(sequences._DERANGE_TERMS.rows[key][0]) == n + 1
                    assert sequences.derange_row(n, lam, x) == refs[1][: n + 1]
                continue
            if history == "bulk_after_smaller":
                assert derange_order_row(7, 2, lam, x) == refs[2][:8]
                assert sequences.derange_row(7, lam, x) == refs[1][:8]
            for r in ORDERS:
                assert derange_order_row(N_MAX, r, lam, x) == refs[r]
                assert [derange_deg_order(n, r, lam, x) for n in range(N_MAX + 1)] == refs[r]
            assert len(sequences._DERANGE_TERMS.rows[key][0]) == N_MAX + 1
            assert sequences.derange_row(N_MAX, lam, x) == refs[1]


@functools.cache
def s2_ref_rows(lam):
    return stirling_rows(N_MAX, lam, second_kind=True)


@functools.cache
def weighted_sum_refs(lam, x):
    """The Fubini and Bell values 0..N_MAX: sums over the rows of the
    reference second-kind triangle with weights m! x^m and falling(1, m) x^m.
    The Fubini series memo holds the same values."""
    rows = s2_ref_rows(lam)
    fub = [sum(factorial(m) * x**m * v for m, v in enumerate(row)) for row in rows]
    bell = [sum(falling(F(1), m, lam) * x**m * v for m, v in enumerate(row)) for row in rows]
    return {sequences._FUBINI: fub, sequences._BELL: bell, sequences._FUBINI_SERIES: fub}


WEIGHTED_READS = {
    sequences._FUBINI: (fubini_deg, sequences.fubini_row),
    sequences._BELL: (bell_deg, sequences.bell_row),
    sequences._FUBINI_SERIES: (fubini_deg_series, sequences.fubini_series_row),
}
# at x = -1 the quadratic term (1 + y) F^2 of the Fubini series equation is 0
WEIGHTED_XS = (*ORDER_XS, F(-1))


@pytest.mark.parametrize("history", ["ascending", "bulk", "bulk_after_smaller"])
def test_fubini_and_bell_rows_match_reference(history):
    # The Fubini and Bell rows are the row sums of a weighted second-kind
    # triangle; the Fubini series steps its values by
    # (1 + lam t) F' = (1 + y) F^2 - F.  The values are checked after three
    # read histories of a fresh row: one n at a time (a new row for each n),
    # one bulk call, and a bulk call after a smaller one.  Every row is over
    # a divisor of (q v)^n at lam = p/q, x = u/v: the triangles are scaled by
    # (q v)^k, a scale on which the Bell steps are already integers.
    for lam in ORDER_LAMBDAS:
        for x in WEIGHTED_XS:
            key = (_key(lam), _key(x))
            for memo, ref in weighted_sum_refs(lam, x).items():
                scalar, row = WEIGHTED_READS[memo]
                memo.rows.pop(key, None)
                if history == "ascending":
                    for n in range(N_MAX + 1):
                        assert scalar(n, lam, x) == ref[n]
                        assert row(n, lam, x) == ref[: n + 1]
                        assert len(memo.rows[key][0]) == n + 1
                    continue
                if history == "bulk_after_smaller":
                    assert row(7, lam, x) == ref[:8]
                assert row(N_MAX, lam, x) == ref
                assert [scalar(n, lam, x) for n in range(N_MAX + 1)] == ref
                assert len(memo.rows[key][0]) == N_MAX + 1
                assert (lam.denominator * x.denominator) ** N_MAX % memo.ints(key, N_MAX)[1] == 0


COLUMN_NS = (0, 1, 7, N_MAX)


@pytest.mark.parametrize("second_kind", [True, False], ids=["stirling2", "stirling1"])
def test_stirling_columns_match_reference_triangle_and_series(second_kind):
    column = stirling2_column if second_kind else stirling1_column
    series = stirling2_deg_series if second_kind else stirling1_deg_series
    memo = sequences._S2 if second_kind else sequences._S1
    for lam in ORDER_LAMBDAS:
        rows = stirling_rows(N_MAX, lam, second_kind)
        for n in COLUMN_NS:
            for m in sorted({0, 1, 3, n // 2, n, n + 1, n + 5}):
                col = column(n, m, lam)
                assert col == [row[m] if m < len(row) else 0 for row in rows[: n + 1]]
                assert all(type(v) is F for v in col)
                # the triangle memo's column, and the series path's
                tri = [exact(memo.ints(_key(lam), k)) for k in range(n + 1)]
                assert col == [row[m] if m < len(row) else 0 for row in tri]
                assert col == [series(k, m, lam) for k in range(n + 1)]
        for n, m in ((0, -1), (5, -1), (-1, 0), (-1, 2)):
            with pytest.raises(ValueError):
                column(n, m, lam)


@settings(max_examples=15, deadline=None)
@given(lambdas, st.integers(min_value=0, max_value=N_MAX))
def test_derange_poly_matches_reference(lam, n):
    acc = [F(0)] * (n + 1)
    for l in range(n + 1):
        fall = [F(1)]  # falling factorial of length n - l, as a polynomial in x
        for i in range(n - l):
            fall = ref_poly_mul(fall, [-i * lam, F(1)])
        w = binomial(n, l) * derange(l, lam, 0)
        for j, c in enumerate(fall):
            acc[j] += w * c
    assert derange_deg_poly(n, lam) == Poly(acc)


# ---------------------------------------------------------------------------
# series memos, each grown by a recurrence, and binomial_pow against series
# products, long divisions and compositions

series_orders = st.integers(min_value=0, max_value=N_MAX)


@settings(max_examples=10, deadline=None)
@given(lambdas, series_orders)
def test_series_triangles_match_reference_powers(lam, n):
    for fn, base in (
        (stirling2_deg_series, [F(0)] + ref_deg_exp(F(1), lam, n)[1:]),
        (stirling1_deg_series, ref_deg_log(lam, n)),
    ):
        power = [F(1)] + [F(0)] * n
        for m in range(n + 1):
            col = exponential(power)
            assert [fn(k, m, lam) for k in range(n + 1)] == [c / factorial(m) for c in col]
            power = ref_mul(power, base, n)


@settings(max_examples=15, deadline=None)
@given(lambdas, small_rationals, series_orders)
def test_bell_series_matches_reference_compose(lam, x, n):
    outer = ref_deg_exp(F(1), lam, n)
    inner = [F(0)] + [x * c for c in outer[1:]]
    ref = exponential(ref_compose(outer, inner, n))
    assert [bell_deg_series(k, lam, x) for k in range(n + 1)] == ref


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=N_MAX).flatmap(coeff_lists),
    small_rationals,
)
def test_binomial_pow_matches_reference_compose(coeffs, q):
    coeffs[0] = F(1)
    n = len(coeffs) - 1
    binom = [ref_binomial(q, k) for k in range(n + 1)]
    ref = ref_compose(binom, [F(0)] + coeffs[1:], n)
    assert list(binomial_pow(Series(coeffs), q).coeffs) == ref


@settings(max_examples=20, deadline=None)
@given(lambdas, small_rationals, series_orders, st.integers(min_value=1, max_value=5))
def test_fubini_and_order_r_series_match_reference_division(lam, x, n, r):
    unit = [F(1)] + [F(0)] * n
    denom = [F(1)] + [-x * c for c in ref_deg_exp(F(1), lam, n)[1:]]
    assert [fubini_deg_series(k, lam, x) for k in range(n + 1)] == exponential(
        ref_div(unit, denom, n)
    )
    numer = ref_deg_exp(x - 1, lam, n)
    for order in (1, r):
        power = [binomial(order, k) * (-1) ** k for k in range(n + 1)]  # (1-t)^order
        ref = exponential(ref_div(numer, power, n))
        assert [derange_deg_order_series(k, order, lam, x) for k in range(n + 1)] == ref
    assert [derange_deg_series(k, lam, x) for k in range(n + 1)] == exponential(
        ref_div(numer, [F(1), F(-1)] + [F(0)] * n, n)
    )


@pytest.mark.parametrize("lam", [F(2, 7), F(-1, 3)])
def test_series_grow_steps_call_no_comb_per_term(monkeypatch, lam):
    """The Fubini, Bell and both series-triangle steps roll one binomial row
    per k through the kernel's Pascal step: with ``comb`` failing, fresh
    memos still build to n = 40, equal to the explicit rows."""

    def no_comb(*args):
        raise AssertionError(f"comb{args} called in a series grow step")

    monkeypatch.setattr(sequences, "comb", no_comb)
    for memo in (sequences._FUBINI_SERIES, sequences._BELL_SERIES,
                 sequences._S1_SERIES, sequences._S2_SERIES):
        monkeypatch.setattr(memo, "rows", {})
    for y in (F(1), F(3, 4)):
        assert sequences.fubini_series_row(N_MAX, lam, y) == sequences.fubini_row(N_MAX, lam, y)
        assert sequences.bell_series_row(N_MAX, lam, y) == sequences.bell_row(N_MAX, lam, y)
    for m in (1, 3):
        for series, column in ((stirling1_deg_series, stirling1_column),
                               (stirling2_deg_series, stirling2_column)):
            values = [series(k, m, lam) for k in range(N_MAX, -1, -1)][::-1]
            assert values == column(N_MAX, m, lam)


# ---------------------------------------------------------------------------
# every memo's integer rows against the reference values


def exact(row):
    """The values of an integer-numerator row, after checking its form."""
    nums, den = row
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    return [F(v, den) for v in nums]


@settings(max_examples=15, deadline=None)
@given(lambdas, small_rationals, series_orders)
def test_memo_int_rows_match_reference(lam, x, n):
    L, X = _key(lam), _key(x)
    ks = range(n + 1)
    s2 = stirling_rows(n, lam, second_kind=True)
    s1 = stirling_rows(n, lam, second_kind=False)
    fall = [falling(x, k, lam) for k in ks]
    der = [factorial(k) * sum(falling(x - 1, l, lam) / factorial(l) for l in range(k + 1)) for k in ks]
    fub = [sum(factorial(m) * x**m * v for m, v in enumerate(s2[k])) for k in ks]
    bell = [sum(falling(F(1), m, lam) * x**m * v for m, v in enumerate(s2[k])) for k in ks]
    assert exact(sequences._FALLING.ints((X, L), n)) == fall
    assert exact(sequences._DERANGE.ints((L, X), n)) == der
    assert exact(sequences._DERANGE_ORDER_SERIES.ints((L, X, 1), n)) == der
    assert exact(sequences._S2.ints(L, n)) == s2[n]
    assert exact(sequences._S1.ints(L, n)) == s1[n]
    assert exact(sequences._FUBINI.ints((L, X), n)) == fub
    assert exact(sequences._FUBINI_SERIES.ints((L, X), n)) == fub
    assert exact(sequences._BELL.ints((L, X), n)) == bell
    assert exact(sequences._BELL_SERIES.ints((L, X), n)) == bell
    for m in range(min(n, 3) + 1):
        column = [row[m] if m < len(row) else F(0) for row in s2]
        assert exact(sequences._S2_SERIES.ints((L, m), n)) == column
        column = [row[m] if m < len(row) else F(0) for row in s1]
        assert exact(sequences._S1_SERIES.ints((L, m), n)) == column


GRID_LAMBDAS = (F(0), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 7))
GRID_XS = (F(0), F(1), F(-2), F(3, 4))


def test_grid_and_every_public_read_pass_with_cross_check():
    # the verifiers read integer rows; every public read, each checked
    # against its dual path, must agree with them
    set_cross_check(True)
    try:
        assert verify_grid(n_max=6).ok
        for lam in GRID_LAMBDAS:
            for n in range(7):
                sequences.stirling2_row(n, lam)
                sequences.stirling1_row(n, lam)
                for m in range(n + 2):
                    stirling2_column(n, m, lam)
                    stirling1_column(n, m, lam)
                for m in range(n + 1):
                    stirling2_deg(n, m, lam)
                    stirling1_deg(n, m, lam)
                for x in GRID_XS:
                    sequences.derange_row(n, lam, x)
                    sequences.derange_deg(n, lam, x)
                    sequences.fubini_row(n, lam, x)
                    fubini_deg(n, lam, x)
                    sequences.bell_row(n, lam, x)
                    bell_deg(n, lam, x)
                    for r in range(1, 4):
                        derange_deg_order(n, r, lam, x)
                        derange_order_row(n, r, lam, x)
    finally:
        set_cross_check(False)
