from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degderange import identities, sequences
from degderange.exactcore import Poly, binomial, factorial
from degderange.sequences import (
    _key,
    bell_deg,
    bell_deg_series,
    bell_row,
    derange_deg,
    derange_deg_order,
    derange_deg_order_series,
    derange_deg_poly,
    derange_deg_series,
    derange_poly_row,
    derange_row,
    falling_deg,
    fubini_deg,
    fubini_deg_series,
    fubini_row,
    set_cross_check,
    stirling1_classical,
    stirling1_column,
    stirling1_deg,
    stirling1_deg_series,
    stirling1_row,
    stirling2_column,
    stirling2_deg,
    stirling2_deg_series,
    stirling2_row,
)
from degderange.series import deg_exp

LAM_GRID = [F(0), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 7)]


# ---------------------------------------------------------------------------
# falling factorials


def test_falling_empty_product():
    assert falling_deg(F(22, 7), 0, F(-3)) == 1


def test_falling_product_oracle():
    assert falling_deg(F(-1), 2, F(1, 2)) == F(-1) * F(-3, 2) == F(3, 2)


def test_falling_classical():
    assert falling_deg(1, 5, 0) == 1
    for x in (F(2), F(-3, 4)):
        for n in range(6):
            assert falling_deg(x, n, 0) == x**n


@pytest.mark.parametrize("lam", LAM_GRID)
def test_falling_matches_series_coefficients(lam):
    x = F(5, 6)
    s = deg_exp(x, lam, 12)
    for n in range(13):
        assert falling_deg(x, n, lam) == s.coeff(n) * factorial(n)


# ---------------------------------------------------------------------------
# degenerate derangement values


def test_derange_classical_values():
    assert [derange_deg(n, 0, 0) for n in range(5)] == [1, 0, 1, 2, 9]


def test_derange_half_oracle():
    # independent inline evaluation of the explicit sum
    lam = F(1, 2)
    expected = []
    for n in range(5):
        acc = F(0)
        for l in range(n + 1):
            prod = F(1)
            for i in range(l):
                prod *= F(-1) - i * lam
            acc += prod / factorial(l)
        expected.append(acc * factorial(n))
    assert expected == [1, 0, F(3, 2), F(3, 2), F(27, 2)]
    assert [derange_deg(n, lam, 0) for n in range(5)] == expected


def test_derange_at_x_one_collapses_to_factorial():
    for lam in LAM_GRID:
        for n in range(8):
            assert derange_deg(n, lam, 1) == factorial(n)


@pytest.mark.parametrize("lam", LAM_GRID)
def test_derange_dual_path(lam):
    for x in (F(0), F(1), F(-2), F(3, 4)):
        for n in range(33):
            assert derange_deg(n, lam, x) == derange_deg_series(n, lam, x)


def test_derange_poly_constant():
    assert derange_deg_poly(0, F(1, 3)) == Poly((1,))


def test_derange_poly_classical_oracle():
    # expand 2! * sum_{l<=2} (x-1)^l / l! with exact Poly arithmetic
    shifted = Poly((-1, 1))  # x - 1
    acc = Poly((0,))
    power = Poly((1,))
    for l in range(3):
        if l:
            power = power * shifted
        acc = acc + power.scale(F(1, factorial(l)))
    expected = acc.scale(factorial(2))
    assert expected == Poly((1, 0, 1))  # x^2 + 1
    assert derange_deg_poly(2, 0) == expected


@pytest.mark.parametrize("lam", LAM_GRID)
def test_derange_poly_matches_values(lam):
    polys = derange_poly_row(24, lam)
    assert polys == [derange_deg_poly(n, lam) for n in range(25)]
    assert [p.degree for p in polys] == list(range(25))
    for x in (F(0), F(1), F(-2), F(3, 4)):
        assert [p(x) for p in polys] == derange_row(24, lam, x)


@pytest.mark.parametrize("lam", [F(2, 7), F(-1, 3)])
def test_derange_polys_read_no_values_row_and_call_no_comb(monkeypatch, lam):
    """The polynomials step by their own recurrence: with the derangement
    values memo emptied and unable to grow, and ``comb`` failing, the row
    still builds to n = 40, and its constant terms are the x = 0 values."""

    def fail(*args):
        raise AssertionError(f"called with {args} while building the polynomials")

    monkeypatch.setattr(sequences._DERANGE, "rows", {})
    monkeypatch.setattr(sequences._DERANGE, "grow", fail)
    monkeypatch.setattr(sequences, "comb", fail)
    polys = derange_poly_row(40, lam)
    monkeypatch.undo()
    assert [p(0) for p in polys] == derange_row(40, lam)


# ---------------------------------------------------------------------------
# higher order


def test_derange_order_reduces_at_r_one():
    for lam in LAM_GRID:
        for x in (F(0), F(3, 4)):
            for n in range(10):
                assert derange_deg_order(n, 1, lam, x) == derange_deg(n, lam, x)


def test_derange_order_at_n_zero():
    for r in range(1, 5):
        assert derange_deg_order(0, r, F(1, 3), F(0)) == 1


def test_derange_order_series_oracle():
    # series-extraction oracle for r=2, lam=1/2, x=0, n=2
    val = derange_deg_order_series(2, 2, F(1, 2), F(0))
    assert derange_deg_order(2, 2, F(1, 2), F(0)) == val
    # and the direct sum, written out
    lam = F(1, 2)
    acc = F(0)
    for l in range(3):
        acc += falling_deg(F(-1), l, lam) / factorial(l) * binomial(2 + 2 - l - 1, 2 - l)
    assert val == acc * factorial(2)


@pytest.mark.parametrize("lam", LAM_GRID)
def test_derange_order_dual_path(lam):
    for r in (1, 2, 3, 4):
        for n in range(12):
            assert derange_deg_order(n, r, lam, F(3, 4)) == derange_deg_order_series(
                n, r, lam, F(3, 4)
            )


class _RowSpy:
    """Stands in for a memo and records each ``row`` read."""

    def __init__(self, memo):
        self.memo, self.reads = memo, []

    def row(self, key, n):
        self.reads.append((key, n))
        return self.memo.row(key, n)


def test_order_row_sums_up_to_n_and_the_identity_keeps_the_dot(monkeypatch):
    """derange_order_row takes prefix sums for r <= n, reading neither the
    scalar's dot product nor the weights, and the dot product for r > n;
    THM9_VS_SERIES's lhs stays the dot product over the weights row."""
    lam, x, n = F(2, 7), F(3, 4), 12
    orders = (1, 3, n, n + 1, 3 * n)
    scalars = {r: [derange_deg_order(k, r, lam, x) for k in range(n, -1, -1)][::-1] for r in orders}
    weights = _RowSpy(sequences._ORDER_WEIGHTS)
    monkeypatch.setattr(sequences, "_ORDER_WEIGHTS", weights)

    def fail(*args):
        raise AssertionError("dot product read")

    with monkeypatch.context() as patch:
        patch.setattr(sequences, "_derange_order", fail)
        for r in (1, 3, n):
            assert sequences.derange_order_row(n, r, lam, x) == scalars[r]
        assert weights.reads == []
        for r in (n + 1, 3 * n):
            with pytest.raises(AssertionError, match="dot product read"):
                sequences.derange_order_row(n, r, lam, x)
    del weights.reads[:]
    for r in (1, 3):
        lhs, rhs = identities._thm9_vs_series(n, _key(lam), _key(x), r, False)
        assert F(*lhs) == F(*rhs) == scalars[r][n]
    assert weights.reads == [(1, n), (3, n)]


def test_derange_order_rejects_bad_r():
    with pytest.raises(ValueError):
        derange_deg_order(3, 0, F(1, 2), 0)


# ---------------------------------------------------------------------------
# Stirling numbers


def test_stirling2_diagonal_and_column_one():
    for lam in LAM_GRID:
        for n in range(8):
            assert stirling2_deg(n, n, lam) == 1
        for n in range(1, 8):
            assert stirling2_deg(n, 1, lam) == falling_deg(1, n, lam)
    assert stirling2_deg(2, 1, F(1, 2)) == F(1, 2)


def test_stirling2_classical_recurrence_oracle():
    # classical S(n+1,m) = S(n,m-1) + m S(n,m)
    rows = [[1]]
    for n in range(1, 9):
        prev = rows[-1]
        row = [0] * (n + 1)
        for m in range(n + 1):
            acc = prev[m - 1] if 1 <= m <= n else 0
            if m < n:
                acc += m * prev[m]
            row[m] = acc
        rows.append(row)
    assert rows[3][2] == 3
    for n in range(9):
        for m in range(n + 1):
            assert stirling2_deg(n, m, 0) == rows[n][m]


def test_stirling1_examples():
    for lam in LAM_GRID:
        for n in range(8):
            assert stirling1_deg(n, n, lam) == 1
        assert stirling1_deg(2, 1, lam) == lam - 1
    assert stirling1_deg(2, 1, F(1, 2)) == F(-1, 2)


def test_stirling1_classical_oracle():
    # recurrence oracle s(n+1,k) = s(n,k-1) - n s(n,k), built independently
    rows = [[1]]
    for n in range(1, 10):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(n + 1):
            acc = prev[k - 1] if 1 <= k <= n else 0
            if k < n:
                acc -= (n - 1) * prev[k]
            row[k] = acc
        rows.append(row)
    for n, row in enumerate(rows):
        assert [stirling1_classical(n, m) for m in range(n + 1)] == row
    assert rows[3][1] == 2 and rows[2][1] == -1
    assert all(row[-1] == 1 for row in rows)
    assert all(row[0] == 0 for row in rows[1:])


def test_stirling_zero_above_diagonal():
    assert stirling2_deg(3, 5, F(1, 2)) == 0
    assert stirling1_deg(2, 7, F(1, 3)) == 0


@pytest.mark.parametrize("lam", [F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 7), F(-2, 7), F(0)])
def test_stirling_dual_paths(lam):
    for n in range(17):
        for m in range(n + 1):
            assert stirling2_deg(n, m, lam) == stirling2_deg_series(n, m, lam)
            assert stirling1_deg(n, m, lam) == stirling1_deg_series(n, m, lam)


@pytest.mark.parametrize("lam", [F(1, 2), F(-1, 2), F(1, 3), F(2, 7)])
def test_stirling_connection_coefficients(lam):
    # the definitional characterization: the second kind expands the deformed
    # falling factorial over the classical one, the first kind inverts it
    xs = [F(0), F(1), F(-2), F(3, 4), F(9, 5)]
    for n in range(13):
        for x in xs:
            # classical falling factorial x(x-1)...(x-l+1) as a direct product
            def classical(l):
                prod = F(1)
                for i in range(l):
                    prod *= x - i
                return prod

            expand_second = sum(
                (stirling2_deg(n, l, lam) * classical(l) for l in range(n + 1)), F(0)
            )
            assert expand_second == falling_deg(x, n, lam)
            expand_first = sum(
                (stirling1_deg(n, l, lam) * falling_deg(x, l, lam) for l in range(n + 1)),
                F(0),
            )
            assert expand_first == classical(n)


@pytest.mark.parametrize("lam", [F(1, 2), F(-1, 3), F(2, 7)])
def test_stirling_orthogonality(lam):
    for n in range(25):
        for k in range(25):
            acc = F(0)
            for m in range(n + 1):
                acc += stirling2_deg(n, m, lam) * stirling1_deg(m, k, lam)
            assert acc == (1 if n == k else 0)


# ---------------------------------------------------------------------------
# Fubini and Bell


def test_fubini_basics():
    for lam in LAM_GRID:
        assert fubini_deg(0, lam, F(7, 3)) == 1
        assert fubini_deg(2, lam, 1) == 3 - lam
        for n in range(1, 7):
            assert fubini_deg(n, lam, 0) == 0
    assert fubini_deg(2, 0, 1) == 3


@pytest.mark.parametrize("lam", LAM_GRID)
def test_fubini_dual_path(lam):
    for y in (F(1), F(-1), F(2, 5)):
        for n in range(16):
            assert fubini_deg(n, lam, y) == fubini_deg_series(n, lam, y)


def test_bell_basics():
    for lam in LAM_GRID:
        assert bell_deg(0, lam, F(5, 2)) == 1
        for x in (F(0), F(1), F(-2), F(3, 4)):
            assert bell_deg(2, lam, x) == (1 - lam) * (x + x**2)
        for n in range(1, 7):
            assert bell_deg(n, lam, 0) == 0
    assert bell_deg(2, F(1, 2), 1) == 1


@pytest.mark.parametrize("lam", LAM_GRID)
def test_bell_dual_path(lam):
    for x in (F(1), F(-1), F(3, 4)):
        for n in range(16):
            assert bell_deg(n, lam, x) == bell_deg_series(n, lam, x)


def test_series_paths_equal_explicit_rows_at_workload_orders():
    # the orders at which the benchmark's high-order workload extracts them
    lam = F(2, 7)
    assert fubini_deg_series(256, lam, 1) == fubini_row(256, lam, 1)[256]
    for column, series in ((stirling1_column, stirling1_deg_series),
                           (stirling2_column, stirling2_deg_series)):
        assert series(128, 3, lam) == column(128, 3, lam)[128]
    assert bell_deg_series(96, lam, 1) == bell_row(96, lam, 1)[96]


@pytest.mark.parametrize("lam", LAM_GRID)
def test_bell_stirling_bridges_both_directions(lam):
    # the two connection identities linking Bell values and both triangles
    for n in range(13):
        via_s1 = sum(
            (bell_deg(m, lam, 1) * stirling1_deg(n, m, lam) for m in range(n + 1)),
            F(0),
        )
        assert via_s1 == falling_deg(1, n, lam)
        via_s2 = sum(
            (falling_deg(1, m, lam) * stirling2_deg(n, m, lam) for m in range(n + 1)),
            F(0),
        )
        assert via_s2 == bell_deg(n, lam, 1)


# ---------------------------------------------------------------------------
# cross-check mode


def test_cross_check_mode_runs_clean():
    set_cross_check(True)
    try:
        derange_deg(6, F(2, 7), F(3, 4))
        derange_deg_order(5, 3, F(-1, 3), F(1))
        stirling2_deg(9, 4, F(-1, 2))
        stirling1_deg(9, 4, F(2, 7))
        fubini_deg(7, F(1, 3), F(1))
        bell_deg(7, F(-1, 3), F(1))
        derange_row(6, F(2, 7), F(3, 4))
        stirling2_row(9, F(-1, 2))
        stirling1_row(9, F(2, 7))
        fubini_row(7, F(1, 3), F(1))
        bell_row(7, F(-1, 3), F(1))
    finally:
        set_cross_check(False)


def test_cross_check_catches_a_wrong_series_product(monkeypatch):
    # The series path takes its falling products from _products; the
    # derangement row is read from the terms row, which builds its own.  So
    # one product off by one must show as a mismatch of the two paths.
    lam, x = F(5, 11), F(7, 13)
    key = (_key(lam), _key(x))
    touched = [
        (sequences._DERANGE, key),
        (sequences._DERANGE_TERMS, key),
        (sequences._DERANGE_ORDER_SERIES, (*key, 1)),
    ]
    real = sequences._products

    def off_by_one(*args, **kwargs):
        out = real(*args, **kwargs)
        if len(out) > 3:
            out[3] += 1
        return out

    monkeypatch.setattr(sequences, "_products", off_by_one)
    set_cross_check(True)
    try:
        with pytest.raises(AssertionError, match="dual-path mismatch"):
            derange_row(6, lam, x)
    finally:
        set_cross_check(False)
        for memo, k in touched:
            memo.rows.pop(k, None)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        derange_deg(-1, F(1, 2), 0)
    with pytest.raises(ValueError):
        falling_deg(F(1), -2, F(1, 2))
    with pytest.raises(ValueError):
        stirling2_deg(-1, 0, F(1, 2))


# ---------------------------------------------------------------------------
# randomized properties


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=50, deadline=None)
@given(rationals, rationals, rationals, st.integers(min_value=0, max_value=10))
def test_falling_vandermonde_convolution(x, y, lam, n):
    lhs = falling_deg(x + y, n, lam)
    rhs = sum(
        (
            binomial(n, k) * falling_deg(x, k, lam) * falling_deg(y, n - k, lam)
            for k in range(n + 1)
        ),
        F(0),
    )
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(rationals, rationals, st.integers(min_value=1, max_value=12))
def test_derange_difference_recurrence(x, lam, n):
    assert falling_deg(x - 1, n, lam) == derange_deg(n, lam, x) - n * derange_deg(
        n - 1, lam, x
    )


# ---------------------------------------------------------------------------
# degree bounds: the per-sequence bounds that the declared bounds of the
# identities are derived from (see the identities module docstring)


def forward_difference(values):
    """The (len(values) - 1)-th forward difference of equispaced samples."""
    k = len(values) - 1
    return sum(((-1) ** (k - i) * binomial(k, i) * v for i, v in enumerate(values)), F(0))


def equispaced(data, count):
    """count equispaced rationals that run through 0, with negatives among
    them whenever the drawn offset is positive."""
    step = data.draw(st.fractions(min_value=F(1, 12), max_value=2, max_denominator=12))
    below = data.draw(st.integers(min_value=0, max_value=count - 1))
    return [(i - below) * step for i in range(count)]


def lam_degree(n):
    return max(n - 1, 0)


degree_ns = st.integers(min_value=0, max_value=24)


@settings(max_examples=30, deadline=None)
@given(degree_ns, rationals, rationals, st.data())
def test_falling_degree_bounds(k, x, lam, data):
    # x-degree k, lam-degree k - 1
    lams = equispaced(data, lam_degree(k) + 2)
    assert forward_difference([falling_deg(x, k, mu) for mu in lams]) == 0
    xs = equispaced(data, k + 2)
    assert forward_difference([falling_deg(y, k, lam) for y in xs]) == 0


@settings(max_examples=30, deadline=None)
@given(degree_ns, st.data())
def test_stirling_degree_bounds(n, data):
    # lam-degree n - m, both kinds
    m = data.draw(st.integers(min_value=0, max_value=n))
    lams = equispaced(data, n - m + 2)
    assert forward_difference([stirling1_deg(n, m, mu) for mu in lams]) == 0
    assert forward_difference([stirling2_deg(n, m, mu) for mu in lams]) == 0


@settings(max_examples=30, deadline=None)
@given(degree_ns, rationals, rationals, st.data())
def test_derange_degree_bounds(n, x, lam, data):
    # x-degree n, lam-degree n - 1
    lams = equispaced(data, lam_degree(n) + 2)
    assert forward_difference([derange_deg(n, mu, x) for mu in lams]) == 0
    xs = equispaced(data, n + 2)
    assert forward_difference([derange_deg(n, lam, y) for y in xs]) == 0


@settings(max_examples=30, deadline=None)
@given(degree_ns, rationals, rationals, st.data())
def test_bell_and_fubini_degree_bounds(n, x, lam, data):
    # Bell: x-degree n, lam-degree n - 1; Fubini: lam-degree n - 1
    lams = equispaced(data, lam_degree(n) + 2)
    assert forward_difference([bell_deg(n, mu, x) for mu in lams]) == 0
    assert forward_difference([fubini_deg(n, mu, x) for mu in lams]) == 0
    xs = equispaced(data, n + 2)
    assert forward_difference([bell_deg(n, lam, y) for y in xs]) == 0


def test_degree_bounds_are_tight_at_lam_zero():
    # the bounds are not vacuous: one fewer difference leaves a nonzero value
    n, lams = 7, [F(i, 3) for i in range(-3, 4)]  # n - 1 + 1 points through 0
    assert forward_difference([derange_deg(n, mu, F(3, 4)) for mu in lams]) != 0
    assert forward_difference([bell_deg(n, mu, F(3, 4)) for mu in lams]) != 0
    assert forward_difference([falling_deg(F(3, 4), n, mu) for mu in lams]) != 0
