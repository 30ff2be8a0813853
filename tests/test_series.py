from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degderange.exactcore import binomial_rational, factorial
from degderange.series import (
    Series,
    binomial_pow,
    deg_exp,
    deg_log,
    geometric,
    one,
)

LAM_GRID = [F(0), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 7), F(-5, 4)]


def test_mul_basic():
    a = Series([1, 1], order=2)  # 1 + t
    b = Series([1, -1], order=2)  # 1 - t
    assert a * b == Series([1, 0, -1], order=2)


def test_mul_identity():
    a = Series([F(3, 4), F(-2), F(1, 7)], order=2)
    assert a * one(2) == a


def test_mul_truncates_to_smaller_order():
    a = geometric(5)
    b = one(3)
    assert (a * b).order == 3


def test_div_geometric():
    q = one(6) / Series([1, -1], order=6)
    assert q == geometric(6)


def test_div_long_division_oracle():
    # 1/(2 - e(t)) at lam=0 to order 2; manual long division of
    # 1 by (1 - t - t^2/2) gives 1 + t + 3/2 t^2
    denom = Series([2, 0, 0], order=2) - deg_exp(1, 0, 2)
    q = one(2) / denom
    assert q == Series([1, 1, F(3, 2)], order=2)
    assert q.coeff(2) * factorial(2) == 3  # the order-2 value F_2(1)


def test_div_self():
    a = Series([F(5, 3), 2, F(-1, 9)], order=2)
    assert a / a == one(2)


def test_div_non_unit_constant():
    a = geometric(4)
    b = Series([F(7, 2), 1, 1, 1, 1], order=4)
    assert (a / b) * b == a


def test_div_zero_constant_raises():
    with pytest.raises(ZeroDivisionError):
        one(3) / Series([0, 1], order=3)


def test_compose_identity_inner():
    a = geometric(8)
    t = Series([0, 1], order=8)
    assert a.compose(t) == a


def test_compose_zero_inner_gives_constant():
    a = Series([F(9, 2), 1, 2, 3], order=3)
    z = Series([0], order=3)
    assert a.compose(z) == Series([F(9, 2)], order=3)


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        geometric(4).compose(one(4))


@pytest.mark.parametrize("lam", LAM_GRID)
def test_compositional_inverse(lam):
    n = 16
    composed = deg_exp(1, lam, n).compose(deg_log(lam, n))
    assert composed == Series([1, 1] + [0] * (n - 1), order=n)


def test_binomial_pow_integer():
    assert binomial_pow(Series([1, 1], order=2), F(2)) == Series([1, 2, 1], order=2)


def test_binomial_pow_additivity():
    base = Series([1, 1], order=5)
    half = binomial_pow(base, F(1, 2))
    assert half * half == base.truncate(5)
    p, q = F(2, 3), F(-1, 5)
    assert binomial_pow(base, p) * binomial_pow(base, q) == binomial_pow(base, p + q)


def test_binomial_pow_deformed_exponential():
    # (1 + lam t)^(1/lam) at lam=1/2: coefficient of t^2 is 1*(1-lam)/2 = 1/4
    lam = F(1, 2)
    base = Series([1, lam], order=4)
    s = binomial_pow(base, 1 / lam)
    assert s.coeff(2) == 1 * (1 - lam) / 2 == F(1, 4)
    assert s == deg_exp(1, lam, 4)


def test_binomial_pow_rejects_bad_constant():
    with pytest.raises(ValueError):
        binomial_pow(Series([2, 1], order=3), F(1, 2))


def test_deg_exp_classical_limit():
    s = deg_exp(1, 0, 8)
    for k in range(9):
        assert s.coeff(k) == F(1, factorial(k))


def test_deg_exp_product_oracle():
    # coefficient k is x(x-lam)...(x-(k-1)lam)/k!, checked by a direct product
    x, lam = F(3, 4), F(-2, 5)
    s = deg_exp(x, lam, 6)
    prod = F(1)
    for k in range(7):
        if k:
            prod *= x - (k - 1) * lam
        assert s.coeff(k) == prod / factorial(k)
    assert deg_exp(1, F(1, 2), 2).coeff(2) == F(1, 4)


def test_deg_exp_zero_argument():
    assert deg_exp(0, F(1, 3), 5) == one(5)


@pytest.mark.parametrize("lam", LAM_GRID)
def test_deg_exp_additivity(lam):
    x, y = F(2, 3), F(-5, 7)
    lhs = deg_exp(x, lam, 10) * deg_exp(y, lam, 10)
    assert lhs == deg_exp(x + y, lam, 10)


def test_deg_log_classical_limit():
    s = deg_log(0, 6)
    assert s.coeff(0) == 0
    for k in range(1, 7):
        assert s.coeff(k) == F((-1) ** (k - 1), k)


def test_deg_log_coefficients():
    lam = F(1, 2)
    s = deg_log(lam, 4)
    assert s.coeff(2) == binomial_rational(lam, 2) / lam == F(-1, 4)
    for lam in LAM_GRID:
        assert deg_log(lam, 3).coeff(1) == 1


def test_truncate_never_extends():
    s = geometric(4)
    with pytest.raises(ValueError):
        s.truncate(5)
    with pytest.raises(IndexError):
        s.coeff(5)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_rationals, min_size=5, max_size=5),
    st.lists(small_rationals, min_size=5, max_size=5),
)
def test_div_inverts_mul(a_coeffs, b_coeffs):
    b0 = b_coeffs[0]
    if b0 == 0:
        b_coeffs[0] = F(1)
    a = Series(a_coeffs, order=4)
    b = Series(b_coeffs, order=4)
    assert (a / b) * b == a
