from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degderange.exactcore import (
    Poly,
    binomial,
    binomial_rational,
    factorial,
)


def test_factorial_small():
    assert factorial(0) == 1
    assert factorial(4) == 24


def test_factorial_oracle():
    # iterated multiplication oracle
    acc = 1
    for i in range(1, 11):
        acc *= i
    assert factorial(10) == acc == 3628800


def test_factorial_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_factorial_beyond_cache_cap():
    acc = 1
    for i in range(1, 301):
        acc *= i
    assert factorial(300) == acc


def test_binomial_basic():
    assert binomial(5, 2) == 10
    for n in (-3, 0, 2, 17):
        assert binomial(n, 0) == 1
    assert binomial(3, 5) == 0


def test_binomial_shifted_form():
    # the binom(r+n-l-1, n-l) shape with r=4, n-l=3: direct product oracle
    n, k = 6, 3
    prod = 1
    for i in range(k):
        prod *= n - i
    assert binomial(6, 3) == prod // factorial(k) == 20


def test_binomial_negative_upper():
    # direct product oracle for generalized n
    for n in (-1, -2, -5):
        for k in range(6):
            prod = F(1)
            for i in range(k):
                prod *= n - i
            assert binomial(n, k) == prod / factorial(k)


def test_binomial_rational_examples():
    assert binomial_rational(F(1, 2), 2) == F(1, 2) * F(-1, 2) / 2 == F(-1, 8)
    assert binomial_rational(F(22, 7), 0) == 1
    assert binomial_rational(F(1, 2), 1) == F(1, 2)


def test_binomial_rational_matches_integer_binomial():
    for q in range(65):
        for k in range(65):
            assert binomial_rational(F(q), k) == binomial(q, k)


def test_binomial_rejects_negative_k():
    with pytest.raises(ValueError):
        binomial(4, -1)
    with pytest.raises(ValueError):
        binomial_rational(F(1, 2), -1)


def test_poly_eval():
    p = Poly((1, 0, 1))  # x^2 + 1
    assert p(2) == 5
    assert p(F(1, 2)) == F(5, 4)
    assert Poly((0,))(F(3, 7)) == 0


def test_poly_mul_add():
    x = Poly.x()
    assert x * (x + Poly((1,))) == Poly((0, 1, 1))  # x^2 + x
    assert Poly((1, 2)).scale(F(1, 2)) == Poly((F(1, 2), 1))


def test_poly_normalization():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0, 0, 0)).degree == 0
    assert Poly(()).coeffs == (F(0),)


def test_poly_immutable():
    p = Poly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (F(3),)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys = st.lists(small_rationals, min_size=1, max_size=6).map(Poly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, small_rationals)
def test_poly_eval_is_ring_homomorphism(p, q, a):
    assert (p * q)(a) == p(a) * q(a)
    assert (p + q)(a) == p(a) + q(a)


def test_factorials_are_a_prefix_of_the_factorials():
    from degderange.exactcore import FACTORIAL_CACHE_CAP, factorials

    for n in (0, 1, 7, FACTORIAL_CACHE_CAP, FACTORIAL_CACHE_CAP + 3):
        facts = factorials(n)
        assert facts == [factorial(m) for m in range(n + 1)]
        facts[0] = 5  # a new list: the cached table is unchanged
        assert factorials(n)[0] == 1
    with pytest.raises(ValueError):
        factorials(-1)
