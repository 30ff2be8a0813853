"""Truncated formal power series over exact rationals.

A :class:`Series` keeps the coefficients of t^0 .. t^N for an explicit
truncation order N.  Every operation is exact on the retained coefficients:
the first N+1 coefficients of a result always equal those of the untruncated
formal result.  Binary operations truncate to the smaller operand order and
never silently extend it.

The two deformation series live here as well: ``deg_exp`` for
(1 + lam*t)^(x/lam) and ``deg_log`` for its compositional inverse
((1+t)^lam - 1)/lam, with lam = 0 handled as the exact classical
exponential/logarithm rather than a numeric limit.  (The ``*_series`` paths
of ``sequences`` grow their coefficients by recurrences and build no
``Series``; the tests check them against products, divisions and
compositions of these series.)
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .exactcore import (
    ExactScalar,
    Poly,
    as_fractions,
    as_ints,
    binomial_rational,
    convolve,
    factorial,
    widen,
)


class Series:
    """Formal power series truncated at an explicit order (inclusive)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[ExactScalar], order: int | None = None):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(cs) < order + 1:
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        else:
            cs = cs[: order + 1]
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def constant(cls, c: ExactScalar, order: int) -> "Series":
        return cls([c], order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "Series":
        return cls(p.coeffs, order)

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[: order + 1], order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.order))

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r}, order={self.order})"

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n)

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs], self.order)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        a, da = as_ints(self.coeffs[: n + 1])
        b, db = as_ints(other.coeffs[: n + 1])
        return Series(as_fractions(convolve(a, b, n), da * db), n)

    def scale(self, c: ExactScalar) -> "Series":
        c = Fraction(c)
        nums, den = as_ints(self.coeffs)
        return Series(
            as_fractions([v * c.numerator for v in nums], den * c.denominator), self.order
        )

    def __truediv__(self, other: "Series") -> "Series":
        """Exact long division; the divisor needs a nonzero constant term.

        The quotient so far is also kept as integers over one common
        denominator, so each step's convolution sum is an integer dot product.
        """
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("series division by zero constant term")
        n = min(self.order, other.order)
        a, b0 = self.coeffs, other.coeffs[0]
        rb, db = as_ints(other.coeffs[n:0:-1])  # b[n], ..., b[1]
        out: list[Fraction] = []
        nums: list[int] = []  # out[i] == nums[i] / den
        den = 1
        for k in range(n + 1):
            s = sum(map(mul, rb[n - k :], nums))
            c = (a[k] - Fraction(s, db * den)) / b0
            nums, den = widen(nums, den, c.denominator)
            nums.append(c.numerator * (den // c.denominator))
            out.append(c)
        return Series(out, n)

    def compose(self, inner: "Series") -> "Series":
        """outer(inner(t)) truncated to the common order (Horner scheme).

        The inner series must have zero constant term.  The Horner
        accumulator stays in integer-numerator form throughout.
        """
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires zero constant term in inner series")
        n = min(self.order, inner.order)
        b, db = as_ints(inner.coeffs[: n + 1])
        acc, den = [0] * (n + 1), 1
        for c in reversed(self.coeffs[: n + 1]):
            acc, den = widen(convolve(acc, b, n), den * db, c.denominator)
            acc[0] += c.numerator * (den // c.denominator)
            g = math.gcd(den, *acc)
            if g != 1:
                den //= g
                acc = [v // g for v in acc]
        return Series(as_fractions(acc, den), n)


def one(order: int) -> Series:
    return Series.constant(1, order)


def geometric(order: int) -> Series:
    """1/(1-t): all coefficients 1."""
    return Series([Fraction(1)] * (order + 1), order)


def binomial_pow(base: Series, q: ExactScalar) -> Series:
    """base**q for rational q via the generalized binomial series.

    The base must have constant term 1; with u = base - 1 the result is
    sum_k binom(q, k) u^k, the binomial series composed with u.
    """
    if base.coeffs[0] != 1:
        raise ValueError("binomial_pow requires constant term 1")
    n = base.order
    binom = Series([binomial_rational(q, k) for k in range(n + 1)], n)
    return binom.compose(base - one(n))


def deg_exp(x: ExactScalar, lam: ExactScalar, order: int) -> Series:
    """(1 + lam*t)^(x/lam) as a series: coefficient k is x(x-lam)...(x-(k-1)lam)/k!.

    lam = 0 gives the classical exponential coefficients x^k/k! exactly.
    """
    x = Fraction(x)
    lam = Fraction(lam)
    coeffs = [Fraction(1)]
    prod = Fraction(1)
    for k in range(1, order + 1):
        prod *= x - (k - 1) * lam
        coeffs.append(prod / factorial(k))
    return Series(coeffs, order)


def deg_log(lam: ExactScalar, order: int) -> Series:
    """Compositional inverse of deg_exp(1, lam) shifted to 1+t:
    ((1+t)^lam - 1)/lam, or log(1+t) when lam = 0.  Zero constant term.
    """
    lam = Fraction(lam)
    coeffs = [Fraction(0)]
    if lam == 0:
        for k in range(1, order + 1):
            coeffs.append(Fraction((-1) ** (k - 1), k))
    else:
        for k in range(1, order + 1):
            coeffs.append(binomial_rational(lam, k) / lam)
    return Series(coeffs, order)
