"""Exact rational scalars and dense univariate polynomials.

Every exact computation in this package runs over arbitrary-precision
rationals, realized by :class:`fractions.Fraction` (always reduced, positive
denominator, decidable equality).  Plain ``int`` values are accepted and
returned wherever a quantity is integer-valued; they mix exactly with
``Fraction``.  No floating point enters this module.

Coefficient-list arithmetic runs on the integer-numerator form of a list,
(nums, den): one integer per entry over one common denominator (the model of
FLINT's ``fmpq_poly``).  Products and sums then cost plain integer
operations, and each result entry is reduced to a ``Fraction`` once, at the
end.  ``dot`` and ``binomial_conv`` take their operands in this form, which
is the form the sequence memos store, and return their sum unreduced, as an
int pair (num, den): a caller that only compares two sums does so by
cross-multiplication, with no gcd, and a caller that needs the value builds
one ``Fraction`` from the pair.  ``binomial_conv`` reads its weights from a
row of binomial coefficients per n, kept for n up to
``FACTORIAL_CACHE_CAP``.

Pascal's rule has one home, ``pascal_step``: the cached binomial rows are
grown by it, and so are the rows that the sequence module's series grow
steps roll along, one step per k, in place of a ``math.comb`` call per term.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Sequence, Union

ExactScalar = Union[int, Fraction]
IntRow = tuple[list[int], int]  # (nums, den): entry i is nums[i] / den
IntPair = tuple[int, int]  # (num, den): the value num / den, not reduced

# Factorials and binomial rows up to this n are kept in lazily grown tables;
# larger ones are computed on each call.
FACTORIAL_CACHE_CAP = 256

_fact_table = [1]
_comb_rows = [[1]]  # row n: binom(n, l) for l = 0..n
_table_lock = threading.Lock()


def as_ints(values: Sequence[ExactScalar]) -> IntRow:
    """Integer-numerator form (nums, den): values[i] == nums[i] / den, with den
    the least common denominator of the values."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def as_fractions(nums: Sequence[int], den: int) -> list[Fraction]:
    """The reduced fractions nums[i] / den: one gcd per entry."""
    return [Fraction(v, den) for v in nums]


def widen(nums: list[int], den: int, d: int) -> IntRow:
    """The same values as nums / den, over the least multiple of den that d
    divides, so that a fraction with denominator d can be added in."""
    f = d // math.gcd(den, d)
    if f == 1:
        return nums, den
    return [v * f for v in nums], den * f


def convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of the product of two integer coefficient lists,
    for n <= len(a) + len(b) - 2."""
    rb = b[::-1]
    la, lb = len(a), len(b)
    out = []
    for k in range(n + 1):
        lo, hi = max(0, k - lb + 1), min(k, la - 1)
        out.append(sum(map(mul, a[lo : hi + 1], rb[lb - 1 - k + lo : lb - k + hi])))
    return out


def dot(u: IntRow, v: IntRow) -> IntPair:
    """Exact sum of u[i] * v[i] over the shorter of two lists in
    integer-numerator form (nums, den), as the unreduced pair (num, du * dv).
    Either nums may be an iterator, such as a ``map`` chain over a row: it
    is read once."""
    (nu, du), (nv, dv) = u, v
    return sum(map(mul, nu, nv)), du * dv


def binomial_conv(a: IntRow, b: IntRow, n: int) -> IntPair:
    """Exact sum of binom(n, l) * a[l] * b[n-l] over l = 0..n, for two lists
    in integer-numerator form (nums, den) of at least n + 1 entries, as the
    unreduced pair (num, da * db)."""
    (na, da), (nb, db) = a, b
    weights = map(mul, _binomial_row(n), na)
    return sum(map(mul, weights, nb[n::-1])), da * db


def pascal_step(top: list[int]) -> list[int]:
    """Row k + 1 of Pascal's triangle from row k, top: binom(k+1, l) =
    binom(k, l-1) + binom(k, l), as a new list."""
    return [1, *map(add, top, top[1:]), 1]


def _binomial_row(n: int) -> list[int]:
    """[binom(n, l) for l = 0..n]; rows up to FACTORIAL_CACHE_CAP are grown
    once, by ``pascal_step``, and kept."""
    if n <= FACTORIAL_CACHE_CAP:
        if n >= len(_comb_rows):
            with _table_lock:
                while len(_comb_rows) <= n:
                    _comb_rows.append(pascal_step(_comb_rows[-1]))
        return _comb_rows[n]
    return list(map(math.comb, repeat(n), range(n + 1)))


def factorial(n: int) -> int:
    """Exact n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    if n <= FACTORIAL_CACHE_CAP:
        if n >= len(_fact_table):
            with _table_lock:
                while len(_fact_table) <= n:
                    _fact_table.append(_fact_table[-1] * len(_fact_table))
        return _fact_table[n]
    return math.factorial(n)


def factorials(n: int) -> list[int]:
    """[m! for m = 0..n], as a new list: a prefix of the cached table, with
    running products past FACTORIAL_CACHE_CAP."""
    factorial(min(n, FACTORIAL_CACHE_CAP))  # grows the table; rejects n < 0
    out = _fact_table[: n + 1]
    for m in range(len(out), n + 1):
        out.append(out[-1] * m)
    return out


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient n(n-1)...(n-k+1)/k! for integer n.

    n may be negative; k must be >= 0.  The result is always an integer.
    """
    if k < 0:
        raise ValueError(f"binomial lower index must be >= 0, got {k}")
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    # binom(n, k) = (-1)^k binom(k - n - 1, k) for n < 0
    return (-1) ** k * math.comb(k - n - 1, k)


def binomial_rational(q: ExactScalar, k: int) -> Fraction:
    """q(q-1)...(q-k+1)/k! for rational q and integer k >= 0."""
    if k < 0:
        raise ValueError(f"binomial lower index must be >= 0, got {k}")
    num = Fraction(1)
    for i in range(k):
        num *= q - i
    return num / factorial(k)


class Poly:
    """Dense univariate polynomial, coefficients ascending by degree.

    Coefficients are exact rationals; the zero polynomial is the single
    coefficient 0.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[ExactScalar]):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs] or [Fraction(0)]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    def __call__(self, a: ExactScalar) -> Fraction:
        """Exact evaluation at a rational point (Horner)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, da = as_ints(self.coeffs)
        b, db = as_ints(other.coeffs)
        return Poly(as_fractions(convolve(a, b, len(a) + len(b) - 2), da * db))

    def scale(self, c: ExactScalar) -> "Poly":
        return Poly([Fraction(c) * v for v in self.coeffs])

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

