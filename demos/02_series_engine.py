"""The exact series engine: products, quotients, composition, exponents.

Everything here is an exact computation over rationals; the prints show
that generating-function manipulation and explicit summation always agree.

Run:  python demos/02_series_engine.py
"""

from fractions import Fraction as F

from degderange import (
    Series,
    binomial_pow,
    deg_exp,
    deg_log,
    derange_deg,
    factorial,
    geometric,
)

N = 12

print("deg_exp(1, lam) for a few lam (coefficients of t^0..t^5):")
for lam in (F(0), F(1, 2), F(-1, 3)):
    s = deg_exp(1, lam, 5)
    print(f"  lam={str(lam):>5}: {[str(c) for c in s.coeffs]}")

print()
print("The deformed logarithm is the compositional inverse:")
for lam in (F(1, 2), F(-1, 3), F(2, 7)):
    composed = deg_exp(1, lam, N).compose(deg_log(lam, N))
    residual = [c for c in composed.coeffs[2:] if c != 0]
    print(f"  lam={str(lam):>5}: compose = 1 + t, residual terms: {residual}")

print()
print("Quotients invert products exactly:")
a = deg_exp(F(3, 4), F(1, 2), N)
b = Series([1, F(-1, 3), F(2, 5)], order=N)
assert (a / b) * b == a
print("  (a / b) * b == a holds at order", N)

print()
print("Rational exponents obey the additivity law:")
base = Series([1, 1, F(1, 2)], order=N)
p, q = F(2, 3), F(-1, 4)
lhs = binomial_pow(base, p) * binomial_pow(base, q)
assert lhs == binomial_pow(base, p + q)
print(f"  base^({p}) * base^({q}) == base^({p + q})")

print()
print("Series extraction reproduces the derangement values:")
lam, x = F(1, 2), F(3, 4)
gf = geometric(N) * deg_exp(x - 1, lam, N)
for n in range(6):
    from_series = gf.coeff(n) * factorial(n)
    from_sum = derange_deg(n, lam, x)
    marker = "==" if from_series == from_sum else "!="
    print(f"  n={n}: {str(from_series):>10} {marker} {str(from_sum):<10}")
