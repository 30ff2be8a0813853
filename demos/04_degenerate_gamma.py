"""The probabilistic layer: deformed gamma function and distribution.

Quadrature and sampling are compared against exact rational targets computed
in the exact layer; the truncated log-power expansion exhibits its asymptotic
character honestly.

Run:  python demos/04_degenerate_gamma.py
"""

import math
from fractions import Fraction as F

from degderange import (
    DegGammaParams,
    deg_gamma11_cdf,
    deg_gamma_fn_exact,
    deg_gamma_fn_quadrature,
    deg_gamma_pdf,
    erlang_bridge_check,
    improper_quadrature,
    sample_deg_gamma11,
    sampler_ks_check,
    stirling_log_expansion_check,
    theorem11_check,
)

print("Deformed gamma function: closed form vs quadrature of the integral")
for k, lam in ((1, F(1, 4)), (2, F(1, 4)), (3, F(1, 5)), (2, F(2, 5))):
    exact = deg_gamma_fn_exact(k, lam)
    numeric = deg_gamma_fn_quadrature(k, float(lam))
    rel = abs(numeric - float(exact)) / float(exact)
    print(f"  k={k} lam={str(lam):>4}: exact {str(exact):>6}, quadrature rel err {rel:.1e}")

print()
print("Density normalization by quadrature:")
for alpha, beta, lam in ((1, 1, 0.25), (2, 1, 0.2), (1, 2, 1 / 3)):
    p = DegGammaParams(alpha, beta, lam)
    mass = improper_quadrature(lambda x: deg_gamma_pdf(p, x))
    print(f"  alpha={alpha} beta={beta} lam={lam:.3f}: total mass {mass:.12f}")

print()
print("Moment identity: quadrature vs the exact target (1-lam) * n!")
for lam in (F(1, 10), F(1, 4), F(2, 5)):
    worst = max(theorem11_check(n, lam).rel_error for n in range(9))
    print(f"  lam={str(lam):>4}: worst rel err over n <= 8 is {worst:.1e}")

print()
print("Truncated log-power expansion (asymptotic: small lam converges,")
print("larger lam hits the divergence wall and is flagged, not passed):")
for lam in (F(1, 64), F(1, 40), F(1, 10)):
    r = stirling_log_expansion_check(1, 40, lam)
    status = "pass" if r.passed else ("inconclusive" if r.inconclusive else "fail")
    print(f"  lam={str(lam):>5}: {status:>12}, rel err {r.rel_error:.1e} ({r.detail})")

print()
print("Erlang bridge: order-r values vs moment convolution, exact")
for r in range(1, 5):
    lhs, rhs, ok = erlang_bridge_check(8, r, F(1, 3), F(3, 4))
    print(f"  r={r}: lhs == rhs == {lhs} -> {ok}")

print()
print("Inverse-transform sampler at lam=1/4 (seed 42):")
samples = sample_deg_gamma11(0.25, 42, 10**6)
se = math.sqrt(12.0 / len(samples))
mean = math.fsum(samples) / len(samples)
print(f"  mean {mean:.5f} vs exact 2 (3 standard errors = {3 * se:.5f})")
emp = sum(x <= 1.0 for x in samples) / len(samples)
print(f"  empirical CDF at 1: {emp:.5f} vs exact {deg_gamma11_cdf(0.25, 1.0):.5f}")
stat, crit, ok = sampler_ks_check(0.25, 10**5, 42)
print(f"  KS statistic {stat:.5f} vs 1% critical value {crit:.5f} -> {'ok' if ok else 'reject'}")
