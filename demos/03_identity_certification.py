"""Identity certification: exact grid verification, polynomial proofs per n,
and the mutation negative control that keeps the harness honest.

Run:  python demos/03_identity_certification.py
"""

import time
from fractions import Fraction as F

from degderange import IdentityId, certify_ranges, verify_grid

LAM = [F(0), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 7)]
X = [F(0), F(1), F(-2), F(3, 4)]

print("Exact verification of the whole catalog over a parameter grid:")
t0 = time.perf_counter()
report = verify_grid(n_max=16, lam_grid=LAM, x_grid=X, r_max=3)
dt = time.perf_counter() - t0
print(f"  {report.cases_run} cases, {len(report.failures)} failures, {dt:.2f}s")

print()
print("Polynomial certification: at fixed n both sides are polynomials of")
print("degree <= n-1 in lam and <= n in x (bounds derived per identity), so")
print("agreement on a grid with one more distinct point per variable is a proof.")
print("Every n takes the first n+1 points of one nested sequence 0, 1, -1, 2, ...")
for ident, certified in certify_ranges([IdentityId.THM2_REC, IdentityId.THM5], 12).items():
    print(f"  {ident.value}: certified for n={min(certified)}..12 -> {all(certified.values())}")

print()
print("Negative control: a single deliberate sign flip must be caught.")
for ident in (IdentityId.THM2_CONV, IdentityId.THM7_B, IdentityId.THM10):
    mutated = verify_grid(
        ids=[ident], n_max=6, lam_grid=LAM[:3], x_grid=X[:3], r_max=2, mutate=True
    )
    case, lhs, rhs = mutated.failures[0]
    print(
        f"  {ident.value}: first detected at n={case.n}, lam={case.lam}"
        f" (lhs {lhs} != rhs {rhs})"
    )
