"""Executable verifiers for the identity catalog.

Each identity is evaluated at concrete rational parameters; the two sides are
computed by structurally independent code paths, sharing only the exact-core
primitives (factorials, binomials, falling-factorial products).  The path
mapping, per identity:

  THM2_CONV          lhs: series extraction of the derangement generating
                     function; rhs: convolution sum over derangement numbers
                     (explicit sums) and falling factorials.
  THM2_REC/_X0       lhs: falling-factorial product; rhs: explicit-sum
                     derangement values.
  THM3               lhs: double sum (explicit-sum derangements, recurrence
                     Stirling triangle); rhs: alternating single sum.
  THM4               lhs: recurrence triangle + explicit-sum derangements;
                     rhs: double sum with series-extracted Fubini values.
  THM5               three expressions: explicit-sum Fubini with the
                     first-kind triangle / derangement-number convolution /
                     x-shifted convolution; all must also equal n!.
  LEMMA6             both sides weighted by the same second-kind triangle,
                     falling products vs derangement differences.
  THM7_A             lhs: falling product; rhs: composition-path Bell values
                     with the first-kind triangle.
  THM7_B             lhs: composition-path Bell value; rhs: falling products
                     with the second-kind triangle.
  THM8_A             lhs: alternating derangement sum over the sign-flipped
                     second-kind triangle; rhs: composition-path Bell values
                     at the flipped parameter.
  THM8_B             lhs: explicit-sum Bell values with the first-kind
                     triangle; rhs: signed falling product at the flipped
                     parameter.
  EQ24_25            lhs: signed falling products with the first-kind
                     triangle; rhs: derangement-polynomial convolution.
  THM9_VS_SERIES     lhs: explicit order-r sum; rhs: series long division.
  THM10              lhs: composition-path Bell value at the flipped
                     parameter; rhs: double sum over the original one.
  EXP_MOMENT_BRIDGE  lhs: moment-weighted convolution (exponential moments
                     m! substituted exactly); rhs: series extraction.

The mutation mode applies one deliberate sign flip per identity (negative
control for the harness itself).
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactcore import ExactScalar, binomial, factorial
from .sequences import (
    bell_deg,
    bell_deg_series,
    derange_deg,
    derange_deg_order,
    derange_deg_order_series,
    derange_deg_series,
    falling_deg,
    fubini_deg,
    fubini_deg_series,
    stirling1_deg,
    stirling2_deg,
)

MAX_N = 256

_lock = threading.RLock()


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


@dataclass(frozen=True)
class IdentityCase:
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


@dataclass
class VerificationReport:
    cases_run: int
    failures: list[tuple[IdentityCase, Fraction, Fraction]]

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# verifiers; each returns (lhs, rhs)


def _thm2_conv(n, lam, x, r, mutate):
    lhs = derange_deg_series(n, lam, x)
    rhs = Fraction(0)
    for l in range(n + 1):
        rhs += binomial(n, l) * derange_deg(l, lam, 0) * falling_deg(x, n - l, lam)
    if mutate:  # flip the sign of the top summand
        rhs -= 2 * derange_deg(n, lam, 0) * falling_deg(x, 0, lam)
    return lhs, rhs


def _thm2_rec(n, lam, x, r, mutate):
    lhs = falling_deg(x - 1, n, lam)
    sign = 1 if mutate else -1
    rhs = derange_deg(n, lam, x) + sign * n * derange_deg(n - 1, lam, x)
    return lhs, rhs


def _thm2_rec_x0(n, lam, x, r, mutate):
    return _thm2_rec(n, lam, Fraction(0), r, mutate)


_thm3_inner: dict[tuple[Fraction, Fraction], list[Fraction]] = {}


def _thm3(n, lam, x, r, mutate):
    key = (lam, x)
    inner = _thm3_inner.get(key)
    if inner is None or len(inner) <= n:
        with _lock:
            inner = _thm3_inner.setdefault(key, [])
            for j in range(len(inner), n + 1):
                acc = Fraction(0)
                for l in range(j + 1):
                    acc += (-1) ** l * derange_deg(l, lam, x) * stirling2_deg(j, l, lam)
                inner.append(acc)
    lhs = Fraction(0)
    for j in range(n + 1):
        lhs += binomial(n, j) * falling_deg(1, n - j, lam) * inner[j]
    rhs = Fraction(0)
    sign = -1 if mutate else 1
    for j in range(n + 1):
        rhs += falling_deg(x - 1, j, lam) * sign * (-1) ** j * stirling2_deg(n, j, lam)
    return lhs, rhs


_thm4_inner: dict[tuple[Fraction, Fraction], list[Fraction]] = {}


def _thm4(n, lam, x, r, mutate):
    lhs = Fraction(0)
    for l in range(n + 1):
        lhs += stirling2_deg(n, l, lam) * derange_deg(l, lam, x)
    key = (lam, x)
    inner = _thm4_inner.get(key)
    if inner is None or len(inner) <= n:
        with _lock:
            inner = _thm4_inner.setdefault(key, [])
            for l in range(len(inner), n + 1):
                acc = Fraction(0)
                for m in range(l + 1):
                    acc += falling_deg(x - 1, m, lam) * stirling2_deg(l, m, lam)
                inner.append(acc)
    rhs = Fraction(0)
    for l in range(n + 1):
        f = fubini_deg_series(n - l, lam, 1)
        if mutate:
            f = -f
        rhs += binomial(n, l) * f * inner[l]
    return lhs, rhs


def _thm5(n, lam, x, r, mutate):
    expr_a = Fraction(0)
    for l in range(n + 1):
        expr_a += fubini_deg(l, lam, 1) * stirling1_deg(n, l, lam)
    expr_b = Fraction(0)
    for l in range(n + 1):
        expr_b += binomial(n, l) * derange_deg(l, lam, 0) * falling_deg(1, n - l, lam)
    expr_c = Fraction(0)
    for l in range(n + 1):
        expr_c += binomial(n, l) * derange_deg(l, lam, x) * falling_deg(1 - x, n - l, lam)
    if mutate:  # flip the sign of the top summand of the x-shifted form
        expr_c -= 2 * derange_deg(n, lam, x) * falling_deg(1 - x, 0, lam)
    nfact = Fraction(factorial(n))
    if expr_a == expr_b == nfact:
        return expr_a, expr_c
    # surface whichever pair differs
    return expr_a, expr_b if expr_a != expr_b else nfact


def _lemma6(n, lam, x, r, mutate):
    lhs = Fraction(0)
    for m in range(1, n + 1):
        lhs += falling_deg(x - 1, m, lam) * stirling2_deg(n, m, lam)
    if mutate:
        lhs -= 2 * falling_deg(x - 1, 1, lam) * stirling2_deg(n, 1, lam)
    rhs = Fraction(0)
    for m in range(1, n + 1):
        diff = derange_deg(m, lam, x) - m * derange_deg(m - 1, lam, x)
        rhs += diff * stirling2_deg(n, m, lam)
    return lhs, rhs


def _thm7_a(n, lam, x, r, mutate):
    lhs = falling_deg(1, n, lam)
    rhs = Fraction(0)
    for m in range(n + 1):
        rhs += bell_deg_series(m, lam, 1) * stirling1_deg(n, m, lam)
    if mutate:
        rhs -= 2 * bell_deg_series(n, lam, 1) * stirling1_deg(n, n, lam)
    return lhs, rhs


def _thm7_b(n, lam, x, r, mutate):
    lhs = bell_deg_series(n, lam, 1)
    rhs = Fraction(0)
    for m in range(n + 1):
        rhs += falling_deg(1, m, lam) * stirling2_deg(n, m, lam)
    if mutate:
        rhs -= 2 * falling_deg(1, n, lam) * stirling2_deg(n, n, lam)
    return lhs, rhs


def _thm8_a(n, lam, x, r, mutate):
    lhs = Fraction(0)
    for m in range(n + 1):
        lhs += (-1) ** m * derange_deg(m, lam, 0) * stirling2_deg(n, m, -lam)
    rhs = Fraction(0)
    for m in range(n + 1):
        rhs += binomial(n, m) * bell_deg_series(m, -lam, 1) * falling_deg(-1, n - m, -lam)
    if mutate:
        rhs -= 2 * bell_deg_series(n, -lam, 1) * falling_deg(-1, 0, -lam)
    return lhs, rhs


def _thm8_b(n, lam, x, r, mutate):
    lhs = Fraction(0)
    for k in range(n + 1):
        lhs += bell_deg(k, lam, 1) * stirling1_deg(n, k, lam)
    sign = -1 if mutate else 1
    rhs = sign * (-1) ** n * falling_deg(-1, n, -lam)
    return lhs, rhs


def _eq24_25(n, lam, x, r, mutate):
    acc = Fraction(0)
    for m in range(n + 1):
        acc += falling_deg(-1, m, lam) * stirling1_deg(n, m, lam)
    sign = -1 if mutate else 1
    lhs = sign * (-1) ** n * acc
    rhs = Fraction(0)
    for m in range(n + 1):
        rhs += binomial(n, m) * derange_deg(m, lam, x) * falling_deg(1 - x, n - m, lam)
    return lhs, rhs


def _thm9_vs_series(n, lam, x, r, mutate):
    lhs = derange_deg_order(n, r, lam, x)
    if mutate:  # flip the sign of the top summand (l = n) of the explicit sum
        lhs -= 2 * falling_deg(x - 1, n, lam)
    rhs = derange_deg_order_series(n, r, lam, x)
    return lhs, rhs


_thm10_inner: dict[Fraction, list[Fraction]] = {}


def _thm10(n, lam, x, r, mutate):
    lhs = bell_deg_series(n, -lam, 1)
    inner = _thm10_inner.get(lam)
    if inner is None or len(inner) <= n:
        with _lock:
            inner = _thm10_inner.setdefault(lam, [])
            for j in range(len(inner), n + 1):
                acc = Fraction(0)
                for m in range(j + 1):
                    acc += (-1) ** m * derange_deg(m, lam, 0) * stirling2_deg(j, m, -lam)
                inner.append(acc)
    rhs = Fraction(0)
    for j in range(n + 1):
        rhs += binomial(n, j) * falling_deg(1, n - j, -lam) * inner[j]
    if mutate:
        rhs -= 2 * binomial(n, 0) * falling_deg(1, n, -lam) * inner[0]
    return lhs, rhs


def _exp_moment_bridge(n, lam, x, r, mutate):
    lhs = Fraction(0)
    for m in range(n + 1):
        lhs += binomial(n, m) * falling_deg(x - 1, n - m, lam) * factorial(m)
    if mutate:
        lhs -= 2 * binomial(n, n) * falling_deg(x - 1, 0, lam) * factorial(n)
    rhs = derange_deg_series(n, lam, x)
    return lhs, rhs


@dataclass(frozen=True)
class _Spec:
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


def identity_uses_x(identity_id: IdentityId) -> bool:
    return _REGISTRY[identity_id].uses_x


def identity_uses_r(identity_id: IdentityId) -> bool:
    return _REGISTRY[identity_id].uses_r


def identity_min_n(identity_id: IdentityId) -> int:
    return _REGISTRY[identity_id].min_n


def verify(case: IdentityCase, mutate: bool = False) -> tuple[Fraction, Fraction, bool]:
    """Evaluate both sides of one identity case exactly.

    Returns (lhs, rhs, passed) with passed meaning exact equality.
    """
    try:
        spec = _REGISTRY[case.identity_id]
    except KeyError:
        raise ValueError(f"unsupported identity {case.identity_id!r}") from None
    if not spec.min_n <= case.n <= MAX_N:
        raise ValueError(
            f"{case.identity_id.value} needs {spec.min_n} <= n <= {MAX_N}, got {case.n}"
        )
    if spec.uses_x != (case.x is not None):
        raise ValueError(
            f"{case.identity_id.value} {'requires' if spec.uses_x else 'does not take'} x"
        )
    if spec.uses_r != (case.r is not None):
        raise ValueError(
            f"{case.identity_id.value} {'requires' if spec.uses_r else 'does not take'} r"
        )
    if spec.uses_r and case.r < 1:
        raise ValueError(f"r must be >= 1, got {case.r}")
    lhs, rhs = spec.fn(case.n, Fraction(case.lam), case.x, case.r, mutate)
    return lhs, rhs, lhs == rhs


def _expand_cases(
    ids: Iterable[IdentityId],
    n_max: int,
    lam_grid: Sequence[ExactScalar],
    x_grid: Sequence[ExactScalar],
    r_max: int,
) -> list[IdentityCase]:
    cases = []
    for ident in ids:
        spec = _REGISTRY[ident]
        xs = [Fraction(x) for x in x_grid] if spec.uses_x else [None]
        rs = list(range(1, r_max + 1)) if spec.uses_r else [None]
        for lam in lam_grid:
            for x in xs:
                for r in rs:
                    for n in range(spec.min_n, n_max + 1):
                        cases.append(IdentityCase(ident, n, Fraction(lam), x, r))
    cases.sort(key=IdentityCase.sort_key)
    return cases


def _run_chunk(args) -> list[tuple[IdentityCase, Fraction, Fraction]]:
    chunk, mutate = args
    failures = []
    for case in chunk:
        lhs, rhs, passed = verify(case, mutate=mutate)
        if not passed:
            failures.append((case, lhs, rhs))
    return failures


def verify_grid(
    ids: Iterable[IdentityId] | None = None,
    n_max: int = 32,
    lam_grid: Sequence[ExactScalar] = (0, Fraction(1, 2), Fraction(-1, 2),
                                       Fraction(1, 3), Fraction(-1, 3), Fraction(2, 7)),
    x_grid: Sequence[ExactScalar] = (0, 1, -2, Fraction(3, 4)),
    r_max: int = 4,
    mutate: bool = False,
    jobs: int = 1,
) -> VerificationReport:
    """Evaluate every requested identity over the full parameter grid.

    The default grid is the full certification grid.  The report is
    deterministic regardless of scheduling: cases are expanded and merged in
    sorted order.
    """
    id_list = sorted(set(ids), key=lambda i: i.value) if ids is not None else list(IdentityId)
    cases = _expand_cases(id_list, n_max, lam_grid, x_grid, r_max)
    if jobs > 1 and len(cases) > 1:
        nchunks = min(jobs * 4, len(cases))
        chunks = [cases[i::nchunks] for i in range(nchunks)]
        failures: list[tuple[IdentityCase, Fraction, Fraction]] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_run_chunk, [(c, mutate) for c in chunks]):
                failures.extend(part)
        failures.sort(key=lambda t: t[0].sort_key())
    else:
        failures = _run_chunk((cases, mutate))
    return VerificationReport(cases_run=len(cases), failures=failures)


def certify(
    identity_id: IdentityId,
    n: int,
    lam_points: Sequence[ExactScalar],
    x_points: Sequence[ExactScalar] | None = None,
    mutate: bool = False,
) -> bool:
    """Upgrade grid agreement at fixed n to a polynomial identity proof.

    Both sides at fixed n are polynomials of degree <= n in the deformation
    parameter and (when referenced) in x, so exact agreement on an
    (n+1) x (n+1) tensor grid of distinct points forces them to coincide as
    polynomials.  Raises ValueError when fewer than n+1 distinct points are
    supplied for a referenced variable.
    """
    spec = _REGISTRY[identity_id]
    lam_points = [Fraction(v) for v in lam_points]
    if len(set(lam_points)) < n + 1:
        raise ValueError(f"need at least {n + 1} distinct deformation points")
    if spec.uses_x:
        if x_points is None:
            raise ValueError(f"{identity_id.value} references x; supply x points")
        x_points = [Fraction(v) for v in x_points]
        if len(set(x_points)) < n + 1:
            raise ValueError(f"need at least {n + 1} distinct x points")
    else:
        x_points = [None]
    r = 1 if spec.uses_r else None
    for lam in lam_points:
        for x in x_points:
            case = IdentityCase(identity_id, n, lam, x, r)
            _, _, passed = verify(case, mutate=mutate)
            if not passed:
                return False
    return True
