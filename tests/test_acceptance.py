"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import inspect
import json
import math
import time
from fractions import Fraction as F

from degderange import cli
from degderange.exactcore import binomial, factorial
from degderange.identities import (
    _REGISTRY,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_X_GRID,
    IdentityId,
    certify,
    certify_ranges,
    verify_grid,
)
from degderange.probability import (
    deg_gamma_fn_exact,
    deg_gamma_fn_quadrature,
    erlang_bridge_check,
    improper_quadrature,
    sample_deg_gamma11,
    sampler_ks_check,
    theorem11_check,
)
from degderange.sequences import (
    derange_deg,
    falling_deg,
    stirling1_deg,
    stirling1_deg_series,
    stirling2_deg,
    stirling2_deg_series,
)
from degderange.series import Series, deg_exp, deg_log

ACCEPT_LAM_GRID = [F(0), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 7)]
ACCEPT_X_GRID = [F(0), F(1), F(-2), F(3, 4)]


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_classical_regression():
    t0 = time.perf_counter()
    # oracle for the tail values: the classical alternating explicit sum
    oracle = []
    for n in range(7):
        acc = F(0)
        for i in range(n + 1):
            acc += F((-1) ** i, factorial(i))
        oracle.append(acc * factorial(n))
    assert oracle == [1, 0, 1, 2, 9, 44, 265]
    got = [derange_deg(n, 0, 0) for n in range(7)]
    elapsed = time.perf_counter() - t0
    _report(
        1,
        got == [1, 0, 1, 2, 9, 44, 265] and elapsed < 1.0,
        f"classical values {got}, {elapsed:.3f}s",
    )


def test_criterion_2_identity_certification_grid():
    t0 = time.perf_counter()
    report = verify_grid(
        ids=None,  # every identity
        n_max=32,
        lam_grid=ACCEPT_LAM_GRID,
        x_grid=ACCEPT_X_GRID,
        r_max=4,
    )
    elapsed = time.perf_counter() - t0
    _report(
        2,
        report.ok and elapsed < 60.0,
        f"{report.cases_run} cases, {len(report.failures)} failures, {elapsed:.1f}s",
    )


def test_default_grid_is_the_criterion_2_grid(capsys):
    # verify_grid and the CLI's verify default to the one grid of
    # identities; it is the grid above, and a verify run with no grid option
    # echoes it
    assert list(DEFAULT_LAMBDA_GRID) == ACCEPT_LAM_GRID
    assert list(DEFAULT_X_GRID) == ACCEPT_X_GRID
    defaults = {k: p.default for k, p in inspect.signature(verify_grid).parameters.items()}
    assert (defaults["lam_grid"], defaults["x_grid"]) == (DEFAULT_LAMBDA_GRID, DEFAULT_X_GRID)
    assert cli.main(["verify", "--identities", "THM7_A", "--n-max", "2"]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["lambda_grid"] == [str(v) for v in ACCEPT_LAM_GRID]
    assert params["x_grid"] == [str(v) for v in ACCEPT_X_GRID]


def test_criterion_3_polynomial_certification():
    t0 = time.perf_counter()
    ok = True
    for ident in (IdentityId.THM2_REC, IdentityId.THM5):
        for n in range(_REGISTRY[ident].min_n, 17):
            pts = [F(2 * i - n, 2 * (n + 2)) for i in range(n + 1)]
            ok = ok and certify(ident, n, pts, pts)
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 30.0, f"certified n <= 16 for both targets, {elapsed:.1f}s")


def test_criterion_3_certify_range_to_n_32():
    t0 = time.perf_counter()
    certified = certify_ranges(IdentityId, 32)
    ok = certified == {
        ident: dict.fromkeys(range(spec.min_n, 33), True) for ident, spec in _REGISTRY.items()
    }
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 30.0, f"certify_ranges: every identity, n <= 32, {elapsed:.1f}s")


def test_criterion_4_series_self_consistency():
    ok = True
    for lam in (F(1, 2), F(-1, 3), F(2, 7)):
        composed = deg_exp(1, lam, 64).compose(deg_log(lam, 64))
        ok = ok and composed == Series([1, 1] + [0] * 63, order=64)
    pairs = 0
    for lam in (F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 7), F(-2, 7)):
        for n in range(33):
            for m in range(n + 1):
                ok = ok and stirling2_deg(n, m, lam) == stirling2_deg_series(n, m, lam)
                ok = ok and stirling1_deg(n, m, lam) == stirling1_deg_series(n, m, lam)
                pairs += 2
    _report(4, ok, f"compositional inverse at order 64; {pairs} dual-path Stirling values")


def test_criterion_5_moment_identity_numeric():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for lam in (F(1, 10), F(1, 4), F(2, 5)):
        for n in range(9):
            res = theorem11_check(n, lam)
            worst = max(worst, res.rel_error)
            ok = ok and res.rel_error <= 1e-8
    # the exact convolution collapses to n! (checked directly, n <= 20)
    for lam in (F(1, 10), F(1, 4), F(2, 5)):
        for n in range(21):
            acc = F(0)
            for l in range(n + 1):
                acc += binomial(n, l) * derange_deg(l, lam, 0) * falling_deg(1, n - l, lam)
            ok = ok and acc == factorial(n)
    elapsed = time.perf_counter() - t0
    _report(5, ok and elapsed < 10.0, f"worst rel error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_gamma_evaluation():
    ok = True
    worst = 0.0
    for k, lam in ((1, F(1, 4)), (2, F(1, 4)), (3, F(1, 5)), (2, F(2, 5))):
        exact = float(deg_gamma_fn_exact(k, lam))
        numeric = deg_gamma_fn_quadrature(k, float(lam))
        rel = abs(numeric - exact) / exact
        worst = max(worst, rel)
        ok = ok and rel <= 1e-8
    for lam in (F(1, 10), F(1, 4), F(2, 5), F(9, 10)):
        ok = ok and deg_gamma_fn_exact(1, lam) == 1 / (1 - lam)
    _report(6, ok, f"closed form vs quadrature, worst rel {worst:.2e}")


def test_criterion_7_erlang_bridge():
    t0 = time.perf_counter()
    ok = True
    for lam in (F(1, 3), F(-1, 4)):
        for x in (F(0), F(1), F(3, 4)):
            for r in range(1, 5):
                for n in range(21):
                    lhs, rhs, passed = erlang_bridge_check(n, r, lam, x)
                    ok = ok and passed
    elapsed = time.perf_counter() - t0
    _report(7, ok and elapsed < 10.0, f"exact for n <= 20, r <= 4, {elapsed:.1f}s")


def test_criterion_8_stochastic():
    lam = 0.25
    # quadrature oracle for the mean before using it
    mean_quad = improper_quadrature(
        lambda x: x * (1 - lam) * (1 + lam * x) ** (-1 / lam)
    )
    assert abs(mean_quad - 2.0) < 1e-8
    n = 10**6
    samples = sample_deg_gamma11(lam, 42, n)
    se = math.sqrt(12.0 / n)  # Var = 2/((1-2L)(1-3L)) - 1/(1-2L)^2 = 12 at L=1/4
    mean = math.fsum(samples) / n
    mean_ok = abs(mean - 2.0) < 3 * se
    stat, crit, ks_ok = sampler_ks_check(lam, 10**5, 42)
    _report(
        8,
        mean_ok and ks_ok,
        f"mean {mean:.5f} (3SE {3 * se:.5f}), KS {stat:.5f} < {crit:.5f}",
    )


def test_criterion_9_negative_controls():
    ok = True
    missing = []
    for ident in IdentityId:
        report = verify_grid(
            ids=[ident],
            n_max=8,
            lam_grid=[F(0), F(1, 2), F(-1, 3)],
            x_grid=[F(0), F(1), F(3, 4)],
            r_max=2,
            mutate=True,
        )
        if not report.failures:
            ok = False
            missing.append(ident.value)
    _report(9, ok, "every mutated verifier fails somewhere" if ok else f"missed: {missing}")
