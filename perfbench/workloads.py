"""The benchmark's workloads: the operations each one runs and the checks on
their outputs.

An operation is either one ``degderange`` CLI invocation (``cli.main`` on an
argument list, stdout captured) or one call of a public library function.
Timed operations make up the workload's fixed work; untimed ones are
negative controls, run after it.  Every check runs after all operations,
so it never adds to a timed figure and never extends a cache before a
timed call.

Negative deformation parameters are always passed as ``--lambda=-1/3``:
argparse reads a separate ``-1/3`` as an option and exits 2 (see NOTES.md).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

IDENTITIES = (
    "THM2_CONV", "THM2_REC", "THM2_REC_X0", "THM3", "THM4", "THM5", "LEMMA6",
    "THM7_A", "THM7_B", "THM8_A", "THM8_B", "EQ24_25", "THM9_VS_SERIES",
    "THM10", "EXP_MOMENT_BRIDGE",
)
MIN_N_ONE = {"THM2_REC", "THM2_REC_X0", "LEMMA6"}
USES_X = {"THM2_CONV", "THM2_REC", "THM3", "THM4", "THM5", "LEMMA6", "EQ24_25",
          "THM9_VS_SERIES", "EXP_MOMENT_BRIDGE"}

# Default acceptance grid of `degderange verify`.
GRID_LAMBDAS = ("0", "1/2", "-1/2", "1/3", "-1/3", "2/7")
GRID_XS = ("0", "1", "-2", "3/4")
GRID_CASES = 10638
CERTIFY_N_MAX = 16

HIGH_LAMBDAS = ("2/7", "-1/3")
SERIES_LAMBDA = Fraction(2, 7)
SCALAR_TABLES = (
    ("derangement", ()),
    ("derangement-order", ("--r", "2")),
    ("stirling1", ("--m", "3")),
    ("stirling2", ("--m", "3")),
    ("fubini", ()),
    ("bell", ()),
    ("falling", ()),
)
SPOT_N = 64

GAMMA_SWEEP = tuple(Fraction(k, 100) for k in range(5, 37))
SAMPLE_LAMBDA, SAMPLE_SEED, SAMPLE_COUNT = Fraction(1, 4), 42, 100_000
CHECK_TOL = 1e-8
EXPANSION_TOL = 1e-6

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as _fh:
    TABLE_DIGESTS: dict[str, str] = json.load(_fh)


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation.  ``argv`` runs through ``cli.main``; ``call`` receives
    the dict of degderange modules.  ``check(output, outputs, modules)``
    raises CheckFailed; ``outputs`` maps every op name to its output."""

    name: str
    check: Callable[[Any, dict, dict], None]
    argv: list[str] | None = None
    call: Callable[[dict], Any] | None = None
    expect_rc: int = 0
    timed: bool = True


def cli_op(name, argv, check, expect_rc=0, timed=True) -> Op:
    return Op(name, check, argv=list(argv), expect_rc=expect_rc, timed=timed)


def call_op(name, call, check) -> Op:
    return Op(name, check, call=call)


def _doc(text: str) -> dict:
    return json.loads(text)


def _table_values(text: str) -> list[Fraction]:
    results = _doc(text)["results"]
    require([r["n"] for r in results] == list(range(len(results))), "table rows out of order")
    return [Fraction(r["value"]) for r in results]


# ---------------------------------------------------------------------------
# grid: `verify` on the default acceptance grid


def _check_verify(lambdas, xs):
    def check(text, outputs, modules):
        doc = _doc(text)
        res = doc["results"]
        require(res["passed"] is True and res["failures"] == [], "verify reported failures")
        require(res["cases_run"] == GRID_CASES, f"cases_run {res['cases_run']} != {GRID_CASES}")
        params = doc["params"]
        require(params["identities"] == list(IDENTITIES), "identity list changed")
        require(params["lambda_grid"] == list(lambdas) and params["x_grid"] == list(xs),
                "grid echo differs from the request")
        require(params["n_max"] == 32 and params["r_max"] == 4, "grid size echo differs")
    return check


def _check_mutated_verify(ident):
    def check(text, outputs, modules):
        res = _doc(text)["results"]
        require(res["passed"] is False and res["failures"], f"mutated {ident} passed")
        require(all(f["identity"] == ident for f in res["failures"]), "failure under wrong identity")
    return check


def mutate_controls() -> list[Op]:
    """Acceptance criterion 9: every mutated verifier must fail on a small grid."""
    return [
        cli_op(f"mutate-verify-{ident}",
               ["verify", f"--identities={ident}", "--n-max", "8", "--lambda-grid=0,1/2,-1/3",
                "--x-grid=0,1,3/4", "--r-max", "2", "--mutate"],
               _check_mutated_verify(ident), expect_rc=1, timed=False)
        for ident in IDENTITIES
    ]


def grid(seed: int, variant: str) -> list[Op]:
    rng = random.Random(seed)
    lambdas = rng.sample(GRID_LAMBDAS, len(GRID_LAMBDAS))
    xs = rng.sample(GRID_XS, len(GRID_XS))
    argv = ["verify", f"--lambda-grid={','.join(lambdas)}", f"--x-grid={','.join(xs)}"]
    if variant == "par":
        return [cli_op("verify-jobs2", argv + ["--jobs", "2"], _check_verify(lambdas, xs))]
    return [cli_op("verify", argv, _check_verify(lambdas, xs))] + mutate_controls()


# ---------------------------------------------------------------------------
# certify: polynomial certification for all identities, n <= 16


def certify_cases() -> int:
    """verify() calls certify makes: an (n+1)^2 grid, or n+1 points without x."""
    total = 0
    for ident in IDENTITIES:
        lo = 1 if ident in MIN_N_ONE else 0
        total += sum((n + 1) ** (2 if ident in USES_X else 1) for n in range(lo, CERTIFY_N_MAX + 1))
    return total


def _check_certify(order, mutated):
    def check(text, outputs, modules):
        results = _doc(text)["results"]
        require([r["identity"] for r in results] == order, "certify identity order differs")
        for r in results:
            lo = 1 if r["identity"] in MIN_N_ONE else 0
            n_max = 3 if mutated else CERTIFY_N_MAX
            require(list(r["certified"]) == [str(n) for n in range(lo, n_max + 1)],
                    f"{r['identity']}: wrong n range")
            if mutated:
                require(not all(r["certified"].values()), f"mutated {r['identity']} certified")
            else:
                require(all(r["certified"].values()), f"{r['identity']} not certified")
    return check


def certify(seed: int, variant: str) -> list[Op]:
    # The seed is not used: the identity order decides which orders the series
    # memos grow to, so permuting it would change the work (series.calls).
    return [
        cli_op("certify", ["certify", "--n-max", str(CERTIFY_N_MAX)],
               _check_certify(list(IDENTITIES), mutated=False)),
        cli_op("mutate-certify", ["certify", "--n-max", "3", "--mutate"],
               _check_certify(list(IDENTITIES), mutated=True), expect_rc=1, timed=False),
    ]


# ---------------------------------------------------------------------------
# high-order: tables to n = 256 and series extractions at high order


def table_argv(sel: str, lam: str, extra=(), n_max: int = 256) -> list[str]:
    return ["table", sel, f"--lambda={lam}", "--n-max", str(n_max), *extra]


def table_ops() -> list[tuple[str, list[str]]]:
    ops = [(f"table {sel} {lam}", table_argv(sel, lam, extra))
           for lam in HIGH_LAMBDAS for sel, extra in SCALAR_TABLES]
    ops.append(("table derangement-poly 2/7", table_argv("derangement-poly", "2/7", n_max=48)))
    return ops


def _check_digest(name):
    def check(text, outputs, modules):
        digest = hashlib.sha256(text.encode()).hexdigest()
        require(digest == TABLE_DIGESTS[name], f"{name}: output bytes differ from the recorded digest")
    return check


def _series_check(table, n, spot, step):
    """The extraction at n equals the explicit table; then the now-filled
    series cache is read back at n <= SPOT_N (every ``step``-th n)."""
    def check(value, outputs, modules):
        values = _table_values(outputs[table])
        require(value == values[n], f"{table}: series path differs at n={n}")
        for k in range(0, min(n, SPOT_N) + 1, step):
            require(spot(modules["sequences"], k) == values[k], f"{table}: series path differs at n={k}")
    return check


def _check_poly(name):
    digest = _check_digest(name)

    def check(text, outputs, modules):
        digest(text, outputs, modules)
        seq = modules["sequences"]
        for row in _doc(text)["results"]:
            require(Fraction(row["coeffs"][0]) == seq.derange_deg_series(row["n"], SERIES_LAMBDA, 0),
                    f"derangement polynomial at x=0 differs at n={row['n']}")
    return check


def high_order(seed: int, variant: str) -> list[Op]:
    lam = SERIES_LAMBDA
    ops = [cli_op(name, argv, _check_poly(name) if "poly" in name else _check_digest(name))
           for name, argv in table_ops()]
    # Each extraction is requested once, at its stated n, in a cold process:
    # the memo grows to max(n, 2 * len(cache), 8), so an earlier smaller call
    # would change the order actually built.  derange_deg_order_series has no
    # memo, so its read-back recomputes and is thinned to every 8th n.
    series = [
        ("stirling2_deg_series 128", 128, "table stirling2 2/7", 1,
         lambda s, k: s.stirling2_deg_series(k, 3, lam)),
        ("stirling1_deg_series 128", 128, "table stirling1 2/7", 1,
         lambda s, k: s.stirling1_deg_series(k, 3, lam)),
        ("fubini_deg_series 256", 256, "table fubini 2/7", 1,
         lambda s, k: s.fubini_deg_series(k, lam, 1)),
        ("derange_deg_series 256", 256, "table derangement 2/7", 1,
         lambda s, k: s.derange_deg_series(k, lam, 0)),
        ("derange_deg_order_series 256", 256, "table derangement-order 2/7", 8,
         lambda s, k: s.derange_deg_order_series(k, 2, lam, 0)),
        ("bell_deg_series 96", 96, "table bell 2/7", 1,
         lambda s, k: s.bell_deg_series(k, lam, 1)),
    ]
    for name, n, table, step, fn in series:
        ops.append(call_op(name, lambda m, fn=fn, n=n: fn(m["sequences"], n),
                           _series_check(table, n, fn, step)))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# gamma: quadrature checks over a sweep of lambda, sampling, Erlang bridge


def _check_moment_results(expected_targets, tol):
    def check(text, outputs, modules):
        results = _doc(text)["results"]
        require(len(results) == len(expected_targets), "wrong number of results")
        for res, target in zip(results, expected_targets):
            require(Fraction(res["exact_target"]) == target, f"exact target {res['exact_target']} != {target}")
            require(res["passed"] is True and res["rel_error"] <= tol, f"not within {tol}: {res}")
            require(abs(res["numeric_value"] - float(target)) <= tol * abs(float(target)),
                    f"numeric value {res['numeric_value']} not within {tol} of {target}")
    return check


def _check_sample(text, outputs, modules):
    import numpy as np
    from scipy import stats

    rows = list(csv.reader(io.StringIO(text)))
    require(rows[0] == ["sample"] and len(rows) == SAMPLE_COUNT + 1, "sample csv shape")
    xs = [float(r[0]) for r in rows[1:]]
    lam = float(SAMPLE_LAMBDA)
    # E[X] = 1/(1-2 lam) = 2, Var = 2/((1-2L)(1-3L)) - 1/(1-2L)^2 = 12 at lam = 1/4
    mean = math.fsum(xs) / len(xs)
    require(abs(mean - 2.0) < 3 * math.sqrt(12.0 / len(xs)), f"sample mean {mean} off by > 3 SE")
    stat = stats.kstest(xs, lambda v: 1.0 - (1.0 + lam * np.asarray(v)) ** ((lam - 1.0) / lam)).statistic
    critical = stats.kstwo.ppf(0.99, len(xs))
    require(stat < critical, f"KS statistic {stat} >= {critical}")


def _check_ks(result, outputs, modules):
    stat, critical, passed = result
    require(bool(passed) and stat < critical, f"sampler KS check failed: {stat} >= {critical}")


ERLANG_GRID = [(n, r, lam, x)
               for lam in (Fraction(1, 3), Fraction(-1, 4))
               for x in (Fraction(0), Fraction(1), Fraction(3, 4))
               for r in range(1, 5) for n in range(21)]


def _erlang_bridge(modules):
    return [modules["probability"].erlang_bridge_check(*args) for args in ERLANG_GRID]


def _check_erlang(results, outputs, modules):
    require(len(results) == len(ERLANG_GRID), "Erlang bridge result count")
    require(all(ok and lhs == rhs for lhs, rhs, ok in results), "Erlang bridge not exact")


def gamma(seed: int, variant: str) -> list[Op]:
    ops = []
    for lam in GAMMA_SWEEP:
        tag = f"{lam.numerator}/{lam.denominator}"
        mu = lam / 16  # inside the window where the log expansion converges
        mu_tag = f"{mu.numerator}/{mu.denominator}"
        ops += [
            cli_op(f"thm11 {tag}", ["gamma-check", "thm11", f"--lambda={tag}", "--n-max", "8"],
                   _check_moment_results([(1 - lam) * math.factorial(n) for n in range(9)], CHECK_TOL)),
            cli_op(f"gammafn {tag}", ["gamma-check", "gammafn", "--k", "2", f"--lambda={tag}"],
                   _check_moment_results([1 / ((1 - lam) * (1 - 2 * lam))], CHECK_TOL)),
            cli_op(f"normalization {tag}",
                   ["gamma-check", "normalization", f"--lambda={tag}", "--alpha", "1.5"],
                   _check_moment_results([Fraction(1)], CHECK_TOL)),
            cli_op(f"expansion {mu_tag}",
                   ["gamma-check", "expansion", f"--lambda={mu_tag}", "--n-max", "2", "--m-cap", "40"],
                   _check_moment_results([(1 - mu) * math.factorial(n) for n in range(3)], EXPANSION_TOL)),
        ]
    ops += [
        cli_op("sample", ["sample", "--lambda=1/4", "--seed", str(SAMPLE_SEED), "--count",
                          str(SAMPLE_COUNT), "--format", "csv"], _check_sample),
        call_op("sampler_ks_check",
                lambda m: m["probability"].sampler_ks_check(float(SAMPLE_LAMBDA), SAMPLE_COUNT, SAMPLE_SEED),
                _check_ks),
        call_op("erlang_bridge", _erlang_bridge, _check_erlang),
    ]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {"grid": grid, "certify": certify, "high-order": high_order, "gamma": gamma}
PARALLEL = {"grid"}
