import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

from degderange import identities, sequences
from degderange.exactcore import binomial, factorial
from degderange.identities import (
    MAX_N,
    IdentityCase,
    IdentityId,
    _REGISTRY,
    certify,
    certify_ranges,
    verify,
    verify_grid,
)
from degderange.sequences import falling_row, stirling2_row

import reference_identities

SMALL_LAM = [F(0), F(1, 2), F(-1, 3)]
SMALL_X = [F(0), F(1), F(3, 4)]
# duplicates (2/4 is 1/2) and negatives on both axes
REPEATED_LAM = [F(1, 2), 0, F(-1, 3), F(2, 4), -1, F(2, 7)]
REPEATED_X = [F(3, 4), -2, 0, F(3, 4), 1]


def _case(ident, n, lam, x=None, r=None):
    if _REGISTRY[ident].uses_x and x is None:
        x = F(0)
    if _REGISTRY[ident].uses_r and r is None:
        r = 1
    return IdentityCase(ident, n, F(lam), x, r)


def test_rec_identity_worked_example():
    lhs, rhs, ok = verify(_case(IdentityId.THM2_REC, 4, F(1, 2), F(0)))
    assert ok
    assert lhs == rhs == F(15, 2)


def test_first_kind_connection_at_n_zero():
    for lam in SMALL_LAM:
        lhs, rhs, ok = verify(_case(IdentityId.THM5, 0, lam, F(2, 3)))
        assert ok and lhs == rhs == 1


def test_bell_connection_worked_example():
    lhs, rhs, ok = verify(_case(IdentityId.THM7_B, 2, F(1, 2)))
    assert ok and lhs == rhs == 1


def test_every_identity_on_small_grid():
    report = verify_grid(
        n_max=10, lam_grid=SMALL_LAM, x_grid=SMALL_X, r_max=3
    )
    assert report.cases_run > 0
    assert report.ok, report.failures[:3]


@pytest.mark.parametrize("mutate", [False, True])
def test_verify_returns_reduced_fractions(mutate):
    # the sides are compared as int pairs; what verify returns is reduced,
    # and passed is exactly the equality of the returned values; with
    # values=False a passing case returns no values, a failing one the same
    failed = 0
    for ident, spec in _REGISTRY.items():
        for n in range(spec.min_n, 7):
            for lam in SMALL_LAM:
                for x in SMALL_X if spec.uses_x else [None]:
                    for r in (1, 2) if spec.uses_r else [None]:
                        case = IdentityCase(ident, n, lam, x, r)
                        lhs, rhs, passed = verify(case, mutate)
                        for side in (lhs, rhs):
                            assert type(side) is F
                            assert side.denominator > 0
                            assert gcd(side.numerator, side.denominator) == 1
                        assert passed == (lhs == rhs)
                        bare = verify(case, mutate, values=False)
                        assert bare == ((None, None, True) if passed else (lhs, rhs, False))
                        assert all(type(side) is F for side in bare[:2]) is not passed
                        failed += not passed
    assert bool(failed) is mutate


def test_verify_grid_needs_a_worker():
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            verify_grid(n_max=4, mutate=True, jobs=jobs)


STARTS_AT_ONE = [IdentityId.THM2_REC, IdentityId.THM2_REC_X0, IdentityId.LEMMA6]
NO_CASE = "no case to run: every identity starts past n_max = 0"


def test_verify_grid_rejects_a_range_that_runs_no_case():
    # n_max below 0 or r_max below 1 would run nothing and pass
    for n_max in (-1, MAX_N + 1):
        with pytest.raises(ValueError, match=rf"n_max must lie in \[0, {MAX_N}\], got {n_max}"):
            verify_grid(n_max=n_max)
    for r_max in (0, -1, MAX_N + 1):
        with pytest.raises(ValueError, match=rf"r_max must lie in \[1, {MAX_N}\], got {r_max}"):
            verify_grid([IdentityId.THM9_VS_SERIES], n_max=4, r_max=r_max)
    # so would an empty grid axis that an identity reads
    for kwargs in ({"lam_grid": []}, {"ids": [IdentityId.THM3], "x_grid": []},
                   {"ids": [IdentityId.THM7_A, IdentityId.THM3], "x_grid": ()}):
        with pytest.raises(ValueError, match="^empty "):
            verify_grid(n_max=2, **kwargs)
    # an identity free of x reads no x grid
    assert verify_grid([IdentityId.THM7_A], n_max=2, x_grid=[]).cases_run == 3 * 6
    # so would a selection whose identities all start at n = 1 > n_max; one
    # identity with an n in range runs
    for jobs in (1, 2):
        with pytest.raises(ValueError, match=NO_CASE):
            verify_grid(STARTS_AT_ONE, n_max=0, jobs=jobs)
    assert verify_grid([IdentityId.THM2_REC, IdentityId.THM7_A], n_max=0).cases_run == 6


def test_certify_ranges_rejects_n_max_out_of_range():
    for n_max in (-2, -1, MAX_N + 1):
        with pytest.raises(ValueError, match=rf"n_max must lie in \[0, {MAX_N}\], got {n_max}"):
            certify_ranges([IdentityId.THM3], n_max)


def test_certify_ranges_rejects_an_empty_identity_list():
    # it would certify nothing and return {}
    with pytest.raises(ValueError, match="empty identity list"):
        certify_ranges([], 4)
    with pytest.raises(ValueError, match="empty identity list"):
        certify_ranges(iter(()), 4)
    # so would a list whose identities all start past n_max; one identity
    # with an n in range is certified, the others listed with no n
    with pytest.raises(ValueError, match=NO_CASE):
        certify_ranges(STARTS_AT_ONE, 0)
    certified = certify_ranges([IdentityId.THM2_REC, IdentityId.THM7_A], 0)
    assert certified == {IdentityId.THM2_REC: {}, IdentityId.THM7_A: {0: True}}


def test_grid_runs_keep_each_lam_together_in_magnitude_order():
    """The runner's |lam| groups and the memo rows rely on this order:
    lam-major by (|lam|, lam), then identity in the order given, then x
    ascending; each (identity, lam, x) once, with its copies and r values,
    top n first."""
    ids = sorted(IdentityId, key=lambda i: i.value)
    runs = identities._grid_runs(ids, map(F, REPEATED_LAM), map(F, REPEATED_X), 6, 3)
    lams = [run[1] for run in runs]
    assert lams == sorted(lams, key=lambda v: (abs(v), v))
    keys = [run[:3] for run in runs]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {
        (ident, lam, x)
        for ident in ids
        for lam in set(REPEATED_LAM)
        for x in (set(REPEATED_X) if _REGISTRY[ident].uses_x else [None])
    }
    for lam in set(lams):
        block = [(ids.index(ident), x) for ident, v, x, *_ in runs if v == lam]
        assert block == sorted(block, key=lambda t: (t[0], t[1] or 0))
    for ident, lam, x, rs, copies, ns in runs:
        spec = _REGISTRY[ident]
        assert list(ns) == list(range(6, spec.min_n - 1, -1))
        assert list(rs) == ([1, 2, 3] if spec.uses_r else [None])
        assert copies == REPEATED_LAM.count(lam) * (REPEATED_X.count(x) if spec.uses_x else 1)


def test_empty_id_set():
    # no case would run, and the report would pass
    with pytest.raises(ValueError, match="empty identity list"):
        verify_grid(ids=[], n_max=8, lam_grid=SMALL_LAM, x_grid=SMALL_X, r_max=2)


def test_x_independence_of_shifted_convolution():
    # the x-dependent expression must agree with the x-free ones and with n!
    for lam in SMALL_LAM:
        for n in range(9):
            vals = set()
            for x in (F(0), F(1), F(-2), F(3, 4)):
                lhs, rhs, ok = verify(_case(IdentityId.THM5, n, lam, x))
                assert ok
                vals.add(rhs)
            assert vals == {F(factorial(n))}


def test_thm2_rec_sees_a_wrong_term_of_the_terms_row():
    # The derangement values are prefix sums of the terms row: term n raised
    # by 1 moves D(n) by n! and leaves D(n-1), so
    # D(n) - n D(n-1) = falling(x-1, n) must fail at n.
    lam, x, n = F(3, 11), F(5, 13), 6
    key = (sequences._key(lam), sequences._key(x))
    terms, derange = sequences._DERANGE_TERMS, sequences._DERANGE
    try:
        terms.rows.pop(key, None)
        derange.rows.pop(key, None)
        nums, den = terms.row(key, n)
        nums = list(nums)
        nums[n] += den
        terms.rows[key] = (nums, den)
        assert not verify(_case(IdentityId.THM2_REC, n, lam, x))[2]
    finally:
        terms.rows.pop(key, None)
        derange.rows.pop(key, None)


def test_every_mutation_detected():
    for ident in IdentityId:
        report = verify_grid(
            ids=[ident],
            n_max=6,
            lam_grid=SMALL_LAM,
            x_grid=SMALL_X,
            r_max=2,
            mutate=True,
        )
        assert report.failures, f"mutated {ident.value} passed everywhere"


def test_jobs_parallel_matches_serial():
    kwargs = dict(n_max=6, lam_grid=SMALL_LAM, x_grid=SMALL_X, r_max=2)
    serial = verify_grid(**kwargs)
    parallel = verify_grid(jobs=2, **kwargs)
    assert serial.cases_run == parallel.cases_run
    assert serial.failures == parallel.failures


def test_certify_small():
    pts4 = [F(i, 5) for i in range(4)]
    assert certify(IdentityId.THM2_REC, 3, pts4, pts4)
    assert certify(IdentityId.THM7_B, 0, [F(1, 2)])


def test_certify_negative_control():
    pts = [F(i, 6) for i in range(5)]
    assert certify(IdentityId.THM2_REC, 4, pts, pts, mutate=True) is False


def test_certify_insufficient_points():
    with pytest.raises(ValueError):
        certify(IdentityId.THM2_REC, 3, [F(0), F(1)], [F(0), F(1), F(2), F(3)])
    with pytest.raises(ValueError):
        certify(IdentityId.THM2_REC, 3, [F(0), F(1), F(2), F(2)], [F(0)])
    with pytest.raises(ValueError):
        certify(IdentityId.THM2_REC, 2, [F(0), F(1), F(2)], None)


def test_certify_counts_distinct_points_only():
    # THM2_REC at n = 3 needs 3 distinct lam and 4 distinct x; a repeated
    # value (2/4 is 1/2) counts once
    lams, xs = [0, 1, 2], [0, 1, 2, 3]
    with pytest.raises(ValueError, match="3 distinct deformation"):
        certify(IdentityId.THM2_REC, 3, [0, 1, 1], xs)
    with pytest.raises(ValueError, match="3 distinct deformation"):
        certify(IdentityId.THM2_REC, 3, [F(1, 2), F(2, 4), 0], xs)
    with pytest.raises(ValueError, match="4 distinct x"):
        certify(IdentityId.THM2_REC, 3, lams, [0, 1, 2, 2])
    assert certify(IdentityId.THM2_REC, 3, lams + [2], xs + [0])


def test_certify_ignores_x_for_x_free_identities():
    assert certify(IdentityId.THM8_B, 2, [F(0), F(1, 5), F(2, 5)])


def test_certify_rejects_x_points_for_an_x_free_identity():
    # as verify rejects a spurious x, rather than certifying without it
    lams = [F(0), F(1, 5), F(2, 5)]
    for ident in (IdentityId.THM7_A, IdentityId.THM8_B):
        with pytest.raises(ValueError, match=f"{ident.value} does not take x"):
            certify(ident, 2, lams, [0, 1])
    with pytest.raises(ValueError, match="THM7_A does not take x"):
        certify(IdentityId.THM7_A, 2, [0, 1, 2], [])


def test_verify_parameter_validation():
    with pytest.raises(ValueError):
        verify(IdentityCase(IdentityId.THM2_REC, 0, F(1, 2), F(0)))  # n below range
    with pytest.raises(ValueError):
        verify(IdentityCase(IdentityId.THM2_REC, 3, F(1, 2)))  # missing x
    with pytest.raises(ValueError):
        verify(IdentityCase(IdentityId.THM7_B, 3, F(1, 2), F(0)))  # spurious x
    with pytest.raises(ValueError):
        verify(IdentityCase(IdentityId.THM9_VS_SERIES, 3, F(1, 2), F(0)))  # missing r
    with pytest.raises(ValueError):
        verify(IdentityCase(IdentityId.THM9_VS_SERIES, 3, F(1, 2), F(0), 0))  # r < 1
    with pytest.raises(ValueError):
        verify(IdentityCase(IdentityId.THM5, 300, F(1, 2), F(0)))  # beyond hard cap


def _grid_size(lam_grid, x_grid, n_max, r_max):
    """The number of cases of a grid, counted per identity."""
    return sum(
        (n_max + 1 - spec.min_n)
        * len(lam_grid)
        * (len(x_grid) if spec.uses_x else 1)
        * (r_max if spec.uses_r else 1)
        for spec in _REGISTRY.values()
    )


def test_report_is_deterministically_sorted():
    # identities in enum order, which is not their sort order (THM10 sorts
    # before THM2_CONV), on a grid with repeated values: each failing case
    # is listed once per copy, and the copies stay together
    report = verify_grid(list(IdentityId), 6, REPEATED_LAM, REPEATED_X, 3, mutate=True)
    assert report.cases_run == _grid_size(REPEATED_LAM, REPEATED_X, 6, 3) == 2496
    keys = [case.sort_key() for case, _, _ in report.failures]
    assert keys == sorted(keys)
    copies = Counter(case for case, _, _ in report.failures)
    assert {case.identity_id for case in copies} == set(IdentityId)
    for case, count in copies.items():
        x_copies = REPEATED_X.count(case.x) if case.x is not None else 1
        assert count == REPEATED_LAM.count(case.lam) * x_copies, case


def test_repeated_grid_values_are_evaluated_once(monkeypatch):
    calls = Counter()
    real = identities.verify

    def counted(case, mutate=False, **kwargs):
        calls[case] += 1
        return real(case, mutate=mutate, **kwargs)

    monkeypatch.setattr(identities, "verify", counted)
    report = verify_grid(list(IdentityId), 6, REPEATED_LAM, REPEATED_X, 3)
    assert report.ok
    assert report.cases_run == _grid_size(REPEATED_LAM, REPEATED_X, 6, 3)
    assert set(calls.values()) == {1}
    assert len(calls) == _grid_size(set(REPEATED_LAM), set(REPEATED_X), 6, 3)


def test_passing_runs_build_no_fraction_per_case(monkeypatch):
    built = []

    class Counted(F):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return F(*args, **kwargs)

    monkeypatch.setattr(identities, "Fraction", Counted)
    report = verify_grid(n_max=8)
    assert report.ok and report.cases_run > 2000
    assert len(built) <= 6 + 4  # the grid's own points, each converted once
    built.clear()
    assert all(all(per_n.values()) for per_n in certify_ranges(IdentityId, 8).values())
    assert len(built) <= 8 + 1  # the nested points
    monkeypatch.undo()
    # a failing case still reports the sides that verify returns by default
    report = verify_grid(n_max=4, lam_grid=SMALL_LAM, x_grid=SMALL_X, r_max=2, mutate=True)
    assert {case.identity_id for case, _, _ in report.failures} == set(IdentityId)
    for case, lhs, rhs in report.failures:
        assert type(lhs) is type(rhs) is F
        assert (lhs, rhs, False) == verify(case, mutate=True)


def test_case_counts_of_the_default_grid_and_certify_to_16(monkeypatch):
    # a count of public verify calls is the number of cases run; the traced
    # perfbench grid and certify workloads check these same two counts
    calls = []
    real = identities.verify

    def counted(case, mutate=False, **kwargs):
        calls.append(case)
        return real(case, mutate=mutate, **kwargs)

    monkeypatch.setattr(identities, "verify", counted)
    report = verify_grid()
    assert report.ok and report.cases_run == len(calls) == 10_638
    calls.clear()
    assert all(all(per_n.values()) for per_n in certify_ranges(IdentityId, 16).values())
    assert len(calls) == 16_980


# ---------------------------------------------------------------------------
# declared degree bounds


def _sides(ident, n, lam, x, r=1):
    spec = _REGISTRY[ident]
    case = IdentityCase(ident, n, lam, x if spec.uses_x else None, r if spec.uses_r else None)
    return verify(case)[:2]


def _difference(values):
    """The (len(values) - 1)-th forward difference of equispaced samples."""
    k = len(values) - 1
    return sum(((-1) ** (k - i) * binomial(k, i) * v for i, v in enumerate(values)), F(0))


def _along_lam(ident, n, count):
    """(lam points, [lhs values, rhs values]) at count equispaced lam, x fixed."""
    lams = [F(-1, 3) + F(i, 5) for i in range(count)]
    return lams, [list(side) for side in zip(*(_sides(ident, n, lam, F(3, 4)) for lam in lams))]


def test_declared_bounds_never_exceed_n():
    for ident in IdentityId:
        for n in range(MAX_N + 1):
            d_lam, d_x = identities._degrees(_REGISTRY[ident], n)
            assert 0 <= d_lam <= n and 0 <= d_x <= n
            if not _REGISTRY[ident].uses_x:
                assert d_x == 0


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.value)
def test_declared_bounds_hold_for_each_side(ident):
    # the (d + 1)-th difference of each side vanishes along each axis
    spec = _REGISTRY[ident]
    for n in range(spec.min_n, 9):
        d_lam, d_x = identities._degrees(spec, n)
        _, sides = _along_lam(ident, n, d_lam + 2)
        assert all(_difference(values) == 0 for values in sides), n
        if spec.uses_x:
            xs = [F(-1) + F(i, 3) for i in range(d_x + 2)]
            sides = zip(*(_sides(ident, n, F(2, 7), x) for x in xs))
            assert all(_difference(list(values)) == 0 for values in sides), n


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.value)
def test_degree_check_catches_an_extra_lam_factor(ident):
    # negative control: a side times (lam - 1/7) breaks its declared bound
    # wherever the side reaches that bound (its d-th difference is nonzero)
    spec = _REGISTRY[ident]
    caught = 0
    for n in range(spec.min_n, 9):
        d_lam, _ = identities._degrees(spec, n)
        lams, sides = _along_lam(ident, n, d_lam + 2)
        for values in sides:
            multiplied = [v * (lam - F(1, 7)) for v, lam in zip(values, lams)]
            fails = _difference(multiplied) != 0
            if _difference(values[:-1]) != 0:
                assert fails, n
            caught += fails
    assert caught


# ---------------------------------------------------------------------------
# the sides against the paper's formulas (reference_identities.py)

REFERENCE_LAM = [F(0), F(1, 2), F(-1, 3), F(2)]


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.value)
def test_sides_equal_the_reference_formulas(ident):
    spec, reference = _REGISTRY[ident], reference_identities.SIDES[ident.value]
    for n in range(spec.min_n, 9):
        for lam in REFERENCE_LAM:
            for x in SMALL_X if spec.uses_x else [None]:
                for r in (1, 2) if spec.uses_r else [None]:
                    assert _sides(ident, n, lam, x, r) == reference(n, lam, x, r), (n, lam, x, r)


def test_reference_formulas_read_no_engine_code():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "import reference_identities\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'degderange'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_reference_catches_a_wrong_second_kind_row_that_lemma6_passes(monkeypatch):
    """Entry (3, 1) of each second-kind row raised by 1: both LEMMA6 sides
    dot the same row, so the identity still holds; its value does not equal
    the paper's formula."""
    for memo in sequences._MEMOS:
        monkeypatch.setattr(memo, "rows", {})
    grow = sequences._S2.grow

    def corrupted(key, n):
        rows, q = grow(key, n)
        if n >= 3:
            nums, den = rows[3]
            rows[3] = [nums[0], nums[1] + 1, *nums[2:]], den
        return rows, q

    monkeypatch.setattr(sequences._S2, "grow", corrupted)
    lam, x = F(1, 2), F(3, 4)
    lhs, rhs, passed = verify(_case(IdentityId.LEMMA6, 3, lam, x))
    assert passed
    assert (lhs, rhs) != reference_identities.lemma6(3, lam, x, None)


# ---------------------------------------------------------------------------
# certification on nested points


def _nested(n_max):
    """certify_ranges's points: 0, 1, -1, 2, -2, ..., n_max + 1 of them."""
    return [F(0)] + [F(s * k) for k in range(1, n_max + 1) for s in (1, -1)][:n_max]


def _expected_cases(ids, n_max):
    """The distinct cases that certifying ids up to n_max evaluates."""
    pts = _nested(n_max)
    expected = set()
    for ident in ids:
        spec = _REGISTRY[ident]
        r = 1 if spec.uses_r else None
        for n in range(spec.min_n, n_max + 1):
            for lam in pts[: n + 1]:
                for x in pts[: n + 1] if spec.uses_x else [None]:
                    expected.add(IdentityCase(ident, n, lam, x, r))
    return expected


def test_certify_needs_only_the_declared_points():
    # THM2_REC at n = 3 has degree <= 2 in lam and <= 3 in x
    lams, xs = [F(0), F(1, 5), F(2, 5)], [F(0), F(1, 5), F(2, 5), F(3, 5)]
    assert certify(IdentityId.THM2_REC, 3, lams, xs)
    with pytest.raises(ValueError, match="3 distinct deformation"):
        certify(IdentityId.THM2_REC, 3, lams[:2], xs)
    with pytest.raises(ValueError, match="4 distinct x"):
        certify(IdentityId.THM2_REC, 3, lams, xs[:3])


@pytest.mark.parametrize("mutate", [False, True])
def test_certify_range_matches_certify_per_n(mutate):
    pts = _nested(3)
    for ident in IdentityId:
        spec = _REGISTRY[ident]
        per_n = {
            n: certify(ident, n, pts[: n + 1], pts[: n + 1] if spec.uses_x else None, mutate=mutate)
            for n in range(spec.min_n, 4)
        }
        assert certify_ranges([ident], 3, mutate=mutate)[ident] == per_n
        assert all(per_n.values()) is not mutate


def test_certify_range_evaluates_every_grid_point_once(monkeypatch):
    calls = []
    real = identities.verify

    def counted(case, mutate=False, **kwargs):
        calls.append(case)
        return real(case, mutate=mutate, **kwargs)

    monkeypatch.setattr(identities, "verify", counted)
    n_max, pts = 4, _nested(4)
    for ident in IdentityId:
        assert all(certify_ranges([ident], n_max)[ident].values())
    expected = _expected_cases(IdentityId, n_max)
    assert len(calls) == sum(
        (n + 1) ** (2 if spec.uses_x else 1)
        for spec in _REGISTRY.values()
        for n in range(spec.min_n, n_max + 1)
    )
    assert set(calls) == expected
    points = {v for case in calls for v in (case.lam, case.x) if v is not None}
    assert points == set(pts) == {0, 1, -1, 2, -2}
    # grouped by (identity, lam, x) key, each key once, in descending n
    runs = []
    for case in calls:
        key = (case.identity_id, case.lam, case.x)
        if not runs or runs[-1][0] != key:
            runs.append((key, []))
        runs[-1][1].append(case.n)
    assert len({key for key, _ in runs}) == len(runs)
    assert all(ns == sorted(ns, reverse=True) for _, ns in runs)



@pytest.mark.parametrize("mutate", [False, True])
def test_certify_ranges_evaluates_every_case_once(monkeypatch, mutate):
    """All identities from one run list, grouped by |lam|: each distinct case
    once, an identity listed twice certified once, each (identity, lam, x)
    key in one stretch of descending n, and the |lam| groups in turn; the
    result is that of certifying each identity alone."""
    calls = []
    real = identities.verify

    def counted(case, mutate=False, **kwargs):
        calls.append(case)
        return real(case, mutate=mutate, **kwargs)

    monkeypatch.setattr(identities, "verify", counted)
    ids, n_max = list(IdentityId), 4
    got = certify_ranges(ids + ids[::-1][:4], n_max, mutate=mutate)
    assert list(got) == ids
    expected = _expected_cases(ids, n_max)
    assert len(calls) == len(expected)
    assert set(calls) == expected
    runs = []
    for case in calls:
        key = (case.identity_id, case.lam, case.x)
        if not runs or runs[-1][0] != key:
            runs.append((key, []))
        runs[-1][1].append(case.n)
    assert len({key for key, _ in runs}) == len(runs)
    assert all(ns == sorted(ns, reverse=True) for _, ns in runs)
    magnitudes = [abs(case.lam) for case in calls]
    assert magnitudes == sorted(magnitudes)
    for ident, per_n in got.items():
        assert per_n == certify_ranges([ident], n_max, mutate=mutate)[ident]
        assert list(per_n) == list(range(_REGISTRY[ident].min_n, n_max + 1))
        assert all(per_n.values()) is not mutate


def top_down_and_fresh(ident, lam, x, ns, mutate):
    """verify's results at each n of ns, first top n first on the rows that
    the first n built, then each on emptied memos; r = 2 where it is used."""
    spec = _REGISTRY[ident]
    cases = [IdentityCase(ident, n, lam, x if spec.uses_x else None, 2 if spec.uses_r else None)
             for n in ns]
    fresh = []
    for case in cases:
        for memo in sequences._MEMOS:
            memo.clear()
        fresh.append(verify(case, mutate))
    for memo in sequences._MEMOS:
        memo.clear()
    return [verify(case, mutate) for case in cases], fresh


@pytest.mark.parametrize("mutate", [False, True])
@pytest.mark.parametrize("lam, x", [(F(-1), F(2)), (F(2, 7), F(3, 4))])
def test_verifiers_read_rows_built_past_n(lam, x, mutate):
    """A case read from rows that a larger n built gives the result that it
    gives on emptied memos, for every identity, also under mutation: the
    verifiers read a published row past n only where their sum stops at n."""
    for ident, spec in _REGISTRY.items():
        top_down, fresh = top_down_and_fresh(ident, lam, x, range(12, spec.min_n - 1, -1), mutate)
        assert top_down == fresh, ident
        assert all(passed for _, _, passed in fresh) is not mutate, ident


def count_grows(monkeypatch, share=(None,)):
    """Empties every memo and counts its grow steps in a Counter keyed by
    (memo, key, share[0]), share[0] naming the share of a pooled run that is
    running."""
    grows = Counter()
    for memo in sequences._MEMOS:

        def counted(key, n, grow=memo.grow, memo=memo):
            grows[memo, key, share[0]] += 1
            return grow(key, n)

        monkeypatch.setattr(memo, "rows", {})
        monkeypatch.setattr(memo, "grow", counted)
    return grows


def build_rows_beforehand():
    """Rows a caller builds through the public accessors: falling(3/4, .;
    1/3) to 8 and the second-kind triangle at 1/3 to 2.  A run may read
    each to a larger n than it was built to, or not at all."""
    falling_row(F(3, 4), 8, F(1, 3))
    stirling2_row(2, F(1, 3))
    assert all(memo.rows for memo in (sequences._FALLING, sequences._S2))


def test_certify_builds_each_row_once_and_empties_the_memos(monkeypatch):
    """certify_ranges, of one identity or of all, builds each memo row once
    and leaves every memo empty, the rows a caller built before included.
    The order-r weights, keyed by r alone, are built once per |lam| group
    that reads them."""
    weights = sequences._ORDER_WEIGHTS
    grows = count_grows(monkeypatch)
    for run in (
        lambda: certify_ranges([IdentityId.THM3], 6).values(),
        lambda: certify_ranges(IdentityId, 6).values(),
    ):
        build_rows_beforehand()
        stirling2_row(3, 1)  # an integer point, which certify_ranges reads to 6
        grows.clear()
        assert all(all(per_n.values()) for per_n in run())
        assert grows
        assert {count for (memo, _, _), count in grows.items() if memo is not weights} == {1}
        assert not any(memo.rows for memo in sequences._MEMOS)


# each entry point with the number of |lam| groups in which it reads the
# order-r weights
ENTRY_POINTS = {
    "verify_grid": (lambda: verify_grid(n_max=6, lam_grid=[F(1, 3), 0, F(-1, 3), F(2, 7)]).ok, 3),
    "certify": (lambda: certify(IdentityId.THM9_VS_SERIES, 3, [F(1, 3), F(-1, 3), 0],
                                [F(3, 4), 1, 0, -2]), 1),
    "certify_ranges": (
        lambda: all(all(per_n.values()) for per_n in certify_ranges(
            [IdentityId.THM8_A, IdentityId.THM10, IdentityId.THM9_VS_SERIES], 6).values()),
        4,
    ),
}


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_every_entry_point_builds_each_row_once_and_empties_the_memos(monkeypatch, entry_point):
    """verify_grid (serial), certify and certify_ranges each build every memo
    row once, the order-r weights once per |lam| group that reads them, and
    leave every memo empty, the rows a caller built before included."""
    run, groups = ENTRY_POINTS[entry_point]
    weights = sequences._ORDER_WEIGHTS
    grows = count_grows(monkeypatch)
    build_rows_beforehand()
    grows.clear()
    assert run()
    assert {count for (memo, _, _), count in grows.items() if memo is not weights} == {1}
    assert {count for (memo, _, _), count in grows.items() if memo is weights} == {groups}
    assert not any(memo.rows for memo in sequences._MEMOS)


def in_process_pool(monkeypatch, cpus=3):
    """Makes a pooled run take place in this process, on ``cpus`` CPUs: the
    pool's ``map`` runs each worker's share in turn.  Returns the list of the
    shares dealt and a one-item list holding the index of the share
    running."""
    shares, running = [], [None]

    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, dealt, *rest):
            for args in zip(dealt, *rest):
                running[0] = len(shares)
                shares.append(args[0])
                yield fn(*args)

    monkeypatch.setattr(identities.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    return shares, running


def test_grid_grows_each_memo_row_once(monkeypatch):
    """Top n first: every (memo, key) row grows once, to its final length,
    in the serial run and across the shares of a pooled run; the order-r
    weights, keyed by r alone, grow once per |lam| group."""
    memos = []
    for module in (sequences, identities):
        for value in vars(module).values():
            if isinstance(value, sequences._Memo) and value not in memos:
                memos.append(value)
    assert len(memos) == 17
    weights = memos.index(sequences._ORDER_WEIGHTS)
    shares, _ = in_process_pool(monkeypatch)
    grows = Counter()
    for i, memo in enumerate(memos):

        def counted(key, n, grow=memo.grow, i=i):
            grows[i, key] += 1
            return grow(key, n)

        monkeypatch.setattr(memo, "rows", {})
        monkeypatch.setattr(memo, "grow", counted)

    groups = 4  # |lam| = 0, 2/7, 1/3, 1/2 on the default grid
    keys = None
    for jobs in (1, 2):
        grows.clear()
        assert verify_grid(n_max=12, jobs=jobs).ok
        assert {count for (i, _), count in grows.items() if i != weights} == {1}
        assert {count for (i, _), count in grows.items() if i == weights} == {groups}
        keys = keys or set(grows)
        assert set(grows) == keys
    assert len(shares) == 2


@pytest.mark.parametrize("jobs", [2, 3])
def test_pooled_run_deals_whole_lam_groups(monkeypatch, jobs):
    """A pooled run deals the |lam| groups round-robin to its workers, each
    group whole.  Run share by share in this process, on the repeated-values
    --mutate grid of the CI, no memo row but the order-r weights grows in
    two shares, and the merged report is the serial one."""
    kwargs = dict(n_max=6, lam_grid=REPEATED_LAM, x_grid=REPEATED_X, r_max=3, mutate=True)
    serial = verify_grid(**kwargs)
    assert serial.failures
    shares, running = in_process_pool(monkeypatch)
    grows = count_grows(monkeypatch, running)
    assert verify_grid(jobs=jobs, **kwargs) == serial
    magnitudes = sorted({abs(F(v)) for v in REPEATED_LAM})
    assert [[{abs(run[1]) for run in group} for group in share] for share in shares] == [
        [{v} for v in magnitudes[i::jobs]] for i in range(jobs)
    ]
    dealt = Counter((memo, key) for memo, key, _ in grows if memo is not sequences._ORDER_WEIGHTS)
    assert dealt and set(dealt.values()) == {1}


# the x-free sides of THM5 and EQ24_25, one row per lam key
FREE_MEMOS = {"THM5": identities._THM5_FREE, "EQ24_25": identities._EQ24_25_FREE}


@pytest.mark.parametrize(
    "run, lams",
    [
        (lambda: verify_grid(n_max=12).ok, verify_grid.__defaults__[2]),
        (lambda: all(all(per_n.values()) for per_n in certify_ranges(IdentityId, 12).values()),
         _nested(12)),
    ],
    ids=["verify_grid", "certify_ranges"],
)
def test_free_side_rows_grow_once_per_lam(monkeypatch, run, lams):
    """verify_grid and certify_ranges build each x-free row once per lam key,
    for every x and n that reads it."""
    grows = Counter()
    for name, memo in FREE_MEMOS.items():

        def counted(key, n, grow=memo.grow, name=name):
            grows[name, key] += 1
            return grow(key, n)

        monkeypatch.setattr(memo, "rows", {})
        monkeypatch.setattr(memo, "grow", counted)
    assert run()
    keys = {sequences._key(F(lam)) for lam in lams}
    assert grows == Counter({(name, key): 1 for name in FREE_MEMOS for key in keys})


@pytest.mark.parametrize("lam", [F(0), F(2, 7), F(-1, 3)])
def test_free_side_rows_equal_the_reference_formulas(monkeypatch, lam):
    """Entry k of each fresh x-free row is the side that the paper's formula
    gives at n = k: both x-free THM5 expressions (the derangement convolution
    is the x-shifted one at x = 0) and the EQ24_25 lhs without its sign
    (-1)^k."""
    for memo in FREE_MEMOS.values():
        monkeypatch.setattr(memo, "rows", {})
    n = 10
    thm5 = identities._THM5_FREE.row(sequences._key(lam), n)[0]
    eq24_25, den = identities._EQ24_25_FREE.row(sequences._key(lam), n)
    assert len(thm5) == len(eq24_25) == n + 1
    for k in range(n + 1):
        expr_a, expr_b = (F(*side) for side in thm5[k])
        ref_a, ref_b = reference_identities.thm5(k, lam, F(0), None)
        assert (expr_a, expr_b) == (ref_a, ref_b) == (factorial(k), factorial(k)), k
        lhs = reference_identities.eq24_25(k, lam, F(0), None)[0]
        assert F(eq24_25[k], den) == (-1) ** k * lhs, k
