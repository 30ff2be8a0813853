"""The one memo mechanism of the sequence layer and the row accessors.

Every memoised sequence is a ``_Memo``: per-key lists grown on demand under
one lock.  These tests grow fresh memos with the library's own grow steps,
from several threads and in several steps, and compare them with a serial
build; then they check each row accessor against its scalar reads.
"""

import sys
import threading
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from degderange import identities, sequences
from degderange.sequences import (
    _Memo,
    bell_deg,
    bell_deg_series,
    bell_row,
    bell_series_row,
    derange_deg,
    derange_row,
    falling_deg,
    falling_row,
    fubini_deg,
    fubini_deg_series,
    fubini_row,
    fubini_series_row,
    stirling1_deg,
    stirling1_row,
    stirling2_deg,
    stirling2_row,
)

# (memo, key) pairs: the recurrences (falling factorials, derangement partial
# sums, both Stirling triangles), the sums over second-kind Stirling rows, and
# every series memo, each grown online from its generating function.
LAM, X = F(-2, 7), F(3, 4)
SERIES_MEMOS = [
    (sequences._S2_SERIES, (LAM, 3)),
    (sequences._S1_SERIES, (LAM, 3)),
    (sequences._FUBINI_SERIES, (LAM, X)),
    (sequences._BELL_SERIES, (LAM, X)),
    (sequences._DERANGE_ORDER_SERIES, (LAM, X, 1)),
    (sequences._DERANGE_ORDER_SERIES, (LAM, X, 2)),
]
MEMOS = [
    (sequences._FALLING, (X, LAM)),
    (sequences._DERANGE, (LAM, X)),
    (sequences._S2, LAM),
    (sequences._S1, LAM),
    (sequences._FUBINI, (LAM, X)),
    (sequences._BELL, (LAM, X)),
    (identities._THM4_INNER, (LAM, X)),
    *SERIES_MEMOS,
]


def fresh(memo):
    return _Memo(memo.grow)


COLUMN_MEMOS = (sequences._S2_SERIES, sequences._S1_SERIES)


def drop_lower_columns(memo, key):
    """A series-triangle column grows from the column below it, read from the
    module's memo.  Dropping the lower columns there makes the next growth
    of ``key`` grow them as well, one grow step nested in another."""
    if memo in COLUMN_MEMOS:
        lam, m = key
        for i in range(m):
            memo.rows.pop((lam, i), None)


def test_threads_growing_one_key_match_serial_build():
    targets = [3, 17, 9, 30]
    for memo, key in MEMOS:
        serial = fresh(memo).row(key, max(targets))
        drop_lower_columns(memo, key)
        shared = fresh(memo)
        shared.row(key, 1)  # the threads then extend one shared list
        got = {}
        barrier = threading.Barrier(len(targets))

        def grow(n):
            barrier.wait(timeout=30)
            got[n] = shared.row(key, n)[: n + 1]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(n,)) for n in targets]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == sorted(targets)
        for n in targets:
            assert got[n] == serial[: n + 1], (memo.grow, n)
        assert shared.row(key, max(targets))[: max(targets) + 1] == serial[: max(targets) + 1]
        if memo in COLUMN_MEMOS:  # the race grew the column below to 29
            assert len(memo.rows[(key[0], key[1] - 1)]) == max(targets)


def test_growing_after_a_smaller_n_keeps_the_prefix():
    for memo, key in MEMOS:
        drop_lower_columns(memo, key)
        step = fresh(memo)
        small = list(step.row(key, 5))
        large = step.row(key, 24)
        assert large[: len(small)] == small
        assert large[:25] == fresh(memo).row(key, 24)[:25], memo.grow


def test_series_memos_grow_exactly_to_n():
    for memo, key in SERIES_MEMOS:
        step = fresh(memo)
        for n in (3, 8, 10, 50):
            assert len(step.row(key, n)) == n + 1, (memo.grow, n)
        assert len(step.row(key, 8)) == 51  # already covered: no rebuild
    bell = fresh(sequences._BELL_SERIES)
    bell.row((F(3, 7), F(1)), 96)
    assert len(bell.row((F(3, 7), F(1)), 128)) == 129


lambdas = st.one_of(
    st.sampled_from([F(0), F(-1, 2), F(-1, 3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)
xs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
ns = st.integers(min_value=0, max_value=40)


@settings(max_examples=25, deadline=None)
@given(lambdas, xs, ns)
def test_rows_equal_scalar_reads(lam, x, n):
    ks = range(n + 1)
    rows = [
        (falling_row(x, n, lam), [falling_deg(x, k, lam) for k in ks]),
        (derange_row(n, lam, x), [derange_deg(k, lam, x) for k in ks]),
        (stirling2_row(n, lam), [stirling2_deg(n, m, lam) for m in ks]),
        (stirling1_row(n, lam), [stirling1_deg(n, m, lam) for m in ks]),
        (fubini_row(n, lam, x), [fubini_deg(k, lam, x) for k in ks]),
        (bell_row(n, lam, x), [bell_deg(k, lam, x) for k in ks]),
        (fubini_series_row(n, lam, x), [fubini_deg_series(k, lam, x) for k in ks]),
        (bell_series_row(n, lam, x), [bell_deg_series(k, lam, x) for k in ks]),
    ]
    for row, scalars in rows:
        assert row == scalars
        row[0] += 1  # the row is a copy: a later read is unchanged
    assert falling_row(x, n, lam)[0] == 1
    assert derange_row(n, lam, x)[0] == 1
    assert stirling2_row(n, lam)[0] == stirling2_deg(n, 0, lam)
    assert stirling1_row(n, lam)[0] == stirling1_deg(n, 0, lam)
    assert fubini_row(n, lam, x)[0] == 1
    assert bell_row(n, lam, x)[0] == 1
    assert fubini_series_row(n, lam, x)[0] == 1
    assert bell_series_row(n, lam, x)[0] == 1
