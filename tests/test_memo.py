"""The one memo mechanism of the sequence layer and the row and column
accessors.

Every memoised sequence is a ``_Memo``: integer rows under int-pair keys,
built on demand under one lock, each build publishing a new row in place of
the old one.  These tests grow fresh memos with the library's own grow
steps, from several threads and in several steps, and compare them with a
serial build; they check that the library's batch reads build each row
once and that the verifiers, handed published rows uncopied, write into
none; they check that a reader never pairs the numerators of one row with the
denominator of another, that every spelling of a parameter reaches one memo
entry, that keys hold ints only and that the registry of memos frees a
memo that nothing else holds; then they check each row and column accessor
against its scalar reads, also below the top of a longer row.
"""

import copy
import gc
import sys
import threading
import time
import weakref
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degderange import identities, sequences
from degderange.exactcore import as_fractions
from degderange.sequences import (
    _key,
    _Memo,
    _TriangleMemo,
    bell_deg,
    bell_deg_series,
    bell_row,
    bell_series_row,
    derange_deg,
    derange_deg_order,
    derange_order_row,
    derange_row,
    falling_deg,
    falling_row,
    fubini_deg,
    fubini_deg_series,
    fubini_row,
    fubini_series_row,
    stirling1_column,
    stirling1_deg,
    stirling1_deg_series,
    stirling1_row,
    stirling1_series_column,
    stirling2_column,
    stirling2_deg,
    stirling2_deg_series,
    stirling2_row,
    stirling2_series_column,
)

# (memo, key) pairs: the recurrences (falling factorials, both Stirling
# triangles), the derangement values and the terms and weights of the
# explicit sums, the sums over second-kind Stirling rows, and every series
# memo, each grown online from its generating function.
LAM, X = (-2, 7), (3, 4)
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
    (sequences._DERANGE_TERMS, (LAM, X)),
    (sequences._ORDER_WEIGHTS, 3),
    (sequences._S2, LAM),
    (sequences._S1, LAM),
    (sequences._FUBINI, (LAM, X)),
    (sequences._BELL, (LAM, X)),
    (identities._THM4_INNER, (LAM, X)),
    *SERIES_MEMOS,
]


def fresh(memo):
    return type(memo)(memo.grow)


def values(memo, key, n):
    """Entries 0..n at key as fractions (rows 0..n of a triangle)."""
    if isinstance(memo, _TriangleMemo):
        return [as_fractions(*memo.ints(key, k)) for k in range(n + 1)]
    return as_fractions(*memo.ints(key, n))


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
        serial = values(fresh(memo), key, max(targets))
        drop_lower_columns(memo, key)
        shared = fresh(memo)
        # the threads then replace one shared row; a column is seeded at its
        # index m, since it is grown only to n >= m
        shared.row(key, key[1] if memo in COLUMN_MEMOS else 1)
        got = {}
        barrier = threading.Barrier(len(targets))

        def grow(n):
            barrier.wait(timeout=30)
            got[n] = values(shared, key, n)

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
        assert values(shared, key, max(targets)) == serial
        if memo in COLUMN_MEMOS:  # the race grew the column below to 29
            assert len(memo.rows[(key[0], key[1] - 1)][0]) == max(targets)


def test_growing_after_a_smaller_n_keeps_the_prefix():
    for memo, key in MEMOS:
        drop_lower_columns(memo, key)
        step = fresh(memo)
        small = values(step, key, 5)
        published = step.row(key, 5)
        frozen = copy.deepcopy(published)
        large = values(step, key, 24)
        assert large[: len(small)] == small
        assert large == values(fresh(memo), key, 24), memo.grow
        assert published == frozen, memo.grow  # growth left the old row as it was


def test_readers_never_pair_new_numerators_with_an_old_denominator():
    # At (-2/7, 3/4) the terms row's denominator is n! 28^n, so every row
    # built to a larger n has a wider denominator and other numerators; the
    # derangement row takes the terms row's denominator: the writers publish
    # rows for n = 10 ... 40 while the readers read n = 3 and n = 9 outside
    # the lock.
    key = (LAM, X)
    for memo in (sequences._DERANGE, sequences._DERANGE_TERMS):
        serial = values(fresh(memo), key, 40)
        for _ in range(5):
            # the derangement row is read from the module's terms row: a
            # fresh one makes it grow, and widen, along with the writers
            sequences._DERANGE_TERMS.rows.pop(key, None)
            shared = fresh(memo)
            shared.row(key, 9)
            reads, dens, wrong = [0], set(), []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    if shared.value(key, 3) != serial[3]:
                        wrong.append(3)
                    nums, den = shared.ints(key, 9)
                    dens.add(den)
                    if as_fractions(nums, den) != serial[:10]:
                        wrong.append(9)
                    reads[0] += 1

            def writer(first):
                for n in range(first, 41, 2):
                    shared.row(key, n)

            def wait_for_a_read():
                seen, deadline = reads[0], time.monotonic() + 30
                while reads[0] == seen and time.monotonic() < deadline:
                    time.sleep(1e-4)

            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                readers = [threading.Thread(target=reader) for _ in range(2)]
                writers = [threading.Thread(target=writer, args=(first,)) for first in (10, 11)]
                for t in readers:
                    t.start()
                wait_for_a_read()
                for t in writers:
                    t.start()
                for t in writers:
                    t.join(timeout=120)
                wait_for_a_read()
                stop.set()
                for t in readers:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(old)
            assert not any(t.is_alive() for t in readers + writers)
            assert not wrong
            assert len(dens) > 1  # the readers saw the denominator widen
            assert values(shared, key, 40) == serial


def test_clear_races_readers_and_growers():
    """Threads that grow a key's row and clear the memo while readers read
    it outside the lock: every read is one whole, right row."""
    memo = fresh(sequences._FALLING)
    key = (X, LAM)
    serial = values(fresh(memo), key, 40)
    memo.row(key, 9)
    reads, wrong = [0], []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            if as_fractions(*memo.ints(key, 9)) != serial[:10]:
                wrong.append(9)
            reads[0] += 1

    def clearer(first):
        for n in range(first, 41, 2):
            memo.row(key, n)
            memo.clear()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader) for _ in range(2)]
        clearers = [threading.Thread(target=clearer, args=(first,)) for first in (10, 11)]
        for t in readers + clearers:
            t.start()
        for t in clearers:
            t.join(timeout=120)
        stop.set()
        for t in readers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in readers + clearers)
    assert reads[0] and not wrong
    assert values(memo, key, 40) == serial
    memo.clear()
    assert not memo.rows


def test_readers_leave_every_published_row_unchanged(monkeypatch):
    """``ints`` hands out a published row itself when it holds exactly the
    values asked for.  A grid run to n = 8 and a certification run to n = 6
    build every row on empty memos, and each row is read by many cases before
    its |lam| group ends: afterwards each row that a grow step published
    still has the entries it had then."""
    published = []
    for memo in sequences._MEMOS:

        def recorded(key, n, grow=memo.grow, memo=memo):
            row = grow(key, n)
            published.append((memo, key, row, copy.deepcopy(row)))
            return row

        monkeypatch.setattr(memo, "rows", {})
        monkeypatch.setattr(memo, "grow", recorded)
    assert identities.verify_grid(n_max=8).ok
    certified = identities.certify_ranges(identities.IdentityId, 6)
    assert all(all(per_n.values()) for per_n in certified.values())
    key = ((-1, 4), (0, 1))  # falling(x - 1, .; 0) at x = 3/4
    assert sequences._FALLING.ints(key, 8)[0] is sequences._FALLING.rows[key][0]
    assert published
    for memo, key, row, then in published:
        assert row == then, (memo, key)


def test_series_memos_grow_exactly_to_n():
    for memo, key in SERIES_MEMOS:
        step = fresh(memo)
        for n in (3, 8, 10, 50):
            assert len(step.row(key, n)[0]) == n + 1, (memo.grow, n)
        assert len(step.row(key, 8)[0]) == 51  # already covered: no rebuild
    bell = fresh(sequences._BELL_SERIES)
    bell.row(((3, 7), (1, 1)), 96)
    assert len(bell.row(((3, 7), (1, 1)), 128)[0]) == 129


def test_series_memos_serve_their_rows_as_published():
    """Every series memo is a plain ``_Memo``: value k of a row (nums, den)
    is nums[k] / den, and ``pair`` and ``ints`` serve the published row as
    it stands, at keys whose rows are not over 1."""
    for memo, key in SERIES_MEMOS:
        assert type(memo) is _Memo
        step = fresh(memo)
        for n in (4, 12):
            row = step.row(key, n)
            assert len(row[0]) == n + 1 and row[1] != 1
            assert step.ints(key, n)[0] is row[0], (memo.grow, n)
            for k in range(n + 1):
                assert step.pair(key, k) == (row[0][k], row[1]), (memo.grow, n, k)


def test_batch_reads_build_each_memo_row_once(monkeypatch):
    """An order-r row and, under the cross-check, a Stirling column with its
    series column read every value through rows built once, to their final
    length: no key's row is rebuilt for a larger n."""
    memos = [m for m in vars(sequences).values() if isinstance(m, _Memo)]
    grows = Counter()
    for i, memo in enumerate(memos):

        def counted(key, n, grow=memo.grow, i=i):
            grows[i, key] += 1
            return grow(key, n)

        monkeypatch.setattr(memo, "rows", {})
        monkeypatch.setattr(memo, "grow", counted)

    sequences.set_cross_check(True)
    try:
        for read in (
            lambda: derange_order_row(64, 3, F(2, 7), F(3, 4)),
            lambda: stirling2_column(40, 3, F(-1, 3)),
            lambda: stirling1_column(40, 3, F(2, 7)),
        ):
            grows.clear()
            read()
            assert grows and set(grows.values()) == {1}
    finally:
        sequences.set_cross_check(False)


def test_series_columns_equal_top_down_scalar_reads_and_build_once(monkeypatch):
    """A series column reads columns 0..m of its triangle, each built once,
    to n, and equals the scalar series reads taken top n first, which then
    build nothing more; above the diagonal it is all 0 and builds nothing."""
    for memo, column, scalar in (
        (sequences._S2_SERIES, stirling2_series_column, stirling2_deg_series),
        (sequences._S1_SERIES, stirling1_series_column, stirling1_deg_series),
    ):
        grows = Counter()

        def counted(key, n, grow=memo.grow):
            grows[key] += 1
            return grow(key, n)

        monkeypatch.setattr(memo, "rows", {})
        monkeypatch.setattr(memo, "grow", counted)
        for n, m, lam in ((40, 3, F(2, 7)), (12, 5, F(-1, 3)), (6, 0, F(1, 2)), (4, 7, F(0))):
            grows.clear()
            got = column(n, m, lam)
            built = {(_key(lam), i): 1 for i in range(m + 1)} if m <= n else {}
            assert grows == built, (column, n, m)
            assert got == [scalar(k, m, lam) for k in range(n, -1, -1)][::-1], (column, n, m)
            assert grows == built, (column, n, m)
            assert len(got) == n + 1 and all(type(v) is F for v in got)
        for bad in ((-1, 0), (3, -1)):
            with pytest.raises(ValueError):
                column(*bad, F(1, 2))


class _OwnRatio(F):
    """A Fraction subclass whose ``as_integer_ratio`` gives no ints."""

    def as_integer_ratio(self):
        return F(self.numerator), F(self.denominator)


def test_every_spelling_of_a_parameter_reaches_one_memo_entry():
    import numpy as np

    for a, b in ((0, F(0)), (2, F(2)), (F(1, 2), 0.5)):
        assert _key(a) == _key(b)
        assert all(type(v) is int for v in _key(a))
    spellings = (0, -3, 10**30, True, False, F(-2, 6), _OwnRatio(1, 3), 0.5, -2.75,
                 Decimal("1.25"), "1/3", " -2 ", np.int64(-7), np.int64(0))
    for v in spellings:
        assert _key(v) == F(v).as_integer_ratio(), v
        assert all(type(part) is int for part in _key(v)), v
    for bad in (float("nan"), float("inf"), "1/0", "abc"):
        with pytest.raises(Exception) as expected:
            F(bad)
        with pytest.raises(expected.type):
            _key(bad)
    for memo, read in (
        (sequences._FALLING, lambda lam, x: falling_row(x, 9, lam)),
        (sequences._DERANGE, lambda lam, x: derange_row(9, lam, x)),
        (sequences._DERANGE_TERMS, lambda lam, x: derange_order_row(9, 2, lam, x)),
        (sequences._BELL, lambda lam, x: bell_row(9, lam, x)),
    ):
        for x_int, x_frac in ((0, F(0)), (2, F(2))):
            first = read(F(1, 2), x_int)
            keys = set(memo.rows)
            assert read(0.5, x_frac) == first
            assert set(memo.rows) == keys  # the second spelling added no entry


def _leaves(key):
    if isinstance(key, tuple):
        for part in key:
            yield from _leaves(part)
    else:
        yield key


def _module_memos():
    return {id(m): m for mod in (sequences, identities) for m in vars(mod).values() if isinstance(m, _Memo)}


def test_a_memo_that_nothing_holds_leaves_the_registry():
    """``_MEMOS`` holds its memos weakly: a memo made, filled and dropped is
    freed with its row, and a run empties the module's 17 memos, which are
    all that the registry lists."""
    gc.collect()
    assert len(sequences._MEMOS) == 17
    memo = _Memo(sequences._FALLING.grow)
    memo.row(((3, 4), (2, 7)), 12)
    assert len(sequences._MEMOS) == 18
    dropped = weakref.ref(memo)
    del memo
    gc.collect()
    assert dropped() is None
    assert len(sequences._MEMOS) == 17
    assert identities.verify_grid(n_max=4).ok
    assert set(map(id, sequences._MEMOS)) == set(_module_memos())
    assert not any(memo.rows for memo in sequences._MEMOS)


def test_row_accessors_read_exactly_n_plus_one_values_from_a_longer_row():
    """A public row read at n = 10 of a row built to 40 gives 11 values, the
    first 11 of the longer row (row 10 itself for a triangle)."""
    lam, x = F(2, 7), F(3, 4)
    for memo in sequences._MEMOS:
        memo.clear()
    for read, prefix in (
        (lambda n: falling_row(x, n, lam), True),
        (lambda n: derange_row(n, lam, x), True),
        (lambda n: stirling1_row(n, lam), False),
        (lambda n: stirling2_row(n, lam), False),
        (lambda n: fubini_row(n, lam, x), True),
        (lambda n: bell_row(n, lam, x), True),
        (lambda n: fubini_series_row(n, lam, x), True),
        (lambda n: bell_series_row(n, lam, x), True),
    ):
        top = read(40)
        row = read(10)
        assert len(top) == 41 and len(row) == 11
        if prefix:
            assert row == top[:11]
    assert len(sequences._FALLING.rows[((3, 4), (2, 7))][0]) == 41


def test_memo_keys_hold_ints_only():
    identities.verify_grid(n_max=8)
    memos = _module_memos()
    assert len(memos) == 17
    for memo in memos.values():
        for key in memo.rows:
            assert all(type(v) is int for v in _leaves(key)), (memo.grow, key)


lambdas = st.one_of(
    st.sampled_from([F(0), F(-1, 2), F(-1, 3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)
xs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
ns = st.integers(min_value=0, max_value=40)


@settings(max_examples=25, deadline=None)
@given(lambdas, xs, ns, st.integers(min_value=1, max_value=4))
def test_rows_equal_scalar_reads(lam, x, n, r):
    ks = range(n + 1)
    rows = [
        (falling_row(x, n, lam), [falling_deg(x, k, lam) for k in ks]),
        (derange_row(n, lam, x), [derange_deg(k, lam, x) for k in ks]),
        (derange_order_row(n, r, lam, x), [derange_deg_order(k, r, lam, x) for k in ks]),
        (stirling2_row(n, lam), [stirling2_deg(n, m, lam) for m in ks]),
        (stirling1_row(n, lam), [stirling1_deg(n, m, lam) for m in ks]),
        (stirling2_column(n, n // 2, lam), [stirling2_deg(k, n // 2, lam) for k in ks]),
        (stirling1_column(n, n // 2, lam), [stirling1_deg(k, n // 2, lam) for k in ks]),
        (fubini_row(n, lam, x), [fubini_deg(k, lam, x) for k in ks]),
        (bell_row(n, lam, x), [bell_deg(k, lam, x) for k in ks]),
        (fubini_series_row(n, lam, x), [fubini_deg_series(k, lam, x) for k in ks]),
        (bell_series_row(n, lam, x), [bell_deg_series(k, lam, x) for k in ks]),
    ]
    for row, scalars in rows:
        assert row == scalars
        assert all(type(v) is F for v in row + scalars)
        row[0] += 1  # the row is a copy: a later read is unchanged
    assert falling_row(x, n, lam)[0] == 1
    assert derange_row(n, lam, x)[0] == 1
    assert derange_order_row(n, r, lam, x)[0] == 1
    assert stirling2_row(n, lam)[0] == stirling2_deg(n, 0, lam)
    assert stirling1_row(n, lam)[0] == stirling1_deg(n, 0, lam)
    assert stirling2_column(n, n // 2, lam)[0] == stirling2_deg(0, n // 2, lam)
    assert stirling1_column(n, n // 2, lam)[0] == stirling1_deg(0, n // 2, lam)
    assert fubini_row(n, lam, x)[0] == 1
    assert bell_row(n, lam, x)[0] == 1
    assert fubini_series_row(n, lam, x)[0] == 1
    assert bell_series_row(n, lam, x)[0] == 1
