import functools
import json
import math
import random
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import cli, sweep
from collatzlab.dynamics import step_general
from collatzlab.sweep import (
    UINT64_SAFE_MAX,
    RangeSurvey,
    survey_chunk_python,
    survey_range,
)


class TestEngineAgreement:
    def test_numpy_matches_python_reference(self):
        assert survey_range(5001) == survey_chunk_python(1, 5001)

    @given(st.integers(1, 3400), st.integers(1, 500))
    @settings(max_examples=25, deadline=None)
    def test_random_windows(self, hi, chunk_size):
        a = survey_range(hi, max_steps=500, chunk_size=chunk_size)
        assert a == survey_chunk_python(1, hi, max_steps=500)

    @pytest.mark.parametrize("lo", [UINT64_SAFE_MAX - 150, 2**64 - 300])
    def test_uint64_limit_windows(self, lo):
        # no walk steps a value past the limit: a piece of starts near 2^64
        # stops instead of wrapping, in either layout
        for odd in (False, True):
            with pytest.raises(ArithmeticError, match=f"passes {UINT64_SAFE_MAX}"):
                sweep._walk_piece(lo, min(lo + 300, 2**64), lo, sweep.DEFAULT_MAX_STEPS, odd)

    def test_past_the_word_limit_raises(self, monkeypatch):
        # with a tiny limit, some start below 2001 passes it: 447 climbs to 19,682
        monkeypatch.setattr(sweep, "UINT64_SAFE_MAX", 10_000)
        with pytest.raises(ArithmeticError, match="passes 10000"):
            survey_range(2001)

    def test_no_class_plan_past_safe_max(self):
        # a piece whose last start passes safe_max takes no class plan, whose
        # closed forms would then leave uint64
        tab, a, b = sweep._level_table(sweep.LEVEL), 3 << 16, 4 << 16
        assert sweep._class_plan(tab._replace(safe_max=b - 1), a, b, a, sweep.LEVEL)[0].any()
        level, peak = sweep._class_plan(tab._replace(safe_max=b - 2), a, b, a, sweep.LEVEL)
        assert not level.any() and peak == b - 1


class TestWaves:
    @pytest.mark.parametrize("scale", [1, 3])
    @pytest.mark.parametrize("top", [2**11, 2**11 + 1, 2**12, 2**12 + 1, 2**13 - 1])
    @pytest.mark.parametrize("chunk_size", [100, 1 << 18])
    def test_wave_and_piece_borders(self, scale, top, chunk_size):
        # the first piece ends at 2^11, and the waves at 2^12, 2^13, ...
        hi = scale * top
        assert survey_range(hi, chunk_size=chunk_size) == survey_chunk_python(1, hi)

    @pytest.mark.parametrize("chunk_size", [1000, 1 << 18])
    def test_many_failures_in_order(self, chunk_size):
        # most starts fail at this budget; their failures fold piece by piece
        s = survey_range(2**16 + 1, max_steps=40, chunk_size=chunk_size)
        assert s == survey_chunk_python(1, 2**16 + 1, max_steps=40)
        assert len(s.failures) == 51752

    @pytest.mark.parametrize("k", [1, 7])
    def test_failure_through_landing_value(self, monkeypatch, k):
        # at LEVEL 1 and 7 the waves start at 4 and at 256 (and at 2048 at 10)
        monkeypatch.setattr(sweep, "LEVEL", k)
        s = survey_range(3001, max_steps=40, chunk_size=97)
        assert s == survey_chunk_python(1, 3001, max_steps=40)
        # some start past the first piece reaches the survey below its wave
        # within the budget, but fails because the start it lands on fails
        failed = set(s.failures)
        assert any(_landing(x) in failed for x in failed if x >= 2 << k)

    def test_failed_entry_stays_at_budget(self):
        # slots for starts 1, 3, 5 and the spare slot; start 5 walks `steps` and
        # lands on start 3 (slot 1), or spends its budget (the spare slot)
        for fail, steps, entry, slot in [
            (201, 150, 201, 1),  # start 3 failed at max_steps=200
            (255, 200, 100, 1),  # steps + entry passes the byte's edge
            (255, 150, 255, 1),  # entry == fail at the edge, read from the side
            (255, 255, 0, sweep._SPARE),  # steps == fail: the budget ran out
            (255, 255, 0, 3),  # the spare slot itself
            (1001, 900, 300, 1),  # steps + an entry read from the side passes fail
            (1001, 700, 1001, 1),  # start 3 failed at max_steps=1000
        ]:
            table, side = _tables({1: entry})
            walk = (np.array([steps], dtype=np.uint16), np.array([slot], dtype=np.uint32), 5)
            part = sweep._fold_piece(table, side, 5, 6, fail, None, walk)
            assert (part.verified, part.failures) == (0, (5,))
            assert part.max_total_stopping_time is None and part.max_ratio is None
            assert table[2] == min(fail, 255)
            assert _side_of(table, side) == {k: v for k, v in {1: entry, 2: fail}.items() if v >= 255}

    def test_narrow_table_folds_exactly(self):
        # entries past a byte are read from the side table and stay exact up to
        # fail = 100,001; steps + entry = 65,534 passed a uint16 table's edge
        for steps, entry, slot in [(1000, 64534, 1), (0, 65534, 1), (65534, 0, 0), (45, 255, 1)]:
            table, side = _tables({1: entry})
            walk = (np.array([steps], dtype=np.uint16), np.array([slot], dtype=np.uint32), 5)
            part = sweep._fold_piece(table, side, 5, 6, 100_001, None, walk)
            tst = steps + (entry if slot else 0)
            assert (part.verified, part.failures) == (1, ())
            assert (part.max_total_stopping_time, part.tst_argmax) == (tst, 5)
            assert table[2] == 255 and _side_of(table, side)[2] == tst

    @pytest.mark.parametrize("cap", [1, 2, 3, 64, 88, 1099])
    @pytest.mark.parametrize(
        "k, max_steps", [(1, 10**5), (5, 10**5), (1, 40), (2, 10**5), (3, 40), (6, 40)]
    )
    def test_tiny_table_cap(self, monkeypatch, cap, k, max_steps):
        # A piece [a, b) past the first walks its odd starts only, and reads
        # its even starts off the table, when b <= 2 table_end = 4 cap; at cap
        # 88 and LEVEL k < 7 pieces of 96 and 97 end at 352, the last such b,
        # and at 353, and at cap 1099 pieces of 300 and 301 at 4396 and 4397.
        monkeypatch.setattr(sweep, "TABLE_CAP", cap)
        monkeypatch.setattr(sweep, "LEVEL", k)
        walked, walk = {}, sweep._walk_piece

        def spy(a, b, *rest):
            steps, *more = walk(a, b, *rest)
            walked[a, b] = steps.size
            return steps, *more

        monkeypatch.setattr(sweep, "_walk_piece", spy)
        for chunk_size in (300, 301, 96, 97):
            walked.clear()
            got, seen = TestNarrowTable.folds(monkeypatch, 5001, max_steps=max_steps,
                                              chunk_size=chunk_size)
            assert got == _reference(5001, max_steps)
            assert seen[0][0].size == cap + 1  # the odd starts below 2 cap and the spare
            for (a, b), size in walked.items():
                assert size == (b // 2 - a // 2 if a > 1 and b <= 4 * cap else b - a)


def _tables(entries, size=4):
    """A uint8 table of `size` slots holding {slot: tst}, and its side table; the
    odd start y has slot y // 2."""
    table = np.zeros(size, dtype=np.uint8)
    far = sorted(k for k, v in entries.items() if v >= 255)
    for k, v in entries.items():
        table[k] = min(v, 255)
    side = sweep._SideTable(np.uint64)
    side.extend(np.array(far, dtype=np.uint32), np.array([entries[k] for k in far], np.uint64))
    return table, side


def test_side_table_doubles():
    # appended an entry at a time, the arrays grow only at sizes 1, 2, 4, ...,
    # and hold every entry in order
    side = sweep._SideTable(np.uint16)
    caps = set()
    for slot in range(100):
        side.extend(np.array([slot], np.uint32), np.array([255 + slot], np.uint16))
        caps.add(side.slots.size)
    assert sorted(caps) == [1, 2, 4, 8, 16, 32, 64, 128] and side.values.size == 128
    assert (side.size, side.most) == (100, 354)
    assert side.lookup(np.array([0, 57, 99], np.uint32)).tolist() == [255, 312, 354]


def _side_of(table, side):
    """The side table as {slot: value}, checked sorted and holding exactly the
    table's entries 255, its capacity at least its size and its most the
    largest value."""
    slots, values = side.slots[: side.size].tolist(), side.values[: side.size].tolist()
    assert slots == sorted(set(slots)) == np.flatnonzero(table == 255).tolist()
    assert all(v >= 255 for v in values) and side.most == max(values, default=0)
    assert side.slots.size == side.values.size >= side.size
    return dict(zip(slots, values))


def _landing(x, max_steps=40):
    """First value of x's orbit below its wave [L, 2L), within the budget."""
    wave_lo, v = 1 << x.bit_length() - 1, x
    for _ in range(max_steps):
        v = v // 2 if v % 2 == 0 else (3 * v + 1) // 2
        if v < wave_lo:
            return v
    return None


class TestPool:
    def test_pool_made_once_and_capped(self, monkeypatch):
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

            def shutdown(self, wait=True, cancel_futures=False):
                made.append(("shutdown", wait, cancel_futures))

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        base = survey_range(4097, chunk_size=256)
        # the widest wave, [2048, 4096), has 8 pieces; the calling thread is
        # one of the walkers, so the pool has one thread fewer
        for cpus, workers, size in [(6, 10**6, 6), (64, 10**6, 8), (64, 3, 3), (2, 2, 2)]:
            monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
            made.clear()
            assert survey_range(4097, workers=workers, chunk_size=256) == base
            assert made == [size - 1, ("shutdown", True, True)]
        made.clear()
        assert survey_range(4097, workers=1, chunk_size=256) == base
        assert survey_range(2049, workers=10**6, chunk_size=256) == survey_range(2049)
        assert made == []


class TestThreads:
    """Two walkers, the calling thread and one pool thread, and small pieces: an
    error raised in a walk or by the failure budget leaves the survey with its
    message, and no thread behind."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        walkers, walk = set(), sweep._walk_piece
        monkeypatch.setattr(
            sweep, "_walk_piece",
            lambda *piece: walkers.add(threading.current_thread()) or walk(*piece),
        )
        baseline = threading.active_count()
        yield walkers
        # the walks ran in the calling thread and in the pool
        assert threading.current_thread() in walkers and len(walkers) > 1
        assert threading.active_count() == baseline

    def test_one_pool_thread_at_two_workers(self, two_cpus):
        seen = []

        def count(failures):
            seen.append(threading.active_count())

        baseline = threading.active_count()
        got = survey_range(2**14 + 1, workers=2, chunk_size=256, failure_budget=count)
        assert got == _reference(2**14 + 1, sweep.DEFAULT_MAX_STEPS)
        assert max(seen) == baseline + 1 and len(two_cpus) == 2

    def test_cli_sweep_joins_its_pool(self, monkeypatch, capsys):
        # the pool is joined before cli.main returns, so cli.entry's os._exit
        # leaves no thread behind; pieces of 2^14 give the pool thread work
        monkeypatch.setattr(sweep, "survey_range",
                            functools.partial(survey_range, chunk_size=1 << 14))
        argv = ["sweep", "--limit", "300000", "--threads", "2", "--format", "json"]
        baseline = threading.active_count()
        assert cli.main(argv) == cli.EX_OK
        assert threading.active_count() == baseline
        assert json.loads(capsys.readouterr().out)["verified"] == 300000

    def test_walk_error(self, monkeypatch):
        # the first walk to pass 10^6 is in [4224, 4288), the 36th piece, so
        # both walkers have walked when it raises
        monkeypatch.setattr(sweep, "UINT64_SAFE_MAX", 10**6)
        with pytest.raises(ArithmeticError, match=r"\[4224, 4288\) passes 1000000,"):
            survey_range(2**14 + 1, workers=2, chunk_size=64)

    def test_failure_budget_error(self):
        held = []

        def hold(failures):
            held.append(failures)
            if failures > 5000:
                raise MemoryError(f"would hold {failures}")

        # most starts fail at 40 steps: the budget stops the survey at the 26th
        # of its 58 pieces, the first [1, 2048)
        with pytest.raises(MemoryError, match="would hold 5016$"):
            survey_range(2**14 + 1, max_steps=40, workers=2, chunk_size=256,
                         failure_budget=hold)
        assert len(held) == 26

    def test_more_threads_than_cpus(self, monkeypatch):
        # eight walkers switching every microsecond: the level table is built
        # once, before the pool, and the survey is the reference's
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
        sweep._level_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = survey_range(2**14 + 1, workers=8, chunk_size=64)
        finally:
            sys.setswitchinterval(interval)
        assert got == _reference(2**14 + 1, sweep.DEFAULT_MAX_STEPS)
        assert sweep._level_table.cache_info().misses == 1


class TestSurveyValues:
    def test_single_element(self):
        s = survey_range(2)
        assert s.verified == 1
        assert s.failures == ()
        assert s.max_total_stopping_time == 0
        assert s.tst_argmax == 1
        assert s.max_ratio is None and s.ratio_argmax is None

    def test_two(self):
        s = survey_range(3)
        assert s.max_total_stopping_time == 1
        assert s.max_ratio == 1 / math.log(2)
        assert s.ratio_argmax == 2

    def test_known_values_to_100(self):
        s = survey_range(101)
        assert s.verified == 100
        # oracle below: exhaustive per-element walk
        best_ratio, best_x, best_tst, tst_x, peak = _oracle(1, 101)
        assert s.max_ratio == pytest.approx(best_ratio)
        assert s.ratio_argmax == best_x == 27
        assert s.max_total_stopping_time == best_tst
        assert s.tst_argmax == tst_x
        assert s.peak == peak

    def test_ratio_frozen_to_100(self):
        s = survey_range(101)
        assert (s.max_ratio, s.ratio_argmax) == (21.23891528795954, 27)

    def test_failures_recorded(self):
        s = survey_range(31, max_steps=5)
        assert 27 in s.failures
        assert 1 not in s.failures
        assert s.verified + len(s.failures) == 30

    def test_bad_range(self):
        with pytest.raises(ValueError):
            survey_range(10, chunk_size=0)
        assert survey_range(1) == survey_range(-5) == RangeSurvey(0, (), *[None] * 5)


class TestRatioFloor:
    """Only starts whose tst reaches the floor the ratio record sets get a log."""

    @staticmethod
    def fold(a, b, record):
        # every start of [a, b) walks to 1, so its steps are its tst
        steps = np.array([len(_orbit(x, 10**5)) - 1 for x in range(a, b)], dtype=np.uint8)
        table, side = _tables({}, b)
        walk = (steps, np.zeros(b - a, dtype=np.uint32), b - 1)
        return sweep._fold_piece(table, side, a, b, 201, record, walk)

    def test_record_holder_keeps_a_tie(self, monkeypatch):
        # 27 has the best ratio of [27, 40), 70 / ln 27, and is the first start:
        # the floor is closest to its tst, and a record equal to or just below
        # its ratio still lets it take a log
        ratio = float(np.float64(70) / np.log(np.float64(27)))
        for record in (None, ratio, float(np.nextafter(ratio, 0))):
            part = self.fold(27, 40, record)
            assert (part.max_ratio, part.ratio_argmax) == (ratio, 27)
        # At LEVEL 1, in the two pieces of [1, 5) at a budget of 2, the second,
        # [4, 5), gets the record 1 / ln 2 of start 2, which its one start ties:
        # the floor lets 4, read off the table, take a log, and the survey keeps 2.
        folds, fold = [], sweep._fold_piece

        def spy(*args):
            folds.append((args[5], fold(*args)))  # the record each piece gets, and its fold
            return folds[-1][1]

        monkeypatch.setattr(sweep, "_fold_piece", spy)
        monkeypatch.setattr(sweep, "LEVEL", 1)
        got = survey_range(5, max_steps=2)
        (first, one), (record, two) = folds
        assert (first, one.max_ratio, one.ratio_argmax) == (None, 1 / math.log(2), 2)
        assert (record, two.max_ratio, two.ratio_argmax) == (1 / math.log(2), record, 4)
        assert (got.max_ratio, got.ratio_argmax) == (record, 2)

    @pytest.mark.parametrize("chunk_size", [1, 2])
    @pytest.mark.parametrize(
        "workers, hi", [(1, 3), (1, 60), (1, 73), (2, 60), (3, 60), (27, 300)]
    )
    def test_small_pieces(self, monkeypatch, chunk_size, workers, hi):
        # At LEVEL 1 the first piece is [1, 4) and the waves [4, 8), ... come
        # in pieces of one or two starts.  ln 1 = 0: start 1 has no ratio, and
        # 2 sets the first record; 54, read off the table, the tst record of [1, 73).
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(sweep, "LEVEL", 1)
        got = survey_range(hi, workers=workers, chunk_size=chunk_size)
        assert got == survey_chunk_python(1, hi)

    def test_fold_memory_per_start(self):
        # the fold gathers a byte an odd start, saturates in the narrowest
        # dtype that holds steps + entry (uint16 here) and reads the even
        # starts off the table: measured 2.51 traced bytes a start on this
        # piece.  Folding every start measured 4.02, 9.05 in a uint32 table's
        # dtype, and by int64 and float64 temporaries 50.
        n, fail = 1 << 16, sweep.DEFAULT_MAX_STEPS + 1
        table, side = _tables({}, 2 * n + 1)
        walk = sweep._walk_piece(1, n, 2, fail - 1)
        first = sweep._fold_piece(table, side, 1, n, fail, None, walk)
        walk = sweep._walk_piece(n, 2 * n, n, fail - 1, True)
        tracemalloc.start()
        try:
            part = sweep._fold_piece(table, side, n, 2 * n, fail, first.max_ratio, walk, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the later piece holds the largest tst and the peak, the first the best
        # ratio, 27's, whose floor, 235, keeps every later start from a log
        whole = survey_range(2 * n)
        assert part.max_ratio is None
        assert whole == RangeSurvey(first.verified + part.verified, (), *part[2:4], *first[4:6],
                                    part.peak)
        assert peak <= 3 * n


@functools.lru_cache(maxsize=None)
def _reference(hi, max_steps):
    """survey_chunk_python(1, hi, max_steps) for hi >= 2, in a fraction of its time.

    A plain sieve in Python ints: each start walks, within its budget, only
    until it drops below itself, and adds the tst of the start it lands on,
    max_steps + 1 meaning "failed".  What its orbit passes after that is what
    the walks of smaller starts passed, so the peak is the plain walk's too.
    """
    fail = max_steps + 1
    tst, failures, peak, best, ratio = [0, 0], [], hi - 1, (0, 1), (None, None)
    for x in range(2, hi):
        v, j = x, 0
        while v >= x and j < max_steps:
            v = v // 2 if v % 2 == 0 else (3 * v + 1) // 2
            j += 1
            peak = max(peak, v)
        t = min(j + tst[v], fail) if v < x else fail
        tst.append(t)
        if t == fail:
            failures.append(x)
            continue
        if t > best[0]:
            best = t, x
        if ratio[0] is None or t / math.log(x) > ratio[0]:
            ratio = t / math.log(x), x
    return RangeSurvey(hi - 1 - len(failures), tuple(failures), *best, *ratio, peak)


@pytest.mark.parametrize("hi", [2, 3, 4, 5, 100, 5001])
def test_reference_is_the_plain_walk(hi):
    for max_steps in (0, 1, 2, 5, 40, 10**5):
        assert _reference(hi, max_steps) == survey_chunk_python(1, hi, max_steps)


_plain = functools.lru_cache(maxsize=None)(survey_chunk_python)


def _join(*parts):
    """Surveys of consecutive ranges, in range order, as one, as survey_range
    joins its pieces: a best replaces the running one only when strictly greater."""
    verified, failures, tst, ratio, peak = 0, (), (None, None), (None, None), None
    for part in parts:
        verified, failures = verified + part.verified, failures + part.failures
        t, r = part.max_total_stopping_time, part.max_ratio
        if t is not None and (tst[0] is None or t > tst[0]):
            tst = part[2:4]
        if r is not None and (ratio[0] is None or r > ratio[0]):
            ratio = part[4:6]
        if part.peak is not None:
            peak = max(peak or 0, part.peak)
    return RangeSurvey(verified, failures, *tst, *ratio, peak)


def _cut(lo, hi, max_steps, chunk_size, workers=1):
    """survey_range(hi) cut at lo >= 2^(LEVEL+1): a head, and a tail of the
    pieces [a, a + chunk_size) of [lo, hi); with lo = 1 the tail is survey_range(hi).

    The head, survey_range(min(lo, table_end)), leaves the table of its odd
    starts.  The pieces are walked in `workers` walkers and folded into that
    table as survey_range walks and folds its pieces past the first, each walk
    landing below min(a, table_end).  Returns (head, tail): the tail is joined
    from the pieces alone, its ratio record from none, and its peak is that of
    their walks, which stop where they land.
    """
    if lo == 1:
        return sweep._EMPTY, survey_range(hi, max_steps=max_steps, workers=workers,
                                          chunk_size=chunk_size)
    assert lo >= 2 << sweep.LEVEL
    budget, table_end = min(max(max_steps, 0), sweep._MAX_BUDGET), min(hi, 2 * sweep.TABLE_CAP)
    below, held, fold = min(lo, table_end), [], sweep._fold_piece

    def keep(table, side, *rest):
        held[:] = table, side
        return fold(table, side, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_fold_piece", keep)
        head = survey_range(below, max_steps=max_steps)
    table, side = np.zeros((table_end >> 1) + 1, np.uint8), held[1]
    table[: below >> 1] = held[0][: below >> 1]  # the head's odd starts, not its spare slot
    pieces = []
    for a in range(lo, hi, chunk_size):
        b = min(a + chunk_size, hi)
        pieces.append((a, b, min(a, table_end), budget, b <= 2 * table_end))
    size = min(workers, len(pieces))
    walks = (sweep._walk_piece(*piece) for piece in pieces)
    if size > 1:
        walks = sweep._walks_in_order(pieces, size)
    parts, record = [], None  # the tail's ratio record before each piece
    with closing(walks):
        for (a, b, *_, odd), walk in zip(pieces, walks):
            parts.append(sweep._fold_piece(table, side, a, b, budget + 1, record, walk, odd))
            r = parts[-1].max_ratio
            if r is not None and (record is None or r > record):
                record = r
    return head, _join(*parts)


# 230631 has tst 278, the first start above 254, in the third piece of 97: at
# 254 it fails at 255 and at 255, 256 and 260 at 256, 257 and 261, each entered
# in the side table; (1, 5001) holds tst up to 150 and enters none.
NARROW_WINDOWS = [
    (230400, 230900, 10**5),
    (230400, 230900, 260),
    (230400, 230900, 256),
    (230400, 230900, 255),
    (230400, 230900, 254),
    (1, 5001, 10**5),
]


class TestNarrowTable:
    """The table holds a byte a start at every budget; an entry that reaches
    255 widens into the side table, and every survey gives the reference's
    result."""

    @pytest.mark.parametrize("chunk_size", [1, 97, 1 << 18])
    @pytest.mark.parametrize("lo, hi, max_steps", NARROW_WINDOWS)
    def test_widen_matches_reference(self, lo, hi, max_steps, chunk_size):
        # [1, hi) with the pieces of [lo, hi) cut at chunk_size, walks landing
        # on the starts of [lo, a) too
        assert _join(*_cut(lo, hi, max_steps, chunk_size)) == _reference(hi, max_steps)

    @pytest.mark.parametrize("cap", [1, 64])
    @pytest.mark.parametrize("lo, hi, max_steps", [(230400, 230900, 260), (1, 5001, 10**5)])
    def test_widen_with_tiny_table_cap(self, monkeypatch, cap, lo, hi, max_steps):
        # with start 1 alone in the table, each walk goes on to 1; past a landing
        # below 128 no orbit passes the window's peak, so the tail is [lo, hi)'s
        monkeypatch.setattr(sweep, "TABLE_CAP", cap)
        assert _cut(lo, hi, max_steps, 97)[1] == _plain(lo, hi, max_steps)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_widen_at_any_worker_count(self, workers):
        got = survey_range(230900, max_steps=260, workers=workers, chunk_size=1000)
        assert got == _reference(230900, 260)

    def test_at_the_word_limit(self):
        # starts above 2^63 overflow int64; at a budget of 0 no walk steps past
        # the limit, and a fold of such a piece enters none of its starts
        lo = 2**64 - 5000
        table, side = _tables({})
        walk = sweep._walk_piece(lo, 2**64, lo, 0)
        part = sweep._fold_piece(table, side, lo, 2**64, 1, None, walk)
        assert part == survey_chunk_python(lo, 2**64, 0) and not table.any()

    @staticmethod
    def folds(monkeypatch, *args, **kwargs):
        """The survey, and after each fold its table and the side as {slot: value}."""
        seen, fold = [], sweep._fold_piece

        def spy(table, side, *rest):
            part = fold(table, side, *rest)
            seen.append((table, _side_of(table, side)))
            return part

        monkeypatch.setattr(sweep, "_fold_piece", spy)
        return survey_range(*args, **kwargs), seen

    def test_widens_once_mid_survey(self, monkeypatch):
        # the side table is empty until the piece of 230631, then only grows
        got, seen = self.folds(monkeypatch, 2**18 + 1, chunk_size=1 << 14)
        first = next(i for i, (_, side) in enumerate(seen) if side)
        assert 0 < first < len(seen) - 1
        assert all(seen[i][1].items() <= seen[i + 1][1].items() for i in range(len(seen) - 1))
        side = seen[-1][1]
        assert min(side) == 230631 // 2 and side[230631 // 2] == 278
        assert all(len(_orbit(2 * slot + 1, 10**5)) - 1 == v for slot, v in side.items())
        assert (got.max_total_stopping_time, got.tst_argmax) == (278, 230631)
        assert got == survey_range(2**18 + 1)

    @pytest.mark.parametrize("max_steps", [300, 260, 254])
    def test_failures_read_through_the_side(self, monkeypatch, max_steps):
        # 461262 lands on 230631 in one step, reading its failure from the side
        # table; with the 2^16 odd starts below 2^17 in the table no walk reads
        # a side entry
        got, seen = self.folds(monkeypatch, 2**19 + 1, max_steps=max_steps)
        side = seen[-1][1]
        assert side[230631 // 2] == min(278, max_steps + 1)
        assert (461262 in got.failures) == (max_steps < 279)
        monkeypatch.setattr(sweep, "TABLE_CAP", 1 << 16)
        assert got == survey_range(2**19 + 1, max_steps=max_steps, chunk_size=1 << 14)

    @pytest.mark.parametrize("max_steps", [100, sweep.DEFAULT_MAX_STEPS, 10**15])
    def test_stays_narrow_at_any_budget(self, monkeypatch, max_steps):
        got, seen = self.folds(monkeypatch, 2**18 + 1, max_steps=max_steps)
        assert all(table is seen[0][0] for table, _ in seen)
        assert seen[0][0].dtype == np.uint8
        assert bool(seen[-1][1]) == (max_steps >= 254)
        if max_steps >= 278:
            assert (got.max_total_stopping_time, got.tst_argmax) == (278, 230631)

    @pytest.mark.parametrize("max_steps", [sweep.DEFAULT_MAX_STEPS, 10**15])
    def test_survey_memory_per_start(self, max_steps):
        # measured 0.60 (the default budget) and 0.59 (10^15) traced bytes a
        # start: the table's half byte and a piece's temporaries, 0.64 and
        # 0.63 while pieces held their even starts.  A byte a start took 1.14
        # and 1.13, a uint16 table 2.19 and 2.21, and a 16 MB block freed in
        # each survey 8.
        n = 2**21
        sweep._level_table(sweep.LEVEL)  # built once a process, for every survey
        tracemalloc.start()
        try:
            got = survey_range(n + 1, max_steps=max_steps, chunk_size=1 << 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.verified, got.failures) == (n, ())
        assert peak <= 0.7 * n

    def test_survey_memory_two_walkers(self, monkeypatch):
        # two walks in flight, the folded one included: measured 0.65-0.66
        # traced bytes a start, 0.72-0.79 while pieces held their even starts;
        # with two pool threads and a byte a start, 1.23-1.30
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        n = 2**21
        sweep._level_table(sweep.LEVEL)
        import concurrent.futures  # noqa: F401  (loaded once a process, as the table is built)
        tracemalloc.start()
        try:
            got = survey_range(n + 1, workers=2, chunk_size=1 << 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.verified, got.failures) == (n, ())
        assert peak <= 0.85 * n


LONG_WALKS = 1723000


class TestNarrowSteps:
    """A walk holds its step counts in a byte until one passes 255 or a spent
    budget must read max_steps + 1, and the survey gives the reference's result
    across both widenings at every worker count."""

    @pytest.mark.parametrize("lo", [2**20, LONG_WALKS])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk_size", [700, 1024])
    @pytest.mark.parametrize("max_steps", [10**5, 300, 255])
    def test_widen_matches_reference(self, monkeypatch, lo, workers, chunk_size, max_steps):
        # With the table down to the odd starts below 16 every walk of the
        # window [lo, lo + 3000) goes on below 16, where its orbit has peaked;
        # only the piece of LONG_WALKS walks past 255 steps, and at 300 and 255
        # its budget, which its fold reads as a failure.
        monkeypatch.setattr(sweep, "TABLE_CAP", 8)
        widths, walk = {}, sweep._walk_piece

        def spy(a, *rest):
            steps, *more = walk(a, *rest)
            widths[a] = steps.dtype.itemsize
            return steps, *more

        monkeypatch.setattr(sweep, "_walk_piece", spy)
        hi = lo + 3000
        got = _cut(lo, hi, max_steps, chunk_size, workers)[1]
        assert got == _plain(lo, hi, max_steps)
        window = {a: w for a, w in widths.items() if a >= lo}
        assert len(window) == -(-3000 // chunk_size)
        assert [a for a, w in window.items() if w == 2] == ([lo] if lo == LONG_WALKS else [])
        if lo == LONG_WALKS:
            assert got.failures == {10**5: (), 300: (1723519,), 255: (1723519, 1723547)}[max_steps]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk_size", [10**4, 1 << 14])
    @pytest.mark.parametrize("max_steps", [10**5, 300, 255])
    def test_widen_in_a_prefix(self, monkeypatch, workers, chunk_size, max_steps):
        # With the table down to the odd starts below 16, whose tst is at most
        # 13, every walk goes on below 16: of [1, 230700) only 230631, tst 278,
        # walks past 255 steps, or spends a budget of 255 and reads 256, in the
        # last piece; the others stay a byte.
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(sweep, "TABLE_CAP", 8)
        widths, walk = {}, sweep._walk_piece

        def spy(a, *rest):
            steps, *more = walk(a, *rest)
            widths[a] = steps.dtype.itemsize
            return steps, *more

        monkeypatch.setattr(sweep, "_walk_piece", spy)
        got = survey_range(230700, max_steps=max_steps, workers=workers, chunk_size=chunk_size)
        assert got == _reference(230700, max_steps)
        assert sorted(widths.values()) == [1] * (len(widths) - 1) + [2]
        assert widths[max(widths)] == 2
        assert got.failures == {10**5: (), 300: (), 255: (230631,)}[max_steps]

    def test_walk_memory_per_start(self):
        # a walk makes the piece's step bytes and slots only once its walkers'
        # temporaries are free: measured 6.89 traced bytes a start, of which it
        # holds 5.05, while 9.8% of this piece's starts walk.  Walking the whole
        # of each class that lands only at level k, 11.8% walk and it measured
        # 7.02; making the arrays before the walk 9.76, and uint32 steps 12.76.
        n = 1 << 16
        sweep._level_table(sweep.LEVEL)
        tracemalloc.start()
        try:
            steps, slot, _ = sweep._walk_piece(3 * n, 4 * n, 3 * n, sweep.DEFAULT_MAX_STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (steps.dtype, slot.dtype) == (np.uint8, np.uint32)
        assert peak <= 7 * n


def _oracle(lo, hi):
    best_ratio, best_x = -1.0, None
    best_tst, tst_x = -1, None
    peak = 0
    for x in range(lo, hi):
        v, t = x, 0
        peak = max(peak, v)
        while v != 1:
            v = v // 2 if v % 2 == 0 else (3 * v + 1) // 2
            t += 1
            peak = max(peak, v)
        if t > best_tst:
            best_tst, tst_x = t, x
        if x >= 2:
            r = t / math.log(x)
            if r > best_ratio:
                best_ratio, best_x = r, x
    return best_ratio, best_x, best_tst, tst_x, peak


class TestDeterminism:
    def test_chunk_size_invariance(self):
        base = survey_range(20001)
        assert base.verified == 20000 and base.failures == ()
        for chunk in (37, 1000, 4096, 19999):
            assert survey_range(20001, chunk_size=chunk) == base

    def test_worker_invariance(self):
        base = survey_range(50001, chunk_size=7000)
        for workers in (2, 3):
            assert survey_range(50001, workers=workers, chunk_size=7000) == base


class TestFold:
    """`survey_range` folds its pieces in range order: a later piece takes a best
    only when it is strictly greater, so a tie keeps the smaller start."""

    def test_ties_prefer_smaller_start(self, monkeypatch):
        # At LEVEL 1 the waves from 4 come in pieces of the chunk size.  tst 92
        # is the largest of [1, 668), at 649, 654, 655 and 667, and tst 116 of
        # [1, 2324), at 2223, 2322 and 2323; at a budget of 2, 2 and 4 share the
        # best ratio, 1 / ln 2, as ln 4 = 2 ln 2 in floats too
        monkeypatch.setattr(sweep, "LEVEL", 1)
        for hi, max_steps, chunk_size, tst, ratio in [
            (668, 10**5, 1, 649, 27),
            (668, 10**5, 5, 649, 27),
            (2324, 10**5, 50, 2223, 27),
            (5, 2, 1, 4, 2),
            (5, 2, 2, 4, 2),
        ]:
            got = survey_range(hi, max_steps=max_steps, chunk_size=chunk_size)
            assert (got.tst_argmax, got.ratio_argmax) == (tst, ratio)
            assert got == survey_chunk_python(1, hi, max_steps=max_steps)
        assert survey_range(5, max_steps=2).max_ratio == 1 / math.log(2) == 2 / math.log(4)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk_size", [64, 97, 1 << 18])
    def test_even_starts_off_the_table(self, monkeypatch, workers, chunk_size):
        # Past the first piece the even starts are read off the table by
        # tst(2y) = 1 + tst(y): at LEVEL 2 from 8 on, at LEVEL 10 from 2048.
        # 54 holds the tst record of [1, 73), 71, which 55 ties, and 2 the
        # ratio record of [1, 3).  On [1, 2^12) some 2y fails where y does
        # not: 3, 10 and 32 at a budget of 5, 1024 at 10, and 182, 183, 1490
        # and 1491 at 60.
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        for k, hi, max_steps in [(2, 73, 10**5), (2, 3, 10**5), (2, 2**12, 5), (2, 2**12, 60),
                                 (10, 2**12, 5), (10, 2**12, 10), (10, 2**12, 60)]:
            monkeypatch.setattr(sweep, "LEVEL", k)
            got = survey_range(hi, max_steps=max_steps, workers=workers, chunk_size=chunk_size)
            assert got == _reference(hi, max_steps)
            if hi == 73:
                assert (got.max_total_stopping_time, got.tst_argmax) == (71, 54)
            if hi == 3:
                assert (got.max_ratio, got.ratio_argmax) == (1 / math.log(2), 2)
            failed = set(got.failures)
            for y in {5: (3, 10, 32), 10: (1024,), 60: (182, 183, 1490, 1491)}.get(max_steps, ()):
                assert 2 * y in failed and y not in failed

    def test_no_verified_start_keeps_none(self, monkeypatch):
        # At LEVEL 1 the waves from 4 come in pieces of the chunk size.  Pieces
        # that verify no start keep the bests they are given, a ratio of None
        # while only start 1 verifies, and the peak comes from every piece
        monkeypatch.setattr(sweep, "LEVEL", 1)
        for hi, max_steps, chunk_size, verified in [
            (100, 0, 7, 1),  # no start walks: the peak is the last start
            (50, 1, 4, 2),  # every start but 1 and 2 fails after one step
            (40, 3, 1, 4),  # 4 and 8 verify, in pieces between failing ones
        ]:
            got = survey_range(hi, max_steps=max_steps, chunk_size=chunk_size)
            assert got == survey_chunk_python(1, hi, max_steps=max_steps)
            assert got.verified == verified
        assert survey_range(100, max_steps=0, chunk_size=7)[2:] == (0, 1, None, None, 99)
        assert survey_range(50, max_steps=1, chunk_size=4).peak == (3 * 49 + 1) // 2


def _step(x: int) -> int:
    """The reference shortcut step, with T(0) = 0 for residue 0."""
    return step_general(x)[0] if x else 0


class TestLevelTable:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_rows_are_walks(self, k):
        # T^j(2^k m + i) = 3^p 2^(k-j) m + T^j(i), p the odd values among i..T^(j-1)(i)
        tab = sweep._level_table(k)
        xs, ps = list(range(1 << k)), [0] * (1 << k)
        for j in range(1, k + 1):
            ps = [p + (x & 1) for p, x in zip(ps, xs)]
            xs = [_step(x) for x in xs]
            assert tab.base[j].tolist() == xs
            assert tab.slope[j].tolist() == [3**p << (k - j) for p in ps]

    @pytest.mark.parametrize("k", range(1, 17))
    def test_largest_slope_has_largest_intercept(self, k):
        # so the largest of levels 1..j at any m is bound_slope * m + bound_base
        tab = sweep._level_table(k)
        for j in range(1, k + 1):
            slope, base = tab.slope[1 : j + 1], tab.base[1 : j + 1]
            steepest, highest = slope.max(axis=0), base.max(axis=0)
            assert ((slope == steepest) & (base == highest)).any(axis=0).all()
            assert np.array_equal(tab.bound_slope[j], steepest)
            assert np.array_equal(tab.bound_base[j], highest)

    @pytest.mark.parametrize("k", [2, 10])
    def test_safe_max_is_exact(self, k):
        tab = sweep._level_table(k)
        rows = (tab.safe_max + 1) >> k  # the first row m whose bound passes 2^64 - 1
        assert (tab.safe_max + 1) % (1 << k) == 0
        bounds = [int(s) * m + int(c) for s, c in zip(tab.bound_slope[k], tab.bound_base[k])
                  for m in (rows - 1, rows)]
        assert max(bounds[0::2]) < 2**64 <= max(bounds[1::2])


@pytest.fixture(params=range(2, 7))
def level(request, monkeypatch):
    """A small LEVEL, so that ranges of a few thousand take the class plan and the jumps."""
    monkeypatch.setattr(sweep, "LEVEL", request.param)
    return request.param


class TestShiftLawWalk:
    @pytest.mark.parametrize("past", [1, 2, 45, 1000])
    def test_budgets_around_the_level(self, level, past):
        hi = 2000 + past
        for max_steps in (0, 1, level - 1, level, level + 1):
            got = survey_range(hi, max_steps=max_steps, chunk_size=300)
            assert got == _reference(hi, max_steps)

    @pytest.mark.parametrize("lo", [5, 12, 48, 129, 1000])
    def test_landings_below_lo(self, level, lo):
        # in a piece [lo, b) a class lands every member at once below lo, its
        # smallest far below and its largest just below, across piece widths
        # on both sides of the class width 2^k
        for width in (7, (1 << level) - 1, (1 << level) + 1, 3 << level, 300):
            TestPiece.check(lo, lo + width, lo, 10**5)

    def test_starts_near_the_jump_floor(self, level):
        floor = 2 << level  # the end of the first piece, and the jump floor past it
        for hi in (floor - 1, floor, floor + 1, 4 * floor + 3):
            for chunk_size in (1, 5, floor - 1, floor + 1):
                got = survey_range(hi, chunk_size=chunk_size)
                assert got == survey_chunk_python(1, hi)

    @pytest.mark.parametrize("cap", [1, 300])
    def test_tiny_table_cap(self, level, monkeypatch, cap):
        monkeypatch.setattr(sweep, "TABLE_CAP", cap)
        for max_steps in (10**5, 40, 5):
            got = survey_range(5001, max_steps=max_steps, chunk_size=300)
            assert got == _reference(5001, max_steps)

    def test_worker_invariance(self, monkeypatch):
        monkeypatch.setattr(sweep, "LEVEL", 3)
        base = survey_range(20001, chunk_size=1500)
        assert base == _reference(20001, sweep.DEFAULT_MAX_STEPS)
        assert survey_range(20001, workers=2, chunk_size=1500) == base

    @given(
        st.integers(2, 6),
        st.integers(1, 6000),
        st.sampled_from([0, 1, 2, 3, 5, 6, 7, 40, 10**5]),
        st.integers(1, 700),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_windows(self, k, hi, max_steps, chunk_size):
        old = sweep.LEVEL
        sweep.LEVEL = k
        try:
            got = survey_range(hi, max_steps=max_steps, chunk_size=chunk_size)
        finally:
            sweep.LEVEL = old
        assert got == survey_chunk_python(1, hi, max_steps)


class TestProductionLevel:
    def test_sweep_to_2_22(self):
        # the facts the benchmark pins for sweep --limit 2^22
        s = survey_range(2**22 + 1)
        assert (s.verified, s.failures) == (2**22, ())
        assert (s.max_total_stopping_time, s.tst_argmax) == (374, 3732423)
        assert (s.max_ratio, s.ratio_argmax) == (24.714905995232588, 3732423)
        assert s.peak == 429277584788

    def test_random_window_above_the_jump_floor(self):
        rng = random.Random(2026)
        hi = rng.randrange(4 << sweep.LEVEL, 2**17)
        for chunk_size in (97, 1 << sweep.LEVEL, 1 << 18):
            got = survey_range(hi, chunk_size=chunk_size)
            assert got == _reference(hi, sweep.DEFAULT_MAX_STEPS)

    def test_window_across_the_jump_bound(self, monkeypatch):
        # values up to safe_max jump; above it they step one at a time, each
        # checked against the word limit before it steps.  With safe_max at 0
        # and the limit one below the peak of [1, 2^14], 13,557,212, the walk
        # that reaches it raises; a jump would pass over it.
        tab = sweep._level_table(sweep.LEVEL)
        assert survey_range(2**14 + 1).peak == 13557212
        monkeypatch.setattr(sweep, "_level_table", lambda k: tab._replace(safe_max=0))
        monkeypatch.setattr(sweep, "UINT64_SAFE_MAX", 13557211)
        with pytest.raises(ArithmeticError, match=r"\[8192, 16384\) passes 13557211,"):
            survey_range(2**14 + 1)



def _orbit(x: int, max_steps: int) -> list[int]:
    """x and its values up to 1 or max_steps steps, by the reference step."""
    values = [x]
    while values[-1] != 1 and len(values) <= max_steps:
        values.append(_step(values[-1]))
    return values


class TestPiece:
    """_walk_piece against its contract, holding every start or the odd ones:
    each walk lands on an odd start below stop_hi >= 2, 1 among them, within
    its budget, never past 1, or fails only if it does not reach 1 within the
    budget; the peak holds every value before each landing.  A landing y
    reads table slot y // 2, and a failure _SPARE."""

    @staticmethod
    def check(a, b, stop_hi, max_steps):
        for odd in (False, True):
            TestPiece.check_layout(a, b, stop_hi, max_steps, odd)

    @staticmethod
    def check_layout(a, b, stop_hi, max_steps, odd):
        steps, slot, peak = sweep._walk_piece(a, b, stop_hi, max_steps, odd)
        starts = range(a | odd, b, 1 + odd)
        assert slot.dtype == np.uint32 and steps.size == slot.size == len(starts)
        least = most = b - 1
        for x, j, s in zip(starts, steps.tolist(), slot.tolist()):
            orbit = _orbit(x, max_steps)
            if j > max_steps:  # out of budget, perhaps past a landing: it fails either way
                assert s == sweep._SPARE and 1 not in orbit
                least = max(least, *orbit)
            else:
                assert j < len(orbit)
                y = orbit[j]
                assert y % 2 == 1 and y < stop_hi
                assert s == y // 2
                least = max(least, *orbit[: j + 1])
            most = max(most, *orbit)
        assert least <= peak <= most

    @pytest.mark.parametrize("a, b, stop_hi", [(8, 73, 8), (8, 200, 8), (5, 300, 5), (40, 129, 33)])
    def test_piece_across_2_to_the_level(self, monkeypatch, a, b, stop_hi):
        # 8 reaches 1 in 3 steps, while 72, the other start of its class mod 2^6,
        # first drops below 8 at step 5: a class with a start below 2^k walks
        monkeypatch.setattr(sweep, "LEVEL", 6)
        self.check(a, b, stop_hi, 10**5)

    def test_single_starts(self, level):
        # a piece of one start has no walker to set the peak: 4m + 1 climbs to
        # (3x + 1)/2 before it lands below x at step 2
        for x in range(1 << level, 6 << level):
            for max_steps in (2, level, 10**5):
                self.check(x, x + 1, x, max_steps)

    @given(
        st.integers(2, 6),
        st.integers(1, 5000),
        st.integers(1, 300),
        st.integers(2, 5000),
        st.sampled_from([0, 1, 2, 5, 6, 7, 40, 10**5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_pieces(self, k, a, width, stop_hi, max_steps):
        old = sweep.LEVEL
        sweep.LEVEL = k
        try:
            self.check(a, a + width, min(stop_hi, max(a, 2)), max_steps)
        finally:
            sweep.LEVEL = old


class TestOddSlots:
    """The table holds odd starts only, at slot y // 2: walks land on odd
    values, an even stop going on to its odd part, and every survey gives the
    reference's result at the layout's edges."""

    @pytest.mark.parametrize("past", [1, 2, 3, 4, 101, 1000])
    @pytest.mark.parametrize("width", [999, 1000])
    def test_table_end_parity(self, monkeypatch, past, width):
        # table_end is hi, of either parity, or 2 TABLE_CAP
        hi = past + width
        got, seen = TestNarrowTable.folds(monkeypatch, hi, chunk_size=97)
        assert got == survey_chunk_python(1, hi)
        table = seen[0][0]
        assert table.size == hi // 2 + 1 and table[-1] == 0
        monkeypatch.setattr(sweep, "TABLE_CAP", 100)
        assert survey_range(hi, chunk_size=97) == got
        monkeypatch.setattr(sweep, "LEVEL", 2)  # pieces of 97 from 8
        assert survey_range(hi, chunk_size=97) == got

    @pytest.mark.parametrize("a", [3 << 16, (3 << 16) + 1000, (3 << 42) + 7])
    def test_level_k_rows_split_by_parity(self, a):
        # at level k a class's value 3^p m + base is odd in every other row m:
        # those rows land in closed form, and the others walk from their start,
        # jump k steps, stop on that even value and go on to its odd part.  The
        # slot is exact mod 2^32, also where m >= 2^32.
        k, b = sweep.LEVEL, a + (1 << 14)
        tab = sweep._level_table(k)
        level = sweep._class_plan(tab, a, b, a, k)[0]
        steps, slot, _ = sweep._walk_piece(a, b, a, 10**5)
        x = np.arange(a, b, dtype=np.uint64)
        top = level[x & np.uint64((1 << k) - 1)] == k
        y = tab.slope[k, x & np.uint64((1 << k) - 1)] * (x >> np.uint64(k))
        y += tab.base[k, x & np.uint64((1 << k) - 1)]
        odd = top & (y & np.uint64(1) == 1)
        assert 0 < odd.sum() < top.sum()
        want = (y[odd] >> np.uint64(1)).astype(np.uint32)
        assert (steps[odd] == k).all() and (slot[odd] == want).all()
        assert (steps[top & ~odd] > k).all()
        if a < 1 << 32:  # where every slot is below 2^32
            TestPiece.check(a, a + 300, a, 10**5)

    def test_powers_of_two_land_on_1(self, level):
        # class 0 mod 2^k is never planned below level k: its values stay even there
        tab = sweep._level_table(level)
        a = 4 << level
        assert sweep._class_plan(tab, a, 2 * a, a, level - 1)[0][0] == 0
        steps, slot, _ = sweep._walk_piece(a, 2 * a + 1, a, 10**5)
        for e in (level + 2, level + 3):
            assert (steps[(1 << e) - a], slot[(1 << e) - a]) == (e, 0)
        TestPiece.check(a, 2 * a + 1, a, 10**5)

    @pytest.mark.parametrize("max_steps", [10**5, 7, 3])
    def test_halvings_below_lo_walk_on(self, max_steps):
        # 40 -> 20 stops below lo = 40, the piece's start, and the walk goes on
        # to 5, its odd part, two halvings later: three steps, within a budget
        # of 3; at 2 they spend it
        steps, slot, _ = sweep._walk_piece(40, 60, 40, max_steps)
        assert (steps[0], slot[0]) == (3, 2)
        steps, slot, _ = sweep._walk_piece(40, 60, 40, 2)
        assert (steps[0], slot[0]) == (3, sweep._SPARE)
        TestPiece.check(40, 60, 40, max_steps)
        for chunk_size in (1, 20, 97):
            got = survey_range(3000, max_steps=max_steps, chunk_size=chunk_size)
            assert got == _reference(3000, max_steps)

    @pytest.mark.parametrize("max_steps", [10**5, 256, 255])
    def test_halvings_widen_the_steps(self, max_steps):
        # with the table down to starts 1 and 2, 263103 first stops on 2 after
        # 255 steps: its one halving to 1 takes the walk past a byte, or its budget
        steps, slot, _ = sweep._walk_piece(263100, 263110, 3, max_steps)
        assert steps.dtype == np.uint16
        tst = 256 if max_steps >= 256 else max_steps + 1
        assert (steps[3], slot[3]) == (tst, 0 if max_steps >= 256 else sweep._SPARE)
        TestPiece.check(263100, 263110, 3, max_steps)
