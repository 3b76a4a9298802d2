import functools
import json
import math
import random
import sys
import threading
import tracemalloc
from concurrent.futures import Future

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
        assert survey_range(1, 5001) == survey_chunk_python(1, 5001)

    @given(st.integers(2, 3000), st.integers(1, 400), st.integers(1, 500))
    @settings(max_examples=25, deadline=None)
    def test_random_windows(self, lo, width, chunk_size):
        a = survey_range(lo, lo + width, max_steps=500, chunk_size=chunk_size)
        b = survey_chunk_python(lo, lo + width, max_steps=500)
        assert a == b

    @pytest.mark.parametrize("lo", [UINT64_SAFE_MAX - 150, 2**64 - 300])
    def test_uint64_limit_windows(self, lo):
        # no walk steps a value past the limit: the survey stops instead of wrapping
        with pytest.raises(ArithmeticError, match=f"passes {UINT64_SAFE_MAX}"):
            survey_range(lo, min(lo + 300, 2**64), chunk_size=64)

    def test_past_the_word_limit_raises(self, monkeypatch):
        # the starts of this window near the jump bound climb past UINT64_SAFE_MAX
        edge = sweep._level_table(sweep.LEVEL).safe_max
        with pytest.raises(ArithmeticError, match=f"passes {UINT64_SAFE_MAX}"):
            survey_range(edge - 200, edge + 200, chunk_size=64)
        # with a tiny limit, some start below 2001 passes it: 447 climbs to 19,682
        monkeypatch.setattr(sweep, "UINT64_SAFE_MAX", 10_000)
        with pytest.raises(ArithmeticError, match="passes 10000"):
            survey_range(1, 2001)


class TestWaves:
    @pytest.mark.parametrize("lo", [1, 3])
    @pytest.mark.parametrize("top", [2**12, 2**12 + 1, 2**13 - 1])
    @pytest.mark.parametrize("chunk_size", [100, 1 << 18])
    def test_wave_and_piece_borders(self, lo, top, chunk_size):
        hi = lo * top
        assert survey_range(lo, hi, chunk_size=chunk_size) == survey_chunk_python(lo, hi)

    @pytest.mark.parametrize("chunk_size", [1000, 1 << 18])
    def test_many_failures_in_order(self, chunk_size):
        # most starts fail at this budget; their failures fold piece by piece
        s = survey_range(1, 2**16 + 1, max_steps=40, chunk_size=chunk_size)
        assert s == survey_chunk_python(1, 2**16 + 1, max_steps=40)
        assert len(s.failures) == 51752

    @pytest.mark.parametrize("lo", [1, 7])
    def test_failure_through_landing_value(self, lo):
        s = survey_range(lo, 3001, max_steps=40, chunk_size=97)
        assert s == survey_chunk_python(lo, 3001, max_steps=40)
        # some start reaches the survey below its wave within the budget, but
        # fails because the start it lands on fails
        failed = set(s.failures)
        assert any(_landing(x, lo) in failed for x in failed if _landing(x, lo) is not None)

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
            part = sweep._fold_piece(table, side, 1, 5, 6, fail, None, walk)
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
            part = sweep._fold_piece(table, side, 1, 5, 6, 100_001, None, walk)
            tst = steps + (entry if slot else 0)
            assert (part.verified, part.failures) == (1, ())
            assert (part.max_total_stopping_time, part.tst_argmax) == (tst, 5)
            assert table[2] == 255 and _side_of(table, side)[2] == tst

    @pytest.mark.parametrize("cap", [1, 2, 3, 64])
    @pytest.mark.parametrize(
        "lo, max_steps", [(1, 10**5), (5, 10**5), (1, 40), (2, 10**5), (3, 40), (6, 40)]
    )
    def test_tiny_table_cap(self, monkeypatch, cap, lo, max_steps):
        monkeypatch.setattr(sweep, "TABLE_CAP", cap)
        got, seen = TestNarrowTable.folds(monkeypatch, lo, 5001, max_steps=max_steps,
                                          chunk_size=300)
        assert got == _reference(lo, 5001, max_steps)
        assert seen[0][0].size == cap + 1  # the odd starts of [lo, lo + 2 cap) and the spare


def _tables(entries, size=4):
    """A uint8 table of `size` slots holding {slot: tst}, and its side table; the
    odd start y of a survey from 1 has slot y // 2."""
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


def _landing(x, lo, max_steps=40):
    """First value below x's wave [L, 2L) that lies in [lo, L), within the budget."""
    wave_lo = lo
    while 2 * wave_lo <= x:
        wave_lo *= 2
    v = x
    for _ in range(max_steps):
        v = v // 2 if v % 2 == 0 else (3 * v + 1) // 2
        if lo <= v < wave_lo:
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
        base = survey_range(1, 4097, chunk_size=256)
        # the widest wave, [2048, 4096), has 8 pieces; the calling thread is
        # one of the walkers, so the pool has one thread fewer
        for cpus, workers, size in [(6, 10**6, 6), (64, 10**6, 8), (64, 3, 3), (2, 2, 2)]:
            monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
            made.clear()
            assert survey_range(1, 4097, workers=workers, chunk_size=256) == base
            assert made == [size - 1, ("shutdown", True, True)]
        made.clear()
        assert survey_range(1, 4097, workers=1, chunk_size=256) == base
        assert survey_range(1, 257, workers=10**6, chunk_size=256) == survey_range(1, 257)
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
        got = survey_range(1, 2**14 + 1, workers=2, chunk_size=256, failure_budget=count)
        assert got == _reference(1, 2**14 + 1, sweep.DEFAULT_MAX_STEPS)
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
        # as in test_past_the_word_limit_raises: 447 climbs to 19,682
        monkeypatch.setattr(sweep, "UINT64_SAFE_MAX", 10_000)
        with pytest.raises(ArithmeticError, match="passes 10000"):
            survey_range(1, 2001, workers=2, chunk_size=64)

    def test_failure_budget_error(self):
        held = []

        def hold(failures):
            held.append(failures)
            if failures > 5000:
                raise MemoryError(f"would hold {failures}")

        # most starts fail at 40 steps: the budget stops the survey at the 40th
        # of its 72 pieces
        with pytest.raises(MemoryError, match="would hold 5016$"):
            survey_range(1, 2**14 + 1, max_steps=40, workers=2, chunk_size=256,
                         failure_budget=hold)
        assert len(held) == 40

    def test_more_threads_than_cpus(self, monkeypatch):
        # eight walkers switching every microsecond: the level table is built
        # once, before the pool, and the survey is the reference's
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
        sweep._level_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = survey_range(1, 2**14 + 1, workers=8, chunk_size=64)
        finally:
            sys.setswitchinterval(interval)
        assert got == _reference(1, 2**14 + 1, sweep.DEFAULT_MAX_STEPS)
        assert sweep._level_table.cache_info().misses == 1


class TestSurveyValues:
    def test_single_element(self):
        s = survey_range(1, 2)
        assert s.verified == 1
        assert s.failures == ()
        assert s.max_total_stopping_time == 0
        assert s.tst_argmax == 1
        assert s.max_ratio is None and s.ratio_argmax is None

    def test_two(self):
        s = survey_range(2, 3)
        assert s.max_total_stopping_time == 1
        assert s.max_ratio == 1 / math.log(2)
        assert s.ratio_argmax == 2

    def test_known_values_to_100(self):
        s = survey_range(1, 101)
        assert s.verified == 100
        # oracle below: exhaustive per-element walk
        best_ratio, best_x, best_tst, tst_x, peak = _oracle(1, 101)
        assert s.max_ratio == pytest.approx(best_ratio)
        assert s.ratio_argmax == best_x == 27
        assert s.max_total_stopping_time == best_tst
        assert s.tst_argmax == tst_x
        assert s.peak == peak

    def test_ratio_frozen_to_100(self):
        s = survey_range(2, 101)
        assert (s.max_ratio, s.ratio_argmax) == (21.23891528795954, 27)

    def test_failures_recorded(self):
        s = survey_range(1, 31, max_steps=5)
        assert 27 in s.failures
        assert 1 not in s.failures
        assert s.verified + len(s.failures) == 30

    def test_bad_range(self):
        with pytest.raises(ValueError):
            survey_range(0, 10)
        assert survey_range(5, 5).verified == 0


class TestRatioFloor:
    """Only starts whose tst reaches the floor the ratio record sets get a log."""

    @staticmethod
    def fold(a, b, record):
        # every start of [a, b) walks to 1, so its steps are its tst
        steps = np.array([len(_orbit(x, 10**5)) - 1 for x in range(a, b)], dtype=np.uint8)
        table, side = _tables({}, b)
        walk = (steps, np.zeros(b - a, dtype=np.uint32), b - 1)
        return sweep._fold_piece(table, side, 1, a, b, 201, record, walk)

    def test_record_holder_keeps_a_tie(self):
        # 27 has the best ratio of [27, 40), 70 / ln 27, and is the first start:
        # the floor is closest to its tst
        ratio = float(np.float64(70) / np.log(np.float64(27)))
        part = self.fold(27, 40, None)
        assert (part.max_ratio, part.ratio_argmax) == (ratio, 27)
        earlier = sweep._empty_survey(1, 27)._replace(max_ratio=ratio, ratio_argmax=9)
        part = self.fold(27, 40, ratio)
        assert earlier.merge(part).ratio_argmax == 9
        below = float(np.nextafter(ratio, 0))
        part = self.fold(27, 40, below)
        assert (part.max_ratio, part.ratio_argmax) == (ratio, 27)
        merged = earlier._replace(max_ratio=below).merge(part)
        assert (merged.max_ratio, merged.ratio_argmax) == (ratio, 27)

    @pytest.mark.parametrize("chunk_size", [1, 2])
    @pytest.mark.parametrize("lo, hi", [(1, 3), (1, 60), (2, 60), (3, 60), (27, 300)])
    def test_small_pieces(self, chunk_size, lo, hi):
        # ln 1 = 0: start 1 alone has no ratio; a piece of 2 alone sets the first record
        got = survey_range(lo, hi, chunk_size=chunk_size)
        assert got == survey_chunk_python(lo, hi)

    def test_fold_memory_per_start(self):
        # the fold gathers a byte a start and saturates in the narrowest dtype
        # that holds steps + entry (uint16 here): measured 4.02 traced bytes a
        # start on this piece, 9.05 in a uint32 table's dtype.  Folding by
        # int64 and float64 temporaries measured 50.
        n, fail = 1 << 16, sweep.DEFAULT_MAX_STEPS + 1
        table, side = _tables({}, 2 * n + 1)
        walk = sweep._walk_piece(1, n, 1, 1, fail - 1)
        first = sweep._fold_piece(table, side, 1, 1, n, fail, None, walk)
        walk = sweep._walk_piece(n, 2 * n, 1, n, fail - 1)
        tracemalloc.start()
        try:
            part = sweep._fold_piece(table, side, 1, n, 2 * n, fail, first.max_ratio, walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.merge(part) == survey_range(1, 2 * n)
        assert peak <= 6 * n


@functools.lru_cache(maxsize=None)
def _reference(lo, hi, max_steps):
    return survey_chunk_python(lo, hi, max_steps)


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
        got = survey_range(lo, hi, max_steps=max_steps, chunk_size=chunk_size)
        assert got == _reference(lo, hi, max_steps)

    @pytest.mark.parametrize("cap", [1, 64])
    @pytest.mark.parametrize("lo, hi, max_steps", [(230400, 230900, 260), (1, 5001, 10**5)])
    def test_widen_with_tiny_table_cap(self, monkeypatch, cap, lo, hi, max_steps):
        # with start lo alone in the table, each walk goes on to 1 from (1, 5001) too
        monkeypatch.setattr(sweep, "TABLE_CAP", cap)
        got = survey_range(lo, hi, max_steps=max_steps, chunk_size=97)
        assert got == _reference(lo, hi, max_steps)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_widen_at_any_worker_count(self, workers):
        got = survey_range(230400, 230900, max_steps=260, workers=workers, chunk_size=97)
        assert got == _reference(230400, 230900, 260)

    def test_at_the_word_limit(self):
        # starts above 2^63 overflow int64; at a budget of 0 no walk steps past the limit
        lo = 2**64 - 5000
        got = survey_range(lo, 2**64, max_steps=0, chunk_size=777)
        assert got == _reference(lo, 2**64, 0)

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
        got, seen = self.folds(monkeypatch, 1, 2**18 + 1, chunk_size=1 << 14)
        first = next(i for i, (_, side) in enumerate(seen) if side)
        assert 0 < first < len(seen) - 1
        assert all(seen[i][1].items() <= seen[i + 1][1].items() for i in range(len(seen) - 1))
        side = seen[-1][1]
        assert min(side) == 230631 // 2 and side[230631 // 2] == 278
        assert all(len(_orbit(2 * slot + 1, 10**5)) - 1 == v for slot, v in side.items())
        assert (got.max_total_stopping_time, got.tst_argmax) == (278, 230631)
        assert got == survey_range(1, 2**18 + 1)

    @pytest.mark.parametrize("max_steps", [300, 260, 254])
    def test_failures_read_through_the_side(self, monkeypatch, max_steps):
        # 461262 lands on 230631 in one step, reading its failure from the side
        # table; with the 2^16 odd starts below 2^17 in the table no walk reads
        # a side entry
        got, seen = self.folds(monkeypatch, 1, 2**19 + 1, max_steps=max_steps)
        side = seen[-1][1]
        assert side[230631 // 2] == min(278, max_steps + 1)
        assert (461262 in got.failures) == (max_steps < 279)
        monkeypatch.setattr(sweep, "TABLE_CAP", 1 << 16)
        assert got == survey_range(1, 2**19 + 1, max_steps=max_steps, chunk_size=1 << 14)

    @pytest.mark.parametrize("max_steps", [100, sweep.DEFAULT_MAX_STEPS, 10**15])
    def test_stays_narrow_at_any_budget(self, monkeypatch, max_steps):
        got, seen = self.folds(monkeypatch, 1, 2**18 + 1, max_steps=max_steps)
        assert all(table is seen[0][0] for table, _ in seen)
        assert seen[0][0].dtype == np.uint8
        assert bool(seen[-1][1]) == (max_steps >= 254)
        if max_steps >= 278:
            assert (got.max_total_stopping_time, got.tst_argmax) == (278, 230631)

    @pytest.mark.parametrize("max_steps", [sweep.DEFAULT_MAX_STEPS, 10**15])
    def test_survey_memory_per_start(self, max_steps):
        # measured 0.64 (the default budget) and 0.63 (10^15) traced bytes a
        # start: the table's half byte and a piece's temporaries.  A byte a
        # start took 1.14 and 1.13, a uint16 table 2.19 and 2.21, and a 16 MB
        # block freed in each survey 8.
        n = 2**21
        sweep._level_table(sweep.LEVEL)  # built once a process, for every survey
        tracemalloc.start()
        try:
            got = survey_range(1, n + 1, max_steps=max_steps, chunk_size=1 << 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.verified, got.failures) == (n, ())
        assert peak <= 0.7 * n

    def test_survey_memory_two_walkers(self, monkeypatch):
        # two walks in flight, the folded one included: measured 0.72-0.79
        # traced bytes a start; with two pool threads and a byte a start, 1.23-1.30
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        n = 2**21
        sweep._level_table(sweep.LEVEL)
        import concurrent.futures  # noqa: F401  (loaded once a process, as the table is built)
        tracemalloc.start()
        try:
            got = survey_range(1, n + 1, workers=2, chunk_size=1 << 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.verified, got.failures) == (n, ())
        assert peak <= 0.85 * n


# The first piece of [1723000, 1726000) holds 1723519, whose tst is 349, and
# 1723547, whose tst is 265; the other pieces' walks take at most 227 steps.
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
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        widths, walk = {}, sweep._walk_piece

        def spy(a, *rest):
            steps, *more = walk(a, *rest)
            widths[a] = steps.dtype.itemsize
            return steps, *more

        monkeypatch.setattr(sweep, "_walk_piece", spy)
        hi = lo + 3000
        got = survey_range(lo, hi, max_steps=max_steps, workers=workers, chunk_size=chunk_size)
        assert got == _reference(lo, hi, max_steps)
        # one piece walks past 255 steps, or spends a budget of 300 or 255 and
        # reads 301 or 256; the others stay a byte (walks from [2^20, 2^20 +
        # 3000) take at most 258 steps)
        assert sorted(widths.values()) == [1] * (len(widths) - 1) + [2]
        if lo == LONG_WALKS:
            assert widths[lo] == 2
            assert got.failures == {10**5: (), 300: (1723519,), 255: (1723519, 1723547)}[max_steps]

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
            steps, slot, _ = sweep._walk_piece(3 * n, 4 * n, 1, 3 * n, sweep.DEFAULT_MAX_STEPS)
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
        base = survey_range(1, 20001)
        assert base.verified == 20000 and base.failures == ()
        for chunk in (37, 1000, 4096, 19999):
            assert survey_range(1, 20001, chunk_size=chunk) == base

    def test_worker_invariance(self):
        base = survey_range(1, 50001, chunk_size=7000)
        for workers in (2, 3):
            assert survey_range(1, 50001, workers=workers, chunk_size=7000) == base


class TestMerge:
    def test_merge_ties_prefer_smaller_start(self):
        # 6 and 27-free windows engineered so maxima tie: use identical halves
        a = RangeSurvey(1, 3, 2, (), 5, 10, 1.5, 10, 100)
        b = RangeSurvey(3, 5, 2, (), 5, 8, 1.5, 9, 90)
        merged = a.merge(b)
        assert merged.tst_argmax == 8
        assert merged.ratio_argmax == 9
        assert merged.peak == 100
        assert merged.verified == 4

    def test_merge_none_fields(self):
        a = RangeSurvey(1, 1, 0, (), None, None, None, None, None)
        b = RangeSurvey(1, 3, 2, (), 1, 2, 1.44, 2, 16)
        merged = a.merge(b)
        assert merged.max_total_stopping_time == 1
        assert merged.tst_argmax == 2
        assert merged.max_ratio == 1.44
        assert merged.peak == 16
        assert merged.verified == 2


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
    @pytest.mark.parametrize("lo", [1, 2, 45, 1000])
    def test_budgets_around_the_level(self, level, lo):
        for max_steps in (0, 1, level - 1, level, level + 1):
            got = survey_range(lo, lo + 2000, max_steps=max_steps, chunk_size=300)
            assert got == survey_chunk_python(lo, lo + 2000, max_steps)

    @pytest.mark.parametrize("lo", [5, 12, 48, 129, 1000])
    def test_landings_below_lo(self, level, lo):
        # a class's smallest member may land just below lo, where no entry is:
        # it walks on, while its largest lands in [lo, stop_hi); so does a
        # value whose odd part is below lo
        want = survey_chunk_python(lo, lo + 3000)
        for chunk_size in (7, (1 << level) - 1, (1 << level) + 1, 3 << level, 1000):
            assert survey_range(lo, lo + 3000, chunk_size=chunk_size) == want

    def test_starts_near_the_jump_floor(self, level):
        floor = 2 << level  # no value of at least 2^(k+1) reaches 1 inside a jump
        for lo in (1, floor - 1, floor, floor + 1):
            for hi in (floor - 1, floor, floor + 1, 4 * floor + 3):
                for chunk_size in (1, 5, floor - 1, floor + 1):
                    if hi > lo:
                        got = survey_range(lo, hi, chunk_size=chunk_size)
                        assert got == survey_chunk_python(lo, hi)

    @pytest.mark.parametrize("cap", [1, 300])
    def test_tiny_table_cap(self, level, monkeypatch, cap):
        monkeypatch.setattr(sweep, "TABLE_CAP", cap)
        for lo, max_steps in [(1, 10**5), (5, 10**5), (1, 40)]:
            got = survey_range(lo, 5001, max_steps=max_steps, chunk_size=300)
            assert got == survey_chunk_python(lo, 5001, max_steps)

    def test_worker_invariance(self, monkeypatch):
        monkeypatch.setattr(sweep, "LEVEL", 3)
        base = survey_range(1, 20001, chunk_size=1500)
        assert base == survey_chunk_python(1, 20001)
        assert survey_range(1, 20001, workers=2, chunk_size=1500) == base

    @given(
        st.integers(2, 6),
        st.integers(1, 3000),
        st.integers(1, 3000),
        st.sampled_from([0, 1, 2, 3, 5, 6, 7, 40, 10**5]),
        st.integers(1, 700),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_windows(self, k, lo, width, max_steps, chunk_size):
        old = sweep.LEVEL
        sweep.LEVEL = k
        try:
            got = survey_range(lo, lo + width, max_steps=max_steps, chunk_size=chunk_size)
        finally:
            sweep.LEVEL = old
        assert got == survey_chunk_python(lo, lo + width, max_steps)


class TestProductionLevel:
    def test_sweep_to_2_22(self):
        # the facts the benchmark pins for sweep --limit 2^22
        s = survey_range(1, 2**22 + 1)
        assert (s.verified, s.failures) == (2**22, ())
        assert (s.max_total_stopping_time, s.tst_argmax) == (374, 3732423)
        assert (s.max_ratio, s.ratio_argmax) == (24.714905995232588, 3732423)
        assert s.peak == 429277584788

    def test_random_window_above_the_jump_floor(self):
        rng = random.Random(2026)
        lo = rng.randrange(2 << sweep.LEVEL, 2**40)
        for chunk_size in (97, 1 << sweep.LEVEL, 1 << 18):
            got = survey_range(lo, lo + 4000, chunk_size=chunk_size)
            assert got == survey_chunk_python(lo, lo + 4000)

    def test_window_across_the_jump_bound(self):
        # values up to safe_max jump; above it they step one at a time: from
        # 319,804,831 the orbit climbs to 707,118,223,359,971,240, past safe_max
        edge = sweep._level_table(sweep.LEVEL).safe_max
        got = survey_range(319804631, 319805031, chunk_size=64)
        assert got == survey_chunk_python(319804631, 319805031)
        assert got.peak == 707118223359971240 > edge



def _orbit(x: int, max_steps: int) -> list[int]:
    """x and its values up to 1 or max_steps steps, by the reference step."""
    values = [x]
    while values[-1] != 1 and len(values) <= max_steps:
        values.append(_step(values[-1]))
    return values


class TestPiece:
    """_walk_piece against its contract: each walk lands on 1 or on an odd start
    in [lo, stop_hi) within its budget, never past 1, or fails only if it does
    not reach 1 within the budget; the peak holds every value before each
    landing.  A landing y reads table slot y // 2 - lo // 2, and a landing on 1
    below lo or a failure _SPARE."""

    @staticmethod
    def check(a, b, lo, stop_hi, max_steps):
        steps, slot, peak = sweep._walk_piece(a, b, lo, stop_hi, max_steps)
        assert slot.dtype == np.uint32
        least = most = b - 1
        for x, j, s in zip(range(a, b), steps.tolist(), slot.tolist()):
            orbit = _orbit(x, max_steps)
            if j > max_steps:  # out of budget, perhaps past a landing: it fails either way
                assert s == sweep._SPARE and 1 not in orbit
                least = max(least, *orbit)
            else:
                assert j < len(orbit)
                y = orbit[j]
                assert y == 1 or y % 2 == 1 and lo <= y < stop_hi
                assert s == (y // 2 - lo // 2 if y >= lo else sweep._SPARE)
                least = max(least, *orbit[: j + 1])
            most = max(most, *orbit)
        assert least <= peak <= most

    @pytest.mark.parametrize("a, b, stop_hi", [(8, 73, 8), (8, 200, 8), (5, 300, 5), (40, 129, 33)])
    def test_piece_across_2_to_the_level(self, monkeypatch, a, b, stop_hi):
        # 8 reaches 1 in 3 steps, while 72, the other start of its class mod 2^6,
        # first drops below 8 at step 5: a class with a start below 2^k walks
        monkeypatch.setattr(sweep, "LEVEL", 6)
        self.check(a, b, 1, stop_hi, 10**5)

    def test_single_starts(self, level):
        # a piece of one start has no walker to set the peak: 4m + 1 climbs to
        # (3x + 1)/2 before it lands below x at step 2
        for x in range(1 << level, 6 << level):
            for max_steps in (2, level, 10**5):
                self.check(x, x + 1, 1, x, max_steps)

    @given(
        st.integers(2, 6),
        st.integers(1, 5000),
        st.integers(1, 300),
        st.integers(1, 3000),
        st.sampled_from([0, 1, 2, 5, 6, 7, 40, 10**5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_pieces(self, k, a, width, lo, max_steps):
        old = sweep.LEVEL
        sweep.LEVEL = k
        try:
            self.check(a, a + width, lo, max(lo, a - width), max_steps)
        finally:
            sweep.LEVEL = old


class TestOddSlots:
    """The table holds odd starts only, at slot y // 2 - lo // 2: walks land on
    odd values, an even stop going on to its odd part, and every survey gives
    the reference's result at the layout's edges."""

    @pytest.mark.parametrize("lo", [1, 2, 3, 4, 101, 1000])
    @pytest.mark.parametrize("width", [999, 1000])
    def test_table_end_parity(self, monkeypatch, lo, width):
        # table_end is hi, of either parity, or lo + 2 TABLE_CAP, of lo's
        got, seen = TestNarrowTable.folds(monkeypatch, lo, lo + width, chunk_size=97)
        assert got == survey_chunk_python(lo, lo + width)
        table = seen[0][0]
        assert table.size == (lo + width) // 2 - lo // 2 + 1 and table[-1] == 0
        monkeypatch.setattr(sweep, "TABLE_CAP", 100)
        assert survey_range(lo, lo + width, chunk_size=97) == got

    @pytest.mark.parametrize(
        "a, lo", [(3 << 16, 1), ((3 << 16) + 1000, 1), (3 << 16, 5000), ((3 << 42) + 7, 3)]
    )
    def test_level_k_rows_split_by_parity(self, a, lo):
        # at level k a class's value 3^p m + base is odd in every other row m:
        # those rows land in closed form, and the others walk from their start,
        # jump k steps, stop on that even value and go on to its odd part.  The
        # slot is exact mod 2^32, also where m >= 2^32.
        k, b = sweep.LEVEL, a + (1 << 14)
        tab = sweep._level_table(k)
        level = sweep._class_plan(tab, a, b, lo, a, k)[0]
        steps, slot, _ = sweep._walk_piece(a, b, lo, a, 10**5)
        x = np.arange(a, b, dtype=np.uint64)
        top = level[x & np.uint64((1 << k) - 1)] == k
        y = tab.slope[k, x & np.uint64((1 << k) - 1)] * (x >> np.uint64(k))
        y += tab.base[k, x & np.uint64((1 << k) - 1)]
        odd = top & (y & np.uint64(1) == 1)
        assert 0 < odd.sum() < top.sum()
        want = ((y[odd] >> np.uint64(1)) - np.uint64(lo // 2)).astype(np.uint32)
        assert (steps[odd] == k).all() and (slot[odd] == want).all()
        assert (steps[top & ~odd] > k).all()
        if a < 1 << 32:  # where every slot is below 2^32
            TestPiece.check(a, a + 300, lo, a, 10**5)

    def test_powers_of_two_land_on_1(self, level):
        # class 0 mod 2^k is never planned below level k: its values stay even there
        tab = sweep._level_table(level)
        a = 4 << level
        assert sweep._class_plan(tab, a, 2 * a, 1, a, level - 1)[0][0] == 0
        for lo, spare in [(1, 0), (3, sweep._SPARE)]:
            steps, slot, _ = sweep._walk_piece(a, 2 * a + 1, lo, a, 10**5)
            for e in (level + 2, level + 3):
                assert (steps[(1 << e) - a], slot[(1 << e) - a]) == (e, spare)
            TestPiece.check(a, 2 * a + 1, lo, a, 10**5)

    @pytest.mark.parametrize("max_steps", [10**5, 7, 3])
    def test_halvings_below_lo_walk_on(self, max_steps):
        # 40 -> 20 stops in [7, 40), but 5, its odd part, is below lo: the walk
        # goes on to 10, again, and 5 -> 8, whose odd part is 1
        steps, slot, _ = sweep._walk_piece(40, 60, 7, 40, max_steps)
        assert (steps[0], slot[0]) == (min(7, max_steps + 1), sweep._SPARE)
        TestPiece.check(40, 60, 7, 40, max_steps)
        for chunk_size in (1, 20, 97):
            got = survey_range(7, 3000, max_steps=max_steps, chunk_size=chunk_size)
            assert got == _reference(7, 3000, max_steps)

    @pytest.mark.parametrize("max_steps", [10**5, 256, 255])
    def test_halvings_widen_the_steps(self, max_steps):
        # with the table down to starts 1 and 2, 263103 first stops on 2 after
        # 255 steps: its one halving to 1 takes the walk past a byte, or its budget
        steps, slot, _ = sweep._walk_piece(263100, 263110, 1, 3, max_steps)
        assert steps.dtype == np.uint16
        tst = 256 if max_steps >= 256 else max_steps + 1
        assert (steps[3], slot[3]) == (tst, 0 if max_steps >= 256 else sweep._SPARE)
        TestPiece.check(263100, 263110, 1, 3, max_steps)

    @pytest.mark.parametrize("lo", [2**64 - 5000, 2**64 - 4999])
    @pytest.mark.parametrize("hi", [2**64, 2**64 - 1])
    @pytest.mark.parametrize("cap", [3, sweep.TABLE_CAP])
    def test_odd_slots_at_the_word_limit(self, monkeypatch, lo, hi, cap):
        monkeypatch.setattr(sweep, "TABLE_CAP", cap)
        got, seen = TestNarrowTable.folds(monkeypatch, lo, hi, max_steps=0, chunk_size=777)
        assert got == _reference(lo, hi, 0)
        assert seen[0][0].size == min(cap, hi // 2 - lo // 2) + 1
