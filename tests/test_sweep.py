import math
from concurrent.futures import Future
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import sweep
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

    def test_overflow_fallback_path(self, monkeypatch):
        # force the exact-int continuation by pretending uint64 is tiny
        monkeypatch.setattr(
            sweep, "_walk_piece", partial(sweep._walk_piece, overflow_limit=10_000)
        )
        for lo, max_steps in [(1, 10**5), (300, 10**5), (1, 30)]:
            got = survey_range(lo, 2001, max_steps=max_steps)
            assert got == survey_chunk_python(lo, 2001, max_steps)

    @pytest.mark.parametrize("lo", [UINT64_SAFE_MAX - 150, 2**64 - 300])
    def test_uint64_limit_windows(self, lo):
        hi = min(lo + 300, 2**64)
        assert survey_range(lo, hi, chunk_size=64) == survey_chunk_python(lo, hi)


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
        # slots for starts 1, 2, 3 and the spare slot; start 2 failed at max_steps=200
        table = np.array([0, 201, 0, 0], dtype=np.uint8)
        walk = (np.array([150], dtype=np.uint8), np.array([2], dtype=np.uint64), 3)
        part = sweep._fold_piece(table, 1, 3, 4, 201, walk)
        assert part.failures == (3,)
        assert table[2] == 201

    @pytest.mark.parametrize("cap", [1, 64])
    @pytest.mark.parametrize("lo, max_steps", [(1, 10**5), (5, 10**5), (1, 40)])
    def test_tiny_table_cap(self, monkeypatch, cap, lo, max_steps):
        monkeypatch.setattr(sweep, "TABLE_CAP", cap)
        got = survey_range(lo, 5001, max_steps=max_steps, chunk_size=300)
        assert got == survey_chunk_python(lo, 5001, max_steps)


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

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
        base = survey_range(1, 4097, chunk_size=256)
        # the widest wave, [2048, 4096), has 8 pieces
        for cpus, workers, size in [(6, 10**6, 6), (64, 10**6, 8), (64, 3, 3)]:
            monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
            made.clear()
            assert survey_range(1, 4097, workers=workers, chunk_size=256) == base
            assert made == [size]
        made.clear()
        assert survey_range(1, 4097, workers=1, chunk_size=256) == base
        assert survey_range(1, 257, workers=10**6, chunk_size=256) == survey_range(1, 257)
        assert made == []


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
