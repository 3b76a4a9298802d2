"""Range surveys of shortcut trajectories by stopping-time table lookup.

A survey of [lo, hi) finds each start's total stopping time tst(x), the number
of shortcut steps to 1, the largest tst(x)/ln(x) and the largest value any
orbit reaches.  Since tst(x) = j + tst(T^j x), a start walks only until it
lands on a start already surveyed, then adds that start's table entry.

Starts go in doubling waves [L, 2L) from L = lo, in increasing order, each cut
into pieces of `chunk_size`.  A piece walks in uint64 numpy arrays until each
value lands on 1 or in [lo, L); values below lo have no entry and keep walking,
and values above UINT64_SAFE_MAX go on as exact Python ints.  The table holds
min(tst, max_steps + 1), the latter meaning "failed", in the smallest unsigned
dtype that fits, for at most TABLE_CAP starts: waves above the cap walk until
they drop below it, so memory is bounded for any range.  The peak stays exact:
after landing, an orbit goes on as a prefix of the landed start's orbit, whose
values were seen when that start was surveyed.

Walks never read the table, so with several workers a process pool walks the
pieces of this wave and later ones while the parent folds finished walks in
range order; with one worker the same walk runs in-process.  Ties go to the
smaller start, so the result is the same for every worker count and chunk
size.  `survey_chunk_python`, the plain walk of every start to 1, is the
reference.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DEFAULT_MAX_STEPS

# Largest value for which 3*x + 1 still fits in uint64.
UINT64_SAFE_MAX = (2**64 - 2) // 3

# A piece of 2^18 starts keeps the walk's temporaries to a few MB each.
DEFAULT_CHUNK_SIZE = 1 << 18

# Starts held in the stopping-time table: 64 MB at the default step budget.
TABLE_CAP = 1 << 24

# Budgets are clamped so that step sums stay within int64; no walk gets this long.
_MAX_BUDGET = 1 << 62


@dataclass(frozen=True)
class RangeSurvey:
    """Aggregated outcome of walking every start in [lo, hi) to 1."""

    lo: int
    hi: int
    verified: int
    failures: tuple[int, ...]
    max_total_stopping_time: int | None
    tst_argmax: int | None
    max_ratio: float | None
    ratio_argmax: int | None
    peak: int | None

    def merge(self, other: "RangeSurvey") -> "RangeSurvey":
        """Combine two disjoint surveys; ties resolve to the smaller start."""
        tst, tst_arg = _merge_max(
            (self.max_total_stopping_time, self.tst_argmax),
            (other.max_total_stopping_time, other.tst_argmax),
        )
        ratio, ratio_arg = _merge_max(
            (self.max_ratio, self.ratio_argmax), (other.max_ratio, other.ratio_argmax)
        )
        peaks = [p for p in (self.peak, other.peak) if p is not None]
        return RangeSurvey(
            lo=min(self.lo, other.lo),
            hi=max(self.hi, other.hi),
            verified=self.verified + other.verified,
            failures=tuple(sorted(self.failures + other.failures)),
            max_total_stopping_time=tst,
            tst_argmax=tst_arg,
            max_ratio=ratio,
            ratio_argmax=ratio_arg,
            peak=max(peaks) if peaks else None,
        )


def _merge_max(a: tuple, b: tuple) -> tuple:
    if a[0] is None:
        return b
    if b[0] is None:
        return a
    if b[0] > a[0] or (b[0] == a[0] and b[1] < a[1]):
        return b
    return a


def _empty_survey(lo: int, hi: int) -> RangeSurvey:
    return RangeSurvey(lo, hi, 0, (), None, None, None, None, None)


def survey_chunk_python(lo: int, hi: int, max_steps: int = DEFAULT_MAX_STEPS) -> RangeSurvey:
    """Reference implementation: walk every start to 1 with Python ints, no numpy."""
    if hi <= lo:
        return _empty_survey(lo, hi)
    done, failures, peak = [], [], hi - 1
    for start in range(lo, hi):
        value, steps = start, 0
        while value != 1 and steps < max_steps:
            value = value // 2 if value % 2 == 0 else (3 * value + 1) // 2
            steps += 1
            peak = max(peak, value)
        if value == 1:
            done.append((steps, start))
        else:
            failures.append(start)
    # maxima over (value, start) pairs; ties resolve to the smaller start
    tst = max(done, key=lambda d: (d[0], -d[1]), default=(None, None))
    ratio = max(
        ((steps / math.log(start), start) for steps, start in done if start >= 2),
        key=lambda r: (r[0], -r[1]),
        default=(None, None),
    )
    return RangeSurvey(lo, hi, len(done), tuple(failures), *tst, *ratio, peak)


def _walk_exact(value: int, steps: int, lo: int, stop_hi: int, max_steps: int):
    """Continue one walk with Python ints under the same stop rule: returns
    (steps, landing value or None if the budget ran out first, peak)."""
    peak = value
    while steps < max_steps:
        value = value // 2 if value % 2 == 0 else (3 * value + 1) // 2
        steps += 1
        peak = max(peak, value)
        if value == 1 or lo <= value < stop_hi:
            return steps, value, peak
    return steps, None, peak


def _walk_piece(
    a: int, b: int, lo: int, stop_hi: int, max_steps: int, overflow_limit: int = UINT64_SAFE_MAX
) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk every start in [a, b) until it lands on 1 or in [lo, stop_hi).

    Returns (steps, land, peak): the steps each walk took, the value it
    landed on, and the largest value seen.  A walk that runs out of budget
    first reads max_steps + 1 steps and lands on 1.  Values above
    overflow_limit are walked on with exact Python ints.
    """
    n = b - a
    steps = np.full(n, max_steps + 1, dtype=np.min_scalar_type(max_steps + 1))
    land = np.ones(n, dtype=np.uint64)
    v = np.arange(a, b, dtype=np.uint64)
    pos = np.arange(n)
    peak = top = b - 1
    t = 0
    while True:
        # a walk stops on 1 or on a start in [lo, stop_hi)
        if lo == 1 < stop_hi:
            stop = v < stop_hi
        else:
            stop = ((v >= lo) & (v < stop_hi)) | (v == 1)
        hit = np.flatnonzero(stop)
        if hit.size:
            steps[pos[hit]] = t
            land[pos[hit]] = v[hit]
            keep = np.flatnonzero(~stop)
            v, pos = v[keep], pos[keep]
        if top > overflow_limit:
            high = v > overflow_limit
            for p, x in zip(pos[high].tolist(), v[high].tolist()):
                j, y, seen = _walk_exact(x, t, lo, stop_hi, max_steps)
                peak = max(peak, seen)
                if y is not None:
                    steps[p], land[p] = j, y
            v, pos = v[~high], pos[~high]
        if not v.size or t == max_steps:
            return steps, land, peak
        # T(v) = v >> 1, plus v + 1 when v is odd
        odd = v & 1
        odd *= v + 1
        v >>= 1
        v += odd
        t += 1
        top = int(v.max())
        peak = max(peak, top)


def _fold_piece(table, lo: int, a: int, b: int, fail: int, walk: tuple) -> RangeSurvey:
    """Finish the starts of [a, b) from their walks and enter them in the table."""
    steps, land, peak = walk
    # Landing on 1 below lo wraps past the starts to the last slot, which holds 0.
    slot = np.minimum(land - np.uint64(lo), np.uint64(table.size - 1))
    tst = np.minimum(steps.astype(np.int64) + table[slot].astype(np.int64), fail)
    stored = min(b, lo + table.size - 1) - a
    if stored > 0:
        table[a - lo : a - lo + stored] = tst[:stored]
    starts = np.arange(a, b, dtype=np.uint64)
    ok = tst < fail
    done = np.where(ok, tst, -1)
    # argmax takes the first, smallest, start of a tie; failures read -1
    i = int(np.argmax(done))
    tst_best = (int(done[i]), a + i) if done[i] >= 0 else (None, None)
    skip = 1 if a == 1 else 0  # ln 1 = 0: start 1 has no ratio
    ratios = done[skip:] / np.log(starts[skip:].astype(np.float64))
    k = int(np.argmax(ratios)) if ratios.size else 0
    ratio_best = (None, None)
    if ratios.size and ratios[k] >= 0:
        ratio_best = (float(ratios[k]), a + skip + k)
    failures = tuple(starts[~ok].tolist())
    return RangeSurvey(a, b, int(ok.sum()), failures, *tst_best, *ratio_best, peak)


def survey_range(
    lo: int,
    hi: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> RangeSurvey:
    """Survey [lo, hi), optionally walking the pieces in worker processes.

    The pieces depend only on (lo, hi, chunk_size) and are folded in range
    order, so the result is byte-for-byte identical for every worker count.
    With workers > 1 one pool serves the whole survey, with no more workers
    than the widest wave has pieces or the machine has CPUs.
    """
    if lo < 1:
        raise ValueError("range must start at 1 or above")
    if hi <= lo:
        return _empty_survey(lo, hi)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    # Freeing one 16 MB block raises glibc's mmap threshold above a piece's
    # 2 MB temporaries, so they reuse heap pages instead of faulting in fresh
    # ones at every step: about a quarter of a first 2^22 survey's time.
    np.empty(1 << 21)
    budget = min(max(max_steps, 0), _MAX_BUDGET)
    table_end = min(hi, lo + TABLE_CAP)
    # The spare last slot stays 0: walks that land on 1 below lo, or that ran
    # out of budget (their steps already read max_steps + 1), look it up.
    table = np.zeros(table_end - lo + 1, dtype=np.min_scalar_type(budget + 1))
    waves = [(lo << k, min(lo << k + 1, hi)) for k in range(((hi - 1) // lo).bit_length())]
    pieces = [
        (a, min(a + chunk_size, wave_hi), lo, min(wave_lo, table_end), budget)
        for wave_lo, wave_hi in waves
        for a in range(wave_lo, wave_hi, chunk_size)
    ]
    widest = max(-(-(b - a) // chunk_size) for a, b in waves)
    pool_size = min(workers, widest, os.cpu_count() or 1)
    result = _empty_survey(lo, lo)
    failures: list[int] = []
    with ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else nullcontext() as pool:
        if pool is None:
            walks = (_walk_piece(*piece) for piece in pieces)
        else:
            walks = _walks_in_order(pool, pieces, 2 * pool_size)
        for (a, b, *_), walk in zip(pieces, walks):
            part = _fold_piece(table, lo, a, b, budget + 1, walk)
            # Pieces come in range order, so their failures append in order.
            failures.extend(part.failures)
            result = result.merge(replace(part, failures=()))
    return replace(result, failures=tuple(failures))


def _walks_in_order(pool, pieces: list, depth: int):
    """Yield the walks of the pieces in order, keeping `depth` of them in flight,
    so that finished walks cannot pile up when the parent folds slower."""
    pending: deque = deque()
    for piece in pieces:
        pending.append(pool.submit(_walk_piece, *piece))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
