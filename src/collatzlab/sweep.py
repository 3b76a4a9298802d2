"""Range surveys of shortcut trajectories by the residue shift law and table lookup.

A survey of [lo, hi) finds each start's total stopping time tst(x), the number
of shortcut steps to 1, the largest tst(x)/ln(x) and the largest value any
orbit reaches.  Since tst(x) = j + tst(T^j x) for any j up to the step that
reaches 1, a start walks only until it lands on a start already surveyed,
then adds that start's table entry; landing past the first such start
changes nothing.

Starts go in doubling waves [L, 2L) from L = lo, in increasing order, each cut
into pieces of `chunk_size`.  A piece [a, b) walks until each value lands on 1
or in [lo, a): pieces are folded in range order, so every start below a is in
the table when the piece is.  Values below lo have no entry and walk on.  The
table holds min(tst, max_steps + 1), the latter meaning "failed", for at most
TABLE_CAP starts: pieces above the cap walk until they drop below it, so
memory is bounded for any range.  It is one byte a start at any budget: an
entry holds the least of that and 255, and 255 means "in the side table",
sorted slots and exact values appended piece by piece in range order.  It
holds every stored entry that reaches 255, so at any budget no more than the
stored starts whose tst reaches 255: 23,240 of the first 2^24, the largest 441.

A piece walks by one level table, the residue shift law (Terras, 1976) at
k = LEVEL: T^j(2^k m + i) = slope[j, i] m + base[j, i] for i < 2^k and j <= k.
  * Class plan.  A class mod 2^k whose largest member in [a, b) lands below
    a at some level j <= min(k, max_steps), and, when lo > 1, whose smallest
    lands at or above lo, takes its first such j and lands on slope m + base,
    every member at once (the sieve of Oliveira e Silva, 1999).  At 2^22
    that is 93% of the starts.
  * Jumps.  The other starts walk in uint64 numpy arrays, k steps a pass on
    row k while every value is at least 2^(k+1), so that none reaches 1
    inside a jump, k steps of budget remain, and the values fit in uint64;
    else one step a pass, `_shortcut_step`, the step the table is built
    with.  A walk raises ArithmeticError before it steps a value above
    UINT64_SAFE_MAX, which every orbit from a start up to 10^9, the CLI's
    limit, stays 8.7 times below.

The peak stays exact.  After landing, an orbit goes on as a prefix of the
landed start's orbit, whose values were seen when that start was surveyed.
Before it, at each residue and level j, the line of largest slope among
levels 1..j also has the largest intercept (the table build checks it), so
the largest value a class or a jump passes is bound_slope m + bound_base,
which rises with m: a class's peak is at its largest member.

Walks never read the table, so with several workers a process pool walks the
pieces of this wave and later ones while the parent folds finished walks in
range order; with one worker the same walk runs in-process.  Ties go to the
smaller start, so the result is the same for every worker count and chunk
size.  `survey_chunk_python`, the plain walk of every start to 1, is the
reference.

The fold, the one serial part, gathers a byte a start.  A walk returns uint32
slots, landing - lo, or a sentinel for the spare last slot, 0, for a spent
budget or a landing on 1 below lo.  Each 255 gathered is looked up in the side
table, and tst = steps + min(entry, top - steps) saturates exactly at top, the
least of max_steps + 1 and the most steps + entry can reach, in top's dtype:
uint16 at 2^22 and the default budget.  A start x >= a
(ln a > 0) beats the ratio record R only if tst(x) > R ln x >= R ln a, so only
starts with tst >= floor(R ln a (1 - 1e-9)) take a log: the margin is six
orders of magnitude above the float rounding.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from collections.abc import Callable
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from .dynamics import DEFAULT_MAX_STEPS

# Largest value for which 3*x + 1 still fits in uint64: the walks step no
# value above it.  The largest value of any orbit from a start up to 10^9 is
# 707,118,223,359,971,240 (Oliveira e Silva's path records).
UINT64_SAFE_MAX = (2**64 - 2) // 3

# A piece of 2^18 starts keeps the walk's temporaries to a few MB each.
DEFAULT_CHUNK_SIZE = 1 << 18

# Starts held in the stopping-time table: 16 MB at any step budget, and a
# side table of 23,240 entries, 279 KB, to 2^24.
TABLE_CAP = 1 << 24

# Freeing one 16 MB block raises glibc's mmap threshold, which never falls,
# above a piece's 2 MB temporaries, so they reuse heap pages instead of faulting
# in fresh ones at every step: about a quarter of a first 2^22 survey's time.
np.empty(1 << 21)

# Walks jump LEVEL shortcut steps a pass, and the classes mod 2^LEVEL of a
# piece that land below its start within LEVEL steps land in closed form:
# 4 tables of 11 rows of 2^10 uint64s, 360 KB.
LEVEL = 10

# Budgets are clamped so that the table has a numpy dtype; no walk gets this long.
_MAX_BUDGET = 1 << 62

_SPARE = 2**32 - 1  # the table slot of a spent budget or of a landing on 1 below lo


class RangeSurvey(NamedTuple):
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

    def merge(self, other: RangeSurvey) -> RangeSurvey:
        """Combine two disjoint surveys; ties resolve to the smaller start."""
        tst, tst_arg = _merge_max(
            (self.max_total_stopping_time, self.tst_argmax),
            (other.max_total_stopping_time, other.tst_argmax),
        )
        ratio, ratio_arg = _merge_max(
            (self.max_ratio, self.ratio_argmax), (other.max_ratio, other.ratio_argmax)
        )
        return RangeSurvey(
            lo=min(self.lo, other.lo),
            hi=max(self.hi, other.hi),
            verified=self.verified + other.verified,
            failures=tuple(sorted(self.failures + other.failures)),
            max_total_stopping_time=tst,
            tst_argmax=tst_arg,
            max_ratio=ratio,
            ratio_argmax=ratio_arg,
            peak=max((p for p in (self.peak, other.peak) if p is not None), default=None),
        )


def _merge_max(a: tuple, b: tuple) -> tuple:
    if a[0] is None or b[0] is not None and (b[0], -b[1]) > (a[0], -a[1]):
        return b
    return a


def _empty_survey(lo: int, hi: int) -> RangeSurvey:
    return RangeSurvey(lo, hi, 0, (), None, None, None, None, None)


def survey_chunk_python(lo: int, hi: int, max_steps: int = DEFAULT_MAX_STEPS) -> RangeSurvey:
    """Reference implementation: walk every start to 1 with Python ints, no numpy."""
    if hi <= lo:
        return _empty_survey(lo, hi)
    # The step inline, not through step_general: 2^16 starts walk in 1.9 s
    # against 3.1 s (medians of 5 paired runs, 2-vCPU Xeon, Python 3.11).
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


class _LevelTable(NamedTuple):
    """T^j(2^k m + i) = slope[j, i] m + base[j, i] for i < 2^k and j <= k.

    bound_slope[j, i] m + bound_base[j, i] is the largest of levels 1..j,
    and safe_max the largest start whose values for j <= k all fit in uint64.
    """

    k: int
    slope: np.ndarray
    base: np.ndarray
    bound_slope: np.ndarray
    bound_base: np.ndarray
    safe_max: int


def _shortcut_step(x: np.ndarray, odd: np.ndarray) -> None:
    """One 3n+1 shortcut step on a uint64 array in place; odd ends as the old parities.

    x >> 1, plus x + 1 where x is odd: 3x is never formed, and 0 stays 0.
    """
    np.bitwise_and(x, 1, out=odd)
    odd *= x
    x >>= 1
    x += odd
    odd &= 1
    x += odd


@functools.lru_cache(maxsize=None)
def _level_table(k: int) -> _LevelTable:
    """Walk the residues i and 2^k + i together: the first is base, the gap slope."""
    width = 1 << k
    v = np.arange(2 * width, dtype=np.uint64)
    slope = np.empty((k + 1, width), dtype=np.uint64)
    base, odd = np.empty_like(slope), np.empty_like(v)
    slope[0], base[0] = width, v[:width]
    for j in range(1, k + 1):
        _shortcut_step(v, odd)
        base[j] = v[:width]
        np.subtract(v[width:], v[:width], out=slope[j])
    bound_slope, bound_base = np.zeros_like(slope), np.zeros_like(base)
    np.maximum.accumulate(slope[1:], axis=0, out=bound_slope[1:])
    np.maximum.accumulate(base[1:], axis=0, out=bound_base[1:])
    # The maximum of the lines is the line of largest slope only if that line
    # also has the largest intercept: then each new level either beats the
    # best line so far on both or on neither.
    for j in range(2, k + 1):
        up, down = slope[j] > bound_slope[j - 1], slope[j] < bound_slope[j - 1]
        if (up & (base[j] < bound_base[j - 1]) | down & (base[j] > bound_base[j - 1])).any():
            raise ArithmeticError(f"level {j} of the level-{k} table has no largest line")
    for table in (slope, base, bound_slope, bound_base):
        table.flags.writeable = False  # one table serves every walk in the process
    rows = (np.uint64(2**64 - 1) - bound_base[k]) // bound_slope[k]
    return _LevelTable(k, slope, base, bound_slope, bound_base, (int(rows.min()) + 1 << k) - 1)


def _class_plan(tab: _LevelTable, a: int, b: int, lo: int, stop_hi: int, levels: int):
    """The first level <= levels at which each class mod 2^k of [a, b) lands,
    every member at once, on 1 or in [lo, stop_hi); 0 where it does not.

    Returns the levels and the largest value the landed classes pass.  Every
    member is at least 2^k, so none passes 1 before level k; the values of a
    class rise with m, so its largest member bounds the landing and the peak
    and, when lo > 1, its smallest the landing's lower end.
    """
    width = 1 << tab.k
    level = np.zeros(width, dtype=np.intp)
    if levels < 1 or a < width or b - 1 > tab.safe_max:
        return level, b - 1
    cls = np.arange(width, dtype=np.uint64)
    most = (np.uint64(b - 1) - cls) >> np.uint64(tab.k)
    least = ((np.uint64(a - 1) - cls) >> np.uint64(tab.k)) + np.uint64(1)
    slope, base = tab.slope[1 : levels + 1], tab.base[1 : levels + 1]
    lands = slope * most + base < stop_hi
    if lo > 1:
        lands &= slope * least + base >= lo
    first = lands.argmax(axis=0)
    planned = lands[first, cls] & (least <= most)
    if not planned.any():
        return level, b - 1
    level[planned] = first[planned] + 1
    j, i = level[planned], cls[planned]
    peak = tab.bound_slope[j, i] * most[planned] + tab.bound_base[j, i]
    return level, max(b - 1, int(peak.max()))


def _walk_piece(
    a: int, b: int, lo: int, stop_hi: int, max_steps: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk every start in [a, b) until it lands on 1 or in [lo, stop_hi).

    Returns (steps, slot, peak): the steps each walk took, the uint32 table
    slot (landing - lo) of the value it landed on, and the largest value
    seen.  A walk that runs out of budget first reads max_steps + 1 steps and
    slot _SPARE, as does a landing on 1 below lo.  A walk may pass over
    [lo, stop_hi) and land later, never past 1 or its budget.  Raises
    ArithmeticError before it steps a value above UINT64_SAFE_MAX.
    """
    k = LEVEL
    tab = _level_table(k)
    width, n = 1 << k, b - a
    level, peak = _class_plan(tab, a, b, lo, stop_hi, min(k, max_steps))
    # The starts as rows m of the classes i mod 2^k, from row a >> k: the
    # planned classes land on slope * m + base a row at a time.  The slot,
    # landing - lo, is below TABLE_CAP < 2^32, so it is exact mod 2^32.
    planned, cls = level > 0, np.arange(width)
    rows = np.arange(a >> k, ((b - 1) >> k) + 1, dtype=np.uint64).astype(np.uint32)
    cut = slice(a & (width - 1), (a & (width - 1)) + n)
    slot = np.multiply.outer(rows, np.where(planned, tab.slope[level, cls], 0).astype(np.uint32))
    slot += np.where(planned, tab.base[level, cls] - np.uint64(lo), _SPARE).astype(np.uint32)
    slot = slot.reshape(-1)[cut]
    dtype = np.min_scalar_type(max_steps + 1)
    steps = np.tile(np.where(planned, level, max_steps + 1).astype(dtype), rows.size)[cut]
    pos = np.flatnonzero(np.tile(~planned, rows.size)[cut])
    v = pos.astype(np.uint64)
    v += np.uint64(a)
    jump_slope, jump_base = tab.slope[k], tab.base[k]
    bound_slope, bound_base = tab.bound_slope[k], tab.bound_base[k]
    steepest, highest = int(bound_slope.max()), int(bound_base.max())
    # With lo = 1 every value below stop_hi has stopped, so none is below 2^(k+1).
    clear = lo == 1 and stop_hi >= 2 * width
    t, top = 0, b - 1
    while True:
        # a walk stops on 1 or on a start in [lo, stop_hi)
        if lo == 1 < stop_hi:
            stop = v < stop_hi
        else:
            stop = ((v >= lo) & (v < stop_hi)) | (v == 1)
        hit = np.flatnonzero(stop)
        if hit.size:
            steps[pos[hit]] = t
            slot[pos[hit]] = np.minimum(v[hit] - np.uint64(lo), _SPARE)  # 1 - lo wraps
            keep = np.flatnonzero(~stop)
            v, pos = v[keep], pos[keep]
        if not v.size or t == max_steps:
            # steps in the narrowest dtype that holds them: less memory for
            # the walks a pool has finished while the parent folds
            return steps.astype(np.min_scalar_type(int(steps.max()))), slot, peak
        if top > UINT64_SAFE_MAX and int(v.max()) > UINT64_SAFE_MAX:
            raise ArithmeticError(f"a walk from [{a}, {b}) passes {UINT64_SAFE_MAX}, "
                                  "where 3x + 1 overflows uint64")
        # k steps at once when no value can reach 1 inside them (each is at
        # least 2^(k+1)), the budget has k steps left and they fit in uint64
        if max_steps - t >= k and top <= tab.safe_max and (clear or int(v.min()) >= 2 * width):
            i = v & np.uint64(width - 1)
            v >>= np.uint64(k)
            if steepest * (top >> k) + highest > peak:
                bound = bound_slope[i]
                bound *= v
                bound += bound_base[i]
                peak = max(peak, int(bound.max()))
            m, v = v, jump_slope[i]
            v *= m
            v += jump_base[i]
            t += k
        else:
            _shortcut_step(v, np.empty_like(v))
            t += 1
        top = int(v.max())
        peak = max(peak, top)


def _fold_piece(
    table: np.ndarray, side: list, lo: int, a: int, b: int, fail: int, record, walk: tuple
) -> RangeSurvey:
    """Finish the starts of [a, b) from their walks and the ratio record before a
    (or None), and enter them in the uint8 table and the side table [slots, values]."""
    steps, slot, peak = walk
    np.minimum(slot, table.size - 1, out=slot)  # _SPARE reads the spare last slot, 0
    # tst = steps + min(entry, top - steps): top < fail only where no steps + entry passes it
    top = min(fail, int(steps.max()) + max(255, int(side[1].max(initial=0))))
    tst = np.subtract(top, steps, dtype=np.min_scalar_type(top))
    entry = table[slot]
    far = np.flatnonzero(entry == 255)
    left = tst[far]
    np.minimum(tst, entry, out=tst)
    del entry  # its byte a start is free again for the masks below
    tst[far] = np.minimum(left, side[1][np.searchsorted(side[0], slot[far])])
    tst += steps
    stored = min(b, lo + table.size - 1) - a
    if stored > 0:
        # the low bytes, a plain copy, then 255 where tst reaches it
        table[a - lo : a - lo + stored] = tst[:stored]
        far = np.flatnonzero(tst[:stored] >= 255)
        table[far + (a - lo)] = 255
        side[0] = np.concatenate((side[0], (far + (a - lo)).astype(np.uint32)))
        side[1] = np.concatenate((side[1], tst[far]))
    failures = ()
    i = int(tst.argmax())  # argmax takes the first, smallest, start of a tie
    if tst[i] == fail:
        failed = tst == fail
        failures = tuple((np.flatnonzero(failed).astype(np.uint64) + np.uint64(a)).tolist())
        tst[failed] = 0  # below every tst but start 1's, which never fails
        i = int(tst.argmax())
    verified = b - a - len(failures)
    tst_best = (int(tst[i]), a + i) if verified else (None, None)
    # x >= first beats R only if fl(t / fl(ln x)) >= R, so, as each rounding is
    # within 1e-15, t >= R ln x (1 - 1e-15) >= R ln first (1 - 1e-15).  The floor
    # rounds three times too, so fl(fl(R fl(ln first)) (1 - 1e-9)) is below that
    # and t is at least its floor.  Failures, now 0, stay below a floor >= 1.
    first = max(a, 2)  # ln 1 = 0: start 1 has no ratio
    floor = 1 if record is None else max(1, math.floor(record * math.log(first) * (1 - 1e-9)))
    cand = np.flatnonzero(tst[first - a :] >= floor)
    ratio_best = (None, None)
    if cand.size:  # the starts in uint64: near 2^64 they overflow int64
        x = (cand.astype(np.uint64) + np.uint64(first)).astype(np.float64)
        ratios = tst[first - a :][cand] / np.log(x)
        k = int(ratios.argmax())
        ratio_best = (float(ratios[k]), first + int(cand[k]))
    return RangeSurvey(a, b, verified, failures, *tst_best, *ratio_best, peak)


def survey_range(
    lo: int,
    hi: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    failure_budget: Callable[[int], None] | None = None,
) -> RangeSurvey:
    """Survey [lo, hi), optionally walking the pieces in worker processes.

    The pieces depend only on (lo, hi, chunk_size) and are folded in range
    order, so the result is byte-for-byte identical for every worker count.
    With workers > 1 one pool serves the whole survey, with no more workers
    than the widest wave has pieces or the machine has CPUs.  After each
    piece, `failure_budget` (if given) is called with the number of failures
    the survey would then hold, before it holds them; it may raise to stop.
    """
    if lo < 1:
        raise ValueError("range must start at 1 or above")
    if hi <= lo:
        return _empty_survey(lo, hi)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    budget = min(max(max_steps, 0), _MAX_BUDGET)
    table_end = min(hi, lo + TABLE_CAP)
    # The spare last slot stays 0 for the walks that read slot _SPARE.
    table = np.zeros(table_end - lo + 1, np.uint8)
    side = [np.zeros(0, np.uint32), np.zeros(0, np.uint64)]
    assert table.size - 1 <= TABLE_CAP < _SPARE  # slots fit in uint32
    waves = [(lo << k, min(lo << k + 1, hi)) for k in range(((hi - 1) // lo).bit_length())]
    pieces = [
        (a, min(a + chunk_size, wave_hi), lo, min(a, table_end), budget)
        for wave_lo, wave_hi in waves
        for a in range(wave_lo, wave_hi, chunk_size)
    ]
    widest = max(-(-(b - a) // chunk_size) for a, b in waves)
    pool_size = min(workers, widest, os.cpu_count() or 1)
    result = _empty_survey(lo, lo)
    failures: list[int] = []
    pool, walks = nullcontext(), (_walk_piece(*piece) for piece in pieces)
    if pool_size > 1:  # only a pool run pays for importing multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=pool_size)
        walks = _walks_in_order(pool, pieces, 2 * pool_size)
    with pool:
        for a, b, *_ in pieces:
            walk = next(walks)
            part = _fold_piece(table, side, lo, a, b, budget + 1, result.max_ratio, walk)
            del walk  # freed before the next walk is made, not held through it
            if failure_budget is not None:
                failure_budget(len(failures) + len(part.failures))
            # Pieces come in range order, so their failures append in order.
            failures.extend(part.failures)
            result = result.merge(part._replace(failures=()))
    return result._replace(failures=tuple(failures))


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
