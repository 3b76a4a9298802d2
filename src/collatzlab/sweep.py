"""Range surveys of shortcut trajectories by the residue shift law and table lookup.

A survey of [lo, hi) finds each start's total stopping time tst(x), the number
of shortcut steps to 1, the largest tst(x)/ln(x) and the largest value any
orbit reaches.  Since tst(x) = j + tst(T^j x) for any j up to the step that
reaches 1, a start walks only until it lands on a start already surveyed,
then adds that start's table entry; landing past the first such start
changes nothing.

Starts go in doubling waves [L, 2L) from L = lo, in increasing order, each cut
into pieces of `chunk_size`.  A piece [a, b) walks until each value lands on 1
or on an odd start in [lo, a): pieces are folded in range order, so every
start below a is in the table when the piece is.  Values below lo have no
entry and walk on.  The table holds min(tst, max_steps + 1), the latter
meaning "failed", for the odd starts only, since tst(2y) = 1 + tst(y): the
odd start y at slot y // 2 - lo // 2, for at most TABLE_CAP odd starts, so
2 TABLE_CAP starts.  Pieces above the cap walk until they drop below it, so
memory is bounded for any range.  It is one byte an entry, half a byte a
start, at any budget: an entry holds the least of that and 255, and 255 means
"in the side table", sorted slots and exact values appended piece by piece in
range order to arrays whose capacity doubles.  It holds every stored entry
that reaches 255, so at any budget no more than the stored odd starts whose
tst reaches 255: 48,333 of the first 2^25 starts, the largest 442.

A piece walks by one level table, the residue shift law (Terras, 1976) at
k = LEVEL: T^j(2^k m + i) = slope[j, i] m + base[j, i] for i < 2^k and j <= k,
with slope = 3^p 2^(k-j).  Below level k slope is even, so every member of a
class has base's parity there (Terras' parity bijection); at level k slope is
3^p, and the parity alternates with m.
  * Class plan.  A class mod 2^k whose largest member in [a, b) lands below
    a at some level j <= min(k, max_steps), on an odd value if j < k, and,
    when lo > 1, whose smallest lands at or above lo, takes its first such j
    and lands on slope m + base, every member at once (the sieve of Oliveira
    e Silva, 1999); at level k only the rows m where that is odd land, and
    the others walk.  At 2^22 that is 89.7% of the starts, 91.2% in the top
    two waves.
  * Jumps.  The other starts walk in uint64 numpy arrays, k steps a pass on
    row k while every value is at least 2^(k+1), so that none reaches 1
    inside a jump, k steps of budget remain, and the values fit in uint64;
    else one step a pass, `_shortcut_step`, the step the table is built
    with.  A value that stops on an even y goes on to y's odd part, v2(y)
    halvings later; if lo > 1 and that part is below lo and not 1, it walks
    on instead.  A walk raises ArithmeticError before it steps a value above
    UINT64_SAFE_MAX, which every orbit from a start up to 10^9, the CLI's
    limit, stays 8.7 times below.

The peak stays exact.  After landing, an orbit goes on as a prefix of the
landed start's orbit, whose values were seen when that start was surveyed.
Before it, at each residue and level j, the line of largest slope among
levels 1..j also has the largest intercept (the table build checks it), so
the largest value a class or a jump passes is bound_slope m + bound_base,
which rises with m: a class's peak is at its largest member.

Walks never read the table, so with n workers the calling thread walks every
n-th piece itself and a pool of n - 1 threads the others, of this wave and
later ones, while the calling thread folds finished walks in range order;
with one worker every walk runs in that thread.  The walks spend their time
in numpy ufuncs, which release the GIL, and share the read-only level table.
Ties go to the smaller start, so the result is the same for every worker
count and chunk size.  `survey_chunk_python`, the plain walk of every start
to 1, is the reference.

The fold, the one serial part, gathers a byte a start and stores one for
each odd start.  A walk returns a byte a step count unless one passes 255,
and uint32 slots, y // 2 - lo // 2 for a landing on the odd y, or a sentinel
for the spare last slot, 0, for a spent budget or a landing on 1 below lo.
Each 255 gathered is looked up in the side table, and
tst = steps + min(entry, top - steps) saturates exactly at top, the least of
max_steps + 1 and the most steps + entry can reach, in top's dtype: uint16 at
2^22 and the default budget.  A start x >= a (ln a > 0) beats the ratio
record R only if tst(x) > R ln x >= R ln a, so only starts with
tst >= floor(R ln a (1 - 1e-9)) take a log: the margin is six orders of
magnitude above the float rounding.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from collections.abc import Callable
from contextlib import closing
from typing import NamedTuple

import numpy as np

from .dynamics import DEFAULT_MAX_STEPS

# Largest value for which 3*x + 1 still fits in uint64: the walks step no
# value above it.  The largest value of any orbit from a start up to 10^9 is
# 707,118,223,359,971,240 (Oliveira e Silva's path records).
UINT64_SAFE_MAX = (2**64 - 2) // 3

# A piece of 2^18 starts keeps the walk's temporaries to a few MB each.
DEFAULT_CHUNK_SIZE = 1 << 18

# Odd starts held in the stopping-time table, so it reaches 2^25 starts: 16 MB
# at any step budget, and a side table of 48,333 entries to 2^25, 8 bytes each
# at the default budget, in arrays of 65,536 (524 KB).
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

_GATHER = 1 << 14  # slots the fold gathers a block: 128 KB of intp indices


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
    every member at once, in [lo, stop_hi), on an odd value below level k;
    0 where it does not.

    Returns the levels and the largest value the landed classes pass.  Every
    member is at least 2^k, so none passes 1 before level k; below level k a
    class's values share the parity of base, since slope is even, and at level
    k, where slope is 3^p, they alternate with m: `_walk_piece` lands the odd
    rows there and walks the others.  The values of a class rise with m, so
    its largest member bounds the landing and the peak and, when lo > 1, its
    smallest the landing's lower end.
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
    lands[: tab.k - 1] &= (base[: tab.k - 1] & np.uint64(1)) == 1
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
    """Walk every start in [a, b) until it lands on 1 or on an odd start in [lo, stop_hi).

    Returns (steps, slot, peak): the steps each walk took, the uint32 table
    slot y // 2 - lo // 2 of the odd value y it landed on, and the
    largest value seen.  A walk that runs out of budget first reads
    max_steps + 1 steps and slot _SPARE, as does a landing on 1 below lo.  A
    walk may pass over [lo, stop_hi) and land later, never past 1 or its
    budget.  Raises ArithmeticError before it steps a value above
    UINT64_SAFE_MAX.
    """
    k = LEVEL
    tab = _level_table(k)
    width, n = 1 << k, b - a
    level, peak = _class_plan(tab, a, b, lo, stop_hi, min(k, max_steps))
    # The starts as rows m of the classes i mod 2^k, in pairs (even m, odd m)
    # from row a >> k or the one before.  A class planned at level k lands on
    # 3^p m + base where that is odd, in the rows m of the other parity than
    # base; the other starts' places in the piece come a pair of rows at a
    # time, with no mask a start.
    one, cls, first = np.uint64(1), np.arange(width), (a >> k) & ~1
    planned, top, odd = level > 0, level == k, (tab.base[k] & one).astype(bool)
    even_m, odd_m = np.flatnonzero(~planned | top & ~odd), np.flatnonzero(~planned | top & odd)
    m = np.arange(first, ((b - 1) >> k | 1) + 1, dtype=np.uint64)
    cut = slice(a - (first << k), a - (first << k) + n)
    walkers = np.append(even_m, odd_m + width)  # in a pair of rows
    pos = np.add.outer(np.arange(0, m.size, 2) * width - cut.start, walkers)
    pos = pos[(pos >= 0) & (pos < n)]
    walked, landed, peak = _walk_starts(tab, a, b, pos, lo, stop_hi, max_steps, peak)
    # The piece's arrays are made once the walks' temporaries are free again,
    # so that a walk in flight never holds both.  The planned classes land on
    # odd values y = slope m + base a row at a time, with slot y // 2 - lo // 2,
    # slope (m // 2) plus: below level k, where slope is even, (slope // 2)
    # (m % 2) + base // 2 - lo // 2; at level k, in the rows of m % 2 = p,
    # where p = 1 - base % 2, (slope p + base) // 2 - lo // 2.  The slot is
    # below TABLE_CAP < 2^32, so it is exact mod 2^32.
    slope = np.where(planned, tab.slope[level, cls], 0).astype(np.uint32)  # at most 3^k
    slot = np.multiply.outer((m >> one).astype(np.uint32), slope)
    base = tab.base[level, cls] + np.where(top & ~odd, slope, 0)
    base = np.where(planned, (base >> one) - np.uint64(lo >> 1), _SPARE)
    pairs = slot.reshape(-1, 2, width)
    pairs += np.stack((base, base + np.where(top, 0, slope >> 1))).astype(np.uint32)
    slot = slot.reshape(-1)[cut]
    slot[pos] = landed
    steps = np.tile(level.astype(walked.dtype), m.size)[cut]  # planned levels are at most k
    steps[pos] = walked
    return steps, slot, peak


def _walk_starts(
    tab: _LevelTable, a: int, b: int, pos: np.ndarray, lo: int, stop_hi: int, max_steps: int,
    peak: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk the starts a + pos of the piece [a, b) as `_walk_piece` does, from
    the peak of its planned classes; returns their steps, slots and the peak.

    A value that stops on an even y in [lo, stop_hi) lands on its odd part
    y >> v2(y), v2(y) halvings on, the start whose entry the table holds, or
    fails if those pass the budget; if lo > 1 and the odd part is below lo
    and not 1, the value walks on unshifted.  The steps are a byte each while
    they fit, and widen to the budget's dtype only when a walk passes 255
    steps or a spent budget must read max_steps + 1; they return in the
    narrowest dtype that holds them.
    """
    k = tab.k
    width, wide = 1 << k, np.min_scalar_type(max_steps + 1)
    one, below = np.uint64(1), np.uint64(lo >> 1)
    steps, slot = np.zeros(pos.size, np.uint8), np.full(pos.size, _SPARE, np.uint32)
    u = np.arange(pos.size, dtype=np.uint32)  # the place in pos of each value still walking
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
            y = v[hit]
            # v2(y) from y's lowest set bit, a float64 exactly, whose exponent is 1023 + v2(y)
            halvings = (y & (~y + one)).astype(np.float64).view(np.uint64) >> np.uint64(52)
            halvings -= np.uint64(1023)
            y >>= halvings  # the odd part
            if lo > 1:  # no entry for an odd part below lo but 1: that value walks on
                on = (y < lo) & (y != 1)
                if on.any():
                    stop[hit[on]] = False
                    hit, y, halvings = hit[~on], y[~on], halvings[~on]
            at, most = u[hit], t + int(halvings.max(initial=0))
            halvings += np.uint64(t)  # the steps to the landing
            if most > 255:
                steps = steps.astype(wide, copy=False)
            y >>= one
            y -= below  # the slot; a landing on 1 below lo wraps
            if most > max_steps:  # halvings that pass the budget spend it
                spent = halvings > max_steps
                halvings[spent], y[spent] = max_steps + 1, _SPARE
            steps[at] = halvings
            slot[at] = np.minimum(y, _SPARE)
            del y, halvings, at
            np.logical_not(stop, out=stop)  # the walks that go on, by mask
            v, u = v.compress(stop), u.compress(stop)
        del stop
        if not v.size or t == max_steps:
            if v.size:
                steps = steps.astype(wide, copy=False)
                steps[u] = max_steps + 1
            steps = steps.astype(np.min_scalar_type(int(steps.max(initial=0))), copy=False)
            return steps, slot, peak
        if top > UINT64_SAFE_MAX and int(v.max()) > UINT64_SAFE_MAX:
            raise ArithmeticError(f"a walk from [{a}, {b}) passes {UINT64_SAFE_MAX}, "
                                  "where 3x + 1 overflows uint64")
        # k steps at once when no value can reach 1 inside them (each is at
        # least 2^(k+1)), the budget has k steps left and they fit in uint64
        if max_steps - t >= k and top <= tab.safe_max and (clear or int(v.min()) >= 2 * width):
            i = v.view(np.int64) & (width - 1)  # intp indices gather without a cast
            v >>= np.uint64(k)
            if steepest * (top >> k) + highest > peak:
                bound = bound_slope[i]
                bound *= v
                bound += bound_base[i]
                peak = max(peak, int(bound.max()))
                del bound
            m, v = v, jump_slope[i]
            v *= m
            del m  # freed before jump_base[i] is gathered
            v += jump_base[i]
            t += k
        else:
            _shortcut_step(v, np.empty_like(v))
            t += 1
        top = int(v.max())
        peak = max(peak, top)


class _SideTable:
    """The stored entries that reach 255: their slots, sorted, and exact values
    in the least dtype that holds the budget + 1 they saturate at.

    Entries append in range order to the first `size` places of arrays whose
    capacity doubles, so a growth copies the filled part once in a while, not
    the whole table at every piece, and leaves the rest of the new arrays
    unwritten; lookups search the filled part.
    """

    def __init__(self, dtype: np.dtype) -> None:
        self.slots = np.zeros(0, np.uint32)
        self.values = np.zeros(0, dtype)
        self.size = 0
        self.most = 0  # the largest value, 0 while empty

    def extend(self, slots: np.ndarray, values: np.ndarray) -> None:
        end = self.size + slots.size
        if end > self.slots.size:
            cap = max(end, 2 * self.slots.size)
            self.slots = _grown(self.slots, self.size, cap)
            self.values = _grown(self.values, self.size, cap)
        self.slots[self.size : end] = slots
        self.values[self.size : end] = values
        self.size = end
        self.most = max(self.most, int(values.max(initial=0)))

    def lookup(self, slots: np.ndarray) -> np.ndarray:
        """The values of slots that the table holds."""
        return self.values[np.searchsorted(self.slots[: self.size], slots)]


def _grown(array: np.ndarray, size: int, cap: int) -> np.ndarray:
    grown = np.empty(cap, array.dtype)
    grown[:size] = array[:size]
    return grown


def _fold_piece(
    table: np.ndarray, side: _SideTable, lo: int, a: int, b: int, fail: int, record,
    walk: tuple,
) -> RangeSurvey:
    """Finish the starts of [a, b) from their walks and the ratio record before a
    (or None), and enter the odd ones in the uint8 table, the odd start y at slot
    y // 2 - lo // 2, and in the side table."""
    steps, slot, peak = walk
    # The gather a block at a time, whose slots widen to intp in cache: half the
    # time of table[slot].  Clipped, _SPARE reads the spare last slot, 0.  It
    # runs before tst is made, so that a block's indices never add to its bytes.
    entry = np.empty(slot.size, np.uint8)
    for i in range(0, slot.size, _GATHER):
        np.take(table, slot[i : i + _GATHER], out=entry[i : i + _GATHER], mode="clip")
    # tst = steps + min(entry, top - steps): top < fail only where no steps + entry passes it
    top = min(fail, int(steps.max()) + max(255, side.most))
    tst = np.subtract(top, steps, dtype=np.min_scalar_type(top))
    far = np.flatnonzero(entry == 255)
    left = tst[far]
    np.minimum(tst, entry, out=tst)
    del entry  # its byte a start is free again for the masks below
    tst[far] = np.minimum(left, side.lookup(slot[far]))
    tst += steps
    # the piece's odd starts, from a + odd, that have a slot below the spare one
    odd, at = 1 - (a & 1), (a >> 1) - (lo >> 1)
    stored = tst[odd : max(0, 2 * ((lo >> 1) + table.size - 1) - a) : 2]
    if stored.size:
        # the low bytes, a plain copy, then 255 where tst reaches it
        table[at : at + stored.size] = stored
        far = np.flatnonzero(stored >= 255)
        table[far + at] = 255
        side.extend((far + at).astype(np.uint32), stored[far])
        del stored, far
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
    """Survey [lo, hi), optionally walking the pieces in worker threads.

    The pieces depend only on (lo, hi, chunk_size) and are folded in range
    order, so the result is byte-for-byte identical for every worker count.
    With workers > 1 the calling thread and one pool of threads walk the whole
    survey, with no more walkers than the widest wave has pieces or the
    machine has CPUs, the calling thread counted.  After each
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
    # The table's slots are the odd starts of [lo, table_end) and a spare last
    # slot, which stays 0 for the walks that read slot _SPARE.
    table_end = min(hi, lo + 2 * TABLE_CAP)
    table = np.zeros((table_end >> 1) - (lo >> 1) + 1, np.uint8)
    side = _SideTable(np.min_scalar_type(budget + 1))  # values are at most budget + 1
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
    _level_table(LEVEL)  # built here, before two worker threads could both build it
    walks = (_walk_piece(*piece) for piece in pieces)
    if pool_size > 1:
        walks = _walks_in_order(pieces, pool_size)
    with closing(walks):
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


def _walks_in_order(pieces: list, size: int):
    """Yield the walks of the pieces in order from `size` walkers: the calling
    thread walks every size-th piece itself and `size` - 1 worker threads the
    others, with at most `size` walks in flight, the one being folded included,
    so that finished walks cannot pile up when the fold is slower.  Closing the
    generator, or an exception from a walk, cancels the walks not yet started
    and joins the threads.
    """
    from concurrent.futures import Future, ThreadPoolExecutor

    pool, pending = ThreadPoolExecutor(max_workers=size - 1), deque()
    try:
        for i, piece in enumerate(pieces):
            if len(pending) == size:
                yield pending.popleft().result()
            if i % size == size - 1:
                pending.append(Future())
                pending[-1].set_result(_walk_piece(*piece))
            else:
                pending.append(pool.submit(_walk_piece, *piece))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
