"""Range surveys of shortcut trajectories by the residue shift law and table lookup.

A survey of [1, hi) finds each start's total stopping time tst(x), the number
of shortcut steps to 1, the largest tst(x)/ln(x) and the largest value any
orbit reaches.  Since tst(x) = j + tst(T^j x) for any j up to the step that
reaches 1, a start walks only until it lands on a start already surveyed,
then adds that start's table entry; landing past the first such start
changes nothing.

The first piece, [1, 2^(LEVEL+1)), walks every start to 1.  Then starts go in
doubling waves [L, 2L), each cut into pieces of `chunk_size`.  A later piece
[a, b) walks until each value lands on an odd start below a: pieces are
folded in range order, so every start below a is in the table when the piece
is.  The table holds min(tst, max_steps + 1), the latter meaning "failed",
for the odd starts only, since tst(2y) = 1 + tst(y): the odd start y at slot
y // 2, for at most TABLE_CAP odd starts, so 2 TABLE_CAP starts.  Pieces
above the cap walk until they drop below it, so memory is bounded for any
range.  It is one byte an entry, half a byte a start, at any budget: an entry
holds the least of that and 255, and 255 means "in the side table", sorted
slots and exact values appended piece by piece in range order to arrays
whose capacity doubles.  It holds every stored entry that reaches 255, so at
any budget no more than the stored odd starts whose tst reaches 255: 48,333
of the first 2^25 starts, the largest 442.

The same identity serves the even starts.  The table ends at table_end =
min(hi, 2 TABLE_CAP), and a later piece [a, b) with b <= 2 table_end, every
one of a survey of up to 2^26 starts, holds its odd starts only, the 512 odd
classes mod 2^LEVEL: its class plan, walks and fold cover those alone.  Its
even start x = 2y has y in [ceil(a/2), ceil(b/2)), below a, so folded, and
below table_end, so entered if odd, and tst(x) = 1 + tst(y), an even y
halving again.  The fold reads what the even starts contribute off the table
by threshold scans, level by level (`_even_starts`): those that fail, and
those whose tst reaches the piece's odd best or the ratio record's floor.
Their orbits go on below b, so the peak needs none of them.  The first
piece, which holds their halves itself, and pieces past 2 table_end hold
every start.

A piece walks by one level table, the residue shift law (Terras, 1976) at
k = LEVEL: T^j(2^k m + i) = slope[j, i] m + base[j, i] for i < 2^k and j <= k,
with slope = 3^p 2^(k-j).  Below level k slope is even, so every member of a
class has base's parity there (Terras' parity bijection); at level k slope is
3^p, and the parity alternates with m.
  * Class plan.  A class mod 2^k whose largest member in [a, b) lands below
    a at some level j <= min(k, max_steps), on an odd value if j < k, takes
    its first such j and lands on slope m + base, every member at once (the
    sieve of Oliveira e Silva, 1999); at level k only the rows m where that
    is odd land, and the others walk.  At 2^22 that is 79.6% of the odd
    starts, 82.5% in the top two waves.
  * Jumps.  The other starts walk in uint64 numpy arrays, k steps a pass on
    row k while k steps of budget remain and the values fit in uint64, in a
    piece that lands below stop_hi >= 2^(k+1), so that no walking value
    reaches 1 inside a jump; else one step a pass, `_shortcut_step`, the
    step the table is built with.  A value that stops on an even y goes on
    to y's odd part, v2(y) halvings later.  A walk raises ArithmeticError
    before it steps a value above UINT64_SAFE_MAX, which every orbit from a
    start up to 10^9, the CLI's limit, stays 8.7 times below.

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
The fold adds each piece's counts to running ones and appends its failures;
a piece takes a best only when its own is strictly greater, and every start
of a later piece is larger, so ties go to the smaller start and the result is
the same for every worker count and chunk size.  `survey_chunk_python`, the
plain walk of every start to 1, is the reference.

The fold, the one serial part, gathers a byte a start it holds and stores
one for each odd start.  A walk returns a byte a step count unless one
passes 255, and uint32 slots, y // 2 for a landing on the odd y, or for a
spent budget a sentinel for the spare last slot, 0.  Each 255 gathered is
looked up in the side table, and tst = steps + min(entry, top - steps)
saturates exactly at top, the least of max_steps + 1 and the most
steps + entry can reach, in top's dtype: uint16 at 2^22 and the default
budget.  A start x >= a (ln a > 0) beats the ratio record R only if
tst(x) > R ln x >= R ln a, so only starts with tst >= floor(R ln a (1 - 1e-9))
take a log: the margin is six orders of magnitude above the float rounding.
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

_SPARE = 2**32 - 1  # the table slot of a spent budget

_GATHER = 1 << 14  # slots the fold gathers a block: 128 KB of intp indices


class RangeSurvey(NamedTuple):
    """Aggregated outcome of walking every start of a range to 1."""

    verified: int
    failures: tuple[int, ...]
    max_total_stopping_time: int | None
    tst_argmax: int | None
    max_ratio: float | None
    ratio_argmax: int | None
    peak: int | None


_EMPTY = RangeSurvey(0, (), None, None, None, None, None)


def survey_chunk_python(lo: int, hi: int, max_steps: int = DEFAULT_MAX_STEPS) -> RangeSurvey:
    """Reference implementation: walk every start to 1 with Python ints, no numpy."""
    if hi <= lo:
        return _EMPTY
    # The step inline, not through step_general, whose call and argument check
    # cost more than the step: they double the time of this walk.
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
    return RangeSurvey(len(done), tuple(failures), *tst, *ratio, peak)


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


def _class_plan(tab: _LevelTable, a: int, b: int, stop_hi: int, levels: int, odd: bool = False):
    """The first level <= levels at which each class mod 2^k of [a, b), or with
    `odd` each odd class, lands, every member at once, below stop_hi, on an
    odd value below level k; 0 where it does not.

    Returns the levels and the largest value the landed classes pass.  Every
    member is at least 2^k, so none passes 1 before level k; below level k a
    class's values share the parity of base, since slope is even, and at level
    k, where slope is 3^p, they alternate with m: `_walk_piece` lands the odd
    rows there and walks the others.  The values of a class rise with m, so
    its largest member bounds the landing and the peak.
    """
    held = slice(int(odd), None, 1 + odd)  # the classes of the piece's starts
    cls = np.arange(1 << tab.k, dtype=np.uint64)[held]
    level = np.zeros(cls.size, dtype=np.intp)
    if levels < 1 or a < 1 << tab.k or b - 1 > tab.safe_max:
        return level, b - 1
    most = (np.uint64(b - 1) - cls) >> np.uint64(tab.k)
    least = ((np.uint64(a - 1) - cls) >> np.uint64(tab.k)) + np.uint64(1)
    slope, base = tab.slope[1 : levels + 1, held], tab.base[1 : levels + 1, held]
    lands = slope * most + base < stop_hi
    lands[: tab.k - 1] &= (base[: tab.k - 1] & np.uint64(1)) == 1
    planned = lands.any(axis=0) & (least <= most)
    if not planned.any():
        return level, b - 1
    level[planned] = lands.argmax(axis=0)[planned] + 1
    j, i = level[planned], cls[planned]
    peak = tab.bound_slope[j, i] * most[planned] + tab.bound_base[j, i]
    return level, max(b - 1, int(peak.max()))


def _walk_piece(
    a: int, b: int, stop_hi: int, max_steps: int, odd: bool = False
) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk every start in [a, b), or with `odd` every odd start, until it lands
    on an odd start below stop_hi >= 2, 1 among them.

    Returns (steps, slot, peak) in start order: the steps each walk took, the
    uint32 table slot y // 2 of the odd value y it landed on, and the largest
    value seen, from b - 1.  A walk that runs out of budget first reads
    max_steps + 1 steps and slot _SPARE.  A walk may pass below stop_hi and
    land later, never past 1 or its budget.  Raises ArithmeticError before it
    steps a value above UINT64_SAFE_MAX.
    """
    k = LEVEL
    tab = _level_table(k)
    level, peak = _class_plan(tab, a, b, stop_hi, min(k, max_steps), odd)
    # The starts as rows m of the classes i mod 2^k the piece holds, all or
    # the odd ones, in pairs (even m, odd m) from row a >> k or the one before.
    # A class planned at level k lands on 3^p m + base where that is odd, in
    # the rows m of the other parity than base; the other starts' places in
    # the piece come a pair of rows at a time, with no mask a start.
    cls = np.arange(1 << k)[int(odd) :: 1 + odd]
    one, row, first = np.uint64(1), cls.size, (a >> k) & ~1
    planned, top, odd_base = level > 0, level == k, (tab.base[k, cls] & one).astype(bool)
    even_m = np.flatnonzero(~planned | top & ~odd_base)
    odd_m = np.flatnonzero(~planned | top & odd_base)
    m = np.arange(first, ((b - 1) >> k | 1) + 1, dtype=np.uint64)
    cut = slice(a - (first << k) >> odd, b - (first << k) >> odd)
    walkers = np.append(even_m, odd_m + row)  # in a pair of rows
    pos = np.add.outer(np.arange(0, m.size, 2) * row - cut.start, walkers)
    pos = pos[(pos >= 0) & (pos < cut.stop - cut.start)]
    walked, landed, peak = _walk_starts(tab, a, b, pos, odd, stop_hi, max_steps, peak)
    # The piece's arrays are made once the walks' temporaries are free again,
    # so that a walk in flight never holds both.  The planned classes land on
    # odd values y = slope m + base a row at a time, with slot y // 2,
    # slope (m // 2) plus: below level k, where slope is even, (slope // 2)
    # (m % 2) + base // 2; at level k, in the rows of m % 2 = p, where
    # p = 1 - base % 2, (slope p + base) // 2.  The slot is below
    # TABLE_CAP < 2^32, so it is exact mod 2^32.
    slope = np.where(planned, tab.slope[level, cls], 0).astype(np.uint32)  # at most 3^k
    slot = np.multiply.outer((m >> one).astype(np.uint32), slope)
    base = tab.base[level, cls] + np.where(top & ~odd_base, slope, 0)
    base = np.where(planned, base >> one, _SPARE)
    pairs = slot.reshape(-1, 2, row)
    pairs += np.stack((base, base + np.where(top, 0, slope >> 1))).astype(np.uint32)
    slot = slot.reshape(-1)[cut]
    slot[pos] = landed
    steps = np.tile(level.astype(walked.dtype), m.size)[cut]  # planned levels are at most k
    steps[pos] = walked
    return steps, slot, peak


def _walk_starts(
    tab: _LevelTable, a: int, b: int, pos: np.ndarray, odd: bool, stop_hi: int,
    max_steps: int, peak: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk the starts a + pos of the piece [a, b), or with `odd` its odd starts
    (a | 1) + 2 pos, as `_walk_piece` does, from the peak of its planned
    classes; returns their steps, slots and the peak.

    A value that stops on an even y below stop_hi lands on its odd part
    y >> v2(y), v2(y) halvings on, the start whose entry the table holds, or
    fails if those pass the budget.  The steps are a byte each while they
    fit, and widen to the budget's dtype only when a walk passes 255 steps or
    a spent budget must read max_steps + 1; they return in the narrowest
    dtype that holds them.
    """
    k = tab.k
    width, wide, one = 1 << k, np.min_scalar_type(max_steps + 1), np.uint64(1)
    steps, slot = np.zeros(pos.size, np.uint8), np.full(pos.size, _SPARE, np.uint32)
    u = np.arange(pos.size, dtype=np.uint32)  # the place in pos of each value still walking
    v = pos.astype(np.uint64)
    if odd:
        v <<= one
    v += np.uint64(a | odd)
    jump_slope, jump_base = tab.slope[k], tab.base[k]
    bound_slope, bound_base = tab.bound_slope[k], tab.bound_base[k]
    steepest, highest = int(bound_slope.max()), int(bound_base.max())
    t, top = 0, b - 1
    while True:
        stop = v < stop_hi
        hit = np.flatnonzero(stop)
        if hit.size:
            y = v[hit]
            # v2(y) from y's lowest set bit, a float64 exactly, whose exponent is 1023 + v2(y)
            halvings = (y & (~y + one)).astype(np.float64).view(np.uint64) >> np.uint64(52)
            halvings -= np.uint64(1023)
            y >>= halvings  # the odd part
            at, most = u[hit], t + int(halvings.max(initial=0))
            halvings += np.uint64(t)  # the steps to the landing
            if most > 255:
                steps = steps.astype(wide, copy=False)
            y >>= one  # the slot
            if most > max_steps:  # halvings that pass the budget spend it
                spent = halvings > max_steps
                halvings[spent], y[spent] = max_steps + 1, _SPARE
            steps[at] = halvings
            slot[at] = y
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
        # k steps at once when no value can reach 1 inside them (each is at least
        # stop_hi >= 2^(k+1)), k steps of budget remain and the values fit in uint64
        if max_steps - t >= k and top <= tab.safe_max and stop_hi >= 2 * width:
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


def _fold_piece(table: np.ndarray, side: _SideTable, a: int, b: int, fail: int, record,
                walk: tuple, odd: bool = False) -> RangeSurvey:
    """Finish the starts of [a, b) from their walks and the ratio record before a
    (or None), and enter the odd ones in the uint8 table, the odd start y at slot
    y // 2, and in the side table.

    The walks are of every start, or with `odd` of the odd starts only, and the
    even starts, whose halves the table holds, are read off it by `_even_starts`.
    """
    steps, slot, peak = walk
    x0 = a | odd  # the walk at place i is of the start x0 + (i << odd)
    # The gather a block at a time, whose slots widen to intp in cache: half the
    # time of table[slot].  Clipped, _SPARE reads the spare last slot, 0.  It
    # runs before tst is made, so that a block's indices never add to its bytes.
    entry = np.empty(slot.size, np.uint8)
    for i in range(0, slot.size, _GATHER):
        np.take(table, slot[i : i + _GATHER], out=entry[i : i + _GATHER], mode="clip")
    # tst = steps + min(entry, top - steps): top < fail only where no steps + entry passes it
    top = min(fail, int(steps.max(initial=0)) + max(255, side.most))
    tst = np.subtract(top, steps, dtype=np.min_scalar_type(top))
    far = np.flatnonzero(entry == 255)
    left = tst[far]
    np.minimum(tst, entry, out=tst)
    del entry  # its byte a start is free again for the masks below
    tst[far] = np.minimum(left, side.lookup(slot[far]))
    tst += steps
    # the odd starts walked, from a | 1, below the spare slot's start
    spare, at = 2 * table.size - 1, a >> 1
    stored = tst[((a | 1) - x0) >> odd : max(0, spare - x0 >> odd) : 2 >> odd]
    if stored.size:
        # the low bytes, a plain copy, then 255 where tst reaches it
        table[at : at + stored.size] = stored
        far = np.flatnonzero(stored >= 255)
        table[far + at] = 255
        side.extend((far + at).astype(np.uint32), stored[far])
        del stored, far
    failed, bests, ratios = np.zeros(0, np.intp), [], []  # (tst or ratio, start) candidates
    if tst.size:
        i = int(tst.argmax())  # argmax takes the first, smallest, start of a tie
        if tst[i] == fail:
            failed = np.flatnonzero(tst == fail)
            tst[failed] = 0  # below every tst but start 1's, which never fails
            i = int(tst.argmax())
        if failed.size < tst.size:
            bests.append((int(tst[i]), x0 + (i << odd)))
    failures = (failed.astype(np.uint64) << np.uint64(odd)) + np.uint64(x0)
    # x >= first beats R only if fl(t / fl(ln x)) >= R, so, as each rounding is
    # within 1e-15, t >= R ln x (1 - 1e-15) >= R ln first (1 - 1e-15).  The floor
    # rounds three times too, so fl(fl(R fl(ln first)) (1 - 1e-9)) is below that
    # and t is at least its floor.  Failures, now 0, stay below a floor >= 1.
    first = max(a, 2)  # ln 1 = 0: start 1 has no ratio
    floor = 1 if record is None else max(1, math.floor(record * math.log(first) * (1 - 1e-9)))
    skip = -(-(first - x0) >> odd)  # the place of the first start from first
    cand = np.flatnonzero(tst[skip:] >= floor)
    if cand.size:  # the starts in uint64: near 2^64 they overflow int64
        x = (cand.astype(np.uint64) + np.uint64(skip) << np.uint64(odd)) + np.uint64(x0)
        ratio = tst[skip:][cand] / np.log(x.astype(np.float64))
        k = int(ratio.argmax())
        ratios.append((float(ratio[k]), int(x[k])))
    if odd:
        # the even starts that could fail or beat a best of the odd ones; each
        # level's come in order, so the sort merges runs
        x, t = _even_starts(table, side, a, b, min(floor, bests[0][0] if bests else 0))
        if t.size and t.max() >= fail:
            failures = np.sort(np.append(failures, x[t >= fail].astype(np.uint64)), kind="stable")
            x, t = x[t < fail], t[t < fail]
        if t.size:
            top = t.max()
            bests.append((int(top), int(x[t == top].min())))
            x, t = x[t >= floor], t[t >= floor]
        if t.size:
            ratio = t / np.log(x.astype(np.float64))
            top = ratio.max()
            ratios.append((float(top), int(x[ratio == top].min())))
    # the largest value, and of a tie the smaller start
    tst_best = max(bests, key=lambda best: (best[0], -best[1]), default=(None, None))
    ratio_best = max(ratios, key=lambda best: (best[0], -best[1]), default=(None, None))
    failures = tuple(failures.tolist())
    return RangeSurvey(b - a - len(failures), failures, *tst_best, *ratio_best, peak)


def _even_starts(
    table: np.ndarray, side: _SideTable, a: int, b: int, least: int
) -> tuple[np.ndarray, np.ndarray]:
    """The even starts x of [a, b) with tst(x) >= least, in increasing order at
    each level j, and their tst, from the table, which holds their odd parts.

    For x = 2^j o, o odd, tst(x) = j + tst(o): at each level j the odd o in
    [ceil(a / 2^j), ceil(b / 2^j)), slots o // 2.  Where least - j is below
    255 a threshold scan of their bytes finds them, the 255s taking the side
    table's values for those slots in order; else only the side table's
    entries can reach it.  The tst of a start that fails reads at least
    max_steps + 1.
    """
    levels, j, y, end = [], 1, a + 1 >> 1, b + 1 >> 1
    while y < end:
        levels.append((j, y >> 1, end >> 1))
        j, y, end = j + 1, y + 1 >> 1, end + 1 >> 1
    # the side table's entries in each level's slots, where the table reads 255
    found = np.searchsorted(side.slots[: side.size], [s for _, *ends in levels for s in ends])
    xs, ts = [np.zeros(0, np.intp)], [np.zeros(0, np.int64)]
    for (j, s0, s1), i0, i1 in zip(levels, found[::2].tolist(), found[1::2].tolist()):
        if least - j < 255:
            entries = table[s0:s1]
            slots = np.flatnonzero(entries >= max(least - j, 0))
            if not slots.size:
                continue
            t = entries[slots].astype(np.int64)
            t[t == 255] = side.values[i0:i1]
            slots += s0
        elif i0 < i1:  # only the side table's entries can reach least
            near = np.flatnonzero(side.values[i0:i1] >= least - j) + i0
            slots, t = side.slots[near].astype(np.intp), side.values[near].astype(np.int64)
        else:
            continue
        t += j
        xs.append((2 * slots + 1) << j)
        ts.append(t)
    return np.concatenate(xs), np.concatenate(ts)


def survey_range(
    hi: int,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    failure_budget: Callable[[int], None] | None = None,
) -> RangeSurvey:
    """Survey [1, hi), optionally walking the pieces in worker threads.

    The pieces depend only on (hi, chunk_size), and so does which of them
    hold their odd starts only and read their even ones off the table: those
    past the first that end by 2 table_end.  They are folded in range order
    into running values: a piece's best replaces the running one only when
    it is strictly greater, so a tie keeps the smaller start, and the result
    is byte-for-byte identical for every worker count and chunk size.
    With workers > 1 the calling thread and one pool of threads walk the whole
    survey, with no more walkers than the widest wave has pieces or the
    machine has CPUs, the calling thread counted.  After each piece,
    `failure_budget` (if given) is called with the number of failures the
    survey would then hold, before it holds them; it may raise to stop.
    """
    if hi <= 1:
        return _EMPTY
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    budget = min(max(max_steps, 0), _MAX_BUDGET)
    # The table's slots are the odd starts of [1, table_end) and a spare last
    # slot, which stays 0 for the walks that read slot _SPARE.
    table_end = min(hi, 2 * TABLE_CAP)
    table = np.zeros((table_end >> 1) + 1, np.uint8)
    side = _SideTable(np.min_scalar_type(budget + 1))  # values are at most budget + 1
    assert table.size - 1 <= TABLE_CAP < _SPARE  # slots fit in uint32
    waves = [(1 << k, min(2 << k, hi)) for k in range(LEVEL + 1, (hi - 1).bit_length())]
    # The first piece lands on 1 alone, its entry 0 from the start; a later
    # piece's even starts have their halves in the table when b <= 2 table_end.
    pieces = [(1, min(hi, 2 << LEVEL), 2, budget, False)]
    for wave_lo, wave_hi in waves:
        for a in range(wave_lo, wave_hi, chunk_size):
            b = min(a + chunk_size, wave_hi)
            pieces.append((a, b, min(a, table_end), budget, b <= 2 * table_end))
    widest = max((-(-(b - a) // chunk_size) for a, b in waves), default=1)
    pool_size = min(workers, widest, os.cpu_count() or 1)
    verified, failures, peak = 0, [], 0
    tst = ratio = (None, None)  # the bests so far and their starts
    _level_table(LEVEL)  # built here, before two worker threads could both build it
    walks = (_walk_piece(*piece) for piece in pieces)
    if pool_size > 1:
        walks = _walks_in_order(pieces, pool_size)
    with closing(walks):
        for a, b, *_, odd in pieces:
            walk = next(walks)
            part = _fold_piece(table, side, a, b, budget + 1, ratio[0], walk, odd)
            del walk  # freed before the next walk is made, not held through it
            if failure_budget is not None:
                failure_budget(len(failures) + len(part.failures))
            # Pieces come in range order: failures append in order, and a best
            # that only ties the running one keeps its smaller start.
            verified += part.verified
            failures.extend(part.failures)
            t, r = part.max_total_stopping_time, part.max_ratio
            if t is not None and (tst[0] is None or t > tst[0]):
                tst = t, part.tst_argmax
            if r is not None and (ratio[0] is None or r > ratio[0]):
                ratio = r, part.ratio_argmax
            peak = max(peak, part.peak)
    return RangeSurvey(verified, tuple(failures), *tst, *ratio, peak)


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
