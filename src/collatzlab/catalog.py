"""The walks of the cycle catalog: each odd start up to a limit, in order.

`anb.cycle_catalog` folds them into its catalog, and `scripts/anb_survey.py`
reads the starts with no repeat.  The walks share a memo of their values
below 2^64, keep one fingerprint a step (`anb._RepeatIndex`), and settle the
later starts on a walk that runs its budget.  A value of 2^256 or more steps
on its low 256 bits, by the residue shift law, and is rebuilt once a block
(`_walk_on`), so a step costs the same however large the value grows.  The
module loads only when a catalog is walked, so `trajectory --map anb` does
not compile it.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterator

from . import anb
from .dynamics import _V2, AnbParams, _v2_wide

# The walks remember their values below 2^64 in one dict, and stop
# remembering new walks once the dict holds this many entries (about
# 26 MB; a walk is remembered whole, so the last one may pass the cap).  A
# walk they do not remember only costs time later, never exactness.
CATALOG_MEMO_CAP = 1 << 18
_MEMO_BOUND = 1 << 64
_BASIN = -1

# A walk steps a value x >= 2^_W on its low word in blocks, by the residue shift
# law: x = h 2^_W + lo reaches x_n = a^n h 2^(_W - K) + lo_n after n steps that
# halve K times, lo_n being lo's own walk, while K <= _W - 64.  Then each step's
# exponent is lo's, x_n's fingerprint is lo_n's, and x_n >= 2^64 meets no memo
# entry; x is rebuilt at the block's end or to confirm a fingerprint hit.
# At 256 bits the (5, 1) catalog to 100 at 10^5 steps walks in 0.39 s, at 128 in
# 0.44 s (best of 5, 2-vCPU Xeon, Python 3.11).
_W = 256
_LOW_W = (1 << _W) - 1
_ROOM = _W - 64


def catalog_walks(
    params: AnbParams, start_limit: int, max_steps: int
) -> Iterator[tuple[int, list[int] | None]]:
    """Yield (x0, cycle) for each odd start x0 up to start_limit, in order.

    cycle is what `_catalog_walk` returns for x0, or what an earlier walk
    settled for it: the repeating part of its walk, [] for a stop at a
    basin entry (its orbit enters a known cycle, within max_steps or not),
    or None for no repeat within max_steps.  The walks share one memo, so
    they are taken in order.  The arguments are checked before the first walk.
    """
    if start_limit < 1:
        raise ValueError("start_limit must be >= 1")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    return _catalog_walks(params, start_limit, max_steps)


def _catalog_walks(
    params: AnbParams, start_limit: int, max_steps: int
) -> Iterator[tuple[int, list[int] | None]]:
    memo: dict[int, int] = {}
    settled: dict[int, list[int] | None] = {}  # later starts an open walk settled
    # At one step settling z_1, the one later start, takes the step its own walk
    # would: it saves no step, and costs a call and a scan on every open walk.
    settle_limit = start_limit if max_steps > 1 else 0
    for x0 in range(1, start_limit + 1, 2):
        if x0 in settled:
            yield x0, settled.pop(x0)
        else:
            yield x0, _catalog_walk(x0, params, max_steps, memo, settled, settle_limit)


def catalog_walk_bytes(params: AnbParams, start_limit: int, max_steps: int) -> int:
    """An upper bound on the bytes one walk of `anb.cycle_catalog` holds.

    A walk holds no value but the current one, and one fingerprint a step for
    up to max_steps + S + 1 <= 2 max_steps + 1 steps, S being how far it walks
    on to settle its later starts (see `_settle_later_starts`).  A step costs
    at most about 570 bytes: a fingerprint, about 175 (tracemalloc peaks of
    sets of 64-bit words reach 168 bytes an entry, just after the set grows);
    a step and a value, 16, for each value below 2^64; and a pair and a
    `settled` entry, about 200, for each later start.
    The last value has at most start_limit.bit_length() + j log2((a + b)/2)
    bits at step j ((ax + b)/2^k <= (a + b) x / 2), 4 bytes per 30 bits.
    Measured peaks are lower: (5, 1) walks from 7 hold 91 bytes a step at
    10,000 steps and 167 at 20,000, and a (3, 3299) walk from 1 with a later
    start at every step (S = max_steps = 1,000) holds 281.
    """
    steps = 2 * max_steps + 1
    # a + b is even, and log2 of an int takes any size, where (a + b) / 2
    # overflows a float past about 3.6e308
    bits = start_limit.bit_length() + math.log2((params.a + params.b) // 2) * steps
    return 570 * steps + math.ceil(bits * 4 / 30)


def _catalog_walk(
    x0: int,
    params: AnbParams,
    max_steps: int,
    memo: dict[int, int],
    settled: dict[int, list[int] | None],
    start_limit: int,
) -> list[int] | None:
    """Walk x0 as `anb.find_cycle` does, stopping early where the memo decides it.

    Records the walk in the memo and returns its repeating part, as
    `find_cycle` reads it; an empty list when it stopped at a `_BASIN` entry,
    so that its orbit enters a known cycle; or None when it has no repeat
    within max_steps (walked to the budget or stopped by the memo).  A walk
    that runs its whole budget also settles the later starts on it up to
    start_limit (see `_settle_later_starts`).  Memo entries, for values below
    2^64 only:

    - `_BASIN`: the value's orbit enters a cycle already found, so x0 can add
      nothing new;
    - a step s >= 0: the value is z_s of a walk z_0..z_max_steps with no
      repeat, every value of which below 2^64 is in the memo (a walk that
      stopped early continues as the walk it stopped on).

    Reaching an entry s at step j stops the walk, with no repeat within
    max_steps, when j >= s and no step before s met an entry or a value of
    2^64 or more.  Proof: say the walk repeats at t <= max_steps, v_t = v_i.
    If i >= j the repeat lies in the walk from z_s, which has none within
    max_steps - s >= t - j steps.  If i < j, v_j = z_s lies on a cycle of
    length P = t - i, and z has no repeat, so s + P > max_steps >= i + P,
    i.e. i < s; v_i lies P - (j - i) steps after z_s on that cycle, so it is
    z_(s + P - j + i) with s + P - j + i <= t <= max_steps: at step i < s
    the walk met an entry or a value of 2^64 or more.  Without the second
    condition the rule is wrong: for 5n+5 with max_steps 3, the walk
    53 -> 135 -> 85 -> 215 leaves 135 at step 1, and the walk
    85 -> 215 -> 135 would stop there and lose the cycle (85, 215, 135).
    """
    a, b, v2 = params.a, params.b, _V2
    seen = anb._RepeatIndex(x0, params)
    fingerprints, mask = seen.fingerprints, anb._FP_MASK
    small = array("Q")  # step, value, step, ...: the values below 2^64, for the memo
    cycle = None  # [] once the walk meets a _BASIN entry
    touched = max_steps + 1  # first step that met an entry or a value >= 2^64
    x, j = x0, 0
    while True:
        if x >= _MEMO_BOUND:
            if touched > j:
                touched = j
            if j < max_steps:  # on until a value below the bound, a repeat or the budget
                x, j, first = _walk_on(seen, x, j, max_steps, _MEMO_BOUND)
                if first is None:
                    continue
                cycle = anb.anb_steps_extended(x, params, j - first - 1)[0]
                break
        else:
            small.append(j)
            small.append(x)
            entry = memo.get(x)
            if entry is not None:
                if entry == _BASIN:
                    cycle = []
                    break
                if entry <= j and entry <= touched:
                    break
                if touched > j:
                    touched = j
        if j == max_steps:  # the whole budget with no repeat
            if x0 < start_limit:  # else no later start lies on the walk
                _settle_later_starts(seen, x, small, max_steps, settled, start_limit)
            break
        j += 1
        # A value below the memo bound steps inline, not through _walk_on: the
        # (5, 1) catalog to 20,001 at 30 steps walks in 42 ms against 86 ms
        # (best of 5, 2-vCPU Xeon, Python 3.11).
        t = a * x + b
        x = t >> (v2[t & 255] or _v2_wide(t))
        fp = x & mask
        if fp not in fingerprints:
            fingerprints.add(fp)
            continue
        first = seen.first_step(x, j)
        if first is not None:  # x is on the cycle: read it by walking its length
            cycle = anb.anb_steps_extended(x, params, j - first - 1)[0]
            break
    # A walk is remembered whole or not at all: the stop rule above relies on
    # every small value of a remembered walk being in the memo.
    if len(memo) < CATALOG_MEMO_CAP:
        if cycle is not None:  # every value walked leads into a cycle
            for x in small[1::2]:
                memo[x] = _BASIN
        else:
            pairs = iter(small)
            for step, x in zip(pairs, pairs):
                if step < memo.get(x, step + 1):
                    memo[x] = step
    return cycle


def _settle_later_starts(
    seen: anb._RepeatIndex,
    x: int,
    small: array,
    max_steps: int,
    settled: dict[int, list[int] | None],
    start_limit: int,
) -> None:
    """Settle the later starts on a walk z_0..z_max_steps = seen.x0..x with no repeat.

    They are the z_s with s >= 1 and x0 < z_s <= start_limit not settled yet,
    read from the walk's values below 2^64.  With S the largest such s, the
    walk goes on to z_(max_steps + S) and stops at its first repeat
    z_t = z_i, t > max_steps.  The walk from z_s first repeats at step
    t - s if s <= i, and at the cycle length t - i > t - s if s > i, z_s
    being on the cycle: so within max_steps if both t - i and t - s are at
    most max_steps.  settled[z_s] is then the cycle, else None; with no
    repeat by step max_steps + S, none of the walks from z_s has one within
    max_steps.
    """
    x0 = seen.x0
    pairs = iter(small)
    later = [
        (s, v) for s, v in zip(pairs, pairs) if s and x0 < v <= start_limit and v not in settled
    ]
    if not later:
        return
    # later is in step order
    x, t, i = _walk_on(seen, x, max_steps, max_steps + later[-1][0], 0)
    if i is None:
        for _, v in later:
            settled[v] = None
        return
    cycle = anb.anb_steps_extended(x, seen.params, t - i - 1)[0] if t - i <= max_steps else None
    for s, v in later:
        settled[v] = cycle if t - s <= max_steps else None


def _walk_on(
    seen: anb._RepeatIndex, x: int, j: int, stop: int, floor: int
) -> tuple[int, int, int | None]:
    """Walk on from x = z_j, j < stop, adding each value's fingerprint to seen.

    Takes at least one step, and stops at z_stop, at a repeat, or at a value
    below floor.  Returns (x, j, first) for the value z_j it stopped at, first
    being the step of the walk's first visit to x at a repeat, else None.  A
    value of 2^_W or more steps in blocks on its low word (see `_W`); below
    2^_W (h = 0) a block is x's own walk.
    """
    a, b = seen.params
    fingerprints, mask, v2 = seen.fingerprints, anb._FP_MASK, _V2
    add = fingerprints.add
    whole = False
    while True:
        # whole: the last block's first step would halve more than _ROOM times
        h, lo = (0, x) if whole else (x >> _W, x & _LOW_W)
        below = 0 if h else floor  # every value of a block with h > 0 is 2^64 or more
        room, n, hit = _ROOM, 0, False  # room is _W - 64 - K
        for n in range(1, min(stop - j, _ROOM) + 1):
            t = a * lo + b
            k = v2[t & 255] or _v2_wide(t)
            if k > room and h:  # the block ends before this step
                n -= 1
                break
            room -= k
            lo = t >> k
            fp = lo & mask
            if fp in fingerprints:
                hit = True
                break
            add(fp)
            if lo < below:
                break
        whole = h > 0 and n == 0
        x = (h * a**n << (room + 64)) + lo if h else lo
        j += n
        if hit:
            first = seen.first_step(x, j)
            if first is not None:
                return x, j, first
        if j == stop or x < floor:
            return x, j, None
