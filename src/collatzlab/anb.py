"""Dynamics, cycles, and identities of the generalized odd maps x -> (ax+b)/2^k.

For odd a >= 3 and odd b >= 1 the odd-to-odd map is exact integer arithmetic,
and the closed-form identity and residue-class shift law carry over with 3
replaced by a.  Unlike the 3n+1 case these procedures settle into multi-member
cycles or keep growing; nothing here ever asserts divergence, only what
happened within a finite horizon.

The steps are `dynamics.step_anb` and `dynamics.step_general` at (a, b), the
shift law is `identities.residue_shift_check(k, m, i, params)`, and the
one-walk closed-form check is `identities.closed_form_checks`: one code path
for every map, with `identities` loaded only by the functions that call it.
`trajectory_anb` and `divergence_report` read one walk, `anb_orbit_steps`.
Tests compare the an+b code at (3, 1) with the 3n+1 code only where the two
are separate paths, so that each can catch the other: orbits
(`trajectory_anb` on `step_anb` against `dynamics.odd_walk`'s inline step),
per-n closed forms (`closed_form_anb_check` on `anb_steps_extended` against
`identities.closed_form_check` on `odd_steps_extended`, with a literal 3) and
cycles (`find_cycle`).
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .dynamics import (
    DEFAULT_MAX_STEPS,
    AnbParams,
    ParityExponents,
    Termination,
    Trajectory,
    _require_odd,
    collect_orbit,
    step_anb,
)

if TYPE_CHECKING:
    from .identities import ClosedFormCheck

LABEL_BOUNDED = "bounded/cyclic within horizon"
LABEL_UNBOUNDED = "unbounded within horizon"

# cycle_catalog remembers the values below 2^64 of its walks in one dict, and
# stops remembering new walks once the dict holds this many entries (about
# 26 MB; a walk is remembered whole, so the last one may pass the cap).  A walk
# it does not remember only costs time later, never exactness.
CATALOG_MEMO_CAP = 1 << 18
_MEMO_BOUND = 1 << 64
_LOW64 = _MEMO_BOUND - 1
_BASIN = -1

# A walk remembers its values by hash(x), which for an int x >= 0 is exactly
# x mod 2^61 - 1 and is not randomized: one small int a step, however large x
# grows.  Tests put a coarser function here so that collisions happen.
_fingerprint = hash


class _RepeatIndex:
    """The fingerprints of the values of one walk from x0, with an exact confirm.

    Holds no value.  A fingerprint met before is confirmed by walking again
    from x0 and comparing values, which also finds the step of the first
    visit.  A false collision leaves the fingerprint in the set, so a later
    true repeat of either value is still found.
    """

    def __init__(self, x0: int, params: AnbParams) -> None:
        self.x0, self.params = x0, params
        self.fingerprints = {_fingerprint(x0)}

    def first_step(self, x: int, j: int) -> int | None:
        """The step before j at which the walk was at x; None if none, and x is then step j."""
        fp = _fingerprint(x)
        if fp not in self.fingerprints:
            self.fingerprints.add(fp)
            return None
        y = self.x0
        for s in range(j):
            if y == x:
                return s
            y = step_anb(y, self.params)[0]
        return None


def anb_steps_extended(
    x0: int, params: AnbParams, count: int
) -> tuple[list[int], list[int]]:
    """Run exactly `count` generalized odd steps, continuing through repeats."""
    _require_odd(x0)
    if count < 0:
        raise ValueError("count must be >= 0")
    values = [x0]
    exponents: list[int] = []
    for _ in range(count):
        nxt, k = step_anb(values[-1], params)
        values.append(nxt)
        exponents.append(k)
    return values, exponents


def anb_orbit_steps(
    x0: int, params: AnbParams, max_steps: int = DEFAULT_MAX_STEPS
) -> Iterator[tuple[int, int, int, int]]:
    """Walk the generalized odd map from x0 until a value repeats or max_steps pass.

    Yields one record (y, a, b, k) per step, with y = (a * x + b) / 2^k, as
    `dynamics.orbit_steps` does.  A repeat means the orbit has entered a
    cycle; the repeated value is not yielded, so the walk lists each visited
    odd number exactly once.  The arguments are checked before the first step.
    """
    _require_odd(x0)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    return _anb_orbit_steps(x0, params, max_steps)


def _anb_orbit_steps(
    x: int, params: AnbParams, max_steps: int
) -> Iterator[tuple[int, int, int, int]]:
    seen = _RepeatIndex(x, params)
    for j in range(1, max_steps + 1):
        x, k = step_anb(x, params)
        if seen.first_step(x, j) is not None:
            return
        yield x, params.a, params.b, k


def trajectory_anb(
    x0: int, params: AnbParams, max_steps: int = DEFAULT_MAX_STEPS
) -> tuple[Trajectory, ParityExponents]:
    """Iterate the generalized odd map until a value repeats or max_steps pass.

    A repeat means the orbit has entered a cycle; the repeated value is not
    appended again, so `values` lists each visited odd number exactly once.
    """
    values, exponents = collect_orbit(x0, anb_orbit_steps(x0, params, max_steps))
    # the walk stops early only on a repeat
    terminated = (
        Termination.REACHED_CYCLE if len(exponents) < max_steps else Termination.STEP_LIMIT
    )
    traj = Trajectory(values=tuple(values), terminated=terminated)
    return traj, ParityExponents(tuple(exponents))


def canonical_rotation(members: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cycle so its smallest member comes first (dynamics preserved)."""
    if not members:
        raise ValueError("empty cycle")
    i = min(range(len(members)), key=members.__getitem__)
    return tuple(members[i:]) + tuple(members[:i])


class CycleRecord(NamedTuple("CycleRecord", [("params", AnbParams), ("members", tuple),
                                             ("exponents", tuple)])):
    """A minimal cycle of a generalized odd map, stored in canonical rotation.

    members follow the map order starting from the smallest member, and
    exponents[j] is the power of two removed on the step members[j] ->
    members[(j+1) % len].  The cycle is certified by the product identity
    2^{sum k} * prod(members) == prod(a*member + b).
    """

    __slots__ = ()

    def __new__(cls, params: AnbParams, members: tuple[int, ...],
                exponents: tuple[int, ...]) -> CycleRecord:
        if len(members) != len(exponents):
            raise ValueError("need one exponent per cycle step")
        for j, x in enumerate(members):
            nxt, k = step_anb(x, params)
            if (nxt, k) != (members[(j + 1) % len(members)], exponents[j]):
                raise ValueError("members do not form a cycle of the map")
        if members[0] != min(members):
            raise ValueError("cycle must be stored in canonical rotation")
        return super().__new__(cls, params, members, exponents)

    @property
    def sum_exponents(self) -> int:
        return sum(self.exponents)

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def product_identity(self) -> tuple[int, int, bool]:
        """Both sides of the certifying product identity, computed afresh."""
        lhs = (1 << self.sum_exponents) * math.prod(self.members)
        rhs = math.prod(self.params.a * x + self.params.b for x in self.members)
        return lhs, rhs, lhs == rhs


def find_cycle(
    x0: int, params: AnbParams, max_steps: int = DEFAULT_MAX_STEPS
) -> CycleRecord | None:
    """Return the cycle the orbit of x0 enters within max_steps, if any.

    The full pre-period is kept in a value-to-index map, so the cycle is read
    off directly once a value repeats; it is the value-keyed reference for the
    walks of `_RepeatIndex`.  None means no repeat happened within the budget,
    which is inconclusive, not a proof of divergence.
    """
    index = {x0: 0}
    values = [x0]
    for _ in range(max_steps):
        nxt, _ = step_anb(values[-1], params)
        if nxt in index:
            return _read_cycle(values[index[nxt]:], params)
        index[nxt] = len(values)
        values.append(nxt)
    return None


def _read_cycle(members: Sequence[int], params: AnbParams) -> CycleRecord:
    """Certify the repeating part of a walk as a CycleRecord, step by step."""
    cycle = canonical_rotation(members)
    exps = []
    for j, x in enumerate(cycle):
        y, k = step_anb(x, params)
        if y != cycle[(j + 1) % len(cycle)]:
            raise AssertionError("cycle readback disagrees with the map")
        exps.append(k)
    return CycleRecord(params=params, members=cycle, exponents=tuple(exps))


def closed_form_anb_check(
    x0: int,
    params: AnbParams,
    n: int,
    exponents: Sequence[int] | None = None,
) -> ClosedFormCheck:
    """Check the generalized closed form after n odd steps.

    With v_r the exponent prefix sums, the n-th value y_n satisfies

        y_n * 2^{v_n} == a^n * x0 + b * sum_{r=1..n} a^{n-r} * 2^{v_{r-1}}.

    Left side from iteration, right side from the formula, both exact.
    """
    from .identities import ClosedFormCheck

    if n < 0:
        raise ValueError("n must be >= 0")
    if exponents is not None and len(exponents) < n:
        raise ValueError(f"need at least {n} exponents, got {len(exponents)}")
    values, walked = anb_steps_extended(x0, params, n)
    if exponents is None:
        exponents = walked
    prefix = [0]
    for k in exponents[:n]:
        prefix.append(prefix[-1] + k)
    a, b = params.a, params.b
    lhs = values[n] * (1 << prefix[n])
    rhs = a**n * x0 + b * sum(a ** (n - r) * (1 << prefix[r - 1]) for r in range(1, n + 1))
    return ClosedFormCheck(lhs=lhs, rhs=rhs, holds=lhs == rhs)


class DivergenceDiagnostic(NamedTuple):
    """Horizon-bounded growth summary of one generalized orbit.

    The exact fields are integers (steps, exponent total, peak, bit lengths);
    `expanding` compares a^steps against 2^{sum k} exactly, which is the sign
    of the mean log2 growth without touching floats.  The float `drift_log2`
    is display only.  No divergence claim is ever made: the label says what
    happened within the horizon and nothing more.
    """

    params: AnbParams
    start: int
    steps_taken: int
    peak: int
    sum_exponents: int
    label: str

    @property
    def expanding(self) -> bool:
        return self.params.a**self.steps_taken > (1 << self.sum_exponents)

    @property
    def peak_bits(self) -> int:
        return self.peak.bit_length()

    @property
    def drift_log2(self) -> float:
        if self.steps_taken == 0:
            return 0.0
        n = self.steps_taken
        return (n * math.log2(self.params.a) - self.sum_exponents) / n


def divergence_report(
    x0: int, params: AnbParams, horizon: int = DEFAULT_MAX_STEPS
) -> DivergenceDiagnostic:
    """Run the orbit for at most `horizon` steps and summarize its growth.

    Unlike `trajectory_anb`, the step that closes a cycle is counted here:
    its exponent is what balances the tally for cyclic orbits (around a full
    cycle 2^{sum k} always exceeds a^length, so cycles never read as
    expanding).  The walk is `anb_orbit_steps`, so x0 must be odd.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    x, peak, steps, sum_k, label = x0, x0, 0, 0, LABEL_UNBOUNDED
    for x, _, _, k in anb_orbit_steps(x0, params, horizon):
        steps, sum_k, peak = steps + 1, sum_k + k, max(peak, x)
    if steps < horizon:  # stopped on a repeat: the closing step reaches a value seen before
        steps, sum_k, label = steps + 1, sum_k + step_anb(x, params)[1], LABEL_BOUNDED
    return DivergenceDiagnostic(params, x0, steps, peak, sum_k, label)


def cycle_catalog(
    params: AnbParams, start_limit: int, max_steps: int = 10**4
) -> tuple[CycleRecord, ...]:
    """All distinct cycles entered from odd starts up to start_limit.

    Deduplicated by canonical rotation and ordered by (length, members), so
    the catalog is deterministic for a given search budget.  It is the
    catalog of `find_cycle(x0, params, max_steps)` over the starts, which
    stays the per-start reference; the walks here share a memo instead of
    each running to the end of its budget, and a walk that runs its budget
    settles the later starts on it, which are then not walked (see
    `_catalog_walk`).
    """
    return _catalog(params, start_limit, max_steps, survey=False)[0]


def cycle_survey(
    params: AnbParams, start_limit: int, max_steps: int = 10**4
) -> tuple[tuple[CycleRecord, ...], list[int]]:
    """`cycle_catalog`, and the odd starts up to start_limit with no repeat.

    The starts are those for which `find_cycle(x0, params, max_steps)` is
    None, in increasing order.  The catalog's walks settle most of them: a
    walk that ran its budget, a later start on one, or a walk that the memo
    stopped with no repeat.  Only the starts stopped at a value whose orbit
    enters a known cycle are walked again, since that entry says the orbit
    enters the cycle, not that it does so within max_steps.
    """
    catalog, no_repeat, basin = _catalog(params, start_limit, max_steps, survey=True)
    late = [x0 for x0 in basin if find_cycle(x0, params, max_steps) is None]
    return catalog, sorted(no_repeat + late)


def _catalog(
    params: AnbParams, start_limit: int, max_steps: int, survey: bool
) -> tuple[tuple[CycleRecord, ...], list[int], list[int]]:
    """The catalog, and with survey the starts settled with no repeat and those
    stopped at a basin entry (without it both lists stay empty)."""
    if start_limit < 1:
        raise ValueError("start_limit must be >= 1")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    memo: dict[int, int] = {}
    settled: dict[int, list[int] | None] = {}  # later starts an open walk settled
    found: dict[tuple[int, ...], CycleRecord] = {}
    no_repeat, basin = [], []
    # At one step settling z_1, the one later start, takes the step its own walk
    # would: it saves no step, and costs a call and a scan on every open walk.
    settle_limit = start_limit if max_steps > 1 else 0
    for x0 in range(1, start_limit + 1, 2):
        if x0 in settled:
            cycle = settled.pop(x0)
        else:
            cycle = _catalog_walk(x0, params, max_steps, memo, settled, settle_limit)
        if cycle:
            record = _read_cycle(cycle, params)
            found.setdefault(record.members, record)
        elif survey:
            (no_repeat if cycle is None else basin).append(x0)
    catalog = tuple(sorted(found.values(), key=lambda r: (len(r.members), r.members)))
    return catalog, no_repeat, basin


def catalog_walk_bytes(params: AnbParams, start_limit: int, max_steps: int) -> int:
    """An upper bound on the bytes one walk of `cycle_catalog` holds.

    A walk holds no value but the current one, and one fingerprint a step for
    up to max_steps + S + 1 <= 2 max_steps + 1 steps, S being how far it walks
    on to settle its later starts (see `_settle_later_starts`).  A step costs
    at most about 570 bytes: a fingerprint, about 175 (tracemalloc peaks of
    sets of 61-bit ints, twice); a step and a value, 16, for each value below
    2^64; and a pair and a `settled` entry, about 200, for each later start.
    The last value has at most start_limit.bit_length() + j log2((a + b)/2)
    bits at step j ((ax + b)/2^k <= (a + b) x / 2), 4 bytes per 30 bits.
    Measured peaks are lower: (5, 1) walks from 7 hold 87 bytes a step at
    10,000 steps and 165 at 20,000, and a (3, 3299) walk from 1 with a later
    start at every step (S = max_steps = 1,000) holds 281.
    """
    steps = 2 * max_steps + 1
    bits = start_limit.bit_length() + math.log2((params.a + params.b) / 2) * steps
    return 570 * steps + math.ceil(bits * 4 / 30)


def _catalog_walk(
    x0: int,
    params: AnbParams,
    max_steps: int,
    memo: dict[int, int],
    settled: dict[int, list[int] | None],
    start_limit: int,
) -> list[int] | None:
    """Walk x0 as `find_cycle` does, stopping early where the memo decides it.

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
    a, b = params.a, params.b
    seen = _RepeatIndex(x0, params)
    small = array("Q")  # step, value, step, ...: the values below 2^64, for the memo
    cycle = None  # [] once the walk meets a _BASIN entry
    touched = max_steps + 1  # first step that met an entry or a value >= 2^64
    x, j = x0, 0
    while True:
        if x < _MEMO_BOUND:
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
        elif touched > j:
            touched = j
        if j == max_steps:  # the whole budget with no repeat
            if x0 < start_limit:  # else no later start lies on the walk
                _settle_later_starts(seen, x, small, max_steps, settled, start_limit)
            break
        j += 1
        # The step inline, not through step_anb: the (5, 1) catalog to 151 walks in
        # 0.18 s against 0.31 s (medians of 10 paired runs, 2-vCPU Xeon, Python 3.11).
        t = a * x + b
        low = t & _LOW64 or t  # the valuation of t, from its low word if it is not 0
        x = t >> ((low & -low).bit_length() - 1)
        first = seen.first_step(x, j)
        if first is not None:  # x is on the cycle: read it by walking its length
            cycle = anb_steps_extended(x, params, j - first - 1)[0]
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
    seen: _RepeatIndex,
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
    x0, params = seen.x0, seen.params
    pairs = iter(small)
    later = [
        (s, v) for s, v in zip(pairs, pairs) if s and x0 < v <= start_limit and v not in settled
    ]
    if not later:
        return
    for t in range(max_steps + 1, max_steps + later[-1][0] + 1):  # later is in step order
        x = step_anb(x, params)[0]
        i = seen.first_step(x, t)
        if i is not None:
            cycle = anb_steps_extended(x, params, t - i - 1)[0] if t - i <= max_steps else None
            for s, v in later:
                settled[v] = cycle if t - s <= max_steps else None
            return
    for _, v in later:
        settled[v] = None
