"""Dynamics, cycles, and identities of the generalized odd maps x -> (ax+b)/2^k.

For odd a >= 3 and odd b >= 1 the odd-to-odd map is exact integer arithmetic,
and the closed-form identity and residue-class shift law carry over with 3
replaced by a.  Unlike the 3n+1 case these procedures settle into multi-member
cycles or keep growing; nothing here ever asserts divergence, only what
happened within a finite horizon.

With (a, b) = (3, 1) every function agrees exactly with its counterpart in
`dynamics`/`identities`; that agreement is enforced by tests, which is why the
implementations are deliberately separate code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .dynamics import (
    DEFAULT_MAX_STEPS,
    AnbParams,
    ParityExponents,
    StepKind,
    Termination,
    Trajectory,
    _require_odd,
    collect_orbit,
    step_anb,
)
from .identities import ShiftCheck

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


class ClosedFormAnbCheck(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


def anb_general_step(x: int, params: AnbParams) -> tuple[int, StepKind]:
    """Shortcut form of the generalized map: x/2 on evens, (ax+b)/2 on odds."""
    if x < 1:
        raise ValueError(f"map is defined on integers >= 1, got {x}")
    if x % 2 == 0:
        return x // 2, StepKind.DECREASE
    return (params.a * x + params.b) // 2, StepKind.INCREASE


def anb_steps_extended(
    x0: int, params: AnbParams, count: int
) -> tuple[list[int], list[int]]:
    """Run exactly `count` generalized odd steps, continuing through repeats."""
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
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if max_steps:
        _require_odd(x0)  # as the first step would
    return _anb_orbit_steps(x0, params, max_steps)


def _anb_orbit_steps(
    x: int, params: AnbParams, max_steps: int
) -> Iterator[tuple[int, int, int, int]]:
    seen = {x}
    for _ in range(max_steps):
        x, k = step_anb(x, params)
        if x in seen:
            return
        seen.add(x)
        yield x, params.a, params.b, k


def trajectory_anb(
    x0: int, params: AnbParams, max_steps: int = DEFAULT_MAX_STEPS
) -> tuple[Trajectory, ParityExponents]:
    """Iterate the generalized odd map until a value repeats or max_steps pass.

    A repeat means the orbit has entered a cycle; the repeated value is not
    appended again, so `values` lists each visited odd number exactly once.
    """
    values, steps, exponents = collect_orbit(x0, anb_orbit_steps(x0, params, max_steps))
    # the walk stops early only on a repeat
    terminated = (
        Termination.REACHED_CYCLE if len(steps) < max_steps else Termination.STEP_LIMIT
    )
    traj = Trajectory(
        start=x0, values=tuple(values), steps=tuple(steps), terminated=terminated
    )
    return traj, ParityExponents.from_exponents(exponents)


def canonical_rotation(members: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cycle so its smallest member comes first (dynamics preserved)."""
    if not members:
        raise ValueError("empty cycle")
    i = min(range(len(members)), key=members.__getitem__)
    return tuple(members[i:]) + tuple(members[:i])


@dataclass(frozen=True)
class CycleRecord:
    """A minimal cycle of a generalized odd map, stored in canonical rotation.

    members follow the map order starting from the smallest member, and
    exponents[j] is the power of two removed on the step members[j] ->
    members[(j+1) % len].  The cycle is certified by the product identity
    2^{sum k} * prod(members) == prod(a*member + b).
    """

    params: AnbParams
    members: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.members) != len(self.exponents):
            raise ValueError("need one exponent per cycle step")
        for j, x in enumerate(self.members):
            nxt, k = step_anb(x, self.params)
            if (nxt, k) != (self.members[(j + 1) % len(self.members)], self.exponents[j]):
                raise ValueError("members do not form a cycle of the map")
        if self.members[0] != min(self.members):
            raise ValueError("cycle must be stored in canonical rotation")

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
    off directly once a value repeats.  None means no repeat happened within
    the budget, which is inconclusive, not a proof of divergence.
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
) -> ClosedFormAnbCheck:
    """Check the generalized closed form after n odd steps.

    With v_r the exponent prefix sums, the n-th value y_n satisfies

        y_n * 2^{v_n} == a^n * x0 + b * sum_{r=1..n} a^{n-r} * 2^{v_{r-1}}.

    Left side from iteration, right side from the formula, both exact.
    """
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
    return ClosedFormAnbCheck(lhs=lhs, rhs=rhs, holds=lhs == rhs)


def closed_form_anb_checks(
    x0: int, params: AnbParams, values: Sequence[int], exponents: Sequence[int]
) -> Iterator[ClosedFormAnbCheck]:
    """Check the generalized closed form at every n = 1..len(exponents) of one walk.

    values are the odd values of the walk from x0 = values[0], exponents the
    division exponents.  Left side values[n] * 2^{v_n} from the walk; right
    side from x0 and the exponents alone by Horner's rule, R_0 = x0 and
    R_n = a R_{n-1} + b 2^{v_{n-1}}, which equals
    a^n x0 + b sum_{r=1..n} a^{n-r} 2^{v_{r-1}}.  Check n equals
    `closed_form_anb_check(x0, params, n, exponents)`, the per-n reference.
    """
    if not values or values[0] != x0 or len(values) <= len(exponents):
        raise ValueError("need the walk's values from x0, one more than exponents")
    a, b = params.a, params.b
    rhs, v = x0, 0
    for n, k in enumerate(exponents, start=1):
        rhs = a * rhs + (b << v)
        v += k
        lhs = values[n] << v
        yield ClosedFormAnbCheck(lhs=lhs, rhs=rhs, holds=lhs == rhs)


def _walk_anb_general_zero(x: int, steps: int, params: AnbParams) -> tuple[int, int]:
    """Iterate the generalized shortcut map with the local T(0) = 0 extension."""
    if x < 0:
        raise ValueError("walker defined for x >= 0")
    increases = 0
    for _ in range(steps if x else 0):  # T(0) = 0, and no x >= 1 reaches 0
        x, kind = anb_general_step(x, params)
        increases += kind is StepKind.INCREASE
    return x, increases


def residue_shift_check_anb(k: int, m: int, i: int, params: AnbParams) -> ShiftCheck:
    """Generalized residue shift: T^k(2^k m + i) == a^p m + T^k(i).

    p counts the increases among the k generalized shortcut steps taken from
    the residue i; both sides come from separate walks.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if not 0 <= i < (1 << k):
        raise ValueError("need 0 <= i < 2^k")
    lhs, _ = _walk_anb_general_zero((1 << k) * m + i, k, params)
    ti, p = _walk_anb_general_zero(i, k, params)
    rhs = params.a**p * m + ti
    return ShiftCheck(holds=lhs == rhs, increase_count=p, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class DivergenceDiagnostic:
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
    def start_bits(self) -> int:
        return self.start.bit_length()

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
    expanding).
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    seen = {x0}
    value = x0
    peak = x0
    steps = 0
    sum_k = 0
    label = LABEL_UNBOUNDED
    while steps < horizon:
        value, k = step_anb(value, params)
        steps += 1
        sum_k += k
        peak = max(peak, value)
        if value in seen:
            label = LABEL_BOUNDED
            break
        seen.add(value)
    return DivergenceDiagnostic(
        params=params,
        start=x0,
        steps_taken=steps,
        peak=peak,
        sum_exponents=sum_k,
        label=label,
    )


def cycle_catalog(
    params: AnbParams, start_limit: int, max_steps: int = 10**4
) -> tuple[CycleRecord, ...]:
    """All distinct cycles entered from odd starts up to start_limit.

    Deduplicated by canonical rotation and ordered by (length, members), so
    the catalog is deterministic for a given search budget.  It is the
    catalog of `find_cycle(x0, params, max_steps)` over the starts, which
    stays the per-start reference; the walks here share a memo instead of
    each running to the end of its budget (see `_catalog_walk`).
    """
    return _catalog(params, start_limit, max_steps)[0]


def cycle_survey(
    params: AnbParams, start_limit: int, max_steps: int = 10**4
) -> tuple[tuple[CycleRecord, ...], list[int]]:
    """`cycle_catalog`, and the odd starts up to start_limit with no repeat.

    The starts are those for which `find_cycle(x0, params, max_steps)` is
    None, in increasing order.  The catalog's walks settle most of them: a
    walk that ran its budget, or that the memo stopped with no repeat.  Only
    the starts stopped at a value whose orbit enters a known cycle are walked
    again, since that entry says the orbit enters the cycle, not that it does
    so within max_steps.
    """
    catalog, no_repeat, basin = _catalog(params, start_limit, max_steps)
    late = [x0 for x0 in basin if find_cycle(x0, params, max_steps) is None]
    return catalog, sorted(no_repeat + late)


def _catalog(
    params: AnbParams, start_limit: int, max_steps: int
) -> tuple[tuple[CycleRecord, ...], list[int], list[int]]:
    """The catalog, the starts settled with no repeat, and those stopped at a basin entry."""
    if start_limit < 1:
        raise ValueError("start_limit must be >= 1")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    memo: dict[int, int] = {}
    found: dict[tuple[int, ...], CycleRecord] = {}
    no_repeat, basin = [], []
    for x0 in range(1, start_limit + 1, 2):
        cycle = _catalog_walk(x0, params, max_steps, memo)
        if cycle:
            record = _read_cycle(cycle, params)
            found.setdefault(record.members, record)
        else:
            (no_repeat if cycle is None else basin).append(x0)
    catalog = tuple(sorted(found.values(), key=lambda r: (len(r.members), r.members)))
    return catalog, no_repeat, basin


def catalog_walk_bytes(params: AnbParams, start_limit: int, max_steps: int) -> int:
    """Estimated bytes of the most that one walk of `cycle_catalog` holds.

    Per step: a value of at most start_limit.bit_length() + j log2((a + b)/2)
    bits at step j ((ax + b)/2^k <= (a + b) x / 2), as an int of 4 bytes per 30
    bits, and 128 bytes of header, list slot and index entry (tracemalloc
    peaks of 20,000-step walks show 96).
    """
    values = max_steps + 1
    bits = values * start_limit.bit_length()
    bits += math.log2((params.a + params.b) / 2) * max_steps * values / 2
    return values * 128 + math.ceil(bits * 4 / 30)


def _catalog_walk(
    x0: int, params: AnbParams, max_steps: int, memo: dict[int, int]
) -> list[int] | None:
    """Walk x0 as `find_cycle` does, stopping early where the memo decides it.

    Records the walk in the memo and returns its repeating part, as
    `find_cycle` reads it; an empty list when it stopped at a `_BASIN` entry,
    so that its orbit enters a known cycle; or None when it has no repeat
    within max_steps (walked to the budget or stopped by the memo).
    Memo entries, for values below 2^64 only:

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
    index = {x0: 0}
    values = [x0]
    cycle = None  # [] once the walk meets a _BASIN entry
    touched = max_steps + 1  # first step that met an entry or a value >= 2^64
    x, j = x0, 0
    while True:
        if x < _MEMO_BOUND:
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
        if j == max_steps:
            break
        j += 1
        t = a * x + b
        low = t & _LOW64 or t  # the valuation of t, from its low word if it is not 0
        x = t >> ((low & -low).bit_length() - 1)
        first = index.setdefault(x, j)
        if first != j:
            cycle = values[first:]
            break
        values.append(x)
    # A walk is remembered whole or not at all: the stop rule above relies on
    # every small value of a remembered walk being in the memo.
    if len(memo) < CATALOG_MEMO_CAP:
        if cycle is not None:  # every value walked leads into a cycle
            for x in values:
                if x < _MEMO_BOUND:
                    memo[x] = _BASIN
        else:
            for step, x in enumerate(values):
                if x < _MEMO_BOUND and step < memo.get(x, step + 1):
                    memo[x] = step
    return cycle
