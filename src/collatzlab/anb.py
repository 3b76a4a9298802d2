"""Dynamics, cycles, and identities of the generalized odd maps x -> (ax+b)/2^k.

For odd a >= 3 and odd b >= 1 the odd-to-odd map is exact integer arithmetic,
and the closed-form identity and residue-class shift law carry over with 3
replaced by a.  Unlike the 3n+1 case these procedures settle into multi-member
cycles or keep growing; nothing here ever asserts divergence, only what
happened within a finite horizon.

The steps are `dynamics.step_anb` and `dynamics.step_general` at (a, b), and
every odd-map step, `step_anb`'s or one a walk takes inline, reads its
exponent from one table, `dynamics._V2`.  The shift law is
`identities.residue_shift_check(k, m, i, params)`, and the one-walk
closed-form check is `identities.closed_form_failures`: one code path for
every map, with `identities` loaded only by the functions that call it.
`trajectory_anb` reads one walk, `anb_orbit_steps`, as do the growth
diagnostics of `scripts/anb_survey.py`; `cycle_catalog` and that script's
survey fold the walks of `catalog.catalog_walks`, which share a memo and
load only when a catalog is walked.
Tests compare the an+b code at (3, 1) with the 3n+1 code only where the two
are separate paths, so that each can catch the other: orbits
(`trajectory_anb`'s inline step against `dynamics.odd_walk`'s, and both,
with `anb_steps_extended`'s, against `step_anb`), per-n closed forms
(`closed_form_anb_check` on `anb_steps_extended` against
`identities.closed_form_check` on `odd_steps_extended`, with a literal 3)
and cycles (`find_cycle`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .dynamics import (
    _V2,
    DEFAULT_MAX_STEPS,
    AnbParams,
    ParityExponents,
    Termination,
    Trajectory,
    _require_odd,
    _v2_wide,
    collect_orbit,
    step_anb,
)

if TYPE_CHECKING:
    from .identities import ClosedFormCheck

# A walk remembers each of its values x by its fingerprint x & _FP_MASK, the
# low 64 bits: one small int a step, read in constant time however large x
# grows (hash(x) reads every digit).  A value below 2^64 is its own
# fingerprint, so a false collision needs a value of 2^64 or more.  Tests lower
# the mask to a few bits so that collisions happen.
_FP_MASK = (1 << 64) - 1


class _RepeatIndex:
    """The fingerprints of the values of one walk from x0, with an exact confirm.

    Holds no value.  The walk adds x & _FP_MASK for each value x it reaches,
    and calls `first_step` for a value whose fingerprint is in the set
    already: it walks again from x0 and compares values, which also finds
    the step of the first visit.  A false collision leaves the fingerprint
    in the set, so a later true repeat of either value is still found.
    """

    def __init__(self, x0: int, params: AnbParams) -> None:
        self.x0, self.params = x0, params
        self.fingerprints = {x0 & _FP_MASK}

    def first_step(self, x: int, j: int) -> int | None:
        """The step before j at which the walk was at x, whose fingerprint it has
        met; None if none, so that x, step j, is a false collision."""
        y = self.x0
        for s in range(j):
            if y == x:
                return s
            y = step_anb(y, self.params)[0]
        return None


def anb_steps_extended(
    x0: int, params: AnbParams, count: int
) -> tuple[list[int], list[int]]:
    """Run exactly `count` generalized odd steps, continuing through repeats.

    The arguments are checked once, and each step is taken inline, as in
    `_anb_orbit_steps`: `step_anb` would check each value again.
    """
    _require_odd(x0)
    if count < 0:
        raise ValueError("count must be >= 0")
    values = [x0]
    exponents: list[int] = []
    x, a, b, v2 = x0, params.a, params.b, _V2
    for _ in range(count):
        t = a * x + b  # x is odd, so t is even
        k = v2[t & 255] or _v2_wide(t)
        x = t >> k
        values.append(x)
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
    a, b, v2 = params.a, params.b, _V2
    seen = _RepeatIndex(x, params)
    fingerprints, mask = seen.fingerprints, _FP_MASK
    for j in range(1, max_steps + 1):
        t = a * x + b  # x is odd, so t is even
        k = v2[t & 255] or _v2_wide(t)
        x = t >> k
        fp = x & mask
        if fp in fingerprints:
            if seen.first_step(x, j) is not None:
                return
        else:
            fingerprints.add(fp)
        yield x, a, b, k


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
    """The repeating part of a walk as a CycleRecord, which checks it step by step."""
    cycle = canonical_rotation(members)
    exps = tuple(step_anb(x, params)[1] for x in cycle)
    return CycleRecord(params=params, members=cycle, exponents=exps)


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
    `catalog._catalog_walk`).
    """
    from .catalog import catalog_walks

    found: dict[tuple[int, ...], CycleRecord] = {}
    for _, cycle in catalog_walks(params, start_limit, max_steps):
        if cycle:
            record = _read_cycle(cycle, params)
            found.setdefault(record.members, record)
    return tuple(sorted(found.values(), key=lambda r: (len(r.members), r.members)))
