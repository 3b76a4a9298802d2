"""Exact dynamics of the shortcut an+b maps, 3n+1 among them, and their odd-to-odd form.

The step family lives here, in (a, b) with 3n+1 as `COLLATZ` = (3, 1).  The
shortcut map sends even x to x/2 and odd x to (ax+b)/2 (`step_general`); the
odd-to-odd form divides ax+b by its full power of two, recording the removed
exponent (`step_anb`).  These two are the Python-int references every other
walker is tested against.  Every odd-map step, `step_anb`'s and those the
walkers take inline, reads its exponent from one table of byte valuations,
`_V2`.  `orbit_steps`, the walk `trajectory` renders, takes each step
inline; `trajectory_general` is the walk by `step_general` it is tested
against, as `odd_walk`'s inline steps are tested against `step_anb`.
`_packed_step` takes the 3n+1 shortcut step on the lanes of one Python int
at once, for the shift-law table and the blocked lemma7 walks, with no numpy
(the sweep's uint64 form lives in `sweep`).  A lane is a whole number of
bytes wide, as few as the largest value its walk forms needs: a big-int
operation costs in proportion to its length.  The
records keep only what they cannot derive: a `Trajectory` its values and
why it stopped, `ParityExponents` the exponents; step kinds and prefix sums
are read from those.  Python-int values are exact at arbitrary precision.
Every function here is pure and safe to call from any thread.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

DEFAULT_MAX_STEPS = 10**5


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds the per-call work budget."""


class StepKind(Enum):
    """Direction of a single step: the value strictly grew or strictly shrank."""

    INCREASE = "increase"
    DECREASE = "decrease"


class Termination(Enum):
    """Why a trajectory stopped being extended."""

    REACHED_ONE = "reached-one"
    REACHED_CYCLE = "reached-cycle"
    STEP_LIMIT = "step-limit"


class AnbParams(NamedTuple("AnbParams", [("a", int), ("b", int)])):
    """Parameters of the generalized odd map x -> (a*x + b) / 2^k.

    Both a and b must be odd so that a*x + b is even for odd x; a >= 3 keeps
    the odd branch strictly expanding before division.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> AnbParams:
        if a < 3 or a % 2 == 0:
            raise ValueError(f"a must be odd and >= 3, got {a}")
        if b < 1 or b % 2 == 0:
            raise ValueError(f"b must be odd and >= 1, got {b}")
        return super().__new__(cls, a, b)


COLLATZ = AnbParams(3, 1)


class Trajectory(NamedTuple):
    """A finite orbit from values[0], and how its walk ended."""

    values: tuple[int, ...]
    terminated: Termination

    @property
    def step_count(self) -> int:
        return len(self.values) - 1


class ParityExponents(NamedTuple("ParityExponents", [("exponents", tuple)])):
    """Division exponents k_1..k_n of an odd trajectory, and their prefix sums.

    prefix_sums[r] is k_1 + ... + k_r (so prefix_sums[0] == 0); these are the
    exponents that appear in the closed-form trajectory identity and in the
    start-value reconstruction.
    """

    __slots__ = ()

    def __new__(cls, exponents: tuple[int, ...]) -> ParityExponents:
        if any(k < 1 for k in exponents):
            raise ValueError("exponents must be positive")
        return super().__new__(cls, exponents)

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        return tuple(accumulate(self.exponents, initial=0))

    @property
    def step_count(self) -> int:
        return len(self.exponents)


# The 2-adic valuation of each byte, 0 for the zero byte.  Every odd-map step
# reads k = v2(a x + b) as _V2[t & 255] or _v2_wide(t): t is even, since a and
# b are odd, so a 0 from the table means only that t's low byte is 0 (1 even t
# in 128).
_V2 = tuple((i & -i).bit_length() - 1 if i else 0 for i in range(256))
_LOW64 = (1 << 64) - 1


def _v2_wide(t: int) -> int:
    """The 2-adic valuation of t > 0, from its low word if that is not 0."""
    low = t & _LOW64 or t
    return (low & -low).bit_length() - 1


def two_adic_valuation(n: int) -> int:
    """Largest e with 2^e dividing n (n must be positive)."""
    if n <= 0:
        raise ValueError("valuation defined for positive integers only")
    return _V2[n & 255] or _v2_wide(n)


def _require_positive(x: int) -> None:
    if x < 1:
        raise ValueError(f"map is defined on integers >= 1, got {x}")


def _require_odd(x: int) -> None:
    _require_positive(x)
    if not x & 1:
        raise ValueError(f"odd-to-odd map needs an odd start, got {x}")


def step_general(x: int, params: AnbParams = COLLATZ) -> tuple[int, StepKind]:
    """One shortcut step: x/2 on evens (decrease), (ax+b)/2 on odds (increase)."""
    _require_positive(x)
    if not x & 1:
        return x >> 1, StepKind.DECREASE
    return (params.a * x + params.b) >> 1, StepKind.INCREASE


def step_anb(x: int, params: AnbParams = COLLATZ) -> tuple[int, int]:
    """One odd-to-odd step: returns (y, k) with a*x+b == 2^k * y, y odd."""
    _require_odd(x)
    t = params.a * x + params.b
    k = two_adic_valuation(t)
    return t >> k, k


# Lanes per packed block.  Fewer lanes pay each big-int operation's fixed cost
# more often, and many more make a block's operands outgrow the CPU's faster
# caches: the benchmark's lemma7 and half-split class ops run fastest between
# 2^10 and 2^12 lanes (`identities.lemma7_checks_per_s`,
# `halfsplit.class_reps_per_s`).
LANE_BLOCK = 1 << 12


def _lane_width(bound: int) -> int:
    """The least whole number of bytes that holds every value up to bound >= 1."""
    return (bound.bit_length() + 7) // 8


@lru_cache(maxsize=64)
def _lane_ones(lanes: int, width: int) -> int:
    """The packed int with 1 in each of `lanes` lanes of `width` bytes."""
    return int.from_bytes((b"\1" + bytes(width - 1)) * lanes, "little")


def _pack_lanes(values: Sequence[int], width: int) -> int:
    """The packed int whose lane j, `width` bytes wide, holds values[j] >= 0.

    One value is its own packed int, with no copy to bytes and back.
    """
    if len(values) == 1:
        return values[0]
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _unpack_lanes(x: int, lanes: int, width: int) -> list[int]:
    """The first `lanes` lanes, `width` bytes wide, of the packed int x >= 0.

    Raises OverflowError if x has bits past its last lane.
    """
    raw = x.to_bytes(width * lanes, "little")
    return [int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width)]


def _packed_step(x: int, one: int, width: int) -> tuple[int, int]:
    """One 3n+1 shortcut step on every `width`-byte lane of x; also the mask of the odd lanes.

    one holds 1 in each lane of x (lanes past x are harmless).  (x + 1) >> 1,
    plus x, where x is odd, and x >> 1 where it is even: 3x is never formed,
    no lane of x + 1 has a low bit for the shift to move into the lane below,
    and 0 stays 0.  The mask is all ones in each lane where x was odd.  Exact
    while no lane of x + 1 or of the result passes 2^(8 width) - 1, so that no
    lane carries into the next.
    """
    o = x & one
    odd = (o << 8 * width) - o
    return ((x + o) >> 1) + (x & odd), odd


def orbit_steps(
    x0: int, max_steps: int = DEFAULT_MAX_STEPS, odd: bool = False
) -> Iterator[tuple[int, int, int, int]]:
    """Walk the shortcut map, or with odd=True the odd-to-odd map, from x0.

    Yields one record (y, mul, add, k) per step, with y = (mul * x + add) / 2^k
    the value the step reaches from x: (1, 0, 1) for a halving, (3, 1, 1) for
    a shortcut odd step, (3, 1, k) for an odd-to-odd step.  The walk stops
    when it reaches 1 or after max_steps steps; the arguments are checked
    before the first step, and each step is taken inline.
    """
    if odd:
        _require_odd(x0)
    else:
        _require_positive(x0)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    return _orbit_steps(x0, max_steps, odd)


def _orbit_steps(x: int, max_steps: int, odd: bool) -> Iterator[tuple[int, int, int, int]]:
    # Each step inline, not through step_general or step_anb: this is the walk
    # `trajectory` renders, and a call a step, which checks its argument
    # again, costs more than the step's own arithmetic on values of fewer
    # than about a thousand digits.
    if odd:
        v2 = _V2
        for _ in range(max_steps):
            if x == 1:
                return
            t = 3 * x + 1
            k = v2[t & 255] or _v2_wide(t)
            x = t >> k
            yield x, 3, 1, k
        return
    for _ in range(max_steps):
        if x == 1:
            return
        if x & 1:
            x = (3 * x + 1) >> 1
            yield x, 3, 1, 1
        else:
            x >>= 1
            yield x, 1, 0, 1


def collect_orbit(
    x0: int, records: Iterable[tuple[int, int, int, int]]
) -> tuple[list[int], list[int]]:
    """The values and exponents of the step records of a walk from x0."""
    values = [x0]
    exponents: list[int] = []
    for y, _, _, k in records:
        values.append(y)
        exponents.append(k)
    return values, exponents


def trajectory_general(x0: int, max_steps: int = DEFAULT_MAX_STEPS) -> Trajectory:
    """Iterate the shortcut map until the value 1 is reached or max_steps pass.

    Reaching 1 is equivalent to entering the terminal [2,1] loop, and cheaper
    to test.  Hitting the step budget is a status, not an error.  The walk
    calls `step_general` a step: it is the reference the inline walk of
    `orbit_steps` is tested against.
    """
    _require_positive(x0)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    values = [x0]
    for _ in range(max_steps):
        if values[-1] == 1:
            break
        values.append(step_general(values[-1])[0])
    done = Termination.REACHED_ONE if values[-1] == 1 else Termination.STEP_LIMIT
    return Trajectory(values=tuple(values), terminated=done)


def odd_walk(x0: int, max_steps: int = DEFAULT_MAX_STEPS) -> tuple[list[int], list[int]]:
    """Walk the odd-to-odd map from x0 until 1 or for max_steps steps.

    Returns (values, exponents) with values[0] == x0 and 3 values[r] + 1 ==
    2^exponents[r] values[r+1].  The arguments are checked once, and each step
    is taken inline: this is the loop the odd trajectory and the eq2 and bohm
    checks run on.
    """
    _require_odd(x0)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    values = [x0]
    exponents: list[int] = []
    x, v2 = x0, _V2
    # The step inline, not through step_anb, which would check each value
    # again: on the small values of the eq2 and bohm checks that call and
    # check cost more than the step.
    for _ in range(max_steps):
        if x == 1:
            break
        t = 3 * x + 1
        k = v2[t & 255] or _v2_wide(t)
        x = t >> k
        values.append(x)
        exponents.append(k)
    return values, exponents


def odd_steps_extended(x0: int, count: int) -> tuple[list[int], list[int]]:
    """Run exactly `count` odd-to-odd steps, continuing through the fixed point 1.

    The odd procedure never halts on its own (1 maps to 1 with exponent 2), so
    any number of steps is well defined.  Returns (values, exponents) with
    len(values) == count + 1.
    """
    _require_odd(x0)
    if count < 0:
        raise ValueError("count must be >= 0")
    values, exponents = odd_walk(x0, count)
    rest = count - len(exponents)  # steps at the fixed point: 3 * 1 + 1 == 2^2 * 1
    values += [1] * rest
    exponents += [2] * rest
    return values, exponents


def trajectory_odd(
    x0: int, max_steps: int = DEFAULT_MAX_STEPS
) -> tuple[Trajectory, ParityExponents]:
    """Iterate the odd-to-odd map until 1 is reached or max_steps pass.

    Step kinds compare consecutive odd values; equality cannot occur because
    the only fixed point is 1 and the iteration stops there.
    """
    values, exponents = odd_walk(x0, max_steps)
    done = Termination.REACHED_ONE if values[-1] == 1 else Termination.STEP_LIMIT
    return Trajectory(values=tuple(values), terminated=done), ParityExponents(tuple(exponents))
