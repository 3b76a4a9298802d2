"""Exact dynamics of the shortcut 3n+1 map, its odd-to-odd form, and an+b variants.

All values are plain Python ints, so every operation is exact at arbitrary
precision.  The shortcut map sends even x to x/2 and odd x to (3x+1)/2; the
odd-to-odd form divides 3x+1 by its full power of two, recording the removed
exponent.  Every function here is pure and safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class AnbParams:
    """Parameters of the generalized odd map x -> (a*x + b) / 2^k.

    Both a and b must be odd so that a*x + b is even for odd x; a >= 3 keeps
    the odd branch strictly expanding before division.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 3 or self.a % 2 == 0:
            raise ValueError(f"a must be odd and >= 3, got {self.a}")
        if self.b < 1 or self.b % 2 == 0:
            raise ValueError(f"b must be odd and >= 1, got {self.b}")


@dataclass(frozen=True)
class Trajectory:
    """A finite orbit with per-step direction flags.

    values[0] is the start; steps[i] classifies the move values[i] -> values[i+1].
    """

    start: int
    values: tuple[int, ...]
    steps: tuple[StepKind, ...]
    terminated: Termination

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != self.start:
            raise ValueError("values must begin at start")
        if len(self.steps) != len(self.values) - 1:
            raise ValueError("need exactly one step kind per consecutive pair")

    @property
    def final(self) -> int:
        return self.values[-1]

    @property
    def step_count(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ParityExponents:
    """Division exponents k_1..k_n of an odd trajectory with their prefix sums.

    prefix_sums[r] is k_1 + ... + k_r (so prefix_sums[0] == 0); these are the
    exponents that appear in the closed-form trajectory identity and in the
    start-value reconstruction.
    """

    exponents: tuple[int, ...]
    prefix_sums: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(k < 1 for k in self.exponents):
            raise ValueError("exponents must be positive")
        expect = [0]
        for k in self.exponents:
            expect.append(expect[-1] + k)
        if list(self.prefix_sums) != expect:
            raise ValueError("prefix_sums inconsistent with exponents")

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "ParityExponents":
        exps = tuple(exponents)
        prefix = [0]
        for k in exps:
            prefix.append(prefix[-1] + k)
        return cls(exponents=exps, prefix_sums=tuple(prefix))

    @property
    def step_count(self) -> int:
        return len(self.exponents)

    @property
    def total(self) -> int:
        return self.prefix_sums[-1]

    @property
    def mean_k(self) -> Fraction:
        """Exact mean exponent, total / step count."""
        if not self.exponents:
            raise ValueError("mean exponent undefined for an empty step list")
        return Fraction(self.total, self.step_count)


def two_adic_valuation(n: int) -> int:
    """Largest e with 2^e dividing n (n must be positive)."""
    if n <= 0:
        raise ValueError("valuation defined for positive integers only")
    return (n & -n).bit_length() - 1


def _require_positive(x: int) -> None:
    if x < 1:
        raise ValueError(f"map is defined on integers >= 1, got {x}")


def _require_odd(x: int) -> None:
    _require_positive(x)
    if x % 2 == 0:
        raise ValueError(f"odd-to-odd map needs an odd start, got {x}")


def step_general(x: int) -> tuple[int, StepKind]:
    """One shortcut step: x/2 on evens (decrease), (3x+1)/2 on odds (increase)."""
    _require_positive(x)
    if x % 2 == 0:
        return x // 2, StepKind.DECREASE
    return (3 * x + 1) // 2, StepKind.INCREASE


def step_odd(x: int) -> tuple[int, int]:
    """One odd-to-odd step: returns (y, k) with 3x+1 == 2^k * y and y odd."""
    _require_odd(x)
    t = 3 * x + 1
    k = two_adic_valuation(t)
    return t >> k, k


def step_anb(x: int, params: AnbParams) -> tuple[int, int]:
    """One generalized odd step: returns (y, k) with a*x+b == 2^k * y, y odd."""
    _require_odd(x)
    t = params.a * x + params.b
    k = two_adic_valuation(t)
    return t >> k, k


def orbit_steps(
    x0: int, max_steps: int = DEFAULT_MAX_STEPS, odd: bool = False
) -> Iterator[tuple[int, int, int, int]]:
    """Walk the shortcut map, or with odd=True the odd-to-odd map, from x0.

    Yields one record (y, mul, add, k) per step, with y = (mul * x + add) / 2^k
    the value the step reaches from x: (1, 0, 1) for a halving, (3, 1, 1) for
    a shortcut odd step, (3, 1, k) for an odd-to-odd step.  The walk stops
    when it reaches 1 or after max_steps steps; the arguments are checked
    before the first step.
    """
    if odd:
        _require_odd(x0)
    else:
        _require_positive(x0)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    return _orbit_steps(x0, max_steps, odd)


def _orbit_steps(x: int, max_steps: int, odd: bool) -> Iterator[tuple[int, int, int, int]]:
    for _ in range(max_steps):
        if x == 1:
            return
        if odd:
            x, k = step_odd(x)
            yield x, 3, 1, k
        else:
            x, kind = step_general(x)
            yield (x, 3, 1, 1) if kind is StepKind.INCREASE else (x, 1, 0, 1)


def collect_orbit(
    x0: int, records: Iterable[tuple[int, int, int, int]]
) -> tuple[list[int], list[StepKind], list[int]]:
    """The values, step kinds and exponents of the step records of a walk from x0."""
    values = [x0]
    steps: list[StepKind] = []
    exponents: list[int] = []
    for y, _, _, k in records:
        steps.append(StepKind.INCREASE if y > values[-1] else StepKind.DECREASE)
        values.append(y)
        exponents.append(k)
    return values, steps, exponents


def trajectory_general(x0: int, max_steps: int = DEFAULT_MAX_STEPS) -> Trajectory:
    """Iterate the shortcut map until the value 1 is reached or max_steps pass.

    Reaching 1 is equivalent to entering the terminal [2,1] loop, and cheaper
    to test.  Hitting the step budget is a status, not an error.
    """
    values, steps, _ = collect_orbit(x0, orbit_steps(x0, max_steps))
    done = Termination.REACHED_ONE if values[-1] == 1 else Termination.STEP_LIMIT
    return Trajectory(start=x0, values=tuple(values), steps=tuple(steps), terminated=done)


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
    x = x0
    for _ in range(max_steps):
        if x == 1:
            break
        t = 3 * x + 1
        k = (t & -t).bit_length() - 1
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
    steps = tuple(
        StepKind.INCREASE if y > x else StepKind.DECREASE for x, y in zip(values, values[1:])
    )
    done = Termination.REACHED_ONE if values[-1] == 1 else Termination.STEP_LIMIT
    traj = Trajectory(start=x0, values=tuple(values), steps=steps, terminated=done)
    return traj, ParityExponents.from_exponents(exponents)


def classify_counts(trajectory: Trajectory) -> tuple[int, int]:
    """Count (increases, decreases) along a trajectory."""
    inc = sum(1 for s in trajectory.steps if s is StepKind.INCREASE)
    return inc, len(trajectory.steps) - inc


def exponent_bookkeeping_report(x0: int, max_steps: int = DEFAULT_MAX_STEPS) -> dict:
    """Relate odd-step exponents to shortcut-step direction counts for one start.

    For an odd start whose orbit reaches 1, the exponent total over the odd
    trajectory equals (odd steps) + (shortcut decreases): each odd step with
    exponent k expands to one increase plus k-1 decreases.  A widely quoted
    variant subtracts one more; the report carries the observed offset against
    that variant so the discrepancy stays visible instead of being patched.
    """
    _require_odd(x0)
    traj_o, exps = trajectory_odd(x0, max_steps=max_steps)
    traj_g = trajectory_general(x0, max_steps=max_steps * 4 + 4)
    if traj_o.terminated is not Termination.REACHED_ONE:
        raise ValueError("report requires an orbit that reaches 1 within max_steps")
    _, decreases = classify_counts(traj_g)
    n = exps.step_count
    return {
        "start": x0,
        "sum_exponents": exps.total,
        "odd_steps": n,
        "general_decreases": decreases,
        "identity_holds": exps.total == n + decreases,
        "offset_vs_minus_one_variant": exps.total - (n + decreases - 1),
    }
