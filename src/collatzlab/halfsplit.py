"""Exact half-split tallies over the ranges {1, ..., 2^M}.

At every step n <= M-1, exactly half of the 2^M starts take an increase step
and half a decrease step.  This module verifies that by direct counting, by a
residue-class shortcut (the step-n direction of x depends only on x mod 2^n).
The direct tallies of disjoint subranges add up, step by step, to the tally
of their union.

The tally of step n and the right side of the blocked lemma7 check read one
depth-first walk of the Terras tree, `shift_blocks`, in packed blocks: each
entry is a 64-bit lane of a Python int, stepped by `dynamics._packed_step`, so
neither loads numpy.  The walk holds one block a level of its path, never a
whole level.  `step_kind_at`, a walk by `dynamics.step_general`, is the
per-element reference.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .dynamics import (
    LANE_BLOCK, ResourceLimitError, StepKind, _lane_ones, _packed_step, step_general,
)

# The direct walker stops before it walks above these many elements, tallied
# steps (it holds a row per step) or element-steps (M = 21 makes 2^21 x 20).
DIRECT_ELEMENT_LIMIT = 1 << 21
DIRECT_STEP_LIMIT = 1 << 16
DIRECT_ELEMENT_STEP_LIMIT = 1 << 26

# The class tally of steps 1..s steps the 2^n residues of each level n = 1..s-1
# once: 2^s - 2 lane-steps.  At 2^27 that is step 27, which M = 28 tallies.
CLASSES_STEP_LIMIT = 1 << 27

# halfsplit_verify stops above this M: its reports and messages print counts
# near 2^M, which has 19,729 decimal digits at the limit.
M_LIMIT = 1 << 16

# For i < 2^n the image T^n(i) is below 3^n, so T^n(i) + 3^p, the n-step image
# of i + 2^n, is below 2 * 3^n: within uint64 up to level 39, which step 40 reads.
CLASSES_UINT64_MAX_STEP = 40


class StepTally(NamedTuple):
    """Counts of increase/decrease steps at one step index (1-based)."""

    step: int
    increases: int
    decreases: int
    within_theorem: bool


class HalfSplitReport(NamedTuple):
    """Per-step tallies over the starts lo..hi, an interval inside [1, 2^M].

    Steps beyond M-1 may be tallied too but are flagged as outside the range
    where the exact half split is guaranteed.  Step M still splits exactly in
    half (see `halfsplit_by_classes`); step M+1 does not for M = 3..14.
    """

    M: int
    lo: int
    hi: int
    tallies: tuple[StepTally, ...]

    @property
    def element_count(self) -> int:
        return self.hi - self.lo + 1

    @property
    def covers_full_range(self) -> bool:
        return (self.lo, self.hi) == (1, 1 << self.M)


def halfsplit_verify(
    M: int,
    subrange: tuple[int, int] | None = None,
    steps: int | None = None,
    method: str = "direct",
) -> HalfSplitReport:
    """Tally step directions for the starts in [1, 2^M] (or a subrange of it).

    method "direct" walks every element and is the oracle; method "classes"
    counts the residue classes mod 2^n that increase at step n and multiplies
    by the class cardinality 2^(M-n), valid on the full range for steps
    n <= M.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if M > M_LIMIT:
        raise ResourceLimitError(f"M = {M} is over the budget of {M_LIMIT}; lower M")
    top = 1 << M
    if steps is None:
        steps = M - 1
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if subrange is None:
        lo, hi = 1, top
    else:
        lo, hi = subrange
        if not 1 <= lo <= hi <= top:
            raise ValueError(f"subrange must sit inside [1, {top}]")
    if method == "direct":
        count = hi - lo + 1
        if count > DIRECT_ELEMENT_LIMIT:
            raise ResourceLimitError(
                f"direct tally over {count} elements exceeds the budget of "
                f"{DIRECT_ELEMENT_LIMIT}; tally subranges of at most "
                f"{DIRECT_ELEMENT_LIMIT} elements one at a time (--lo/--hi), or use "
                "method='classes' for the full range"
            )
        if steps > DIRECT_STEP_LIMIT:
            raise ResourceLimitError(f"direct tally of {steps} steps exceeds the budget of "
                                     f"{DIRECT_STEP_LIMIT} tallied steps; tally fewer steps")
        if count * steps > DIRECT_ELEMENT_STEP_LIMIT:
            raise ResourceLimitError(
                f"direct tally of {count} elements x {steps} steps exceeds the budget of "
                f"{DIRECT_ELEMENT_STEP_LIMIT} element-steps; split the range, or tally "
                "fewer steps")
        return _halfsplit_direct(M, lo, hi, steps)
    if method == "classes":
        if subrange is not None and (lo, hi) != (1, top):
            raise ValueError("class-based tally is only valid on the full range")
        return halfsplit_by_classes(M, steps)
    raise ValueError(f"unknown method {method!r}")


def _halfsplit_direct(M: int, lo: int, hi: int, steps: int) -> HalfSplitReport:
    # The step inline, not through step_general, whose call, argument check and
    # StepKind cost several times the step's shift and add.
    inc = [0] * (steps + 1)
    for x in range(lo, hi + 1):
        v = x
        for n in range(1, steps + 1):
            if v & 1:
                inc[n] += 1
                v = (3 * v + 1) >> 1
            else:
                v >>= 1
    count = hi - lo + 1
    tallies = tuple(
        StepTally(n, inc[n], count - inc[n], within_theorem=n <= M - 1)
        for n in range(1, steps + 1)
    )
    return HalfSplitReport(M, lo, hi, tallies)


def halfsplit_by_classes(M: int, steps: int | None = None) -> HalfSplitReport:
    """Full-range tally computed from the residue classes mod 2^n.

    The step-n direction of x depends only on x mod 2^n, so counting the odd
    (n-1)-step images of the 2^n residues and scaling by 2^(M-n) gives the
    exact full-range tally without touching all 2^M elements.  That holds up
    to step M, where each class has one member; step M splits in half too,
    since the shift law with m = 1 pairs i with i + 2^(M-1) at opposite
    parities, but lies past the theorem's bound and is flagged outside it.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if steps is None:
        steps = M - 1
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps > M:
        raise ValueError("class cardinalities are equal only for steps <= M; "
                         "use the direct method for later steps")
    blocks = shift_blocks(steps - 1) if steps else ()  # its uint64 guard first
    if (1 << steps) - 2 > CLASSES_STEP_LIMIT:
        raise ResourceLimitError(
            f"class tally to step {steps} takes 2^{steps} - 2 lane-steps, over the work budget "
            f"of {CLASSES_STEP_LIMIT}; it admits steps up to "
            f"{(CLASSES_STEP_LIMIT + 2).bit_length() - 1}")
    one, odd = _lane_ones(LANE_BLOCK), [0] * steps
    for n, _, image, power in blocks:
        # the parities of T^n(i) and, by the shift law, T^n(i + 2^n): step n + 1
        odd[n] += (image & one).bit_count() + ((image + power) & one).bit_count()
    tallies = tuple(StepTally(n, c << M - n, (1 << M) - (c << M - n), within_theorem=n <= M - 1)
                    for n, c in enumerate(odd, start=1))
    return HalfSplitReport(M, 1, 1 << M, tallies)


def shift_blocks(k: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield the blocks (n, b, image, power) of (T^n(i), 3^p_n(i)) over i < 2^n, n = 0..k.

    p_n(i) counts the increases among the first n steps of i (T(0) = 0).  The
    image and power are packed ints of up to `LANE_BLOCK` lanes: lane j of
    block b of level n is residue b * LANE_BLOCK + j.  This is Terras'
    parity-vector bijection: the shift law with m = 1, T^n(i + 2^n) = 3^p + T^n(i),
    refines a block of level n to the residues mod 2^(n+1) for one add, then
    one `_packed_step` takes them to level n+1.  Levels below `LANE_BLOCK`
    lanes are one block, which doubles; past that, block b of level n refines
    into blocks b and b + 2^n / LANE_BLOCK of level n+1, yielded depth first
    after it.  So the walk holds one block a level of its path.
    """
    if k >= CLASSES_UINT64_MAX_STEP:
        raise ResourceLimitError(f"class tally for step {k + 1} would overflow uint64 images; "
                                 f"it stops at step {CLASSES_UINT64_MAX_STEP}")
    return _subtree(k, 0, 0, 0, 1)


def _subtree(k: int, n: int, b: int, image: int, power: int) -> Iterator[tuple[int, int, int, int]]:
    """Block b of level n, then depth first its refinements to level k."""
    yield n, b, image, power
    if n >= k:
        return
    if 1 << n < LANE_BLOCK:  # one block, which doubles
        width = 64 << n
        yield from _subtree(k, n + 1, 0, *_refined_step(
            image | (image + power) << width, power | power << width, _lane_ones(2 << n)))
    else:
        one = _lane_ones(LANE_BLOCK)
        yield from _subtree(k, n + 1, b, *_refined_step(image, power, one))
        yield from _subtree(k, n + 1, b + (1 << n) // LANE_BLOCK,
                            *_refined_step(image + power, power, one))


def _refined_step(image: int, power: int, one: int) -> tuple[int, int]:
    """One step of a packed block of images, and its powers times 3 where a step increased."""
    image, odd = _packed_step(image, one)
    return image, power + ((power << 1) & odd)


def step_kind_at(x: int, n: int) -> StepKind:
    """Direction of step n (1-based) of the shortcut orbit of x."""
    if x < 1 or n < 1:
        raise ValueError("need x >= 1 and n >= 1")
    for _ in range(n - 1):
        x = step_general(x)[0]
    return step_general(x)[1]

