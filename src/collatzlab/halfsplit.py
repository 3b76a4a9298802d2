"""Exact half-split tallies over the ranges {1, ..., 2^M}.

At every step n <= M-1, exactly half of the 2^M starts take an increase step
and half a decrease step.  This module verifies that by direct counting, by a
residue-class shortcut (the step-n direction of x depends only on x mod 2^n).
Reports over disjoint subranges merge by component-wise addition, which is
what makes range-partitioned runs exact.

The tally of step n and the right side of the blocked lemma7 check read one
shift-law table, `shift_table`, refined level by level; `_step_parities` is
its per-class view of a step, and `step_kind_at` the per-element reference.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dynamics import ResourceLimitError, StepKind, _shortcut_step
from .identities import _walk_shortcut_zero

if TYPE_CHECKING:
    import numpy as np

# The direct walker stops before it walks above these many elements, tallied
# steps (it holds a row per step) or element-steps (M = 21 makes 2^21 x 20).
DIRECT_ELEMENT_LIMIT = 1 << 21
DIRECT_STEP_LIMIT = 1 << 16
DIRECT_ELEMENT_STEP_LIMIT = 1 << 26

# Bytes per entry of a shift table: images, powers and step scratch in uint64,
# and a parity byte for each of the twice as many residues whose tally reads
# it.  At 256 MB that is level 23, which step 24 (M = 25) reads.
CLASSES_MEMORY_LIMIT = 1 << 28
_CLASS_BYTES = 26

# halfsplit_verify stops above this M: its reports and messages print counts
# near 2^M, which has 19,729 decimal digits at the limit.
M_LIMIT = 1 << 16

# For i < 2^n the image T^n(i) is below 3^n, so T^n(i) + 3^p, the n-step image
# of i + 2^n, is below 2 * 3^n: within uint64 up to level 39, which step 40 reads.
CLASSES_UINT64_MAX_STEP = 40


@dataclass(frozen=True)
class StepTally:
    """Counts of increase/decrease steps at one step index (1-based)."""

    step: int
    increases: int
    decreases: int
    within_theorem: bool

    def __add__(self, other: "StepTally") -> "StepTally":
        if (self.step, self.within_theorem) != (other.step, other.within_theorem):
            raise ValueError("cannot add tallies for different steps")
        return StepTally(
            step=self.step,
            increases=self.increases + other.increases,
            decreases=self.decreases + other.decreases,
            within_theorem=self.within_theorem,
        )


@dataclass(frozen=True)
class HalfSplitReport:
    """Per-step tallies over a union of disjoint intervals inside [1, 2^M].

    Steps beyond M-1 may be tallied too but are flagged as outside the range
    where the exact half split is guaranteed.  Step M still splits exactly in
    half (see `halfsplit_by_classes`); step M+1 does not for M = 3..14.
    """

    M: int
    intervals: tuple[tuple[int, int], ...]
    tallies: tuple[StepTally, ...]

    @property
    def element_count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    @property
    def covers_full_range(self) -> bool:
        return self.intervals == ((1, 1 << self.M),)

    def merge(self, other: "HalfSplitReport") -> "HalfSplitReport":
        """Component-wise sum of two reports over disjoint subranges."""
        if self.M != other.M:
            raise ValueError("reports cover different ranges")
        if len(self.tallies) != len(other.tallies):
            raise ValueError("reports tally different step counts")
        merged = _normalize_intervals(self.intervals + other.intervals)
        return HalfSplitReport(
            M=self.M,
            intervals=merged,
            tallies=tuple(a + b for a, b in zip(self.tallies, other.tallies)),
        )

    def exact_split(self) -> bool:
        """True when every within-theorem tally splits the range exactly in half."""
        half, rem = divmod(self.element_count, 2)
        if rem:
            return False
        return all(
            t.increases == half and t.decreases == half
            for t in self.tallies
            if t.within_theorem
        )


def _normalize_intervals(
    intervals: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    parts = sorted(intervals)
    out: list[tuple[int, int]] = []
    for lo, hi in parts:
        if out and lo <= out[-1][1]:
            raise ValueError("subranges overlap")
        if out and lo == out[-1][1] + 1:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


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
                f"{DIRECT_ELEMENT_LIMIT}; split the range into subranges of at most "
                f"{DIRECT_ELEMENT_LIMIT} elements and merge the reports, or use "
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
    # The step inline, not through step_general: M = 16 tallies in 0.14 s
    # against 0.67 s (medians of 5 paired runs, 2-vCPU Xeon, Python 3.11).
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
    return HalfSplitReport(M=M, intervals=((lo, hi),), tallies=tallies)


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
        raise ValueError(
            "class cardinalities are equal only for steps <= M; "
            "use the direct method for later steps"
        )
    import numpy as np

    tallies = []
    # step n reads level n - 1; zip asks the range first, so steps = 0 builds none
    for n, (image, power) in zip(range(1, steps + 1), shift_table(steps - 1)):
        inc = int(np.count_nonzero(_step_parities(image, power))) << (M - n)
        tallies.append(StepTally(n, inc, (1 << M) - inc, within_theorem=n <= M - 1))
    return HalfSplitReport(M=M, intervals=((1, 1 << M),), tallies=tuple(tallies))


def shift_table(k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield uint64 views (T^n(i), 3^p_n(i)) over the residues i < 2^n, n = 0..k.

    p_n(i) counts the increases among the first n steps of i (T(0) = 0).  This
    is Terras' parity-vector bijection: the shift law with m = 1,
    T^(n-1)(i + 2^(n-1)) = 3^p + T^(n-1)(i), refines level n-1 to the residues
    mod 2^n for one add each, then one `_shortcut_step` takes them to level n,
    which overwrites the views of level n-1.
    """
    if k >= CLASSES_UINT64_MAX_STEP:
        raise ResourceLimitError(f"class tally for step {k + 1} would overflow uint64 images; "
                                 f"it stops at step {CLASSES_UINT64_MAX_STEP}")
    if _CLASS_BYTES << k > CLASSES_MEMORY_LIMIT:
        raise ResourceLimitError(
            f"shift table to level {k}, which the class tally of step {k + 1} reads, holds "
            f"{_CLASS_BYTES << k} bytes; the memory budget of {CLASSES_MEMORY_LIMIT} bytes "
            f"stops at step {(CLASSES_MEMORY_LIMIT // _CLASS_BYTES).bit_length()}")
    import numpy as np

    image = np.zeros(1 << k, dtype=np.uint64)
    power = np.ones(1 << k, dtype=np.uint64)
    odd = np.empty(1 << k, dtype=np.uint64)
    yield image[:1], power[:1]
    for n in range(k):
        size = 1 << n
        np.add(image[:size], power[:size], out=image[size : 2 * size])
        power[size : 2 * size] = power[:size]
        v, w, o = image[: 2 * size], power[: 2 * size], odd[: 2 * size]
        _shortcut_step(v, o)
        o <<= 1  # 3 where the step increased, 1 elsewhere
        o += 1
        w *= o
        yield v, w


def _step_parities(image: np.ndarray, power: np.ndarray) -> np.ndarray:
    """From level n of `shift_table`, the parity of T^n(i) for each i < 2^(n+1).

    One byte each, read from the low bytes of the level; i + 2^n takes that of
    T^n(i) + 3^p, the shift law at m = 1.
    """
    import numpy as np

    low = 0 if np.little_endian else 7
    image, power = (a.view(np.uint8)[low::8] for a in (image, power))
    odd = np.empty(2 * image.size, dtype=np.uint8)
    np.bitwise_and(image, 1, out=odd[: image.size])
    np.add(image, power, out=odd[image.size :])
    odd[image.size :] &= 1
    return odd


def step_kind_at(x: int, n: int) -> StepKind:
    """Direction of step n (1-based) of the shortcut orbit of x."""
    if x < 1 or n < 1:
        raise ValueError("need x >= 1 and n >= 1")
    y, _ = _walk_shortcut_zero(x, n - 1)
    return StepKind.INCREASE if y % 2 else StepKind.DECREASE

