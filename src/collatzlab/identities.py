"""Exact algebraic identities of shortcut 3n+1 trajectories.

Everything here is checked in integer or Fraction arithmetic; no identity is
ever tested through floats.  Each check computes its two sides through
independent code paths (iteration on one side, the closed formula on the
other) so a bug in either cannot confirm itself.

The residue-class shift law is quantified over residues 0 <= i < 2^k, so the
walkers used by it extend the map with the local convention T(0) = 0; such
steps count as decreases by convention and never contribute to increase
tallies.  The public trajectory API in `dynamics` is not affected.

The blocked shift-law check walks 2^k m + i with `_shortcut_step` and reads
its right side from `halfsplit.shift_table`, built with the same step; so the
check is also the correctness check of that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .dynamics import ParityExponents, StepKind, odd_steps_extended, step_general

if TYPE_CHECKING:
    import numpy as np

# residue_shift_blocks walks 2^k m + i for k steps in uint64.  With
# x_0 + 1 <= 2^k (m + 1) and x_(n+1) + 1 <= 3/2 (x_n + 1), every value the walk
# forms (it never forms 3x) is below 3^k (m + 1), and so is 3^p m + T^k(i).
# For m below SHIFT_M_BOUND that stays within 2^64 up to k = SHIFT_UINT64_MAX_K.
SHIFT_M_BOUND = 1 << 20
SHIFT_UINT64_MAX_K = 27
_SHIFT_BLOCK = 1 << 13  # grid elements per block


@dataclass(frozen=True)
class ResidueClass:
    """The residue class 2^k * m + i of the integers mod 2^k."""

    modulus_exponent: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus_exponent < 1:
            raise ValueError("modulus exponent must be >= 1")
        if not 0 <= self.residue < (1 << self.modulus_exponent):
            raise ValueError("residue out of range for modulus")

    @property
    def modulus(self) -> int:
        return 1 << self.modulus_exponent


class ShiftCheck(NamedTuple):
    holds: bool
    increase_count: int
    lhs: int
    rhs: int


class ClosedFormCheck(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


class GeometricSumCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def _walk_shortcut_zero(x: int, steps: int) -> tuple[int, int]:
    """Iterate the shortcut map `steps` times from x >= 0, counting increases.

    Uses the local T(0) = 0 extension; steps taken at 0 are not increases.
    """
    if x < 0:
        raise ValueError("walker defined for x >= 0")
    increases = 0
    for _ in range(steps):
        if x == 0:
            continue
        if x % 2 == 0:
            x //= 2
        else:
            x = (3 * x + 1) // 2
            increases += 1
    return x, increases


def residue_shift_check(k: int, m: int, i: int) -> ShiftCheck:
    """Check that k shortcut steps move the class 2^k*m + i to 3^p*m + T^k(i).

    p is the number of increases among the k steps taken from the residue i.
    Both sides are produced by separate walks: the left from the full class
    representative, the right from the residue alone.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if not 0 <= i < (1 << k):
        raise ValueError("need 0 <= i < 2^k")
    lhs, _ = _walk_shortcut_zero((1 << k) * m + i, k)
    ti, p = _walk_shortcut_zero(i, k)
    rhs = 3**p * m + ti
    return ShiftCheck(holds=lhs == rhs, increase_count=p, lhs=lhs, rhs=rhs)


def _shortcut_step(x: np.ndarray, odd: np.ndarray) -> None:
    """One shortcut step on a uint64 array in place; odd ends as the old parities.

    x >> 1, plus x + 1 where x is odd: 3x is never formed, and 0 stays 0.
    """
    import numpy as np

    np.bitwise_and(x, 1, out=odd)
    odd *= x
    x >>= 1
    x += odd
    odd &= 1
    x += odd


def _walk_shortcut_zero_array(x: np.ndarray, steps: int) -> None:
    """The value of `_walk_shortcut_zero` on a uint64 array, in place."""
    import numpy as np

    odd = np.empty_like(x)
    for _ in range(steps):
        _shortcut_step(x, odd)


def residue_shift_blocks(
    k: int, ms: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Both sides of `residue_shift_check(k, m, i)` for every i < 2^k and m in ms.

    The checks are taken in the order of (i, position of m in ms), flattened
    to g = i * len(ms) + position, and yielded in blocks (g0, lhs, rhs) of
    uint64 arrays for g0 <= g < g0 + len(lhs).  As in the per-case check, the
    two sides come from separate code paths: the left walks 2^k m + i, the
    right is 3^p m + T^k(i) from level k of `halfsplit.shift_table`.
    """
    if not 1 <= k <= SHIFT_UINT64_MAX_K:
        raise ValueError(f"need 1 <= k <= {SHIFT_UINT64_MAX_K} for uint64 walks")
    import numpy as np

    from .halfsplit import shift_table

    ms = np.asarray(ms, dtype=np.uint64)
    if ms.size and int(ms.max()) >= SHIFT_M_BOUND:
        raise ValueError(f"need every m below {SHIFT_M_BOUND} for uint64 walks")
    total = ms.size << k
    *_, (image, power) = shift_table(k)
    for g0 in range(0, total, _SHIFT_BLOCK):
        g = np.arange(g0, min(g0 + _SHIFT_BLOCK, total), dtype=np.uint64)
        i, pos = np.divmod(g, np.uint64(ms.size))
        m = ms[pos]
        lhs = (m << np.uint64(k)) | i
        _walk_shortcut_zero_array(lhs, k)
        rhs = power[i]
        rhs *= m
        rhs += image[i]
        yield g0, lhs, rhs


def closed_form_check(
    x0: int, n: int, exponents: Sequence[int] | None = None
) -> ClosedFormCheck:
    """Check the closed form of the odd trajectory after n steps.

    With v_r the exponent prefix sums, the n-th odd value y_n satisfies

        y_n * 2^{v_n} == 3^n * x0 + sum_{r=1..n} 3^{n-r} * 2^{v_{r-1}}.

    The left side comes from iterating the odd map; the right side is the
    formula evaluated from x0 and the exponents alone.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if exponents is not None and len(exponents) < n:
        raise ValueError(f"need at least {n} exponents, got {len(exponents)}")
    values, walked = odd_steps_extended(x0, n)
    if exponents is None:
        exponents = walked
    prefix = [0]
    for k in exponents[:n]:
        prefix.append(prefix[-1] + k)
    lhs = values[n] * (1 << prefix[n])
    rhs = 3**n * x0 + sum(3 ** (n - r) * (1 << prefix[r - 1]) for r in range(1, n + 1))
    return ClosedFormCheck(lhs=lhs, rhs=rhs, holds=lhs == rhs)


def closed_form_checks(
    x0: int, values: Sequence[int], exponents: Sequence[int]
) -> Iterator[ClosedFormCheck]:
    """Check the closed form at every n = 1..len(exponents) along one walk.

    values are the odd values of the walk from x0 = values[0], exponents the
    division exponents.  The left side values[n] * 2^{v_n} is read off the
    walk; the right side is built from x0 and the exponents alone by Horner's
    rule, R_0 = x0 and R_n = 3 R_{n-1} + 2^{v_{n-1}}, which equals
    3^n x0 + sum_{r=1..n} 3^{n-r} 2^{v_{r-1}}.  Check n equals
    `closed_form_check(x0, n, exponents)`, the per-n reference.
    """
    if not values or values[0] != x0 or len(values) <= len(exponents):
        raise ValueError("need the walk's values from x0, one more than exponents")
    rhs, v = x0, 0
    for n, k in enumerate(exponents, start=1):
        rhs = 3 * rhs + (1 << v)
        v += k
        lhs = values[n] << v
        yield ClosedFormCheck(lhs=lhs, rhs=rhs, holds=lhs == rhs)


def reconstruct_start(prefix_sums: Sequence[int]) -> Fraction:
    """Rebuild a start value from exponent prefix sums 0 = v_0 < ... < v_m.

    Returns (2^{v_m} - sum_{k=0..m-1} 3^{m-k-1} 2^{v_k}) / 3^m exactly.  When
    the prefix sums come from a full odd trajectory that reached 1, the result
    is the integer start value.
    """
    v = list(prefix_sums)
    if len(v) < 2:
        raise ValueError("need at least v_0 and v_1")
    if v[0] != 0:
        raise ValueError("prefix sums must start at 0")
    if any(a >= b for a, b in zip(v, v[1:])):
        raise ValueError("prefix sums must be strictly increasing")
    # Horner's rule: s = sum_{k<m} 3^{m-k-1} 2^{v_k}, and p = 3^m alongside
    s, p = 0, 1
    for vk in v[:-1]:
        s = 3 * s + (1 << vk)
        p *= 3
    return Fraction((1 << v[-1]) - s, p)


def geometric_tail_identity(n: int, m: int) -> GeometricSumCheck:
    """Check sum_{r=n..n+m} (4/3)^r == 3 (4/3)^n ((4/3)^{m+1} - 1) exactly.

    Both sides are taken over the common denominator 3^{n+m}.  The left
    numerator is summed term by term, L = 3 L + 4^r for r = n..n+m; the right
    is the closed form 4^n (4^{m+1} - 3^{m+1}).
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    lhs, four_r = 0, 1 << 2 * n
    for _ in range(m + 1):
        lhs = 3 * lhs + four_r
        four_r <<= 2
    rhs = (1 << 2 * n) * ((1 << 2 * (m + 1)) - 3 ** (m + 1))
    den = 3 ** (n + m)
    return GeometricSumCheck(lhs=Fraction(lhs, den), rhs=Fraction(rhs, den), holds=lhs == rhs)


def _prefix_sums_for(x0: int, steps: int, exponents: Sequence[int] | None) -> list[int]:
    if exponents is None:
        _, exponents = odd_steps_extended(x0, steps)
    elif len(exponents) < steps:
        raise ValueError(f"need at least {steps} exponents, got {len(exponents)}")
    prefix = [0]
    for k in exponents[:steps]:
        prefix.append(prefix[-1] + k)
    return prefix


def heuristic_model_prefix(
    x0: int, n: int, exponents: Sequence[int] | None = None
) -> Fraction:
    """Model value after n observed steps with the denominator averaged to 4^n.

    This is the closed-form numerator 3^n x0 + sum 3^{n-r} 2^{v_{r-1}} divided
    by 4^n instead of the true 2^{v_n}: every step is treated as dividing by
    the mean power 4.  It equals the true n-th odd value times 2^{v_n - 2n}
    and is a model, never asserted equal to the trajectory.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prefix = _prefix_sums_for(x0, max(n - 1, 0), exponents)
    s = sum(3 ** (n - r) * (1 << prefix[r - 1]) for r in range(1, n + 1))
    return Fraction(3**n * x0 + s, 4**n)


def heuristic_model(
    x0: int, n: int, m: int, exponents: Sequence[int] | None = None
) -> Fraction:
    """Averaged-tail model of the value after n + m steps, expanded form.

    The first n-1 terms keep the observed exponent prefix sums; the tail terms
    at r >= n replace the per-step exponents by their mean 2, which turns each
    tail term into (4/3)^r / 4.  The tail sum is accumulated term by term so
    that the closed-form variant below remains an independent route.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    prefix = _prefix_sums_for(x0, max(n - 1, 0), exponents)
    damp = Fraction(3, 4) ** (n + m)
    head = x0 * damp
    mid = damp * sum(
        (Fraction(1 << prefix[r - 1], 3**r) for r in range(1, n)), Fraction(0)
    )
    ratio = Fraction(4, 3)
    tail_sum = sum((ratio**r for r in range(n, n + m + 1)), Fraction(0))
    tail = Fraction(1, 4) * damp * tail_sum
    return head + mid + tail


def heuristic_model_recursive(
    x0: int, n: int, m: int, exponents: Sequence[int] | None = None
) -> Fraction:
    """Averaged-tail model in its folded form.

    Factoring the expanded form collapses the head and middle terms into the
    n-1 step model value and the tail into its geometric closed form:

        model(n, m) = (3/4)^{m+1} * prefix_model(n-1) + 1 - (3/4)^{m+1}.

    Agreeing exactly with `heuristic_model` on every input is the algebraic
    content of the tail substitution.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    factor = Fraction(3, 4) ** (m + 1)
    return factor * heuristic_model_prefix(x0, n - 1, exponents) + 1 - factor


def heuristic_tail_value(m: int) -> Fraction:
    """Value of the averaged tail alone after m extra steps: 1 - (3/4)^{m+1}.

    This is the part of the model that survives as m grows; the remaining
    terms carry the factor (3/4)^{m+1} and vanish geometrically.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return 1 - Fraction(3, 4) ** (m + 1)


def _decreases_at_odd_arrivals(x0: int, odd_steps: int) -> list[int]:
    """Cumulative shortcut-decrease counts when arriving at each odd value.

    Entry j is the number of decreases taken by the shortcut map between the
    (odd) start and its j-th odd value, counted by walking the shortcut map
    directly; the odd trajectory and its exponents are never consulted.
    """
    if x0 < 1 or x0 % 2 == 0:
        raise ValueError("start must be odd and >= 1")
    counts = [0]
    x = x0
    decreases = 0
    while len(counts) <= odd_steps:
        x, kind = step_general(x)
        decreases += kind is StepKind.DECREASE
        if x % 2 == 1:
            counts.append(decreases)
    return counts


def prefix_sum_offset_report(x0: int, steps: int) -> dict:
    """Relate exponent prefix sums to decrease counts, exposing the offset.

    With D_r the shortcut decreases accumulated while expanding the first r-1
    odd steps (counted independently on the shortcut orbit), the prefix sum
    v_{r-1} equals (r - 1) + D_r.  A quoted variant writes the same quantity
    as r + D_r - 2; the report records the observed difference against that
    variant for every r rather than silently adopting either.
    """
    _, exps = odd_steps_extended(x0, steps)
    pe = ParityExponents.from_exponents(exps)
    dec_at = _decreases_at_odd_arrivals(x0, steps)
    rows = []
    for r in range(1, steps + 1):
        v_prev = pe.prefix_sums[r - 1]
        decreases_before = dec_at[r - 1]
        claimed = r + decreases_before - 2
        rows.append(
            {
                "r": r,
                "prefix_sum": v_prev,
                "decreases_before": decreases_before,
                "identity_holds": v_prev == (r - 1) + decreases_before,
                "offset_vs_minus_two_variant": v_prev - claimed,
            }
        )
    offsets = {row["offset_vs_minus_two_variant"] for row in rows}
    return {
        "start": x0,
        "rows": rows,
        "all_hold": all(row["identity_holds"] for row in rows),
        "constant_offset": offsets == {1},
    }
