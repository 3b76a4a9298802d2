"""Exact algebraic identities of shortcut 3n+1 trajectories.

Everything here is checked in integer or Fraction arithmetic; no identity is
ever tested through floats.  Each check computes its two sides through
independent code paths (iteration on one side, the closed formula on the
other) so a bug in either cannot confirm itself.

The residue-class shift law is quantified over residues 0 <= i < 2^k, so its
walker, `_walk_shortcut_zero`, extends the shortcut map of any an+b with the
local convention T(0) = 0; such steps count as decreases by convention and
never contribute to increase tallies.  The public trajectory API in
`dynamics` is not affected.  `residue_shift_check` and the one-walk
closed-form check `closed_form_failures` take (a, b) and serve `anb` too; the
one-walk check builds a record only for a failing check.  The per-n
closed-form references stay separate, `closed_form_check` here with a literal
3 and `anb.closed_form_anb_check` in (a, b), so that each can catch the
one-walk check.

The blocked shift-law check walks 2^k m + i on the packed 64-bit lanes of
Python ints with `dynamics._packed_step` and reads its right side from the
blocks of `halfsplit.shift_blocks`, a depth-first walk made with the same
step, in the order that walk yields them; so the check is also the
correctness check of that walk.  Neither loads numpy.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .dynamics import (
    COLLATZ,
    LANE_BLOCK,
    AnbParams,
    _lane_ones,
    _pack,
    _packed_step,
    _unpack,
    odd_steps_extended,
)

if TYPE_CHECKING:  # each function that builds a Fraction imports it: eq2 and lemma7 never do
    from fractions import Fraction

# residue_shift_blocks walks 2^k m + i for k steps in 64-bit lanes.  With
# x_0 + 1 <= 2^k (m + 1) and x_(n+1) + 1 <= 3/2 (x_n + 1), every value the walk
# forms (it never forms 3x) is below 3^k (m + 1), and so is 3^p m + T^k(i).
# For m below SHIFT_M_BOUND that stays within 2^64 up to k = SHIFT_UINT64_MAX_K.
SHIFT_M_BOUND = 1 << 20
SHIFT_UINT64_MAX_K = 27
_SHIFT_BLOCK = LANE_BLOCK  # most checks per block


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


def _walk_shortcut_zero(x: int, steps: int, params: AnbParams = COLLATZ) -> tuple[int, int]:
    """Iterate the shortcut map of `params` `steps` times from x >= 0, counting increases.

    Uses the local T(0) = 0 extension; steps taken at 0 are not increases.
    """
    if x < 0:
        raise ValueError("walker defined for x >= 0")
    # The step inline, not through step_general: the 819,000 shift-law checks of
    # k <= 12 run in 4.2 s against 12.4 s (medians of 5 paired runs, 2-vCPU Xeon,
    # Python 3.11).
    a, b = params.a, params.b
    increases = 0
    for _ in range(steps if x else 0):  # T(0) = 0, and no x >= 1 reaches 0
        if x % 2 == 0:
            x //= 2
        else:
            x = (a * x + b) // 2
            increases += 1
    return x, increases


def residue_shift_check(k: int, m: int, i: int, params: AnbParams = COLLATZ) -> ShiftCheck:
    """Check that k shortcut steps move the class 2^k*m + i to a^p*m + T^k(i).

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
    lhs, _ = _walk_shortcut_zero((1 << k) * m + i, k, params)
    ti, p = _walk_shortcut_zero(i, k, params)
    rhs = params.a**p * m + ti
    return ShiftCheck(holds=lhs == rhs, increase_count=p, lhs=lhs, rhs=rhs)


def _walk_packed(x: int, lanes: int, steps: int) -> int:
    """The value of `_walk_shortcut_zero` on each of the `lanes` packed lanes of x."""
    one = _lane_ones(lanes)
    for _ in range(steps):
        x, _ = _packed_step(x, one)
    return x


def residue_shift_blocks(max_k: int, ms: Iterable[int]) -> Iterator[tuple[int, int, int, int, int]]:
    """Both sides of `residue_shift_check(k, m, i)` for every k = 1..max_k, i < 2^k and m in ms.

    The checks of a level k are numbered in the order of (i, position of m in
    ms), g = i * len(ms) + position, and yielded in blocks (k, g0, count, lhs,
    rhs) of packed ints: lane j of lhs and rhs is check g0 + j, for j < count.
    A block is whole rows of one i each, or a piece of one row when ms has
    more than `_SHIFT_BLOCK` values.  The blocks follow those of one
    `halfsplit.shift_blocks(max_k)`: in g order within a table block, but
    depth first, so the levels past `LANE_BLOCK` residues interleave.  As in
    the per-case check, the two sides come from separate code paths: the left
    walks 2^k m + i, the right is 3^p m + T^k(i), one product a row of the
    packed values of m.
    """
    if not 1 <= max_k <= SHIFT_UINT64_MAX_K:
        raise ValueError(f"need 1 <= k <= {SHIFT_UINT64_MAX_K} for uint64 walks")
    if not (isinstance(ms, array) and ms.typecode == "Q"):
        ms = array("Q", ms)
    if ms and max(ms) >= SHIFT_M_BOUND:
        raise ValueError(f"need every m below {SHIFT_M_BOUND} for uint64 walks")
    if not ms:
        return
    from .halfsplit import shift_blocks

    width = min(len(ms), _SHIFT_BLOCK)  # values of m a block
    rows = _SHIFT_BLOCK // width  # values of i a block
    # lane d * width + j holds d, for each of the rows
    offsets = _join((d * _lane_ones(width) for d in range(rows)), width)
    # level 0, whose one residue no k >= 1 checks, is skipped
    for k, b, image, power in islice(shift_blocks(max_k), 1, None):
        lanes = min(1 << k, LANE_BLOCK)  # residues a table block
        image, power = _unpack(image, lanes), _unpack(power, lanes)
        for d0 in range(0, lanes, rows):
            images, powers, i0 = image[d0 : d0 + rows], power[d0 : d0 + rows], b * lanes + d0
            for p0 in range(0, len(ms), width):
                piece = ms[p0 : p0 + width]
                m, one, count = _pack(piece), _lane_ones(len(piece)), len(images) * len(piece)
                # lane (i - i0) * len(piece) + j of each side is check (i, p0 + j); with
                # few values of m a row costs more per check: --max-k 20 --samples 1
                # takes 1.58 s against 1.35 s with a product a value of m in place
                # of a row (2-vCPU Xeon, Python 3.11)
                lhs = (_pack(piece * len(images)) << k) + i0 * _lane_ones(count)
                lhs += offsets & (1 << 64 * count) - 1
                rhs = _join((p * m + t * one for p, t in zip(powers, images)), len(piece))
                yield k, i0 * len(ms) + p0, count, _walk_packed(lhs, count, k), rhs


def _join(rows: Iterable[int], lanes: int) -> int:
    """The packed int of the packed rows of `lanes` lanes each, the first row lowest."""
    return int.from_bytes(b"".join(row.to_bytes(8 * lanes, "little") for row in rows), "little")


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


def closed_form_failures(
    x0: int, values: Sequence[int], exponents: Sequence[int], params: AnbParams = COLLATZ
) -> list[tuple[int, int, int]]:
    """The failing closed-form checks of the map `params` at n = 1..len(exponents) of one walk.

    values are the odd values of the walk from x0 = values[0], exponents the
    division exponents.  The left side values[n] * 2^{v_n} is read off the
    walk; the right side is built from x0 and the exponents alone by Horner's
    rule, R_0 = x0 and R_n = a R_{n-1} + b 2^{v_{n-1}}, which equals
    a^n x0 + b sum_{r=1..n} a^{n-r} 2^{v_{r-1}}.  Returns (n, lhs, rhs) for
    each n, in order, at which the per-n reference fails with these sides:
    `closed_form_check(x0, n, exponents)` at (3, 1) and
    `anb.closed_form_anb_check(x0, params, n, exponents)` at any (a, b).
    """
    if not values or values[0] != x0 or len(values) <= len(exponents):
        raise ValueError("need the walk's values from x0, one more than exponents")
    a, b = params.a, params.b
    failures = []
    rhs, v = x0, 0
    for n, k in enumerate(exponents, start=1):
        rhs = a * rhs + (b << v)
        v += k
        if values[n] << v != rhs:
            failures.append((n, values[n] << v, rhs))
    return failures


def reconstruct_start(prefix_sums: Sequence[int]) -> Fraction:
    """Rebuild a start value from exponent prefix sums 0 = v_0 < ... < v_m.

    Returns (2^{v_m} - sum_{k=0..m-1} 3^{m-k-1} 2^{v_k}) / 3^m exactly.  When
    the prefix sums come from a full odd trajectory that reached 1, the result
    is the integer start value.
    """
    from fractions import Fraction

    return Fraction(*_reconstruct_parts(prefix_sums))


def _reconstruct_parts(prefix_sums: Sequence[int]) -> tuple[int, int]:
    """The numerator and denominator 3^m of `reconstruct_start`, unreduced.

    `verify bohm` compares the numerator with x0 3^m, so that a start that
    checks builds no Fraction.
    """
    if len(prefix_sums) < 2:
        raise ValueError("need at least v_0 and v_1")
    last = prefix_sums[0]
    if last != 0:
        raise ValueError("prefix sums must start at 0")
    # Horner's rule, s = sum_{k<m} 3^{m-k-1} 2^{v_k}, checking each v_k as it is read
    s = 0
    for vk in islice(prefix_sums, 1, None):
        if vk <= last:
            raise ValueError("prefix sums must be strictly increasing")
        s = 3 * s + (1 << last)
        last = vk
    return (1 << last) - s, 3 ** (len(prefix_sums) - 1)


def geometric_tail_identity(n: int, m: int) -> GeometricSumCheck:
    """Check sum_{r=n..n+m} (4/3)^r == 3 (4/3)^n ((4/3)^{m+1} - 1) exactly.

    Both sides are taken over the common denominator 3^{n+m}; their
    numerators are `_geometric_tail_parts`.
    """
    from fractions import Fraction

    lhs, rhs = _geometric_tail_parts(n, m)
    den = 3 ** (n + m)
    return GeometricSumCheck(lhs=Fraction(lhs, den), rhs=Fraction(rhs, den), holds=lhs == rhs)


def _geometric_tail_parts(n: int, m: int) -> tuple[int, int]:
    """The numerators over 3^{n+m} of the two sides of `geometric_tail_identity`.

    The left is summed term by term, L = 3 L + 4^r for r = n..n+m; the right
    is the closed form 4^n (4^{m+1} - 3^{m+1}).  `verify geom` compares
    these, so that a pair that checks builds no Fraction.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    lhs, four_r = 0, 1 << 2 * n
    for _ in range(m + 1):
        lhs = 3 * lhs + four_r
        four_r <<= 2
    return lhs, (1 << 2 * n) * ((1 << 2 * (m + 1)) - 3 ** (m + 1))


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
    from fractions import Fraction

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
    from fractions import Fraction

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
    from fractions import Fraction

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
    from fractions import Fraction

    if m < 0:
        raise ValueError("m must be >= 0")
    return 1 - Fraction(3, 4) ** (m + 1)
