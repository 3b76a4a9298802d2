"""numpy's seeded draws, reproduced bit for bit without numpy.

`numpy.random.default_rng(seed)`, for a non-negative int seed, draws from a
PCG64 bit generator:

- seeding: `SeedSequence(seed)` splits the seed into 32-bit words, hashes
  them into a pool of four words (hashmix), and draws the 128-bit state and
  increment from the pool, which PCG64 steps twice (`_seeded`);
- stepping: the 128-bit LCG state = state * A + inc, whose new state gives
  a 64-bit output by XSL-RR (O'Neill, HMC-CS-2014-0905);
- 32-bit draws take the low, then the high half of an output.

From a seeded (state, inc) this module draws the two shapes the package
uses, as numpy's `Generator.integers` draws them from a fresh generator:
`_integers`, the values of `integers(0, high, size)` for 2 <= high <= 2^32
(Lemire's bounded draw with rejection, ACM TOMACS 29(1), 2019; at high =
2^32 it rejects nothing and gives the 32-bit draws as they are), and
`_ones`, the ones count of `integers(0, 2, size, dtype=uint8)`: each 32-bit
draw gives four bytes, low byte first, and each byte gives the coin of its
top bit, so a 64-bit output holds 8 coins.
NEP 19 pins numpy's PCG64 and SeedSequence streams across versions, but not
the bounded draws of `Generator.integers`; this module fixes both in code.

`seeded_draws` is the package's one entry point for seeded draws, each the
first draw of a fresh seed: nothing is kept between draws.  It runs the
stream here when its total work is less than importing numpy costs, and
numpy's `Generator` otherwise; both give the same values.  Importing this
module loads only the standard library.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_TOP_BITS = 0x8080808080808080  # the coin of each byte of an output
# _COIN_BITS[r] picks the coin bits of an output out of its unrotated form
# (state >> 64 ^ state) when the output rotates it right by r.
_COIN_BITS = tuple((_TOP_BITS << r | _TOP_BITS >> 64 - r) & _MASK64 for r in range(64))

# SeedSequence's hash constants, in uint32 arithmetic.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# seeded_draws runs the stream here while its draws cost, above what numpy
# spends on the same draws, no more than loading numpy.random does.  Medians
# of 11 reps, each measuring both sides back to back (2-vCPU VM, Python 3.11,
# numpy 2.4): loading numpy.random in a fresh interpreter 116 ms; a coin 72 ns
# more here than in numpy; an int below 2^19, taken as 2 * m + 1, 548 ns more.
# A seeding (about 21 us) costs the same on both sides within 4 us and is not
# counted.  So one seed's stream runs here up to 1.6 M coins or 210 k ints.
NUMPY_LOAD_NS = 116_000_000
COIN_NS = 72
INT_NS = 548


def _seeded(seed: int) -> tuple[int, int]:
    """numpy's `PCG64(seed).state`: `SeedSequence(seed)`'s (state, inc) after PCG64's seeding."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight uint32 words, paired little-endian.
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    w = [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]
    # (initstate, initseq) = (w0 w1, w2 w3); inc = 2 initseq + 1, and PCG64 steps
    # once from state 0 and once more after adding initstate.
    inc = (w[2] << 65 | w[3] << 1 | 1) & _MASK128
    return (inc + (w[0] << 64 | w[1])) * _MULTIPLIER + inc & _MASK128, inc


def _ones(state: int, inc: int, size: int) -> int:
    """The ones count of `integers(0, 2, size, dtype=uint8)` drawn from (state, inc)."""
    if size < 0:
        raise ValueError("size must be >= 0")
    full, rest = divmod(size, 8)
    total = 0
    for _ in range(full):
        state = state * _MULTIPLIER + inc & _MASK128
        total += ((state >> 64 ^ state) & _COIN_BITS[state >> 122]).bit_count()
    if rest:  # the low bytes of one more output, whether one 32-bit draw or two
        state = state * _MULTIPLIER + inc & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        total += ((x | x << 64) >> (state >> 122) & _TOP_BITS >> 64 - 8 * rest).bit_count()
    return total


def _integers(state: int, inc: int, high: int, size: int) -> array:
    """The values of `integers(0, high, size)` drawn from (state, inc), by Lemire's
    draw: m = u * high for a 32-bit draw u gives m >> 32, unless the low word
    of m falls below 2^32 mod high, where u is drawn again."""
    if not 2 <= high <= 1 << 32:
        raise ValueError("need 2 <= high <= 2^32")
    if size < 0:
        raise ValueError("size must be >= 0")
    threshold = (1 << 32) % high
    values = array("Q")
    append, half = values.append, None
    for _ in range(size):
        while True:
            if half is None:
                state = state * _MULTIPLIER + inc & _MASK128
                x = (state >> 64 ^ state) & _MASK64
                word = (x | x << 64) >> (state >> 122) & _MASK64
                m, half = (word & _MASK32) * high, word >> 32
            else:
                m, half = half * high, None
            if m & _MASK32 >= threshold:
                break
        append(m >> 32)
    return values


def seeded_draws(
    seed: int, count: int, size: int, high: int | None = None
) -> Iterator[int | array]:
    """The first draw of `numpy.random.default_rng(s)` for s = seed, ..., seed + count - 1.

    With high None each item is the ones count of `integers(0, 2, size,
    dtype=uint8)`; otherwise it is the values of `integers(0, high, size)`,
    2 <= high <= 2^32, as an `array("Q")`: drawn here below the crossover,
    and read from the bytes of numpy's int64 array above it, one copy.  The
    items come in seed order, one seed at a time, and are the same on both
    sides of the crossover.
    """
    if count * size * (COIN_NS if high is None else INT_NS) <= NUMPY_LOAD_NS:
        for s in range(seed, seed + count):
            state, inc = _seeded(s)
            yield _ones(state, inc, size) if high is None else _integers(state, inc, high, size)
        return
    import numpy as np

    for s in range(seed, seed + count):
        rng = np.random.default_rng(s)
        if high is None:
            yield int(rng.integers(0, 2, size=size, dtype=np.uint8).sum())
        else:
            values = array("Q")  # the draws are below 2^32: their int64 bytes are uint64 bytes
            values.frombytes(memoryview(rng.integers(0, high, size=size, dtype=np.int64)).cast("B"))
            yield values
