"""The owned PCG64 stream against numpy's `default_rng(seed)`, the oracle here."""

from array import array

import numpy as np
import pytest

from collatzlab import pcg64 as pcg64_mod
from collatzlab.pcg64 import PCG64, seeded_draws

# 2^200 + 12345 has seven 32-bit words: more entropy than the four-word pool.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 99, 2**200 + 12345]
COIN_LENGTHS = list(range(1, 18)) + [100, 257, 1001]
HIGHS = [2, 3, 1000, 1 << 19, 1 << 20, (1 << 31) + 1, 1 << 32]


def numpy_ones(seed, size):
    return int(np.random.default_rng(seed).integers(0, 2, size=size, dtype=np.uint8).sum())


def numpy_integers(seed, high, size):
    return np.random.default_rng(seed).integers(0, high, size=size).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_seeding_and_raw_outputs(seed):
    bit_generator = np.random.PCG64(seed)
    state = bit_generator.state["state"]
    rng = PCG64(seed)
    assert (rng.state, rng.inc) == (state["state"], state["inc"])
    assert [rng.next64() for _ in range(50)] == bit_generator.random_raw(50).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_coin_counts(seed):
    for size in COIN_LENGTHS:
        assert PCG64(seed).ones(size) == numpy_ones(seed, size), size
    assert PCG64(seed).ones(0) == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("high", HIGHS)
def test_bounded_integers(seed, high):
    for size in (0, 1, 2, 3, 8, 101):
        assert list(PCG64(seed).integers(high, size)) == numpy_integers(seed, high, size)


def test_rejection_path():
    # high = 2^31 + 1 rejects a 32-bit draw whose scaled low word falls below
    # 2^32 mod high = 2^31 - 1, about half of them: 1000 values take more than
    # the 500 outputs that two draws an output would need
    high = (1 << 31) + 1
    rng = PCG64(0)
    assert list(rng.integers(high, 1000)) == numpy_integers(0, high, 1000)
    outputs, ref = 0, PCG64(0)
    while ref.state != rng.state and outputs < 2000:
        ref.next64()
        outputs += 1
    assert 600 < outputs < 2000


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5])
def test_draws_in_sequence_share_the_kept_half(seed):
    # 1 to 4 coins past a whole output, or an odd number of draws, leave a
    # 32-bit half for the next draw
    numpy_rng, rng = np.random.default_rng(seed), PCG64(seed)
    for j, size in enumerate((4, 3, 5, 3, 9, 1, 2, 13, 4, 7, 6, 1, 12, 2)):
        if j % 2:
            assert list(rng.integers(1000, size)) == numpy_rng.integers(0, 1000, size).tolist()
        else:
            ones = int(numpy_rng.integers(0, 2, size, dtype=np.uint8).sum())
            assert rng.ones(size) == ones


def test_argument_checks():
    with pytest.raises(ValueError):
        PCG64(-1)
    for high in (1, (1 << 32) + 1):
        with pytest.raises(ValueError):
            PCG64(0).integers(high, 3)
    with pytest.raises(ValueError):
        PCG64(0).ones(-1)


class CountingPCG64(PCG64):
    made = 0

    def __init__(self, seed):
        CountingPCG64.made += 1
        super().__init__(seed)


def crossover(monkeypatch, count, per_draw):
    """The most draws a seed that still run on the owned stream, made an exact edge.

    The load cost is lowered to the work of that many draws, so the edge
    moves by less than one draw.
    """
    size = pcg64_mod.NUMPY_LOAD_NS // (count * per_draw)
    monkeypatch.setattr(pcg64_mod, "NUMPY_LOAD_NS", count * size * per_draw)
    monkeypatch.setattr(pcg64_mod, "PCG64", CountingPCG64)
    return size


@pytest.mark.parametrize("count", [1, 3])
def test_coins_either_side_of_the_crossover(monkeypatch, count):
    size = crossover(monkeypatch, count, pcg64_mod.COIN_NS)
    for size, owned in ((size, True), (size + 1, False)):
        CountingPCG64.made = 0
        got = list(seeded_draws(5, count, size))
        assert CountingPCG64.made == (count if owned else 0)
        assert got == [numpy_ones(5 + j, size) for j in range(count)]


@pytest.mark.parametrize("high", [1 << 19, 1 << 20])
def test_integers_either_side_of_the_crossover(monkeypatch, high):
    size = crossover(monkeypatch, 1, pcg64_mod.INT_NS)
    for size, owned in ((size, True), (size + 1, False)):
        CountingPCG64.made = 0
        (draws,) = seeded_draws(3, 1, size, high)
        assert draws == array("Q", numpy_integers(3, high, size))  # the same type on both sides
        assert CountingPCG64.made == owned


def test_seeds_come_in_order():
    assert list(seeded_draws(10, 4, 64)) == [numpy_ones(s, 64) for s in range(10, 14)]
    assert [list(d) for d in seeded_draws(10, 2, 5, 3)] == [
        numpy_integers(s, 3, 5) for s in (10, 11)
    ]
