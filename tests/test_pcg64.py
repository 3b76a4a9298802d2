"""The owned PCG64 stream against numpy's `default_rng(seed)`, the oracle here."""

from array import array

import numpy as np
import pytest

from collatzlab import pcg64 as pcg64_mod
from collatzlab.pcg64 import _integers, _ones, _seeded, seeded_draws

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
    assert _seeded(seed) == (state["state"], state["inc"])
    # at high = 2^32 nothing is rejected: the draws are the halves of the outputs, low first
    halves = _integers(*_seeded(seed), 1 << 32, 100)
    raw = [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(50)]
    assert raw == bit_generator.random_raw(50).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_coin_counts(seed):
    for size in COIN_LENGTHS:
        assert _ones(*_seeded(seed), size) == numpy_ones(seed, size), size
    assert _ones(*_seeded(seed), 0) == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("high", HIGHS)
def test_bounded_integers(seed, high):
    for size in (0, 1, 2, 3, 8, 101):
        draws = _integers(*_seeded(seed), high, size)
        assert draws == array("Q", numpy_integers(seed, high, size))


def test_rejection_path():
    # high = 2^31 + 1 rejects a 32-bit draw whose scaled low word falls below
    # 2^32 mod high = 2^31 - 1, about half of them: 1000 values take more than
    # the 1000 draws, 500 outputs, that they would take with no rejection
    high = (1 << 31) + 1
    got = _integers(*_seeded(0), high, 1000)
    assert got == array("Q", numpy_integers(0, high, 1000))
    draws = _integers(*_seeded(0), 1 << 32, 4000)  # the 32-bit draws, as they come
    kept = [j for j, u in enumerate(draws) if u * high & (1 << 32) - 1 >= (1 << 32) % high]
    assert got == array("Q", [draws[j] * high >> 32 for j in kept[:1000]])
    assert 1200 < kept[999] + 1 < 4000


def test_argument_checks():
    with pytest.raises(ValueError):
        _seeded(-1)
    for high in (1, (1 << 32) + 1):
        with pytest.raises(ValueError):
            _integers(*_seeded(0), high, 3)
    with pytest.raises(ValueError):
        _integers(*_seeded(0), 3, -1)
    with pytest.raises(ValueError):
        _ones(*_seeded(0), -1)


def crossover(monkeypatch, count, per_draw):
    """The most draws a seed that still run on the owned stream, made an exact edge,
    and the list of the seeds the owned stream is seeded with.

    The load cost is lowered to the work of that many draws, so the edge
    moves by less than one draw.
    """
    size = pcg64_mod.NUMPY_LOAD_NS // (count * per_draw)
    monkeypatch.setattr(pcg64_mod, "NUMPY_LOAD_NS", count * size * per_draw)
    seeded, real = [], pcg64_mod._seeded
    monkeypatch.setattr(pcg64_mod, "_seeded", lambda seed: seeded.append(seed) or real(seed))
    return size, seeded


@pytest.mark.parametrize("count", [1, 3])
def test_coins_either_side_of_the_crossover(monkeypatch, count):
    size, seeded = crossover(monkeypatch, count, pcg64_mod.COIN_NS)
    for size, owned in ((size, True), (size + 1, False)):
        seeded.clear()
        got = list(seeded_draws(5, count, size))
        assert seeded == (list(range(5, 5 + count)) if owned else [])
        assert got == [numpy_ones(5 + j, size) for j in range(count)]


@pytest.mark.parametrize("high", [1 << 19, 1 << 20])
def test_integers_either_side_of_the_crossover(monkeypatch, high):
    size, seeded = crossover(monkeypatch, 1, pcg64_mod.INT_NS)
    for size, owned in ((size, True), (size + 1, False)):
        seeded.clear()
        (draws,) = seeded_draws(3, 1, size, high)
        assert draws == array("Q", numpy_integers(3, high, size))  # the same type on both sides
        assert seeded == ([3] if owned else [])


def test_seeds_come_in_order():
    assert list(seeded_draws(10, 4, 64)) == [numpy_ones(s, 64) for s in range(10, 14)]
    assert [list(d) for d in seeded_draws(10, 2, 5, 3)] == [
        numpy_integers(s, 3, 5) for s in (10, 11)
    ]
