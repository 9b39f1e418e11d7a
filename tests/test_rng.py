"""rng.Stream against numpy: the same draws from the same PCG64 words."""

from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzychain.rng import _WORDS_PER_FETCH, Stream, substream

RANGES = [1, 2, 3, 7, 60_000, 2**31 + 5, 2**32 - 1, 2**32]
OPS = st.one_of(st.sampled_from(RANGES), st.sampled_from(["random", "uniform"]))
SEEDS = st.integers(0, 2**63 - 1)
# enough draws to need several fetches even if each used only half a word
DRAWS = 4 * 2 * _WORDS_PER_FETCH


def draw(rng, op):
    if op == "random":
        return rng.random()
    if op == "uniform":
        return rng.uniform(0.0, 100.0)
    return rng.integers(0, op)


def replay(pattern, ref, stream):
    """Run pattern round and round, DRAWS ops in all, on both; compare every
    draw. Stream hands out Python ints and floats where numpy has its scalars."""
    for op in islice(cycle(pattern), DRAWS):
        got, want = draw(stream, op), draw(ref, op)
        assert got == want, op
        assert type(got) is (int if isinstance(op, int) else float)


@given(st.lists(OPS, min_size=1, max_size=12), SEEDS)
@example([7], 0)  # half-words only: both halves of every word
@example(["random"], 0)  # whole words only
@example([2, "random", 2**32, "uniform", 3], 1)  # a half-word held across whole-word draws
@example([2**31 + 5], 2)  # rejections are likeliest just above 2**31
@settings(max_examples=60)
def test_stream_matches_numpy(pattern, seed):
    replay(pattern, np.random.default_rng(seed), Stream(np.random.default_rng(seed)))


@given(st.lists(OPS, min_size=1, max_size=12), SEEDS)
@settings(max_examples=20)
def test_stream_takes_over_a_held_half_word(pattern, seed):
    ref, gen = np.random.default_rng(seed), np.random.default_rng(seed)
    ref.integers(0, 7), gen.integers(0, 7)  # each keeps the high half of its first word
    assert gen.bit_generator.state["has_uint32"]
    replay(pattern, ref, Stream(gen))


def test_substream_paths_keep_their_streams():
    ref = substream(42, "exp1", 500, 3, "selection")
    stream = Stream(substream(42, "exp1", 500, 3, "selection"))
    replay([5, "random", 2, 60_000], ref, stream)


def test_integers_with_an_offset():
    ref, stream = np.random.default_rng(9), Stream(np.random.default_rng(9))
    for lo, hi in [(5, 9), (-3, 4), (10, 11), (2**40, 2**40 + 2**32)]:
        assert stream.integers(lo, hi) == int(ref.integers(lo, hi))


@pytest.mark.parametrize("bits", [np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
                                  np.random.SFC64])
def test_refuses_other_bit_generators(bits):
    with pytest.raises(TypeError, match="PCG64 only"):
        Stream(np.random.Generator(bits(1)))


@pytest.mark.parametrize("lo, hi", [(0, 2**32 + 1), (0, 2**40), (-1, 2**32), (0, 0), (3, 2)])
def test_refuses_ranges_outside_one_to_two_to_the_32(lo, hi):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        Stream(np.random.default_rng(0)).integers(lo, hi)
