"""rng.Stream and the array replays against numpy: the same draws from the
same PCG64 words."""

from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzychain.rng import _WORDS_PER_FETCH, Stream, substream, uint32_array, uniform_array

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


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox])
def test_array_replays_refuse_other_bit_generators(bits):
    with pytest.raises(TypeError, match="PCG64 only"):
        uniform_array(np.random.Generator(bits(1)), 0.0, 1.0, 4)
    with pytest.raises(TypeError, match="PCG64 only"):
        uint32_array(np.random.Generator(bits(1)), 4)


@given(SEEDS, st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.integers(0, 600))
@example(0, 0.0, 1.0, 0)
@example(3, -3.0, 10.3, 513)
def test_uniform_array_is_generator_uniform(seed, lo, width, size):
    ref, gen = np.random.default_rng(seed), np.random.default_rng(seed)
    ref.integers(0, 7), gen.integers(0, 7)  # a held half-word stays held
    want = ref.uniform(lo, lo + width, size)
    out = np.full(size + 2, -1.0)
    got = uniform_array(gen, lo, lo + width, size, out=out[1:-1])
    assert got.base is out and out[0] == out[-1] == -1.0
    assert bits(got) == bits(want)
    assert gen.bit_generator.state == ref.bit_generator.state
    assert bits(uniform_array(gen, lo, lo + width, 5)) == bits(ref.uniform(lo, lo + width, 5))


@given(SEEDS, st.integers(0, 40).map(lambda k: 2 * k))
@example(0, 10)  # a secp256r1 key's words
def test_uint32_array_is_generator_integers(seed, size):
    ref, gen = substream(seed, "keys"), substream(seed, "keys")
    for _ in range(3):
        assert uint32_array(gen, size).tolist() == ref.integers(0, 2**32, size=size).tolist()
    assert gen.integers(0, 2**32, size=3).tolist() == ref.integers(0, 2**32, size=3).tolist()


def test_uint32_array_refuses_half_words():
    with pytest.raises(ValueError, match="even size"):
        uint32_array(np.random.default_rng(0), 3)
    gen = np.random.default_rng(0)
    gen.integers(0, 2**32)  # numpy now holds the word's high half
    with pytest.raises(ValueError, match="buffered half-word"):
        uint32_array(gen, 2)


def bits(xs) -> list:
    return np.asarray(xs, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("lo, hi", [(0, 2**32 + 1), (0, 2**40), (-1, 2**32), (0, 0), (3, 2)])
def test_refuses_ranges_outside_one_to_two_to_the_32(lo, hi):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        Stream(np.random.default_rng(0)).integers(lo, hi)


# The first four PCG64 words of every substream that the exp1_paper and
# exp2_faults benchmark workloads draw from at seed 42, repetition 0: the
# fuzzy runs' five streams at 500 rounds, and the baselines' populations and
# races. A numpy change to SeedSequence or PCG64 fails here, stream by
# stream, before it shows as a changed output digest.
PINNED_WORDS = {
    ("exp1", 500, 0, "stakes"):
        (0xb740672db9411c43, 0xc9a3f7fbef5513db, 0x9721a151f1b14492, 0x174f7a44109d1396),
    ("exp1", 500, 0, "keys"):
        (0x29d081d7b4255181, 0xd3f30515bffd2431, 0x7a64b7b5cc648933, 0xd0d3577686185436),
    ("exp1", 500, 0, "selection"):
        (0x6873ac757d7b0bf2, 0xee1a163ebdd233e7, 0x8f4f0319e8283fe7, 0x9e0e0ce077871e40),
    ("exp1", 500, 0, "votes"):
        (0x96bcfeb50ed66ac8, 0xf80f5ce170438c2b, 0xe3c6457f2a32046a, 0x52e775ddd4b99100),
    ("exp1", 500, 0, "blocks"):
        (0xe9a6812c34786267, 0x981f92627c443d81, 0xc7f3f13960f9dac6, 0x918dd4b55b36c933),
    ("exp2", 500, 0, "stakes"):
        (0x489e16c3fd5d1f9a, 0xf97fce23435dfccd, 0xde59a254c465da30, 0x89bdc244f31ceebb),
    ("exp2", 500, 0, "keys"):
        (0x4f19e8aef5a9bb82, 0xfc8657f0be7eb440, 0x9aab55af25d16e59, 0x5cff57dbbf2e5ad6),
    ("exp2", 500, 0, "selection"):
        (0x69c80c1a9dac2c85, 0xf74d21baf9d7ced0, 0xcde3ed826b4e2adf, 0x242a873dc5bc1091),
    ("exp2", 500, 0, "votes"):
        (0x1ff120f97a839e19, 0x9b951caa31dbc28e, 0x65e8414b3c702526, 0x7926f5a44a4b969e),
    ("exp2", 500, 0, "blocks"):
        (0x73cc321c9c5a99b4, 0xcc7152554c8ffc5c, 0xaad4df7af3c9ef33, 0x7749c2bc9071cb17),
    ("exp2", "participants", "pow"):
        (0xf7d1fb28f8cc5fa3, 0x8d36e6c8f7243803, 0xf4d147540dc1246a, 0x658076634648935d),
    ("exp2", "participants", "pos"):
        (0x9468ccb33f304a3f, 0xc1380092c86a65d6, 0x002f32a21c84266a, 0xb920ce2a805e28a6),
    ("exp2", "participants", "dpos"):
        (0xe978784cc72f8b1d, 0x75d8e4dd577d6dc1, 0x36d2c641f185ecfa, 0x5f84954fe5844a37),
    ("exp2", 0, "pow"):
        (0x3f83dc28ae3eec27, 0x22a051483ff6b360, 0x6edbe6d8f036f460, 0x0407bb7680853e75),
    ("exp2", 0, "pos"):
        (0x75c513057375ba27, 0x0e347bc2ac65e64e, 0x8ccc2aeeed54668e, 0x467441b93ac50c59),
    ("exp2", 0, "dpos"):
        (0xfbacb3ac85d6b4ef, 0xa1ee5e889d383ba5, 0xcf43fb79956f3e2c, 0x6133c4e77297bbb5),
}


@pytest.mark.parametrize("path", PINNED_WORDS, ids=lambda path: "/".join(map(str, path)))
def test_substream_words_are_pinned(path):
    words = tuple(substream(42, *path).bit_generator.random_raw(4).tolist())
    assert words == PINNED_WORDS[path], f"substream(42, *{path!r}) drew other words"
