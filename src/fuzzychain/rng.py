"""Independent, reproducible random substreams.

Every randomness consumer (stake sampling, key generation, selection,
votes, block contents, each baseline) gets its own generator derived
from the master seed plus a structured path, so turning one feature on
or off never shifts the draws any other consumer sees. Paths are keyed
by the rounds *value* (not its position in a sweep), so adding a round
count to a sweep does not perturb the existing runs.

Draws read a substream's raw PCG64 words and replay numpy's arithmetic
on them, bit for bit: the round loop through Stream, without a numpy call
per draw, and the set-up through uniform_array and uint32_array, one
random_raw call per batch. exp1 and custom runs touch no Generator method
of a substream, only its bit generator; exp2's baselines still draw
through Generator methods (config.sample_dist and the races).
"""

from __future__ import annotations

import numpy as np

# stable integer ids for path components; never renumber, only append
NAMES = {
    "exp1": 101,
    "exp2": 102,
    "custom": 103,
    "stakes": 1,
    "keys": 2,
    "selection": 3,
    "votes": 4,
    "blocks": 5,
    "pow": 6,
    "pos": 7,
    "dpos": 8,
    "participants": 9,
}


def _path_ids(path) -> tuple[int, ...]:
    out = []
    for part in path:
        if isinstance(part, str):
            try:
                out.append(NAMES[part])
            except KeyError:
                raise KeyError(f"unknown rng path name {part!r}; known: {sorted(NAMES)}") from None
        else:
            value = int(part)
            if value < 0:
                raise ValueError(f"rng path components must be non-negative, got {part}")
            out.append(value)
    return tuple(out)


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for (seed, path); identical arguments, identical stream.

    Path components may be known names ("exp1", "selection", ...) or
    non-negative integers (rounds value, repetition index).
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=_path_ids(path))
    return np.random.default_rng(ss)


_WORDS_PER_FETCH = 256
_TWO_M53 = 2.0**-53


def _pcg64(generator) -> np.random.PCG64:
    bits = generator.bit_generator
    if type(bits) is not np.random.PCG64:
        raise TypeError(f"replays PCG64 only, got {type(bits).__name__}")
    return bits


def uniform_array(generator, lo: float, hi: float, size: int, out=None) -> np.ndarray:
    """size floats in [lo, hi), as generator.uniform(lo, hi, size) draws them,
    written into out when given: each is (word >> 11) * 2**-53 of one raw
    word, times hi - lo, plus lo."""
    words = _pcg64(generator).random_raw(size)
    words >>= 11
    out = np.multiply(words, _TWO_M53, out=out)
    out *= hi - lo
    out += lo
    return out


def uint32_array(generator, size: int) -> np.ndarray:
    """size uniform 32-bit words, as generator.integers(0, 2**32, size=size)
    draws them: the low, then the high half of each raw word. size must be
    even, and the generator may hold no half-word that numpy buffered after
    an odd count of 32-bit draws."""
    bits = _pcg64(generator)
    if size % 2 or bits.state["has_uint32"]:
        raise ValueError("uint32_array draws whole raw words: need an even size"
                         " and no buffered half-word")
    return bits.random_raw(size // 2).astype("<u8", copy=False).view("<u4")


class Stream:
    """A PCG64 Generator's integers, random and uniform, drawn in plain Python.

    Takes over a fresh Generator (from substream) and reads its raw 64-bit
    words in blocks of _WORDS_PER_FETCH, replaying numpy's arithmetic on
    them, so every draw and the order of the words it uses are numpy's own:

    - integers(lo, hi) is buffered_bounded_lemire_uint32 (Lemire, "Fast
      Random Integer Generation in an Interval", 2019) over PCG64's 32-bit
      half-words, low half first, the high half kept for the next call; it
      returns lo without drawing when hi - lo == 1;
    - random() is (word >> 11) * 2**-53, one whole word;
    - uniform(lo, hi) is lo + (hi - lo) * random().

    A numpy scalar draw costs 2-3 µs; these cost a fraction of that. The
    Generator is read ahead, so nothing else may draw from it afterwards.
    Other bit generators and ranges above 2**32 (numpy's 64-bit path) are
    refused, not emulated.
    """

    __slots__ = ("_bits", "_words", "_half")

    def __init__(self, generator: np.random.Generator):
        bits = _pcg64(generator)
        state = bits.state
        self._bits = bits
        self._words: list[int] = []  # fetched words, next one last
        self._half = state["uinteger"] if state["has_uint32"] else None  # buffered high half

    def _fetch(self) -> list[int]:
        self._words = words = self._bits.random_raw(_WORDS_PER_FETCH)[::-1].tolist()
        return words

    def _next32(self) -> int:
        half = self._half
        if half is None:
            word = (self._words or self._fetch()).pop()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, lo: int, hi: int) -> int:
        """Uniform int in [lo, hi), as Generator.integers(lo, hi) draws it."""
        n = hi - lo
        if n == 1:
            return lo
        if not 1 < n <= 0x100000000:  # literals: this runs tens of times a round
            raise ValueError(f"Stream draws ranges of 1 to 2**32 values, got [{lo}, {hi})")
        half = self._half  # _next32, inlined
        if half is None:
            word = (self._words or self._fetch()).pop()
            self._half = word >> 32
            m = (word & 0xFFFFFFFF) * n
        else:
            self._half = None
            m = half * n
        if m & 0xFFFFFFFF < n:
            threshold = 0x100000000 % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return lo + (m >> 32)

    def random(self) -> float:
        """Uniform float in [0, 1), as Generator.random() draws it."""
        return ((self._words or self._fetch()).pop() >> 11) * _TWO_M53

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi), as Generator.uniform(lo, hi) draws it."""
        return lo + (hi - lo) * self.random()
