"""Participant ids, spelled from positions on demand.

An id is a prefix and a position zero-padded to a width. A registry
enrolls its participants once, and a participant's id is its enrollment
position spelled with "v" at one width for the whole registry, max(4, the
digits of its size): three participants are v0000..v0002, and 10,001 are
v00000..v10000. The baseline races of exp2 spell theirs with "m" (PoW),
"s" (PoS) or "d" (DPoS) at width 4, which, like printf's %04d, only pads:
10,001 are m0000..m9999 and then m10000.

EnrollmentIds is the immutable sequence of the ids of n participants. It
holds n, the prefix and the width only, and spells an id only when it is
read, so a population of any size costs three fields, not one str per
participant. This module is the only place that knows the format: the
audit rows spell ids through speller(), and the CSV writer asks joined()
for a run of ids.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import lru_cache

# each digit a hundred times, keyed by its byte value
_HUNDREDFOLD = {digit: bytes((digit,)) * 100 for digit in b"0123456789"}


@lru_cache(maxsize=None)
def _formatter(prefix: str, width: int):
    """The C-level function that spells a position: prefix and the position
    zero-padded to width."""
    return f"{prefix}%0{width}d".__mod__


@lru_cache(maxsize=32)
def _hundred(prefix: str, width: int, sep: bytes) -> bytes:
    """The ids of positions 0..99 at width, each followed by sep: the template
    of every hundred, whose head digits (all 0 here) _run writes in."""
    spell = _formatter(prefix, width)
    return b"".join(spell(t).encode() + sep for t in range(100))


def _run(a: int, b: int, prefix: str, width: int, sep: bytes) -> str:
    """The ids of positions a..b (a < b <= 10**width) at width, joined by sep.

    The hundreds that hold them are copies of _hundred's template, and each
    digit of their heads (the position // 100) is written into every id of a
    hundred at once, by a strided slice assignment."""
    lead = len(prefix.encode())
    stride = lead + width + len(sep)
    first, end = a // 100, -(-b // 100)
    buf = bytearray(_hundred(prefix, width, sep) * (end - first))
    n = width - 2  # digits in a head
    heads = b"".join(map((b"%%0%dd" % n).__mod__, range(first, end)))
    for d in range(n):  # byte lead + d of every id: its hundred's head digit d, heads[d::n]
        buf[lead + d::stride] = b"".join(map(_HUNDREDFOLD.__getitem__, heads[d::n]))
    skip = (a - 100 * first) * stride
    return buf[skip:skip + (b - a) * stride - len(sep)].decode("utf-8", "surrogatepass")


@lru_cache(maxsize=1)
def _speller(prefix: str, width: int):
    """EnrollmentIds.speller's memo, made once per prefix and width."""
    return lru_cache(maxsize=None)(_formatter(prefix, width))


class EnrollmentIds(Sequence):
    """The ids of positions 0..n, in position order: prefix and the position
    zero-padded to width, by default "v" at max(4, the digits of n).

    Supports len, int indexing, iteration, and equality and hashing by
    (n, prefix, width) between EnrollmentIds. Its ids are distinct by
    construction, and none needs quoting in a CSV cell. The prefix holds no
    '%', ',', '"' or line end, and the width is at least 2 (the digits of a
    hundred's template).
    """

    __slots__ = ("_n", "_prefix", "_width")

    def __init__(self, n: int, prefix: str = "v", width: int | None = None):
        self._n = operator.index(n)
        self._prefix = prefix
        self._width = max(4, len(str(self._n))) if width is None else operator.index(width)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        i = operator.index(i)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("id index out of range")
        return _formatter(self._prefix, self._width)(i)

    def __iter__(self):
        return map(_formatter(self._prefix, self._width), range(self._n))

    def _key(self) -> tuple:
        return self._n, self._prefix, self._width

    def __eq__(self, other):
        if not isinstance(other, EnrollmentIds):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"EnrollmentIds({self._n}, {self._prefix!r}, {self._width})"

    def speller(self):
        """A memoised function from index to id, self[i] for 0 <= i < len(self),
        with no bounds check: a C-level formatter under a C-level cache, so a
        read runs no Python frame. Ids of one prefix and width share one memo
        (the last one asked for is kept), so the repetitions of one census
        share each id's str."""
        return _speller(self._prefix, self._width)

    def joined(self, start: int, stop: int, sep: str) -> str:
        """sep.join(self[i] for i in range(start, stop)) for
        0 <= start <= stop <= len(self). A run whose ids all have the pad width
        is spelled a hundred ids at a time from a template (see _run), with no
        str per id; one that reaches past it (a position of more digits than
        the width) is spelled id by id."""
        if start == stop:
            return ""
        if stop > 10 ** self._width:
            return sep.join(map(_formatter(self._prefix, self._width), range(start, stop)))
        return _run(start, stop, self._prefix, self._width, sep.encode("utf-8", "surrogatepass"))
