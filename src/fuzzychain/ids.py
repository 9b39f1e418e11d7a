"""Participant ids, spelled from enrollment positions on demand.

A registry enrolls its participants once, and a participant's id is its
enrollment position spelled out: "v" and the position zero-padded to one
width for the whole registry, max(4, the digits of its size). So three
participants are v0000..v0002, and 10,001 are v00000..v10000.

EnrollmentIds is the immutable sequence of the ids of n participants. It
holds n only and spells an id only when it is read, so a population of any
size costs one int, not one str per participant. This module is the only
place that knows the format: the audit rows spell ids through speller(),
and the CSV writer asks joined() for a run of ids.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import lru_cache

# each digit a hundred times, keyed by its byte value
_HUNDREDFOLD = {digit: bytes((digit,)) * 100 for digit in b"0123456789"}


@lru_cache(maxsize=None)
def _formatter(width: int):
    """The C-level function that spells a position at width: "v" and the zero-padded position."""
    return f"v%0{width}d".__mod__


@lru_cache(maxsize=32)
def _hundred(width: int, sep: bytes) -> bytes:
    """The ids of positions 0..99 at width, each followed by sep: the template
    of every hundred, whose head digits (all 0 here) _run writes in."""
    spell = _formatter(width)
    return b"".join(spell(t).encode() + sep for t in range(100))


def _run(a: int, b: int, width: int, sep: bytes) -> str:
    """The ids of positions a..b (a < b) at width, joined by sep.

    The hundreds that hold them are copies of _hundred's template, and each
    digit of their heads (the position // 100) is written into every id of a
    hundred at once, by a strided slice assignment."""
    stride = 1 + width + len(sep)
    first, end = a // 100, -(-b // 100)
    buf = bytearray(_hundred(width, sep) * (end - first))
    n = width - 2  # digits in a head
    heads = b"".join(map((b"%%0%dd" % n).__mod__, range(first, end)))
    for d in range(n):  # byte 1 + d of every id: its hundred's head digit d, heads[d::n]
        buf[1 + d::stride] = b"".join(map(_HUNDREDFOLD.__getitem__, heads[d::n]))
    skip = (a - 100 * first) * stride
    return buf[skip:skip + (b - a) * stride - len(sep)].decode("utf-8", "surrogatepass")


@lru_cache(maxsize=1)
def _speller(width: int):
    """EnrollmentIds.speller's memo, made once per width."""
    return lru_cache(maxsize=None)(_formatter(width))


class EnrollmentIds(Sequence):
    """The ids of enrollment positions 0..n, in position order.

    Supports len, int indexing, iteration, and equality and hashing by n
    between EnrollmentIds. Its ids are distinct by construction, and none
    needs quoting in a CSV cell.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = operator.index(n)

    @property
    def _width(self) -> int:
        return max(4, len(str(self._n)))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        i = operator.index(i)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("id index out of range")
        return _formatter(self._width)(i)

    def __iter__(self):
        return map(_formatter(self._width), range(self._n))

    def __eq__(self, other):
        if not isinstance(other, EnrollmentIds):
            return NotImplemented
        return self._n == other._n

    def __hash__(self) -> int:
        return hash(self._n)

    def __repr__(self) -> str:
        return f"EnrollmentIds({self._n})"

    def speller(self):
        """A memoised function from index to id, self[i] for 0 <= i < len(self),
        with no bounds check: a C-level formatter under a C-level cache, so a
        read runs no Python frame. Ids of one width share one memo (the last
        one asked for is kept), so the repetitions of one census share each
        id's str."""
        return _speller(self._width)

    def joined(self, start: int, stop: int, sep: str) -> str:
        """sep.join(self[i] for i in range(start, stop)) for
        0 <= start <= stop <= len(self), spelled a hundred ids at a time from a
        template (see _run), with no str per id."""
        if start == stop:
            return ""
        return _run(start, stop, self._width, sep.encode("utf-8", "surrogatepass"))
