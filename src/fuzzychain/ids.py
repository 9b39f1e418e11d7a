"""Participant ids, spelled from enrollment positions on demand.

A participant's id is its enrollment position spelled out: "v" and the
position zero-padded to its enrollment batch's width, max(4, the digits of
the batch's end). So a first batch of three gives v0000..v0002, and a batch
that takes the registry from 3 to 10,001 gives v00003..v10000. A width never
shrinks from one batch to the next, so no two positions share an id.

EnrollmentIds is the immutable sequence of a registry's ids. It holds one
(first, end, width) span per run of positions of one width and spells an id
only when it is read, so a population of any size costs a few tuples, not
one str per participant. This module is the only place that knows the
format: the audit rows spell ids through speller(), and the CSV writer
asks joined() for a run of ids.
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
    """The ids of positions a..b (a < b, all of one width) joined by sep.

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
def _speller(ids: EnrollmentIds):
    """EnrollmentIds.speller's memo, made once per equal ids."""
    spans = ids._spans
    if len(spans) == 1 and spans[0][0] == 0:
        return lru_cache(maxsize=None)(_formatter(spans[0][2]))
    return lru_cache(maxsize=None)(ids.__getitem__)


class EnrollmentIds(Sequence):
    """The ids of a run of enrollment positions, in position order.

    Supports len, int and slice indexing (a unit-step slice is again an
    EnrollmentIds; another step gives a tuple), iteration, and equality and
    hashing by value between EnrollmentIds. Its ids are distinct by
    construction, and none needs quoting in a CSV cell.
    """

    __slots__ = ("_spans",)

    def __init__(self, spans=()):
        """spans: (first, end, width) runs of consecutive positions, each run
        starting where the last ended. Empty runs are dropped and neighbours of
        one width merged, so equal sequences hold equal spans."""
        merged = []
        for first, end, width in spans:
            if first >= end:
                continue
            if merged and merged[-1][2] == width:
                first = merged.pop()[0]
            merged.append((first, end, width))
        self._spans = tuple(merged)

    def extended(self, end: int) -> EnrollmentIds:
        """These ids and those of the next batch, the positions up to end."""
        start = self._spans[-1][1] if self._spans else 0
        return EnrollmentIds(self._spans + ((start, end, max(4, len(str(end)))),))

    def __len__(self) -> int:
        spans = self._spans
        return spans[-1][1] - spans[0][0] if spans else 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                return tuple(map(self.__getitem__, range(start, stop, step)))
            base = self._spans[0][0] if self._spans else 0
            return EnrollmentIds((max(first, base + start), min(end, base + stop), width)
                                 for first, end, width in self._spans)
        i = operator.index(key)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("id index out of range")
        position = self._spans[0][0] + i
        for _, end, width in self._spans:
            if position < end:
                return _formatter(width)(position)

    def __iter__(self):
        for first, end, width in self._spans:
            yield from map(_formatter(width), range(first, end))

    def __eq__(self, other):
        if not isinstance(other, EnrollmentIds):
            return NotImplemented
        return self._spans == other._spans

    def __hash__(self) -> int:
        return hash(self._spans)

    def __repr__(self) -> str:
        return f"EnrollmentIds({list(self._spans)!r})"

    def speller(self):
        """A memoised function from index to id, self[i] for 0 <= i < len(self),
        with no bounds check. Equal ids get one memo (the last one asked for is
        kept), so the repetitions of one census share each id's str. For a
        registry's ids (one span from position 0) it is a C-level formatter
        under a C-level cache, so a read runs no Python frame."""
        return _speller(self)

    def joined(self, start: int, stop: int, sep: str) -> str:
        """sep.join(self[start:stop]) for 0 <= start <= stop <= len(self),
        spelled a hundred ids at a time from a template (see _run), with no
        str per id."""
        base = self._spans[0][0] if self._spans else 0
        lo, hi = base + start, base + stop
        sep_bytes = sep.encode("utf-8", "surrogatepass")
        return sep.join([_run(max(first, lo), min(end, hi), width, sep_bytes)
                         for first, end, width in self._spans if max(first, lo) < min(end, hi)])
