"""Participant ids spelled on demand, against the spelled-out formula."""

import pytest
from hypothesis import given, strategies as st

from fuzzychain.ids import EnrollmentIds

# enrollment batch ends: small populations, and ones that cross the 9,999 -> 10,000 width change
BATCHES = st.lists(st.one_of(st.integers(0, 450), st.integers(9_890, 10_120)),
                   min_size=1, max_size=4).map(sorted)


def enrolled(ends):
    """(the ids of batches ending at ends, the same ids spelled one by one):
    each batch's ids are "v" and the position zero-padded to max(4, digits of its end)."""
    ids, want, start = EnrollmentIds(), [], 0
    for end in ends:
        ids = ids.extended(end)
        want += ["v" + str(i).zfill(max(4, len(str(end)))) for i in range(start, end)]
        start = end
    return ids, want


@st.composite
def index_into(draw, n, *, ends=()):
    """A position in 0..n, biased towards batch ends and hundred edges."""
    edges = [i for e in (0, n, *ends) for i in range(e - 1, e + 2)]
    edges += [i for h in range(0, n + 1, 100) for i in (h - 1, h, h + 1)]
    return draw(st.one_of(st.sampled_from([i for i in edges if 0 <= i <= n]),
                          st.integers(0, n)))


@given(ends=BATCHES, data=st.data())
def test_ids_are_v_and_the_zero_padded_position(ends, data):
    ids, want = enrolled(ends)
    n = len(want)
    assert len(ids) == n and list(ids) == want
    assert len(set(ids)) == n
    if n:
        i = data.draw(st.integers(-n, n - 1))
        assert ids[i] == want[i]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            ids[bad]
    spell = ids.speller()
    assert [spell(i) for i in range(n)] == want


@given(ends=BATCHES, data=st.data())
def test_slices_are_the_slices_of_the_spelled_ids(ends, data):
    ids, want = enrolled(ends)
    n = len(want)
    a = data.draw(index_into(n, ends=ends))
    b = data.draw(st.one_of(st.just(min(a + 1, n)), index_into(n, ends=ends)))
    sub = ids[a:b]  # may start mid-hundred, and span the width change
    assert isinstance(sub, EnrollmentIds)
    assert len(sub) == len(want[a:b]) and list(sub) == want[a:b]
    assert [sub[i] for i in range(-len(sub), 0)] == want[a:b]
    spell = sub.speller()
    assert [spell(i) for i in range(len(sub))] == want[a:b]
    assert list(ids[a - n:b - n]) == want[a - n:b - n]  # negative bounds
    step = data.draw(st.sampled_from([-3, -1, 2, 7]))
    assert list(ids[a:b:step]) == want[a:b:step]
    assert list(ids[b::-1]) == want[b::-1]


@given(ends=BATCHES, data=st.data())
def test_joined_runs_equal_joining_the_spelled_ids(ends, data):
    ids, want = enrolled(ends)
    n = len(want)
    a = data.draw(index_into(n, ends=ends))
    b = data.draw(index_into(n, ends=ends).filter(lambda b: b >= a))
    sep = data.draw(st.one_of(st.just(",0\n1,"), st.text(max_size=4)))
    assert ids.joined(a, b, sep) == sep.join(want[a:b])
    sub = ids[a:]
    c = data.draw(st.integers(0, len(sub)))
    assert sub.joined(0, c, sep) == sep.join(want[a:a + c])


@given(ends=BATCHES, other=BATCHES, data=st.data())
def test_equality_and_hash_follow_the_spelled_ids(ends, other, data):
    (ids, want), (ids2, want2) = enrolled(ends), enrolled(other)
    a = data.draw(index_into(len(ids), ends=ends))
    c = data.draw(index_into(len(ids2), ends=other))
    pairs = [(ids, want, ids2, want2), (ids[a:], want[a:], ids2[c:], want2[c:])]
    for x, wx, y, wy in pairs:
        assert (x == y) == (wx == wy)
        if x == y:
            assert hash(x) == hash(y)


def test_batches_of_one_width_equal_one_batch():
    ids, _ = enrolled([3, 250, 9_999])
    assert ids == enrolled([9_999])[0] and hash(ids) == hash(enrolled([9_999])[0])
    assert ids != enrolled([3, 10_000])[0][:9_999]  # v0003 against v00003
    assert ids != tuple(ids)  # equal by value to other EnrollmentIds only
