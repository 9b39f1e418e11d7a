"""Participant ids spelled on demand, against the spelled-out formula."""

import pytest
from hypothesis import given, strategies as st

from fuzzychain.ids import EnrollmentIds

# registry sizes: small populations, and ones on both sides of the 9,999 -> 10,000 width change
SIZES = st.one_of(st.integers(0, 450), st.integers(9_890, 10_120))


def spelled(n):
    """The ids of n participants spelled one by one: "v" and the position
    zero-padded to max(4, the digits of n)."""
    return ["v" + str(i).zfill(max(4, len(str(n)))) for i in range(n)]


@st.composite
def index_into(draw, n):
    """A position in 0..n, biased towards the ends and hundred edges."""
    edges = [i for e in (0, n) for i in range(e - 1, e + 2)]
    edges += [i for h in range(0, n + 1, 100) for i in (h - 1, h, h + 1)]
    return draw(st.one_of(st.sampled_from([i for i in edges if 0 <= i <= n]),
                          st.integers(0, n)))


@given(n=SIZES, data=st.data())
def test_ids_are_v_and_the_zero_padded_position(n, data):
    ids, want = EnrollmentIds(n), spelled(n)
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


@given(n=SIZES, data=st.data())
def test_joined_runs_equal_joining_the_spelled_ids(n, data):
    ids, want = EnrollmentIds(n), spelled(n)
    a = data.draw(index_into(n))  # may start mid-hundred
    b = data.draw(st.one_of(st.just(min(a + 1, n)), index_into(n).filter(lambda b: b >= a)))
    sep = data.draw(st.one_of(st.just(",0\n1,"), st.text(max_size=4)))
    assert ids.joined(a, b, sep) == sep.join(want[a:b])


@given(n=SIZES, m=SIZES)
def test_equality_and_hash_follow_the_spelled_ids(n, m):
    ids, other = EnrollmentIds(n), EnrollmentIds(m)
    assert (ids == other) == (spelled(n) == spelled(m))
    assert hash(ids) == hash(EnrollmentIds(n))
    assert ids != spelled(n)  # equal by value to other EnrollmentIds only


def test_spellers_of_one_width_share_one_memo():
    assert EnrollmentIds(3).speller() is EnrollmentIds(9_999).speller()
    assert EnrollmentIds(3).speller()(2) == "v0002"
    assert EnrollmentIds(10_000).speller()(2) == "v00002"  # another width, another memo


def test_ids_are_not_sliced():
    with pytest.raises(TypeError):
        EnrollmentIds(10)[2:5]
