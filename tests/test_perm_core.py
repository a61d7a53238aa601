import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_inversion_sets, oracle_clopen_join, oracle_clopen_meet
from multilat import perm_core as pc
from multilat.errors import MultilatError

perms = st.integers(2, 7).flatmap(
    lambda k: st.permutations(range(1, k + 1))).map(tuple)


def _pairs(k):
    return list(itertools.combinations(range(1, k + 1), 2))


def test_inversions_extremes():
    assert pc.sequence_inversions(4, (1, 2, 3, 4)) == pc.inv_set(4, ())
    assert pc.sequence_inversions(4, (4, 3, 2, 1)) == pc.inv_set(4, _pairs(4))


@given(perms)
def test_inversions_definition(s):
    expected = [(i, j) for i, j in _pairs(len(s)) if s.index(i) > s.index(j)]
    assert pc.sequence_inversions(len(s), s) == pc.inv_set(len(s), expected)


def test_inversion_set_str():
    assert str(pc.inv_set(4, [(1, 3), (1, 2)])) == "1\\2;1\\3"
    assert str(pc.inv_set(3, ())) == "-"


@pytest.mark.parametrize("k", [2, 3, 4])
def test_clopen_iff_inversion_set(k):
    realizable = set(all_inversion_sets(k))
    for bits in itertools.product([False, True], repeat=len(_pairs(k))):
        x = pc.inv_set(k, (p for p, b in zip(_pairs(k), bits) if b))
        # clopen: x and its complement are both closed
        clopen = pc.closure(x) == x and pc.closure(x.complement()) == x.complement()
        assert clopen == (x in realizable)
        if x in realizable:
            assert pc.sequence_inversions(k, pc.clopen_to_perm(x)) == x
        else:
            with pytest.raises(MultilatError, match="not clopen"):
                pc.clopen_to_perm(x)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_clopen_to_perm_inverts_inversions(k):
    for s in itertools.permutations(range(1, k + 1)):
        assert pc.clopen_to_perm(pc.sequence_inversions(k, s)) == s


@pytest.mark.parametrize("k", [3, 4])
def test_closure_is_least_closed_superset(k):
    for bits in itertools.product([False, True], repeat=len(_pairs(k))):
        x = pc.inv_set(k, (p for p, b in zip(_pairs(k), bits) if b))
        c = pc.closure(x)
        assert pc.closure(c) == c and x <= c
        # least: every closed superset contains the closure
        for bits2 in itertools.product([False, True], repeat=len(_pairs(k))):
            y = pc.inv_set(k, (p for p, b in zip(_pairs(k), bits2) if b))
            if pc.closure(y) == y and x <= y:
                assert c <= y


@pytest.mark.parametrize("k", [3, 4])
def test_interior_duality(k):
    for x in all_inversion_sets(k):
        assert pc.interior(x) == pc.closure(x.complement()).complement()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_join_meet_against_bruteforce_bounds(k):
    clopens = all_inversion_sets(k)
    for x in clopens:
        for y in clopens:
            assert pc.perm_join(x, y) == oracle_clopen_join(x, y)
            assert pc.perm_meet(x, y) == oracle_clopen_meet(x, y)


def test_join_meet_reject_non_clopen():
    x = pc.inv_set(3, [(1, 3)])  # closed, but its complement 1\\2;2\\3 is not
    assert pc.closure(x) == x and pc.closure(x.complement()) != x.complement()
    with pytest.raises(MultilatError, match="not clopen"):
        pc.clopen_to_perm(x)
    # the refusal names the set
    for call in (pc.perm_join, pc.perm_meet):
        with pytest.raises(MultilatError, match=r"^not clopen: 1\\3$"):
            call(x, x)
        with pytest.raises(MultilatError, match=r"^not clopen: 1\\3$"):
            call(pc.inv_set(3, []), x)


def test_size_mismatch_rejected():
    with pytest.raises(MultilatError):
        pc.perm_join(pc.inv_set(3, []), pc.inv_set(4, []))
