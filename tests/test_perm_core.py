import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_inversion_sets, oracle_clopen_join, oracle_clopen_meet
from multilat import perm_core as pc
from multilat.errors import MultilatError

perms = st.integers(2, 7).flatmap(
    lambda k: st.permutations(range(1, k + 1))).map(
    lambda images: pc.Permutation(tuple(images)))


def test_identity():
    e = pc.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert e.inverse() == e


def test_perm_str_and_validation():
    assert str(pc.Permutation((2, 1, 3))) == "2,1,3"
    with pytest.raises(MultilatError, match="not a permutation of 1..3"):
        pc.Permutation((2, 2, 3))


@given(perms)
def test_inverse_laws(s):
    inv = s.inverse()
    assert inv.inverse() == s
    for i in range(1, s.size + 1):
        assert inv(s(i)) == i
        assert s(inv(i)) == i


def test_inversions_extremes():
    assert pc.inversions(pc.identity(4)) == pc.inv_set(4, ())
    rev = pc.Permutation((4, 3, 2, 1))
    assert pc.inversions(rev) == pc.inv_set(4, pc.all_pairs(4))


@given(perms)
def test_inversions_definition(s):
    expected = [(i, j) for i, j in pc.all_pairs(s.size)
                if s.inverse()(i) > s.inverse()(j)]
    assert pc.inversions(s) == pc.inv_set(s.size, expected)


def test_inversion_set_str():
    assert str(pc.inv_set(4, [(1, 3), (1, 2)])) == "1\\2;1\\3"
    assert str(pc.inv_set(3, ())) == "-"


@pytest.mark.parametrize("k", [2, 3, 4])
def test_clopen_iff_inversion_set(k):
    realizable = set(all_inversion_sets(k))
    for bits in itertools.product([False, True], repeat=len(pc.all_pairs(k))):
        x = pc.inv_set(k, (p for p, b in zip(pc.all_pairs(k), bits) if b))
        assert pc.is_clopen(x) == (x in realizable)
        if x in realizable:
            assert pc.inversions(pc.clopen_to_perm(x)) == x
        else:
            with pytest.raises(MultilatError, match="not clopen"):
                pc.clopen_to_perm(x)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_clopen_to_perm_inverts_inversions(k):
    for s in pc.all_perms(k):
        assert pc.clopen_to_perm(pc.inversions(s)) == s


@pytest.mark.parametrize("k", [3, 4])
def test_closure_is_least_closed_superset(k):
    for bits in itertools.product([False, True], repeat=len(pc.all_pairs(k))):
        x = pc.inv_set(k, (p for p, b in zip(pc.all_pairs(k), bits) if b))
        c = pc.closure(x)
        assert pc.is_closed(c) and x <= c
        # least: every closed superset contains the closure
        for bits2 in itertools.product([False, True], repeat=len(pc.all_pairs(k))):
            y = pc.inv_set(k, (p for p, b in zip(pc.all_pairs(k), bits2) if b))
            if pc.is_closed(y) and x <= y:
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
    x = pc.inv_set(3, [(1, 3)])  # not closed downward-compatible: open fails
    assert not pc.is_clopen(x)
    with pytest.raises(MultilatError):
        pc.perm_join(x, x)


def test_size_mismatch_rejected():
    with pytest.raises(MultilatError):
        pc.perm_join(pc.inv_set(3, []), pc.inv_set(4, []))
