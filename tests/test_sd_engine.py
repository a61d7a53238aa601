import itertools
import json
import random

import pytest
from conftest import oracle_clopen_join, oracle_clopen_meet

from multilat import finite_lattice as fl
from multilat import multinomial as mn
from multilat import perm_core as pc
from multilat import sd_engine as sd
from multilat.errors import CapExceeded, MultilatError
from multilat.order import sd_sequence


def V(text):
    return mn.parse_vector(text)


def test_perm_witness_shapes():
    wit = sd.perm_witness(4)
    assert wit.x == pc.inv_set(4, [(1, 2), (1, 3), (1, 4)])
    assert wit.y == pc.inv_set(4, [(2, 3)])
    assert wit.z == pc.inv_set(4, [(1, 2), (3, 4)])
    for part in (wit.x, wit.y, wit.z):
        assert pc.sequence_inversions(4, pc.clopen_to_perm(part)) == part
    with pytest.raises(MultilatError):
        sd.perm_witness(1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 20])
def test_wk_ladder(n):
    assert sd.wk_ladder_check(n)


def test_psi_blocks():
    v = V("2,1,3")
    assert mn.word_str(sd.psi(v, (1, 2, 3))) == "aabccc"
    assert mn.word_str(sd.psi(v, (3, 1, 2))) == "cccaab"
    skipped = V("2,0,3")  # letter 2 missing: support is (1, 3)
    assert sd.psi(skipped, (2, 1)).letters == (3, 3, 3, 1, 1)
    with pytest.raises(MultilatError, match="permutation size 4 != dimension 3"):
        sd.psi(v, (1, 2, 3, 4))
    with pytest.raises(MultilatError, match="letter counts"):
        sd.psi(v, (1, 1, 3))


def test_psi_is_order_embedding_of_permutations():
    v = V("2,1,1")
    for s, t in itertools.product(itertools.permutations((1, 2, 3)), repeat=2):
        weak = pc.sequence_inversions(3, s) <= pc.sequence_inversions(3, t)
        assert weak == mn.leq(sd.psi(v, s), sd.psi(v, t))


@pytest.mark.parametrize("text", ["2,1,1", "2,0,3", "1,2,0,1", "0,2,1,2", "2,1,1,2"])
def test_psi_is_lattice_embedding_of_permutations(text):
    # joins and meets in Perm(support), from the brute-force bounds of
    # conftest, are carried to the word joins and meets of L(v)
    v = V(text)
    n = v.dimension
    perms = list(itertools.permutations(range(1, n + 1)))
    for s, t in itertools.product(perms, repeat=2):
        x, y = pc.sequence_inversions(n, s), pc.sequence_inversions(n, t)
        ps, pt = sd.psi(v, s), sd.psi(v, t)
        assert sd.psi(v, pc.clopen_to_perm(oracle_clopen_join(x, y))) == mn.mjoin(ps, pt)
        assert sd.psi(v, pc.clopen_to_perm(oracle_clopen_meet(x, y))) == mn.mmeet(ps, pt)


@pytest.mark.parametrize("text", ["1,1,1", "2,1,1", "1,2,1", "1,1,1,1", "2,2,1,1"])
def test_witness_words_fail_sd_n_minus_2(text):
    v = V(text)
    n = v.dimension
    assert sd.witness_fails(v, n - 2)
    # one level up the equation must hold on the witness, in both orderings
    assert not sd.witness_fails(v, n - 1)


def two_walk_fails(v, n):
    """SD_n fails on (x,y,z) or on (x,z,y), each ordering walked on its own."""
    def fails(x, y, z):
        yk, zk = y, z
        for _ in range(n):
            yk, zk = mn.mjoin(y, mn.mmeet(x, zk)), mn.mjoin(z, mn.mmeet(x, yk))
        return mn.mmeet(x, yk) != mn.mmeet(x, mn.mjoin(y, z))
    x, y, z = sd.witness_words(v)
    return fails(x, y, z) or fails(x, z, y)


@pytest.mark.parametrize("text", ["1,1", "0,3,2", "2,0,1,1", "1,2,1,0,1", "1,1,1,1",
                                  "0,1,1,1,1,1", "2,1,0,1,1,1", "1,1,1,1,1,1"])
def test_one_walk_decides_both_orderings(text):
    v = V(text)
    verdicts = [sd.witness_fails(v, n) for n in range(v.dimension + 1)]
    assert verdicts == [two_walk_fails(v, n) for n in range(v.dimension + 1)]
    # the witness fails up to SD_{dim-2} and holds from SD_{dim-1} on
    assert verdicts == [n <= v.dimension - 2 for n in range(v.dimension + 1)]


def test_witness_walk_stops_once_the_sequences_repeat():
    assert sd.witness_fails(V("1,1,1,1"), 10**9) is False


def test_witness_letter_cap():
    cap = sd.WITNESS_LETTER_CAP
    assert len(sd.witness_words(V(f"1,{cap - 1}"))[0].letters) == cap
    with pytest.raises(CapExceeded, match=f"{cap + 1} letters exceed the witness cap"):
        sd.witness_words(V(f"1,{cap}"))


@pytest.mark.parametrize("text,method", [
    ("1,1,1", sd.EXHAUSTIVE),
    ("2,1,1", sd.EXHAUSTIVE),
    ("1,1,1,1", sd.EXHAUSTIVE),
    ("1,1,1,1", sd.DPATH_BOUND),
    ("1,1,2,1,1", sd.DPATH_BOUND),
])
def test_theorem_check(text, method):
    v = V(text)
    rep = sd.theorem_check(v, method=method)
    assert rep.sd_fail_level == v.dimension - 2
    assert rep.sd_hold_level == v.dimension - 1
    assert rep.method == method
    data = json.loads(rep.to_json())
    assert data["dim"] == v.dimension
    for w in data["witness_words"]:
        mn.parse_word(v, w)  # words round-trip


def test_theorem_auto_method_switches_on_size():
    assert sd.theorem_check(V("1,1,1")).method == sd.EXHAUSTIVE
    assert sd.theorem_check(V("1,1,2,1,1")).method == sd.DPATH_BOUND


def test_theorem_rejects_dimension_one():
    with pytest.raises(MultilatError):
        sd.theorem_check(V("3"))


def test_dimension_two_base_case():
    rep = sd.theorem_check(V("2,2"))
    assert rep.sd_fail_level == 0 and rep.sd_hold_level == 1


SD_LATTICES = [fl.n5(), fl.m3(), fl.benzene(),
               mn.to_finite_lattice(V("1,1,1")), mn.to_finite_lattice(V("2,2"))]


@pytest.mark.parametrize("L", SD_LATTICES, ids=lambda L: f"n{L.n}")
def test_sd_monotone_in_n(L):
    prior = False
    for n in range(6):
        now = L.sd_holds(n) is True
        assert not (prior and not now), f"SD_{n} lost after SD_{n - 1} held"
        prior = now


def test_sequence_laws_on_random_triples():
    rng = random.Random(20260823)
    lattices = [fl.benzene(), mn.to_finite_lattice(V("2,1,1"))]
    for _ in range(1000):
        L = rng.choice(lattices)
        x, y, z = (rng.randrange(L.n) for _ in range(3))
        pairs = sd_sequence(L.join, L.meet, x, y, z)  # to its fixed point
        mu = len(pairs)
        assert sd_sequence(L.join, L.meet, x, y, z, 4) == pairs[:5]
        y_seq, z_seq = zip(*(pairs[min(k, mu - 1)] for k in range(5)))
        for k in range(4):
            # the two sequences only climb
            assert L.leq_table[y_seq[k], y_seq[k + 1]]
            assert L.leq_table[z_seq[k], z_seq[k + 1]]
            # and stay inside the join of the starting pair
            assert L.leq_table[y_seq[k + 1], L.join(y, L.meet(x, L.join(y, z)))]
        assert 1 <= mu
        # the last pair is the step's fixed point
        y_mu, z_mu = pairs[-1]
        assert (L.join(y, L.meet(x, z_mu)), L.join(z, L.meet(x, y_mu))) == pairs[-1]
        if mu <= 4:
            # once both sequences stabilize the verdict is settled
            def holds(n):
                return L.meet(x, y_seq[n]) == L.meet(x, L.join(y, z))
            assert holds(4) == holds(mu)


def test_mu_bounds_sd_level():
    for L in SD_LATTICES:
        mu = max(len(sd_sequence(L.join, L.meet, x, y, z))
                 for x, y, z in itertools.product(L.elements(), repeat=3))
        if L.sd_holds(mu) is True:
            assert L.sd_holds(mu + 1) is True
