import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_join, oracle_leq, oracle_meet, word_universe
from multilat import multinomial as mn
from multilat import order
from multilat import perm_core as pc
from multilat.errors import CapExceeded, MultilatError

SMALL_VECTORS = ["2,1", "1,1,1", "2,2", "2,1,1", "1,2,1", "1,1,1,1"]
K5_VECTORS = SMALL_VECTORS + ["3,2", "2,2,1", "3,1,1", "2,1,1,1", "1,1,1,1,1"]


def words_of(text):
    return word_universe(mn.parse_vector(text))


@st.composite
def random_word(draw, vectors=SMALL_VECTORS):
    v = mn.parse_vector(draw(st.sampled_from(vectors)))
    letters = [i + 1 for i, c in enumerate(v.entries) for _ in range(c)]
    return mn.PathWord(v, tuple(draw(st.permutations(letters))))


def test_vector_parse_and_properties():
    v = mn.parse_vector("2,1,3")
    assert (v.n, v.k, v.dimension) == (3, 6, 3)
    assert v.support() == (1, 2, 3)
    assert v.size() == math.factorial(6) // (2 * 6)
    assert mn.parse_vector(str(v)) == v
    assert mn.parse_vector("2,0,1").dimension == 2
    with pytest.raises(MultilatError):
        mn.parse_vector("2,-1")


@pytest.mark.parametrize("text", SMALL_VECTORS + ["3,3", "2,0,2"])
def test_enumerate_matches_multinomial_count(text):
    v = mn.parse_vector(text)
    words = list(mn.enumerate_words(v))
    assert len(words) == v.size()
    assert len(set(words)) == len(words)
    assert words == sorted(words)


def test_enumerate_long_words_without_recursion(monkeypatch):
    # 1,500 letters: one recursion level per letter would pass Python's limit
    v = mn.parse_vector("1,1499")
    monkeypatch.setattr(mn, "DEFAULT_K_CAP", v.k)
    words = list(mn.enumerate_words(v))
    assert len(words) == v.size() == 1500
    assert words[0] == mn.bottom(v) and words[-1] == mn.top(v)
    assert all(a < b for a, b in zip(words, words[1:]))


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        list(mn.enumerate_words(mn.parse_vector("5,5,5")))


@given(random_word())
def test_word_str_parse_roundtrip(w):
    assert mn.parse_word(w.parent, mn.word_str(w)) == w


def test_word_str_formats():
    v = mn.parse_vector("2,1")
    assert mn.word_str(mn.bottom(v)) == "aab"
    big = mn.MultVector(tuple([1] * 27))
    assert " " in mn.word_str(mn.bottom(big))
    assert mn.parse_word(big, mn.word_str(mn.top(big))) == mn.top(big)


def test_parse_word_rejects_wrong_content():
    v = mn.parse_vector("2,1")
    with pytest.raises(MultilatError):
        mn.parse_word(v, "abb")
    with pytest.raises(MultilatError):
        mn.parse_word(v, "ab")


@pytest.mark.parametrize("text", SMALL_VECTORS)
def test_leq_matches_rewrite_closure(text):
    for w in words_of(text):
        for u in words_of(text):
            assert mn.leq(w, u) == oracle_leq(w, u)


@pytest.mark.parametrize("text", SMALL_VECTORS)
def test_bottom_and_top_are_extremes(text):
    v = mn.parse_vector(text)
    for w in words_of(text):
        assert mn.leq(mn.bottom(v), w)
        assert mn.leq(w, mn.top(v))


@pytest.mark.parametrize("text", SMALL_VECTORS)
def test_covers_against_order(text):
    for w in words_of(text):
        expected = {u for u in words_of(text)
                    if w != u and mn.leq(w, u)
                    and not any(t != w and t != u and mn.leq(w, t) and mn.leq(t, u)
                                for t in words_of(text))}
        assert set(mn.covers(w)) == expected


def test_pi_projection():
    v = mn.parse_vector("2,1,1")
    w = mn.parse_word(v, "cab a".replace(" ", ""))
    p = mn.pi(w, 1, 3)
    assert p.letters == (2, 1, 1)
    assert p.parent.entries == (2, 1)


@pytest.mark.parametrize("text", K5_VECTORS)
def test_iota_is_order_embedding(text):
    v = mn.parse_vector(text)
    for w in words_of(text):
        # position p holds value 1 + the rank of (letter, p) among all positions;
        # a\b is an inversion when the larger value b stands before a
        ranked = sorted(range(v.k), key=lambda p: (w.letters[p], p))
        value = {p: r + 1 for r, p in enumerate(ranked)}
        expected = [(value[p], value[q]) for p in range(v.k) for q in range(p)
                    if value[q] > value[p]]
        assert mn.word_inversions(w) == pc.inv_set(v.k, expected)
        assert mn.inversions_word(v, mn.word_inversions(w)) == w
    for w in words_of(text):
        for u in words_of(text):
            assert mn.leq(w, u) == (mn.word_inversions(w) <= mn.word_inversions(u))


def test_iota_fibers_increase():
    v = mn.parse_vector("2,2")
    for w in word_universe(v):
        values = pc.clopen_sequence(mn.word_inversions(w))
        offset = 0
        for letter in (1, 2):
            count = v.entries[letter - 1]
            fiber = [a for a in values if offset < a <= offset + count]
            assert fiber == sorted(fiber)
            assert [w.letters[values.index(a)] for a in fiber] == [letter] * count
            offset += count


def test_iota_inv_rejects_outside_image():
    v = mn.parse_vector("2,1")
    # fiber of letter 1 occupies ranks 1,2; decreasing fiber is outside the image
    bad = pc.inversions(pc.Permutation((2, 1, 3)))
    with pytest.raises(MultilatError, match=r"inversion set 1\\2 is not that of a word of L\(2,1\)"):
        mn.inversions_word(v, bad)
    for x in (pc.inv_set(3, [(1, 3)]), pc.inv_set(4, ())):  # not clopen; wrong size
        with pytest.raises(MultilatError, match="is not that of a word"):
            mn.inversions_word(v, x)


@pytest.mark.parametrize("text", SMALL_VECTORS)
def test_join_meet_against_bruteforce_bounds(text):
    for w in words_of(text):
        for u in words_of(text):
            assert mn.mjoin(w, u) == oracle_join(w, u)
            assert mn.mmeet(w, u) == oracle_meet(w, u)


@settings(max_examples=200)
@given(random_word(), st.randoms(use_true_random=False))
def test_lattice_laws(w, rng):
    universe = word_universe(w.parent)
    u = rng.choice(universe)
    t = rng.choice(universe)
    assert mn.mjoin(w, u) == mn.mjoin(u, w)
    assert mn.mmeet(w, u) == mn.mmeet(u, w)
    assert mn.mjoin(w, mn.mjoin(u, t)) == mn.mjoin(mn.mjoin(w, u), t)
    assert mn.mmeet(w, mn.mmeet(u, t)) == mn.mmeet(mn.mmeet(w, u), t)
    assert mn.mjoin(w, mn.mmeet(w, u)) == w
    assert mn.mmeet(w, mn.mjoin(w, u)) == w


def _check_against_tables(lattice, words, pairs):
    """mjoin/mmeet/leq against the tables that from_covers fills from the
    swap covers alone, apart from the clopen calculus."""
    for i, j in pairs:
        w, u = words[i], words[j]
        assert mn.leq(w, u) == lattice.le(i, j)
        assert mn.mjoin(w, u) == words[lattice.join(i, j)]
        assert mn.mmeet(w, u) == words[lattice.meet(i, j)]


def test_word_operations_against_tables_every_pair_of_222():
    v = mn.parse_vector("2,2,2")
    lattice = mn.to_finite_lattice(v)
    words = list(mn.enumerate_words(v))
    _check_against_tables(lattice, words, itertools.product(range(lattice.n), repeat=2))


def test_word_operations_against_tables_random_pairs_of_2222():
    v = mn.parse_vector("2,2,2,2")
    lattice = mn.to_finite_lattice(v)
    words = list(mn.enumerate_words(v))
    rng = random.Random(2222)
    _check_against_tables(lattice, words, [(rng.randrange(lattice.n), rng.randrange(lattice.n))
                                           for _ in range(2000)])


def test_parent_mismatch_rejected():
    w = mn.bottom(mn.parse_vector("2,1"))
    u = mn.bottom(mn.parse_vector("1,2"))
    with pytest.raises(MultilatError):
        mn.mjoin(w, u)


@pytest.mark.parametrize("text", SMALL_VECTORS)
def test_to_finite_lattice_tables_match_word_operations(text):
    v = mn.parse_vector(text)
    lattice = mn.to_finite_lattice(v)
    assert lattice.n == v.size()
    idx = {label: i for i, label in enumerate(lattice.labels)}
    for w in words_of(text):
        for u in words_of(text):
            i, j = idx[mn.word_str(w)], idx[mn.word_str(u)]
            assert lattice.le(i, j) == mn.leq(w, u)
            assert lattice.labels[lattice.join(i, j)] == mn.word_str(mn.mjoin(w, u))
            assert lattice.labels[lattice.meet(i, j)] == mn.word_str(mn.mmeet(w, u))


@pytest.mark.parametrize("text", SMALL_VECTORS + ["2,0,2", "3,2,1", "1" + ",0" * 25 + ",2"])
def test_to_finite_lattice_words_and_covers(text, monkeypatch):
    v = mn.parse_vector(text)
    lattice = mn.to_finite_lattice(v)
    monkeypatch.setattr(mn, "DEFAULT_K_CAP", v.k)
    words = list(mn.enumerate_words(v))
    assert lattice.labels == [mn.word_str(w) for w in words]
    assert lattice.cover_pairs() == sorted((words.index(w), words.index(u))
                                           for w in words for u in mn.covers(w))


def test_to_finite_lattice_cap(monkeypatch):
    monkeypatch.setattr(order, "DEFAULT_SIZE_CAP", 5)
    with pytest.raises(CapExceeded, match=r"\|L\(2,2\)\| = 6 exceeds materialization cap 5"):
        mn.to_finite_lattice(mn.parse_vector("2,2"))
