import itertools
import math
import random
import time

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


def test_enumerate_long_words_without_recursion():
    # 1,500 letters: one recursion level per letter would pass Python's limit
    v = mn.parse_vector("1,1499")
    words = list(mn.enumerate_words(v))
    assert len(words) == v.size() == 1500
    assert words[0] == mn.bottom(v) and words[-1] == mn.top(v)
    assert all(a < b for a, b in zip(words, words[1:]))


@given(st.lists(st.integers(0, 12), min_size=1, max_size=5), st.integers(-2, 2),
       st.integers(0, 10 ** 7))
def test_size_up_to_is_the_size_within_the_bound(entries, delta, bound):
    v = mn.MultVector(tuple(entries))
    size = v.size()
    for b in (max(0, size + delta), bound):
        assert v.size_up_to(b) == (size if size <= b else None)


def test_size_up_to_stops_early_on_huge_vectors():
    start = time.perf_counter()
    assert mn.parse_vector("1000000,1000000").size_up_to(10 ** 18) is None
    assert mn.MultVector((10 ** 100, 1)).size_up_to(10 ** 18) is None
    assert mn.MultVector((10 ** 100, 1)).size_up_to(10 ** 101) == 10 ** 100 + 1
    assert mn.MultVector((0, 10 ** 100, 0)).size_up_to(1) == 1
    assert mn.MultVector((1,) * 100_000).size_up_to(10 ** 18) is None
    assert time.perf_counter() - start < 0.5


def test_enumerate_cap():
    with pytest.raises(CapExceeded, match=r"^\|L\(5,5,5\)\| = 756756 exceeds the listing cap"):
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


@pytest.mark.parametrize("text,message", [
    ("aB1", "bad letter 'B' in word 'aB1'"), ("ab-", "bad letter '-' in word 'ab-'"),
    ("a\u00e1b", "bad letter '\u00e1' in word 'a\u00e1b'"), (" aab", "bad letter ' ' in word ' aab'"),
    ("aaz", "letter 26 out of range for v=2,1"), ("", r"letter counts \(0, 0\) do not match"),
])
def test_parse_word_names_the_first_bad_letter(text, message):
    with pytest.raises(MultilatError, match=f"^{message}"):
        mn.parse_word(mn.parse_vector("2,1"), text)


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


def _leq_by_two_letter_subwords(w, u):
    """The paper's order, apart from inversion sets: w <= u when, for every
    pair of letters l < m and every prefix, the {l, m}-subword of w has no
    more m's than that of u."""
    for l, m in itertools.combinations(range(1, w.parent.n + 1), 2):
        sub_w = [c for c in w.letters if c in (l, m)]
        sub_u = [c for c in u.letters if c in (l, m)]
        count_w = count_u = 0
        for a, b in zip(sub_w, sub_u):
            count_w += a == m
            count_u += b == m
            if count_w > count_u:
                return False
    return True


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
            assert mn.leq(w, u) == _leq_by_two_letter_subwords(w, u)


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
    bad = pc.sequence_inversions(3, (2, 1, 3))
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
        assert mn.leq(w, u) == lattice.leq_table[i, j]
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
    for op in (mn.leq, mn.mjoin, mn.mmeet):
        with pytest.raises(MultilatError, match="mismatched parents"):
            op(w, u)


@pytest.mark.parametrize("text", SMALL_VECTORS)
def test_to_finite_lattice_tables_match_word_operations(text):
    v = mn.parse_vector(text)
    lattice = mn.to_finite_lattice(v)
    assert lattice.n == v.size()
    idx = {label: i for i, label in enumerate(lattice.labels)}
    for w in words_of(text):
        for u in words_of(text):
            i, j = idx[mn.word_str(w)], idx[mn.word_str(u)]
            assert lattice.leq_table[i, j] == mn.leq(w, u)
            assert lattice.labels[lattice.join(i, j)] == mn.word_str(mn.mjoin(w, u))
            assert lattice.labels[lattice.meet(i, j)] == mn.word_str(mn.mmeet(w, u))


@pytest.mark.parametrize("text", SMALL_VECTORS + ["2,0,2", "3,2,1", "1" + ",0" * 25 + ",2"])
def test_to_finite_lattice_words_and_covers(text):
    v = mn.parse_vector(text)
    lattice = mn.to_finite_lattice(v)
    words = list(mn.enumerate_words(v))
    assert lattice.labels == [mn.word_str(w) for w in words]
    assert lattice.cover_pairs() == sorted((words.index(w), words.index(u))
                                           for w in words for u in mn.covers(w))


def test_to_finite_lattice_cap(monkeypatch):
    monkeypatch.setattr(order, "DEFAULT_SIZE_CAP", 5)
    with pytest.raises(CapExceeded, match=r"\|L\(2,2\)\| = 6 exceeds materialization cap 5"):
        mn.to_finite_lattice(mn.parse_vector("2,2"))
