import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ORACLE_VECTORS, d_closed_members, d_closed_sets, graph_from_edges,
                      oracle_congruences, oracle_d_edges, quotient_lattice)
from multilat import congruence as cg
from multilat import finite_lattice as fl
from multilat import irreducibles as ir
from multilat import multinomial as mn
from multilat.errors import CapExceeded, InternalInconsistency, MultilatError


def V(text):
    return mn.parse_vector(text)


def full_set(v):
    return cg.JiSet(v, frozenset(ir.enumerate_ji(v)))


@pytest.mark.parametrize("text,count", [
    ("2,2", 16),      # D empty: all 2^4 subsets
    ("1,1,1", 7),
    ("2,1", 4),       # D empty: all 2^2 subsets
])
def test_d_closed_set_counts(text, count):
    sets = d_closed_sets(V(text))
    assert len(sets) == count
    assert len({s.members for s in sets}) == count
    assert all(s.is_d_closed() for s in sets)


def test_counts_match_a_brute_force_over_all_subsets():
    # every subset of the oracle's nodes tested against its edge tuples,
    # with neither the successor lists nor the height-ordered enumeration
    small = [e for e in ORACLE_VECTORS if ir.count_ji(mn.MultVector(e)) <= 12]
    assert len(small) == 395
    for entries in small:
        v = mn.MultVector(entries)
        xs, edges = oracle_d_edges(v)
        pairs = [(1 << s, 1 << t) for s, t, _ in edges]
        count = sum(1 for mask in range(1 << len(xs))
                    if all(mask & t or not mask & s for s, t in pairs))
        assert cg.count_d_closed(v) == len(cg.d_closed_masks(v)[1]) == count, entries


@pytest.mark.parametrize("text", ["2,1", "1,1,1", "2,2", "2,1,1", "1,2,1"])
def test_counts_match_independent_lattice_enumeration(text):
    v = V(text)
    lattice = mn.to_finite_lattice(v)
    assert len(d_closed_sets(v)) == len(oracle_congruences(lattice))


def test_cap(monkeypatch):
    monkeypatch.setattr(cg, "DEFAULT_JI_CAP", 4)
    assert len(d_closed_sets(V("1,1,1"))) == 7  # four join irreducibles
    assert cg.count_d_closed(V("1,1,1")) == 7
    with pytest.raises(CapExceeded, match="11 join irreducibles exceed cap 4"):
        d_closed_sets(V("1,1,1,1"))
    with pytest.raises(CapExceeded, match="11 join irreducibles exceed cap 4"):
        cg.count_d_closed(V("1,1,1,1"))


def test_listing_cap(monkeypatch):
    monkeypatch.setattr(cg, "LISTING_CAP", 7)
    assert len(d_closed_sets(V("1,1,1"))) == 7
    with pytest.raises(CapExceeded, match="16 congruences exceed the listing cap 7"):
        d_closed_sets(V("2,2"))
    assert cg.count_d_closed(V("2,2")) == 16


def test_classes_cap(monkeypatch):
    monkeypatch.setattr(cg, "CLASSES_CAP", 6)
    assert len(cg.congruence_from_S(V("2,2"), cg.parse_ji_set(V("2,2"), "-")).blocks) == 1
    v = V("3,2")
    with pytest.raises(CapExceeded, match=r"\|L\(3,2\)\| = 10 exceeds the congruence classes cap 6"):
        cg.congruence_from_S(v, cg.parse_ji_set(v, "-"))


def test_masks_refuse_a_cyclic_d_graph(monkeypatch):
    v = V("1,1,1")
    nodes = tuple(ir.enumerate_ji(v))
    # a chain 0 -> 1 -> 2 closed by 2 -> 1, plus an acyclic tail 3 -> 0
    edges = ((0, 1, "other"), (1, 2, "other"), (2, 1, "other"), (3, 0, "other"))
    monkeypatch.setattr(cg, "d_graph",
                        lambda v: graph_from_edges(v, [j.x for j in nodes], edges))
    with pytest.raises(InternalInconsistency, match=rf"cycle through \({nodes[1]}\)"):
        cg.d_closed_masks(v)
    with pytest.raises(InternalInconsistency, match=rf"cycle through \({nodes[1]}\)"):
        cg.count_d_closed(v)


@pytest.mark.parametrize("text", ["1,1,1,1", "2,0,1,1", "1,2,1"])
def test_masks_are_distinct_forward_closed_sets(text):
    graph, masks = cg.d_closed_masks(V(text))
    assert len(set(masks)) == len(masks)
    for mask in masks:
        members = set(cg.mask_members(mask))
        assert all(t in members for s, t, _ in graph.edges if s in members)
    assert cg.mask_members(0b10110) == [1, 2, 4]


@pytest.mark.parametrize("text", ["2,2", "1,1,1", "2,1", "0", "3,0", "0,2,0", "1,0,1",
                                  "2,0,1,1", "1,0,2,1", "0,1,1,1,0", "3,0,2", "2,2,2", "1,2,0,2"])
def test_count_is_the_product_over_components(text):
    v = V(text)
    assert cg.count_d_closed(v) == len(cg.d_closed_masks(v)[1])


@st.composite
def vectors_with_few_irreducibles(draw, most=16):
    """Vectors with entries 0..3, zeros included, and at most ``most`` join irreducibles."""
    entries = [draw(st.integers(0, 3))]
    while len(entries) < 6 and draw(st.booleans()):
        e = draw(st.integers(0, 3))
        if ir.count_ji(mn.MultVector(tuple(entries + [e]))) > most:
            break
        entries.append(e)
    return mn.MultVector(tuple(entries))


@given(vectors_with_few_irreducibles())
@settings(max_examples=60, deadline=None)
def test_count_is_the_product_over_components_on_random_vectors(v):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cg, "LISTING_CAP", 1 << 16)  # 16 irreducibles
        assert cg.count_d_closed(v) == len(cg.d_closed_masks(v)[1])


@pytest.mark.parametrize("text", ["1,1,1,1", "2,1,1", "1,0,2,1", "1,1,1,1,1"])
def test_is_d_closed_matches_pair_scan(text):
    v = V(text)
    jis = ir.enumerate_ji(v)
    rng = random.Random(text)
    verdicts = set()
    for _ in range(60):
        density = rng.choice((0.1, 0.5, 0.9))
        members = frozenset(j for j in jis if rng.random() < density)
        closed = all(k in members for j in members for k in jis if ir.d_rel(j, k))
        assert cg.JiSet(v, members).is_d_closed() == closed
        verdicts.add(closed)
    assert verdicts == {True, False}


def test_ji_set_parse_and_str_roundtrip():
    v = V("3,3")
    s = cg.parse_ji_set(v, "0,3;1,2")
    assert len(s.members) == 2
    assert cg.parse_ji_set(v, str(s)) == s
    assert cg.parse_ji_set(v, "-").members == frozenset()


def test_ji_set_rejects_foreign_members():
    v, w = V("2,2"), V("2,1")
    j = ir.enumerate_ji(w)[0]
    with pytest.raises(MultilatError):
        cg.JiSet(v, frozenset([j]))


def test_congruence_from_empty_S_is_total():
    v = V("2,2")
    p = cg.congruence_from_S(v, cg.parse_ji_set(v, "-"))
    assert len(p.blocks) == 1
    assert len(p.blocks[0]) == v.size()


def test_congruence_from_full_S_is_identity():
    v = V("1,1,1")
    p = cg.congruence_from_S(v, full_set(v))
    assert len(p.blocks) == v.size()
    assert all(len(b) == 1 for b in p.blocks)


@settings(max_examples=40, deadline=None)
@given(d_closed_members())
def test_blocks_group_words_by_dominated_members_in_tables(drawn):
    """The blocks are the words grouped by the members of S below them,
    read from the leq table that to_finite_lattice closes from the covers."""
    text, members = drawn
    v = V(text)
    nodes = ir.d_graph(v).nodes
    s = cg.JiSet(v, frozenset(nodes[i] for i in members))
    lattice = mn.to_finite_lattice(v)
    index = {label: i for i, label in enumerate(lattice.labels)}
    member_index = {j: index[mn.word_str(ir.ji_word(j))] for j in s.members}
    expected: dict[frozenset, set] = {}
    for w in mn.enumerate_words(v):
        key = frozenset(j for j, i in member_index.items()
                        if lattice.leq_table[i, index[mn.word_str(w)]])
        expected.setdefault(key, set()).add(w)
    blocks = cg.congruence_from_S(v, s).blocks
    assert set(blocks) == {frozenset(b) for b in expected.values()}


def test_congruence_rejects_non_closed_S():
    v = V("1,1,1")
    # a single source of a D-edge without its target is not closed
    g = ir.d_graph(v)
    src = g.nodes[g.edges[0][0]]
    s = cg.JiSet(v, frozenset([src]))
    assert not s.is_d_closed()
    with pytest.raises(MultilatError):
        cg.congruence_from_S(v, s)


def test_verify_congruence_refuses_an_incompatible_partition():
    """Merging the bottom abc of L(1,1,1) with its cover acb alone is no
    congruence: joined with bac they give bac and the top cba, two blocks."""
    v = V("1,1,1")
    words = list(mn.enumerate_words(v))
    merged = frozenset(mn.parse_word(v, w) for w in ("abc", "acb"))
    p = cg.Partition(v, (merged,) + tuple(frozenset([w]) for w in words if w not in merged))
    with pytest.raises(MultilatError, match="^relation is not compatible: "
                                            "blocks of abc and acb split under bac$"):
        cg._verify_congruence(p, words)


@pytest.mark.parametrize("text", ["1,1,1", "2,2", "2,1,1"])
def test_every_d_closed_set_yields_a_verified_congruence(text):
    v = V(text)
    seen = set()
    for s in d_closed_sets(v):
        p = cg.congruence_from_S(v, s)  # checks compatibility
        key = frozenset(p.blocks)
        assert key not in seen  # distinct sets give distinct congruences
        seen.add(key)


def test_holes_example_classes_and_quotient():
    v = V("3,3")
    s = cg.parse_ji_set(v, "0,3;1,2")
    p = cg.congruence_from_S(v, s)
    assert len(p.blocks) == 3
    assert sorted(len(b) for b in p.blocks) == [1, 9, 10]
    assert cg.check_parikh_connectivity(p)
    q = quotient_lattice(v, s)
    assert q.n == 3
    assert len(q.cover_pairs()) == 2  # a 3-chain
    data = json.loads(p.to_json())
    assert sum(len(b) for b in data["blocks"]) == 20


def test_quotient_by_identity_is_isomorphic():
    v = V("1,1,1")
    q = quotient_lattice(v, full_set(v))
    L = mn.to_finite_lattice(v)
    assert q.n == L.n
    assert len(q.cover_pairs()) == len(L.cover_pairs())


@pytest.mark.parametrize("text", ["1,1,1", "2,2"])
def test_quotients_are_lattices_with_monotone_projection(text):
    v = V(text)
    for s in d_closed_sets(v):
        p = cg.congruence_from_S(v, s)
        q = quotient_lattice(v, s)
        assert q.n == len(p.blocks)
        block_idx = {w: i for i, blk in enumerate(p.blocks) for w in blk}
        label_idx = {lbl: i for i, lbl in enumerate(q.labels)}
        to_q = {i: label_idx["{" + ",".join(sorted(mn.word_str(w) for w in blk)) + "}"]
                for i, blk in enumerate(p.blocks)}
        for w in mn.enumerate_words(v):
            for u in mn.enumerate_words(v):
                if mn.leq(w, u):
                    assert q.leq_table[to_q[block_idx[w]], to_q[block_idx[u]]]


def test_connectivity_detects_disconnected_blocks():
    v = V("2,2")
    w1 = mn.parse_word(v, "aabb")
    w2 = mn.parse_word(v, "bbaa")
    rest = [w for w in mn.enumerate_words(v) if w not in (w1, w2)]
    p = cg.Partition(v, (frozenset([w1, w2]), frozenset(rest)))
    assert not cg.check_parikh_connectivity(p)
