import json
import math
from itertools import product

import pytest
from conftest import (ORACLE_VECTORS, graph_from_edges, left_move_factor, oracle_d_graph,
                      oracle_longest_simple_path, perm_ji_triple)
from hypothesis import given, settings
from hypothesis import strategies as st

from multilat import irreducibles as ir
from multilat import multinomial as mn
from multilat.errors import CapExceeded, InternalInconsistency, MultilatError

VECTORS = ["2,1", "1,1,1", "2,2", "2,1,1", "1,2,1", "3,3", "1,1,1,1", "2,2,1"]


def V(text):
    return mn.parse_vector(text)


def materialized(text):
    return mn.to_finite_lattice(V(text))


@pytest.mark.parametrize("text", VECTORS)
def test_count_formula(text):
    v = V(text)
    expected = math.prod(c + 1 for c in v.entries) - (1 + v.k)
    assert ir.count_ji(v) == expected == len(ir.enumerate_ji(v))
    assert len(ir.enumerate_mi(v)) == ir.count_ji(v)


def test_count_examples():
    assert ir.count_ji(V("3,3")) == 9
    assert ir.count_ji(V("1,1,1,1")) == 11


@pytest.mark.parametrize("text", VECTORS)
def test_ji_words_are_the_lattice_join_irreducibles(text):
    L = materialized(text)
    from_vectors = sorted(mn.word_str(ir.ji_word(j)) for j in ir.enumerate_ji(V(text)))
    from_lattice = sorted(L.labels[i] for i in L.join_irreducibles())
    assert from_vectors == from_lattice
    from_vectors = sorted(mn.word_str(ir.mi_word(m)) for m in ir.enumerate_mi(V(text)))
    from_lattice = sorted(L.labels[i] for i in L.meet_irreducibles())
    assert from_vectors == from_lattice


@pytest.mark.parametrize("text", VECTORS)
def test_word_vector_roundtrips(text):
    v = V(text)
    for j in ir.enumerate_ji(v):
        assert ir.parse_ji_word(ir.ji_word(j)) == j
    for m in ir.enumerate_mi(v):
        assert ir.parse_mi_word(ir.mi_word(m)) == m


def test_parse_rejects_wrong_shape():
    v = V("2,2")
    with pytest.raises(MultilatError):
        ir.parse_ji_word(mn.parse_word(v, "baba"))  # two descents
    with pytest.raises(MultilatError):
        ir.parse_ji_word(mn.parse_word(v, "aabb"))  # bottom: no descent
    with pytest.raises(MultilatError, match="abab has 2 ascents"):
        ir.parse_mi_word(mn.parse_word(v, "abab"))  # two ascents
    with pytest.raises(MultilatError, match="bbaa has 0 ascents"):
        ir.parse_mi_word(mn.parse_word(v, "bbaa"))  # top: no ascent


@pytest.mark.parametrize("text", VECTORS)
def test_kappa_and_dual_are_mutually_inverse(text):
    v = V(text)
    for j in ir.enumerate_ji(v):
        m = ir.kappa(j)
        assert m.kind == ir.MEET and not m.degenerate
        assert ir.kappa_d(m) == j
    for m in ir.enumerate_mi(v):
        assert ir.kappa(ir.kappa_d(m)) == m


@pytest.mark.parametrize("text", ["2,1", "1,1,1", "2,2", "2,1,1", "3,3",
                                  "1,1,1,1,1,1", "2,2,2,2"])
def test_kappa_matches_lattice_kappa(text):
    v = V(text)
    L = materialized(text)
    for j in ir.enumerate_ji(v):
        i = L.labels.index(mn.word_str(ir.ji_word(j)))
        expected = L.kappa_of(i)
        assert expected is not None
        assert L.labels[expected] == mn.word_str(ir.mi_word(ir.kappa(j)))


def test_kappa_example():
    v = V("3,3")
    j = ir.parse_ji_word(mn.parse_word(v, "aabbab"))
    assert mn.word_str(ir.mi_word(ir.kappa(j))) == "baaabb"


@pytest.mark.parametrize("text", ["2,1", "1,1,1", "2,2", "2,1,1", "1,2,1"])
def test_arrows_match_lattice_arrows(text):
    v = V(text)
    L = materialized(text)
    jis = ir.enumerate_ji(v)
    mis = ir.enumerate_mi(v)
    jw = {j: L.labels.index(mn.word_str(ir.ji_word(j))) for j in jis}
    mw = {m: L.labels.index(mn.word_str(ir.mi_word(m))) for m in mis}
    for j in jis:
        for m in mis:
            assert ir.arrow_up(j, m) == L.arrow_up(jw[j], mw[m]), (j, m)
            assert ir.arrow_down(m, j) == L.arrow_down(mw[m], jw[j]), (m, j)


@pytest.mark.parametrize("text", ["1,1,1", "2,1,1", "1,2,1", "1,1,1,1",
                                  "1,1,1,1,1,1", "2,2,2,2"])
def test_d_rel_matches_bruteforce(text):
    v = V(text)
    L = materialized(text)
    jis = ir.enumerate_ji(v)
    idx = {L.labels.index(mn.word_str(ir.ji_word(j))): j for j in jis}
    brute = {(idx[a], idx[b]) for a, b in L.bruteforce_D()}
    explicit = {(a, b) for a in jis for b in jis if ir.d_rel(a, b)}
    assert explicit == brute


@pytest.mark.parametrize("text", VECTORS)
def test_witness_m_connects_the_arrows(text):
    v = V(text)
    jis = ir.enumerate_ji(v)
    for j in jis:
        for k in jis:
            if ir.d_rel(j, k):
                m = ir.witness_m(j, k)
                assert ir.arrow_up(j, m) and ir.arrow_down(m, k)


@pytest.mark.parametrize("text", VECTORS)
def test_cover_type_tags(text):
    v = V(text)
    jis = ir.enumerate_ji(v)
    for j in jis:
        for k in jis:
            if not ir.d_rel(j, k):
                continue
            tag = ir.cover_type(j, k)
            assert tag in ir.COVER_TAGS
            ja, jb = ir.principal_plan(j)
            ke, kf = ir.principal_plan(k)
            if tag.startswith("L"):
                assert kf == jb and ke > ja
                assert (ir.arrow_up(j, ir.kappa(k)) if tag == "LA"
                        else ir.arrow_down(ir.kappa(j), k))
            elif tag.startswith("R"):
                assert ke == ja and kf < jb
                assert (ir.arrow_up(j, ir.kappa(k)) if tag == "RA"
                        else ir.arrow_down(ir.kappa(j), k))


@pytest.mark.parametrize("text", ["1,1,1,1", "2,1,1,1", "1,1,2,1,1"])
def test_left_move_factor_splits_long_left_moves(text):
    v = V(text)
    jis = ir.enumerate_ji(v)
    found = 0
    for j in jis:
        for k in jis:
            if not ir.d_rel(j, k):
                continue
            ja, jb = ir.principal_plan(j)
            ke, kf = ir.principal_plan(k)
            if kf == jb and ke - ja >= 2:
                mid = left_move_factor(j, k)
                assert ir.principal_plan(mid) == (ja + 1, jb)
                assert ir.d_rel(j, mid) and ir.d_rel(mid, k)
                found += 1
    assert found > 0


def test_perm_ji_triple():
    v = V("1,1,1,1")
    j = ir.parse_ji_word(mn.parse_word(v, "bdac"))
    a, b = ir.principal_plan(j)
    ta, tb, mids = perm_ji_triple(j)
    assert (ta, tb) == (a, b)
    assert mids <= set(range(a + 1, b))
    with pytest.raises(MultilatError):
        perm_ji_triple(ir.enumerate_ji(V("2,1"))[0])


def test_mismatched_parents_are_refused():
    j, k = ir.enumerate_ji(V("1,1,1"))[0], ir.enumerate_ji(V("2,2"))[0]
    m, n = ir.enumerate_mi(V("1,1,1"))[0], ir.enumerate_mi(V("2,2"))[0]
    for call, args in ((ir.arrow_up, (j, n)), (ir.arrow_up, (k, m)),
                       (ir.arrow_down, (m, k)), (ir.arrow_down, (n, j)),
                       (ir.dbullet, (j, k)), (ir.dbullet, (k, j))):
        with pytest.raises(MultilatError, match="mismatched parents"):
            call(*args)


def test_d_graph_exports():
    g = ir.d_graph(V("1,1,1"))
    data = json.loads(g.to_json())
    assert len(data["nodes"]) == 4
    assert len(data["edges"]) == 4
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 4


def reference_json(g):
    return json.dumps({
        "v": list(g.parent.entries),
        "nodes": [list(node.x) for node in g.nodes],
        "edges": [{"source": list(g.nodes[s].x), "target": list(g.nodes[t].x), "tag": tag}
                  for s, t, tag in g.edges],
    }, indent=2) + "\n"


def reference_dot(g):
    lines = ["digraph D {"] + [f'  "({node})";' for node in g.nodes]
    lines += [f'  "({g.nodes[s]})" -> "({g.nodes[t]})" [label="{tag}"];'
              for s, t, tag in g.edges]
    return "\n".join(lines + ["}"]) + "\n"


def assert_same_text(got, want):
    """Fail naming the first differing offset; pytest's own diff of long texts is slow."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {at}: "
                    f"{got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


@pytest.mark.parametrize("text,nodes,edges", [("3", 0, 0), ("1,1", 1, 0), ("0,3,3,0", 9, 0),
                                              ("1,1,1,1", 11, 28), ("3,0,2,1,3", 86, 372)])
def test_d_graph_writers_match_references(text, nodes, edges):
    g = ir.d_graph(V(text))
    assert (len(g.nodes), len(g.edges)) == (nodes, edges)
    assert_same_text(g.to_json(), reference_json(g))
    assert_same_text(g.to_dot(), reference_dot(g))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(
    lambda e: ir.count_ji(mn.MultVector(tuple(e))) <= 300))
def test_d_graph_writers_match_references_on_random_vectors(entries):
    g = ir.d_graph(mn.MultVector(tuple(entries)))
    assert_same_text(g.to_json(), reference_json(g))
    assert_same_text(g.to_dot(), reference_dot(g))


def test_longest_simple_path_values():
    assert oracle_longest_simple_path(ir.d_graph(V("2,2"))) == 0
    assert oracle_longest_simple_path(ir.d_graph(V("1,1,1"))) == 1
    assert oracle_longest_simple_path(ir.d_graph(V("1,1,1,1"))) == 2
    assert oracle_longest_simple_path(ir.d_graph(V("1,1,2,1,1"))) == 3


def test_degenerate_vectors_have_no_plan():
    v = V("2,2")
    bottom_like = ir.IrrVector(v, (0, 0), ir.JOIN)
    assert bottom_like.degenerate
    with pytest.raises(MultilatError):
        ir.principal_plan(bottom_like)


def pair_scan_edges(v):
    """The D-graph edges by testing every ordered pair with d_rel."""
    nodes = ir.enumerate_ji(v)
    return [(si, ti, ir.cover_type(src, dst))
            for si, src in enumerate(nodes) for ti, dst in enumerate(nodes)
            if si != ti and ir.d_rel(src, dst)]


@pytest.mark.parametrize("text", ["1,1,1,1,1,1", "1,1,1,1,1,1,1,1", "2,2,2,2,2",
                                  "3,0,2,1,3", "0,3,3,0"])
def test_d_graph_matches_pair_scan(text):
    v = V(text)
    g = ir.d_graph(v)
    assert g.nodes == tuple(ir.enumerate_ji(v))
    assert list(g.edges) == pair_scan_edges(v)


small_vectors = st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(
    lambda e: ir.count_ji(mn.MultVector(tuple(e))) <= 80)


@settings(max_examples=60, deadline=None)
@given(small_vectors)
def test_d_successors_match_d_rel(entries):
    v = mn.MultVector(tuple(entries))
    assert list(ir.d_graph(v).edges) == pair_scan_edges(v)


def test_d_graph_matches_the_tuple_built_oracle():
    for entries in ORACLE_VECTORS:
        v = mn.MultVector(entries)
        g, oracle = ir.d_graph(v), oracle_d_graph(v)
        assert (g.nodes, g.edges) == (oracle.nodes, oracle.edges), entries


@pytest.mark.parametrize("text", ["1,1,1,1", "3,0,2,1,3", "2,0", "0,3,3,0"])
def test_walked_nodes_equal_checked_nodes(text):
    v = V(text)
    nodes = ir.d_graph(v).nodes
    assert nodes == tuple(ir.enumerate_ji(v))
    for node in nodes:
        checked = ir.IrrVector(v, node.x)
        assert node == checked and hash(node) == hash(checked)
        assert node.plan == checked.plan and node.kind == ir.JOIN


def test_the_public_constructor_keeps_its_checks():
    v = V("2,1")
    with pytest.raises(MultilatError, match="bad kind"):
        ir.IrrVector(v, (1, 0), "both")
    with pytest.raises(MultilatError, match="vector length 3 != n=2"):
        ir.IrrVector(v, (1, 0, 0))
    with pytest.raises(MultilatError, match="outside"):
        ir.IrrVector(v, (3, 0))
    with pytest.raises(MultilatError, match="outside"):
        ir.IrrVector(v, (0, -1))


def test_d_graph_cap_is_checked_before_enumerating(monkeypatch):
    v = V(",".join(["1"] * 20))  # about 10^6 join irreducibles
    with pytest.raises(CapExceeded, match="1048555 join irreducibles"):
        ir.d_graph(v)
    monkeypatch.setattr(ir, "D_GRAPH_CAP", 10)
    with pytest.raises(CapExceeded, match="11 join irreducibles"):
        ir.d_graph(V("1,1,1,1"))
    monkeypatch.setattr(ir, "D_GRAPH_CAP", 11)
    assert len(ir.d_graph(V("1,1,1,1")).nodes) == 11


def test_longest_simple_path_detects_a_cycle():
    v = V("1,1,1")
    nodes = tuple(ir.enumerate_ji(v))
    # a chain 0 -> 1 -> 2 closed by 2 -> 1, plus an acyclic tail 3 -> 0
    edges = ((0, 1, "other"), (1, 2, "other"), (2, 1, "other"), (3, 0, "other"))
    with pytest.raises(InternalInconsistency, match=rf"cycle through \({nodes[1]}\)"):
        oracle_longest_simple_path(graph_from_edges(v, [j.x for j in nodes], edges))
    acyclic = graph_from_edges(v, [j.x for j in nodes],
                               ((3, 0, "other"), (0, 1, "other"), (1, 2, "other")))
    assert oracle_longest_simple_path(acyclic) == 3


# Every vector of 2-5 entries in 0..2 of dimension at least 2, and a few
# with entries up to 3 (zero entries inside and at the ends).
CHAIN_VECTORS = [e for n in range(2, 6) for e in product(range(3), repeat=n)
                 if sum(1 for c in e if c) >= 2] + [
    (3, 3, 3), (3, 1, 0, 2), (0, 3, 2, 3), (3, 2, 3, 1, 2), (3, 3, 3, 3), (1, 3, 0, 3, 0)]


def test_d_edges_nest_plans_and_the_chain_is_a_longest_path():
    for entries in CHAIN_VECTORS:
        v = mn.MultVector(entries)
        g = oracle_d_graph(v)
        plans = [node.plan for node in g.nodes]
        for s, t, _ in g.edges:  # strictly nested plans bound every path
            (a, b), (e, f) = plans[s], plans[t]
            assert a <= e < f <= b and (e, f) != (a, b), (entries, s, t)
        chain = ir.longest_d_chain(v)
        support = v.support()
        assert [j.plan for j in chain] == [(s, support[-1]) for s in support[:-1]]
        assert len(chain) - 1 == max(g.heights()) == v.dimension - 2, entries
        index = {node.x: i for i, node in enumerate(g.nodes)}
        links = {(index[j.x], index[k.x]) for j, k in zip(chain, chain[1:])}
        assert links <= {(s, t) for s, t, _ in g.edges}, entries


def test_longest_d_chain_checks_its_links(monkeypatch):
    v = V("2,0,2,2,1")
    assert [j.x for j in ir.longest_d_chain(v)] == [(0, 0, 0, 0, 1), (2, 0, 0, 0, 1),
                                                     (2, 0, 2, 0, 1)]
    with pytest.raises(MultilatError, match="dimension of v=0,3 must be >= 2"):
        ir.longest_d_chain(V("0,3"))
    monkeypatch.setattr(ir, "d_rel", lambda j, k: False)
    with pytest.raises(InternalInconsistency, match=r"\(0,0,0,0,1\) D \(2,0,0,0,1\) fails"):
        ir.longest_d_chain(v)
