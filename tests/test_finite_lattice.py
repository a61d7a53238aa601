import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (d_closed_quotients, multinomial_vectors, oracle_arrows,
                      oracle_distributive, oracle_sd_holds_on)
from multilat import congruence as cg
from multilat import finite_lattice as fl
from multilat import multinomial as mn
from multilat import order
from multilat.errors import CapExceeded, MultilatError, NotALattice

ALL_FIXTURES = {
    "chain3": fl.chain(3),
    "chain4": fl.chain(4),
    "b2": fl.boolean_lattice(2),
    "b3": fl.boolean_lattice(3),
    "m3": fl.m3(),
    "n5": fl.n5(),
    "benzene": fl.benzene(),
}


def brute_join(L, i, j):
    ubs = [t for t in L.elements() if L.le(i, t) and L.le(j, t)]
    least = [t for t in ubs if all(L.le(t, u) for u in ubs)]
    assert len(least) == 1
    return least[0]


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_tables_against_bruteforce_bounds(name):
    L = ALL_FIXTURES[name]
    D = L.dual()
    for i in L.elements():
        for j in L.elements():
            assert L.join(i, j) == brute_join(L, i, j)
            assert L.meet(i, j) == brute_join(D, i, j)


def test_from_covers_rejects_cycle():
    with pytest.raises(NotALattice, match="cycle through a and b"):
        fl.FiniteLattice.from_covers([("a", "b"), ("b", "a")])
    with pytest.raises(NotALattice, match="cycle through b and c"):
        fl.FiniteLattice.from_covers([("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")])


def test_from_covers_rejects_two_maximal():
    with pytest.raises(NotALattice, match="2 maximal elements: a, b"):
        fl.FiniteLattice.from_covers([("0", "a"), ("0", "b")])


def test_from_covers_rejects_missing_bounds():
    # a, b < c, d: the pair (a, b) has two minimal upper bounds
    covers = [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
              ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1")]
    with pytest.raises(NotALattice, match="no least upper bound for a, b"):
        fl.FiniteLattice.from_covers(covers)


@st.composite
def edge_lists(draw):
    """Edges generating a random order on at most 12 elements, under shuffled
    indices, with transitive, duplicate and reflexive edges mixed in, mostly
    a least and a greatest element, and, now and then, one edge that may
    close a cycle."""
    n = draw(st.integers(1, 12))
    perm = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(perm[min(a, b)], perm[max(a, b)])
             for a, b in draw(st.lists(pairs, max_size=3 * n))]
    if draw(st.integers(0, 3)):
        edges += [(perm[0], perm[i]) for i in range(n)]
        edges += [(perm[i], perm[n - 1]) for i in range(n)]
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    if draw(st.booleans()) and n > 1:
        edges.append(draw(pairs))
    return n, draw(st.permutations(edges))


def brute_order(n, edges):
    le = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        le[a][b] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        le[i][j] = le[i][j] or (le[i][k] and le[k][j])
    return le


def brute_bound(n, le, i, j):
    ubs = [t for t in range(n) if le[i][t] and le[j][t]]
    least = [t for t in ubs if all(le[t][u] for u in ubs)]
    return least[0] if len(least) == 1 else None


def brute_unbound_pair(n, le, joins):
    """The pair from_covers names when some pairs lack a join: among the
    pairs with an element of least height (longest path up to a maximal
    element), the least one."""
    height = [0] * n
    for x in sorted(range(n), key=lambda x: sum(le[x])):  # tops first
        height[x] = max((1 + height[y] for y in range(n) if y != x and le[x][y]), default=0)
    unbound = [(i, j) for (i, j), b in joins.items() if i < j and b is None]
    least = min(min(height[i], height[j]) for i, j in unbound)
    return min(p for p in unbound if min(height[p[0]], height[p[1]]) == least)


@st.composite
def layered_orders(draw):
    """A least element, two to four layers with random edges between
    neighbouring layers, and a greatest element, or the dual of such an
    order: at most 12 elements under shuffled indices, where pairs without
    a least or greatest bound are common."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    n = 2 + sum(sizes)
    perm = draw(st.permutations(range(n)))
    layers, first = [[0]], 1
    for size in sizes:
        layers.append(list(range(first, first + size)))
        first += size
    layers.append([n - 1])
    edges = []
    for lower, upper in zip(layers, layers[1:]):
        for a in lower:
            ups = draw(st.lists(st.sampled_from(upper), min_size=1, unique=True))
            edges += [(perm[a], perm[b]) for b in ups]
        edges += [(perm[draw(st.sampled_from(lower))], perm[b]) for b in upper]
    if draw(st.booleans()):
        edges = [(b, a) for a, b in edges]
    return n, draw(st.permutations(edges))


@settings(max_examples=400, deadline=None)
@given(st.one_of(edge_lists(), layered_orders()))
def test_from_covers_matches_bruteforce_on_random_orders(case):
    n, edges = case
    labels = [f"e{i}" for i in range(n)]
    le = brute_order(n, edges)
    ge = [list(col) for col in zip(*le)]
    pairs = list(itertools.product(range(n), repeat=2))
    cyclic = [(i, j) for i, j in pairs if i != j and le[i][j] and le[j][i]]
    if cyclic:
        i, j = cyclic[0]
        with pytest.raises(NotALattice, match=f"^cycle through e{i} and e{j}$"):
            fl.FiniteLattice.from_covers(edges, labels=labels)
        return
    minimal = [i for i in range(n) if sum(ge[i]) == 1]
    maximal = [i for i in range(n) if sum(le[i]) == 1]
    for extremes, kind in ((minimal, "minimal"), (maximal, "maximal")):
        if len(extremes) != 1:
            names = ", ".join(f"e{i}" for i in extremes)
            with pytest.raises(NotALattice, match=f"^{len(extremes)} {kind} elements: {names}$"):
                fl.FiniteLattice.from_covers(edges, labels=labels)
            return
    # with a least element, all joins make a lattice, so a meet never fails first
    joins = {(i, j): brute_bound(n, le, i, j) for i, j in pairs}
    if None in joins.values():
        i, j = brute_unbound_pair(n, le, joins)
        with pytest.raises(NotALattice, match=f"^no least upper bound for e{i}, e{j}$"):
            fl.FiniteLattice.from_covers(edges, labels=labels)
        return
    meets = {(i, j): brute_bound(n, ge, i, j) for i, j in pairs}
    L = fl.FiniteLattice.from_covers(edges, labels=labels)
    assert L.leq_table.tolist() == le
    assert {p: L.join(*p) for p in pairs} == joins
    assert {p: L.meet(*p) for p in pairs} == meets
    covers = [(i, j) for i, j in pairs if i != j and le[i][j]
              and not any(le[i][k] and le[k][j] for k in range(n) if k not in (i, j))]
    assert L.cover_pairs() == covers
    assert L.dual().cover_pairs() == sorted((j, i) for i, j in covers)


@pytest.mark.parametrize("L", [fl.chain(1), fl.n5(), fl.benzene(),
                               mn.to_finite_lattice(mn.parse_vector("2,2,1"))],
                         ids=lambda L: f"n{L.n}")
def test_tables_are_int16(L):
    for table in (L.join_table, L.meet_table, L.dual().join_table):
        assert table.dtype == np.int16 and table.shape == (L.n, L.n)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_irreducibles_match_bruteforce(name):
    L = ALL_FIXTURES[name]
    le = L.leq_table.tolist()
    n = len(le)
    covers = [(i, j) for i in range(n) for j in range(n) if i != j and le[i][j]
              and not any(le[i][k] and le[k][j] for k in range(n) if k not in (i, j))]
    assert L.join_irreducibles() == [x for x in range(n)
                                     if sum(j == x for _, j in covers) == 1]
    assert L.meet_irreducibles() == [x for x in range(n)
                                     if sum(i == x for i, _ in covers) == 1]


def test_classification_of_fixtures():
    assert fl.chain(5).is_distributive()
    assert fl.boolean_lattice(3).is_distributive()
    m3, n5, benzene = fl.m3(), fl.n5(), fl.benzene()
    assert not m3.is_semidistributive() and not m3.is_distributive()
    assert n5.is_semidistributive() and not n5.is_distributive()
    assert n5.is_bounded()
    assert benzene.is_semidistributive() and benzene.is_bounded()
    assert not benzene.is_distributive()


def test_distributive_iff_empty_D():
    for name, L in ALL_FIXTURES.items():
        assert L.is_distributive() == (not L.bruteforce_D()), name


def test_arrows_and_kappa_on_n5():
    L = fl.n5()
    a, b, c = (L.index_of(x) for x in "abc")
    # each join irreducible has a unique arrow-up partner here
    for j in L.join_irreducibles():
        partners = [m for m in L.meet_irreducibles() if L.arrow_up(j, m)]
        assert L.kappa_of(j) in partners
    assert L.kappa_of(a) == b
    assert L.kappa_of(b) == c
    assert L.kappa_of(c) == a


def test_dual_involution_and_D_duality():
    L = fl.benzene()
    assert L.dual().dual().leq_table.tolist() == L.leq_table.tolist()


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_principal_congruence_is_least_collapsing(name):
    L = ALL_FIXTURES[name]
    cong = L.congruences()
    for u in L.elements():
        for w in L.elements():
            if u == w:
                continue
            theta = L.principal_congruence(u, w)
            assert theta in cong
            blocks_uw = [t for t in cong
                         if any(u in blk and w in blk for blk in t)]
            # least: theta refines every congruence collapsing (u, w)
            for other in blocks_uw:
                for blk in theta:
                    assert any(blk <= oblk for oblk in other)


def test_congruence_counts():
    expected = {"chain3": 4, "chain4": 8, "b2": 4, "b3": 8,
                "m3": 2, "n5": 5, "benzene": 7}
    for name, count in expected.items():
        assert len(ALL_FIXTURES[name].congruences()) == count, name


def test_quotient_to_ji():
    L = fl.n5()
    a, b = L.index_of("a"), L.index_of("b")
    j = L.quotient_to_ji(a, b)
    assert j == a
    with pytest.raises(MultilatError):
        L.quotient_to_ji(L.top, L.bottom)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sd_holds_matches_direct_recursion(name, n):
    L = ALL_FIXTURES[name]
    verdict = L.sd_holds(n)
    all_ok = all(oracle_sd_holds_on(L, x, y, z, n)
                 for x, y, z in itertools.product(L.elements(), repeat=3))
    assert (verdict is True) == all_ok
    if verdict is not True:
        x, y, z = verdict
        assert not oracle_sd_holds_on(L, x, y, z, n)


@pytest.mark.parametrize("text,n,triple", [
    ("1,1,1,1,1", 3, ("bcdea", "badce", "acbed")),
    ("2,2,2,1", 2, ("abbccda", "aabccbd", "abbacdc")),
    ("4,2,2", 1, ("aaabbcac", "aaabbacc", "aaaabcbc")),
])
def test_sd_holds_first_failing_triple(text, n, triple):
    L = mn.to_finite_lattice(mn.parse_vector(text))
    assert L.sd_holds(n) == tuple(L.index_of(w) for w in triple)


def reference_sd_verdicts(L, top):
    """sd_holds(n) for n = 0..top as the scan stood before the MJ_x tables:
    y_k stepped per x through the join table (z_k is y_k transposed) and
    x ^ y_n compared with x ^ (y v z), one walk per x serving every n."""
    J, M = L.join_table.astype(np.intp), L.meet_table.astype(np.intp)
    rows = np.arange(0, J.size, L.n)[:, None]
    y0 = np.broadcast_to(np.arange(L.n)[:, None], (L.n, L.n))
    verdicts = [True] * (top + 1)
    for x in L.elements():
        mx, yk = M[x], y0
        for n in range(top + 1):
            if n:
                yk = J.ravel()[rows + mx[yk.T]]
            bad = mx[yk] != mx[J]
            if verdicts[n] is True and bad.any():
                y, z = np.argwhere(bad)[0]
                verdicts[n] = (x, int(y), int(z))
        if True not in verdicts:
            break
    return verdicts


# Three D-closed sets of each vector, once drawn at random from its
# congruences; kept as text so that the cases do not depend on the order
# in which d_closed_sets lists the sets.
QUOTIENT_SETS = {
    "2,1,1": ["0,1,0;0,1,1;1,0,1;1,1,0;1,1,1;2,0,1",
              "0,1,0;1,0,1;1,1,0;1,1,1;2,0,1",
              "0,0,1;0,1,0;0,1,1;2,0,1"],
    "1,1,1,1": ["0,0,1,0;0,0,1,1;0,1,0,0;1,0,1,0;1,0,1,1;1,1,0,1",
                "0,1,0,0;0,1,1,0;0,1,1,1;1,0,0,1;1,0,1,0;1,0,1,1;1,1,0,1",
                "0,0,1,0;0,1,0,0;1,0,1,0"],
    "2,2,1": ["0,2,0;1,1,0;1,1,1;1,2,0;1,2,1;2,0,1;2,1,1",
              "0,1,0;1,0,1;1,1,0;2,0,1",
              "0,2,0;1,1,0;1,2,0;2,0,1"],
    "3,2,1": ["0,1,0;0,1,1;0,2,0;0,2,1;1,0,1;1,1,0;1,2,0;1,2,1;3,0,1;3,1,1",
              "0,0,1;0,1,0;0,2,0;2,0,1;2,1,0;2,1,1;2,2,0;2,2,1;3,0,1;3,1,1",
              "0,0,1;0,1,0;0,2,0;1,0,1;1,1,0;1,2,0;2,1,0;2,2,0;3,0,1"],
    "2,1,1,1": ["0,0,1,0;0,0,1,1;0,1,0,0;0,1,0,1;0,1,1,0;1,0,0,1;1,0,1,0;1,0,1,1;"
                "1,1,0,0;2,0,0,1;2,0,1,0;2,0,1,1;2,1,0,1",
                "0,0,0,1;0,0,1,0;0,1,0,0;0,1,0,1;0,1,1,0;0,1,1,1;1,0,0,1;1,0,1,0;"
                "1,1,0,0;1,1,0,1;1,1,1,0;2,0,0,1;2,0,1,0;2,0,1,1;2,1,0,1",
                "0,0,0,1;0,0,1,0;0,0,1,1;0,1,0,0;0,1,0,1;0,1,1,0;1,0,0,1;1,0,1,0;"
                "1,1,0,0;1,1,0,1;1,1,1,0;1,1,1,1;2,0,0,1;2,0,1,0;2,0,1,1;2,1,0,1"],
}


def scan_cases():
    """Every L(v) of at most 180 words with v non-increasing and entries
    up to 6, and its dual; the fixtures; quotients of small L(v).  Each
    with the levels to compare, 0 to one past the least holding level."""
    cases = [pytest.param(L, 5, id=name) for name, L in ALL_FIXTURES.items()]
    for v in multinomial_vectors(180):
        if list(v) != sorted(v, reverse=True):
            continue
        L = mn.to_finite_lattice(mn.MultVector(v))
        text = ",".join(map(str, v))
        cases += [pytest.param(L, len(v) + 1, id=text),
                  pytest.param(L.dual(), len(v) + 1, id=f"{text}-dual")]
    for text, sets in QUOTIENT_SETS.items():
        v = mn.parse_vector(text)
        for s in sets:
            q = cg.quotient(v, cg.parse_ji_set(v, s))  # refuses a set that is not D-closed
            cases.append(pytest.param(q, v.dimension + 1, id=f"{text}/{s}"))
    return cases


@pytest.mark.parametrize("L,top", scan_cases())
def test_sd_holds_matches_reference_kernel(L, top):
    assert [L.sd_holds(n) for n in range(top + 1)] == reference_sd_verdicts(L, top)


@pytest.mark.parametrize("text,top", [("2,2,2,1", 2), ("3,3,2", 1), ("1,1,1,1,2", 4),
                                      ("6,5", 1)])
def test_sd_holds_matches_reference_kernel_on_large_lattices(text, top):
    # every level up to the least holding one (dim - 1) or the failing one
    L = mn.to_finite_lattice(mn.parse_vector(text))
    assert [L.sd_holds(n) for n in range(top + 1)] == reference_sd_verdicts(L, top)


@pytest.mark.parametrize("L", [fl.chain(4), fl.n5(), fl.m3(), fl.benzene(),
                               mn.to_finite_lattice(mn.parse_vector("2,1,1"))],
                         ids=lambda L: f"n{L.n}")
def test_sd_level_clamps_at_twice_the_longest_chain(L):
    height = order.longest_path(L._upper_covers)[0]
    reference = reference_sd_verdicts(L, 2 * height + 3)
    for n in range(2 * height, 2 * height + 4):
        assert L.sd_holds(n) == reference[n]
    assert L.sd_holds(10 ** 9) == reference[2 * height]


def test_sd_scan_cap(monkeypatch):
    L = fl.n5()
    monkeypatch.setattr(order, "SD_SCAN_CAP", 5 ** 3 * 2)
    assert L.sd_holds(1) == fl.n5().sd_holds(1)
    with pytest.raises(CapExceeded, match="SD scan of 5 elements to level 2 takes 375 steps"):
        L.sd_holds(2)
    # the level is clamped before the cap is applied: the longest chain has 3 steps
    monkeypatch.setattr(order, "SD_SCAN_CAP", 5 ** 3 * 7)
    assert L.sd_holds(10 ** 9) is True


def test_longest_path():
    assert order.longest_path([]) == (0, None)
    assert order.longest_path([[1, 2], [2], []]) == (2, None)
    assert order.longest_path([[1], [2], [1], [0]]) == (None, 1)


@st.composite
def digraphs(draw):
    """Successor lists of a digraph on at most 7 nodes, cycles and self-loops included."""
    n = draw(st.integers(0, 7))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.sets(st.tuples(node, node), max_size=3 * n)) if n else set()
    return [sorted(t for s, t in edges if s == i) for i in range(n)]


def simple_paths(succ, path):
    """Every simple path that extends ``path``, by enumeration."""
    yield path
    for t in succ[path[-1]]:
        if t not in path:
            yield from simple_paths(succ, path + [t])


@given(digraphs())
@settings(max_examples=300)
def test_longest_path_matches_simple_path_enumeration(succ):
    length, on_cycle = order.longest_path(succ)
    paths = [p for i in range(len(succ)) for p in simple_paths(succ, [i])]
    # i lies on a cycle iff some simple path from i ends next to i (i itself for a self-loop)
    cyclic = sorted({p[0] for p in paths if p[0] in succ[p[-1]]})
    if cyclic:
        assert length is None and on_cycle == cyclic[0]
    else:
        assert on_cycle is None
        assert length == max((len(p) - 1 for p in paths), default=0)


SD_SEQUENCE_LATTICES = {"n5": fl.n5(), "m3": fl.m3(), "benzene": fl.benzene(),
                        "1,1,1": mn.to_finite_lattice(mn.parse_vector("1,1,1")),
                        "2,2": mn.to_finite_lattice(mn.parse_vector("2,2"))}


@pytest.mark.parametrize("name", SD_SEQUENCE_LATTICES)
def test_sd_sequence_matches_the_plain_recursion(name):
    L = SD_SEQUENCE_LATTICES[name]
    for x, y, z in itertools.product(L.elements(), repeat=3):
        plain = [(y, z)]  # y_{k+1} = y v (x ^ z_k), z_{k+1} = z v (x ^ y_k), past the fixed point
        for _ in range(2 * L.n):
            yk, zk = plain[-1]
            plain.append((L.join(y, L.meet(x, zk)), L.join(z, L.meet(x, yk))))
        full = order.sd_sequence(L.join, L.meet, x, y, z)
        mu = len(full)  # the least k with (y_k, z_k) = (y_{k-1}, z_{k-1})
        assert full == plain[:mu] and plain[mu] == plain[mu - 1]
        assert all(plain[k] != plain[k - 1] for k in range(1, mu))
        for n in range(7):
            pairs = order.sd_sequence(L.join, L.meet, x, y, z, n)
            assert pairs == plain[:min(n, mu - 1) + 1]
            yn, zn = pairs[-1]
            assert (L.meet(x, yn) == L.meet(x, L.join(y, z))) == oracle_sd_holds_on(L, x, y, z, n)
            trace = L.sd_eval(x, y, z, n)
            assert trace.mu == mu and (trace.y_seq[n], trace.z_seq[n]) == plain[n]


def test_lattice_relations_are_computed_once(monkeypatch):
    L = fl.benzene()
    calls = []
    original = fl._bool_product

    def counted(a, b):
        calls.append(a.shape)
        return original(a, b)

    monkeypatch.setattr(fl, "_bool_product", counted)
    assert L.is_bounded() and L.is_semidistributive()
    assert L.bruteforce_D() and L.is_bounded() and L.is_semidistributive()
    assert L.sd_verdict(2) is True and L.kappa_of(L.join_irreducibles()[0]) is not None
    assert calls == [(4, 4)]  # the D product, once


def test_sd_eval_trace_consistency():
    L = fl.n5()
    x, y, z = L.index_of("c"), L.index_of("a"), L.index_of("b")
    tr = L.sd_eval(x, y, z, 2)
    assert tr.y_seq[0] == y and tr.z_seq[0] == z
    for k in range(2):
        assert tr.y_seq[k + 1] == L.join(y, L.meet(x, tr.z_seq[k]))
        assert tr.z_seq[k + 1] == L.join(z, L.meet(x, tr.y_seq[k]))
        assert tr.x_seq[k] == L.join(L.meet(x, tr.y_seq[k]),
                                     L.meet(x, tr.z_seq[k]))
    assert tr.holds == (L.meet(x, tr.y_seq[2]) == L.meet(x, L.join(y, z)))


def test_sd_mu_values():
    assert fl.chain(3).sd_mu() == 2
    assert fl.n5().sd_mu() == 3
    assert fl.benzene().sd_mu() == 3


def test_pentagon_search():
    pents = fl.n5().pentagon_search()
    L = fl.n5()
    assert all(p.nondegenerate for p in pents)
    assert any((L.labels[p.a], L.labels[p.b], L.labels[p.c]) == ("a", "b", "c")
               for p in pents)
    assert fl.boolean_lattice(3).pentagon_search() == []


def test_dpath_from_n5_failure():
    L = fl.n5()
    path = L.dpath_from_sd_failure(L.index_of("a"), L.index_of("b"),
                                   L.index_of("c"), 1)
    assert [L.labels[i] for i in path] == ["a", "b"]
    with pytest.raises(MultilatError):
        fl.m3().dpath_from_sd_failure(0, 1, 2, 1)  # not meet semidistributive


def test_dpath_rejects_non_failure():
    L = fl.benzene()
    with pytest.raises(MultilatError):
        L.dpath_from_sd_failure(L.bottom, L.bottom, L.bottom, 1)


def test_cover_file_roundtrip():
    for L in (fl.n5(), fl.benzene(), fl.boolean_lattice(3)):
        text = L.to_cover_file()
        back = fl.parse_cover_file(text)
        idx = {lbl: i for i, lbl in enumerate(back.labels)}
        for i in L.elements():
            for j in L.elements():
                assert L.le(i, j) == back.le(idx[L.labels[i]], idx[L.labels[j]])


def test_parse_cover_file_diagnostics():
    with pytest.raises(MultilatError, match="line 2"):
        fl.parse_cover_file("a<b\nnonsense\n")


def test_to_dot_mentions_all_labels():
    L = fl.n5()
    dot = L.to_dot()
    assert dot.startswith("digraph")
    for lbl in L.labels:
        assert f'"{lbl}"' in dot


def test_fixture_registry_and_seed_content():
    assert set(fl.FIXTURES) == {"n5", "m3", "benzene"}
    for make in fl.FIXTURES.values():
        assert make().n >= 5


def test_against_materialized_multinomial_lattice():
    L = mn.to_finite_lattice(mn.parse_vector("1,1,1"))
    assert L.n == 6
    assert L.is_semidistributive()
    assert not L.is_distributive()
    assert len(L.join_irreducibles()) == 4
    assert L.sd_holds(2) is True
    assert L.sd_holds(1) is not True


# -- arrow relations, distributivity and the D-path certificate ---------------

def small_multinomial_lattices():
    """The fixtures and every L(v) of at most 210 words (entries up to 6)."""
    cases = [pytest.param(L, id=name) for name, L in ALL_FIXTURES.items()]
    cases += [pytest.param(mn.to_finite_lattice(mn.MultVector(v)), id=",".join(map(str, v)))
              for v in multinomial_vectors(210)]
    return cases


SMALL_LATTICES = small_multinomial_lattices()


def check_arrows(L):
    up, down, d, kappa = oracle_arrows(L)
    jis, mis = L.join_irreducibles(), L.meet_irreducibles()
    arrow_up, arrow_down = L._arrows
    assert {(jis[a], mis[b]) for a, b in zip(*np.nonzero(arrow_up))} == up
    assert {(mis[b], jis[a]) for a, b in zip(*np.nonzero(arrow_down))} == down
    assert L.bruteforce_D() == d
    assert {j: L.kappa_of(j) for j in jis} == kappa
    assert L.is_meet_semidistributive() == (None not in kappa.values())
    partners = [sum((j, m) in up and (m, j) in down for j in jis) for m in mis]
    assert L.is_join_semidistributive() == all(p == 1 for p in partners)
    assert L.is_join_semidistributive() == L.dual().is_meet_semidistributive()
    succ = [[b for a, b in d if a == i] for i in L.elements()]
    assert L.is_bounded() == (L.is_semidistributive() and order.longest_path(succ)[1] is None)


@pytest.mark.parametrize("L", SMALL_LATTICES)
def test_arrow_relations_match_the_pairwise_oracle(L):
    check_arrows(L)


@given(d_closed_quotients())
@settings(max_examples=40, deadline=None)
def test_arrow_relations_match_the_pairwise_oracle_on_quotients(L):
    check_arrows(L)


DISTRIBUTIVE_CASES = SMALL_LATTICES + [
    pytest.param(L, id=f"{name}{k}") for name, make, ks in
    (("chain", fl.chain, range(1, 9)), ("boolean", fl.boolean_lattice, range(5)))
    for k in ks for L in (make(k),)]


@pytest.mark.parametrize("L", DISTRIBUTIVE_CASES)
def test_distributive_by_join_primes_matches_the_law(L):
    assert L.is_distributive() == oracle_distributive(L)


@given(d_closed_quotients())
@settings(max_examples=40, deadline=None)
def test_distributive_by_join_primes_matches_the_law_on_quotients(L):
    assert L.is_distributive() == oracle_distributive(L)


def check_certificate(L, monkeypatch):
    """sd_verdict(n) == sd_holds(n) for n = 0..l+2, with no scan above l
    when L is meet semidistributive and D is acyclic with longest path l,
    and sd_holds(n) against the plain recursion."""
    succ = [[b for a, b in L.bruteforce_D() if a == i] for i in L.elements()]
    longest = order.longest_path(succ)[0]
    certified = L.is_meet_semidistributive() and longest is not None
    top = longest + 2 if longest is not None else 4
    scanned = [L.sd_holds(n) for n in range(top + 1)]
    calls = []
    scan = fl.FiniteLattice.sd_holds
    monkeypatch.setattr(fl.FiniteLattice, "sd_holds",
                        lambda self, n: calls.append(n) or scan(self, n))
    assert [L.sd_verdict(n) for n in range(top + 1)] == scanned
    assert calls == (list(range(longest + 1)) if certified else list(range(top + 1)))
    # the reported triple fails, and seeded triples hold unless they come after it
    rng = random.Random(L.n)
    for n, verdict in enumerate(scanned):
        if verdict is not True:
            assert not oracle_sd_holds_on(L, *verdict, n)
        for _ in range(100):
            t = tuple(rng.randrange(L.n) for _ in range(3))
            if verdict is True or t < verdict:
                assert oracle_sd_holds_on(L, *t, n), (n, t)


@pytest.mark.parametrize("L", SMALL_LATTICES)
def test_sd_verdict_matches_the_scan(L, monkeypatch):
    check_certificate(L, monkeypatch)


@given(d_closed_quotients())
@settings(max_examples=40, deadline=None)
def test_sd_verdict_matches_the_scan_on_quotients(L):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_certificate(L, monkeypatch)


@given(d_closed_quotients(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_settled_triple_scan_matches_the_oracle_on_quotients(L, n):
    failing = (t for t in itertools.product(L.elements(), repeat=3)
               if not oracle_sd_holds_on(L, *t, n))
    assert L.sd_holds(n) == next(failing, True)


def test_negative_sd_levels_are_refused():
    L = fl.n5()
    for call in (L.sd_holds, L.sd_verdict, L.sd_scan_level):
        with pytest.raises(MultilatError, match="n must be >= 0"):
            call(-1)
