import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (d_closed_quotients, multinomial_vectors, oracle_arrows,
                      oracle_congruences, oracle_distributive,
                      oracle_principal_congruence, oracle_sd_holds_on, pentagon_search,
                      quotient_lattice)
from multilat import congruence as cg
from multilat import finite_lattice as fl
from multilat import multinomial as mn
from multilat import order
from multilat.errors import CapExceeded, InternalInconsistency, MultilatError, NotALattice

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
    ubs = [t for t in L.elements() if L.leq_table[i, t] and L.leq_table[j, t]]
    least = [t for t in ubs if all(L.leq_table[t, u] for u in ubs)]
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


def read(text):
    """The lattice of a cover list, through its one reader."""
    labels, covers = order.parse_cover_file(text)
    return fl.FiniteLattice.from_covers(covers, labels)


def test_from_covers_rejects_cycle():
    with pytest.raises(NotALattice, match="cycle through a and b"):
        read("a<b\nb<a\n")
    with pytest.raises(NotALattice, match="cycle through b and c"):
        read("a<b\nb<c\nc<b\nc<d\n")


def test_from_covers_rejects_two_maximal():
    with pytest.raises(NotALattice, match="2 maximal elements: a, b"):
        read("0<a\n0<b\n")


def test_from_covers_rejects_missing_bounds():
    # a, b < c, d: the pair (a, b) has two minimal upper bounds
    covers = "0<a\n0<b\na<c\nb<c\na<d\nb<d\nc<1\nd<1\n"
    with pytest.raises(NotALattice, match="no least upper bound for a, b"):
        read(covers)


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


def brute_chain_length(n, le):
    """The most steps in a chain of the order ``le``: the last k at which
    some element still starts a chain of k steps, grown one step at a time."""
    starts, k = set(range(n)), 0  # the elements that start a chain of k steps
    while True:
        starts = {x for x in range(n) for y in starts if x != y and le[x][y]}
        if not starts:
            return k
        k += 1


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
    # the stored chain height clamps the SD level, of L and of its dual
    height = brute_chain_length(n, le)
    assert L.height == L.dual().height == height
    assert order.sd_scan_level(L.n, L.height, 10 ** 9) == 2 * height


def brute_co_cover_pairs(n, le):
    """The pairs of distinct upper covers of a common element."""
    up = [[j for j in range(n) if i != j and le[i][j]
           and not any(le[i][k] and le[k][j] for k in range(n) if k not in (i, j))]
          for i in range(n)]
    return [pair for ups in up for pair in itertools.combinations(ups, 2)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(edge_lists(), layered_orders()))
def test_co_cover_joins_decide_all_joins(case):
    """The lemma behind the build's certificate: in a finite order with a
    least element, every two upper covers of a common element have a join
    iff every two elements do."""
    n, edges = case
    le = brute_order(n, edges)
    if any(i != j and le[i][j] and le[j][i] for i in range(n) for j in range(n)) \
            or sum(all(le[i]) for i in range(n)) != 1:
        return  # a cycle, or no least element
    every_pair = all(brute_bound(n, le, i, j) is not None
                     for i, j in itertools.combinations(range(n), 2))
    co_covers = all(brute_bound(n, le, i, j) is not None for i, j in brute_co_cover_pairs(n, le))
    assert co_covers == every_pair


BOWTIE = "0<a\n0<b\na<c\na<d\nb<c\nb<d\nc<1\nd<1\n"


def test_lattices_are_certified_without_the_level_test(monkeypatch):
    """With the fill's level test patched to raise where it passes, the
    lattices still build: the co-cover certificate alone accepts them.  The
    bowtie fails the certificate, and the level test that runs again names
    its pair.  A fan, with more co-cover pairs than entries to test, is
    certified by the level test."""
    fill = fl._Ranked._fill

    def level_tested(self, le, labels=None):
        table = fill(self, le, labels)
        if labels is not None:
            raise AssertionError("the level test ran on a lattice")
        return table

    monkeypatch.setattr(fl._Ranked, "_fill", level_tested)
    for make in fl.FIXTURES.values():
        assert make().meet_table.shape  # the unchecked dual pass, too
    for k in (2, 3, 4):
        for v in itertools.product(range(3), repeat=k):
            mn.to_finite_lattice(mn.MultVector(v))
    assert fl.chain(2000).n == 2000
    with pytest.raises(NotALattice, match="^no least upper bound for a, b$"):
        read(BOWTIE)
    with pytest.raises(AssertionError, match="the level test ran"):
        fl.FiniteLattice.from_covers(*mk_by_chain(300, 1)[:2])


@pytest.mark.parametrize("L", [fl.chain(1), fl.n5(), fl.benzene(),
                               mn.to_finite_lattice(mn.parse_vector("2,2,1"))],
                         ids=lambda L: f"n{L.n}")
def test_tables_are_int16(L):
    for table in (L.join_table, L.meet_table, L.dual().join_table):
        assert table.dtype == np.int16 and table.shape == (L.n, L.n)


# -- the meet table by reversal, and levels wider than one batch -------------

@pytest.mark.parametrize("v", multinomial_vectors(420), ids=lambda v: ",".join(map(str, v)))
def test_reversal_meet_table_matches_the_dual_pass(v):
    L = mn.to_finite_lattice(mn.MultVector(v))
    assert L._flip is not None  # the meet table is read through word reversal
    dual_pass = fl.FiniteLattice.from_covers(L.cover_pairs(), labels=L.labels)
    assert dual_pass._flip is None
    for name in ("leq_table", "join_table", "meet_table"):
        table, expected = getattr(L, name), getattr(dual_pass, name)
        assert table.dtype == expected.dtype and np.array_equal(table, expected), name


@pytest.mark.parametrize("L,flip", [
    (mn.to_finite_lattice(mn.parse_vector("2,1")), [0, 1, 2]),  # the chain aab < aba < baa
    (mn.to_finite_lattice(mn.parse_vector("2,1")), [1, 2, 0]),  # not an involution
    (mn.to_finite_lattice(mn.parse_vector("2,1")), [2, 1]),
    (mn.to_finite_lattice(mn.parse_vector("2,1")), [2, 1, 3]),
    (fl.benzene(), [0, 2, 1, 4, 3, 5]),  # the mirror keeps the order
], ids=["identity", "three-cycle", "short", "out-of-range", "benzene-mirror"])
def test_from_self_dual_covers_refuses_other_maps(L, flip):
    with pytest.raises(InternalInconsistency, match="not an order-reversing involution"):
        fl.FiniteLattice.from_covers(L.cover_pairs(), L.labels, flip=flip)


def mk_by_chain(k: int, c: int):
    """M_k times the c-element chain: element x c + i is (x, i), x = 0 the
    bottom of M_k, 1..k its atoms and k + 1 its top.  Its covers, labels,
    the order-reversing involution (x, i) -> (x', c - 1 - i), where x'
    swaps bottom and top and fixes the atoms, and its order, join and meet
    tables in closed form, componentwise."""
    m, n = k + 2, (k + 2) * c
    mk_le = np.eye(m, dtype=bool)
    mk_le[0] = mk_le[:, m - 1] = True
    x, y = np.indices((m, m))
    mk_join = np.where(mk_le, y, np.where(mk_le.T, x, m - 1))
    mk_meet = np.where(mk_le, x, np.where(mk_le.T, y, 0))
    i, j = np.indices((c, c))
    tables = [(a[:, None, :, None] * c + b[None, :, None, :]).reshape(n, n)
              for a, b in ((mk_join, np.maximum(i, j)), (mk_meet, np.minimum(i, j)))]
    le = (mk_le[:, None, :, None] & (i <= j)[None, :, None, :]).reshape(n, n)
    covers = [(e, e + 1) for e in range(n) if e % c < c - 1]
    covers += [(lo * c + t, hi * c + t) for t in range(c)
               for a in range(1, m - 1) for lo, hi in ((0, a), (a, m - 1))]
    flip = [{0: m - 1, m - 1: 0}.get(e // c, e // c) * c + c - 1 - e % c for e in range(n)]
    return covers, [f"e{e:04d}" for e in range(n)], flip, le, *tables


@pytest.mark.parametrize("k,c", [(600, 1), (300, 2)])
def test_levels_wider_than_one_batch_match_closed_form_tables(k, c):
    covers, labels, flip, le, join, meet = mk_by_chain(k, c)
    succ = [[hi for lo, hi in covers if lo == e] for e in range(len(labels))]
    pred = [[lo for lo, hi in covers if hi == e] for e in range(len(labels))]
    up = fl._Ranked(succ, order._heights(succ, pred))
    assert max(len(batches) for _, batches in up.levels) > 1
    for L in (fl.FiniteLattice.from_covers(covers, labels=labels),
              fl.FiniteLattice.from_covers(covers, labels=labels, flip=flip)):
        assert np.array_equal(L.leq_table, le)
        assert np.array_equal(L.join_table, join)
        assert np.array_equal(L.meet_table, meet)
        assert L.cover_pairs() == sorted(covers)


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
        assert (not L.bruteforce_D()) == oracle_distributive(L), name


def test_arrows_and_kappa_on_n5():
    L = fl.n5()
    a, b, c = (L.labels.index(x) for x in "abc")
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
    cong = oracle_congruences(L)
    for u in L.elements():
        for w in L.elements():
            if u == w:
                continue
            theta = oracle_principal_congruence(L, u, w)
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
        assert len(oracle_congruences(ALL_FIXTURES[name])) == count, name


def test_quotient_to_ji():
    L = fl.n5()
    a, b = L.labels.index("a"), L.labels.index("b")
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
    assert L.sd_holds(n) == tuple(L.labels.index(w) for w in triple)


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
            q = quotient_lattice(v, cg.parse_ji_set(v, s))  # refuses a set that is not D-closed
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
    height = max(order.dag_heights(L._upper_covers)[0])
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


@pytest.mark.parametrize("v", multinomial_vectors(420), ids=lambda v: ",".join(map(str, v)))
def test_scan_cap_refuses_alike_before_and_after_materializing(v, monkeypatch):
    # the cap as set, and one that admits the levels up to the longest
    # chain and refuses those above
    L = mn.to_finite_lattice(mn.MultVector(v))
    height = max(order.dag_heights(L._upper_covers)[0])
    for cap in (order.SD_SCAN_CAP, L.n ** 3 * (height + 1)):
        monkeypatch.setattr(order, "SD_SCAN_CAP", cap)
        for n in range(2 * height + 3):
            outcomes = []
            for check in (lambda: mn.check_scan_cap(mn.MultVector(v), n),
                          lambda: order.sd_scan_level(L.n, L.height, n)):
                try:
                    check()
                    outcomes.append(None)
                except CapExceeded as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], n
            if cap < order.SD_SCAN_CAP:
                assert (outcomes[0] is None) == (n <= height), n


def test_longest_path():
    assert order.dag_heights([]) == ([], None)
    assert order.dag_heights([[1, 2], [2], []]) == ([2, 1, 0], None)
    assert order.dag_heights([[1], [2], [1], [0]]) == ([-1, -1, -1, -1], 1)


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
    height, on_cycle = order.dag_heights(succ)
    paths = [p for i in range(len(succ)) for p in simple_paths(succ, [i])]
    # i lies on a cycle iff some simple path from i ends next to i (i itself for a self-loop)
    cyclic = sorted({p[0] for p in paths if p[0] in succ[p[-1]]})
    if cyclic:
        assert on_cycle == cyclic[0]
    else:
        assert on_cycle is None
        assert max(height, default=0) == max((len(p) - 1 for p in paths), default=0)
        assert height == [max(len(p) - 1 for p in paths if p[0] == i)
                          for i in range(len(succ))]


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
            # the walk stops at its fixed point, which holds at every later k
            assert pairs[-1] == plain[n]


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


def test_d_product_counts_past_uint8():
    # in M_258 every two distinct atoms j, j' are D-related through each of
    # the other 256 atoms m, a count that a uint8 product would wrap to 0
    L = read("".join(f"0<a{i:03d}\na{i:03d}<1\n" for i in range(258)))
    atoms = [i for i, label in enumerate(L.labels) if label.startswith("a")]
    up, down = L._arrows
    witnesses = up.astype(int) @ down.T.astype(int)
    assert (witnesses[~np.eye(258, dtype=bool)] == 256).all()
    assert L.bruteforce_D() == [(j, k) for j in atoms for k in atoms if j != k]
    assert len(L.bruteforce_D()) == 258 * 257


def test_sd_sequence_trace_on_n5():
    L = fl.n5()
    x, y, z = L.labels.index("c"), L.labels.index("a"), L.labels.index("b")
    pairs = order.sd_sequence(L.join, L.meet, x, y, z, 2)
    pairs += pairs[-1:] * (3 - len(pairs))  # held at the fixed point, as the D-path walk does
    y_seq, z_seq = zip(*pairs)
    assert y_seq[0] == y and z_seq[0] == z
    for k in range(2):
        assert y_seq[k + 1] == L.join(y, L.meet(x, z_seq[k]))
        assert z_seq[k + 1] == L.join(z, L.meet(x, y_seq[k]))
        # x_k = (x ^ y_k) v (x ^ z_k), the bottom of the k-th pentagon of
        # the D-path walk, lies below x ^ y_{k+1} and x ^ z_{k+1}
        x_k = L.join(L.meet(x, y_seq[k]), L.meet(x, z_seq[k]))
        assert L.leq_table[x_k, L.meet(x, y_seq[k + 1])]
        assert L.leq_table[x_k, L.meet(x, z_seq[k + 1])]
    assert oracle_sd_holds_on(L, x, y, z, 2) == (L.meet(x, y_seq[2]) == L.meet(x, L.join(y, z)))


def sd_mu(L):
    """The most distinct pairs in the SD sequences of any triple."""
    return max(len(order.sd_sequence(L.join, L.meet, x, y, z))
               for x, y, z in itertools.product(L.elements(), repeat=3))


def test_sd_mu_values():
    assert sd_mu(fl.chain(3)) == 2
    assert sd_mu(fl.n5()) == 3
    assert sd_mu(fl.benzene()) == 3


def test_pentagon_search():
    pents = pentagon_search(fl.n5())
    L = fl.n5()
    assert all(p.nondegenerate for p in pents)
    assert any((L.labels[p.a], L.labels[p.b], L.labels[p.c]) == ("a", "b", "c")
               for p in pents)
    assert pentagon_search(fl.boolean_lattice(3)) == []


def test_dpath_from_n5_failure():
    L = fl.n5()
    path = L.dpath_from_sd_failure(L.labels.index("a"), L.labels.index("b"),
                                   L.labels.index("c"), 1)
    assert [L.labels[i] for i in path] == ["a", "b"]
    with pytest.raises(MultilatError):
        fl.m3().dpath_from_sd_failure(0, 1, 2, 1)  # not meet semidistributive


@pytest.mark.parametrize("text,n,labels", [
    ("1,1,1,1", 2, ["bcda", "bcad", "bacd"]),
    ("2,1,1", 1, ["abca", "abac"]),
    ("2,2,1", 1, ["abbca", "abbac"]),
    ("1,1,1,1,1", 3, ["bcdea", "bcdae", "bcade", "bacde"]),
    ("2,1,1,1", 2, ["abcda", "abcad", "abacd"]),
    ("2,2,2", 1, ["abbcac", "abbacc"]),
])
def test_dpath_from_first_sd_failure(text, n, labels):
    L = mn.to_finite_lattice(mn.parse_vector(text))
    path = L.dpath_from_sd_failure(*L.sd_holds(n), n)
    assert [L.labels[i] for i in path] == labels
    assert len(path) == n + 1 == len(set(path))
    brute = L.bruteforce_D()
    assert all(pair in brute for pair in zip(path, path[1:]))


def test_dpath_rejects_non_failure():
    L = fl.benzene()
    with pytest.raises(MultilatError):
        L.dpath_from_sd_failure(L.bottom, L.bottom, L.bottom, 1)


def test_cover_file_roundtrip():
    for L in (fl.n5(), fl.benzene(), fl.boolean_lattice(3)):
        text = L.to_cover_file()
        back = read(text)
        idx = {lbl: i for i, lbl in enumerate(back.labels)}
        for i in L.elements():
            for j in L.elements():
                assert L.leq_table[i, j] == back.leq_table[idx[L.labels[i]], idx[L.labels[j]]]


def test_cover_list_reader_inverts_the_writer():
    """parse_cover_file gives back the sorted labels and index pairs that
    cover_file wrote: fixtures, chains and a quotient of L(3,3)."""
    v = mn.parse_vector("3,3")
    cases = [(L.labels, L.cover_pairs())
             for L in [make() for make in fl.FIXTURES.values()]
             + [fl.chain(n) for n in (2, 3, 11, 101)]]
    cases.append(cg.quotient(v, cg.parse_ji_set(v, "0,3;1,2")))
    for labels, pairs in cases:
        assert order.parse_cover_file(order.cover_file(labels, pairs)) == (labels, pairs)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: mn.to_finite_lattice(mn.parse_vector("2,2,2,2")), id="L(2,2,2,2)"),
    pytest.param(lambda: fl.chain(2000), id="chain2000"),
])
def test_build_peak_memory(make):
    """The build keeps 3 N^2 bytes of tables (the order as bools, the joins
    as int16); each table is written once and renumbered a batch of rows at
    a time, so the traced peak stays under 9 N^2 bytes."""
    tracemalloc.start()
    try:
        L = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * L.n ** 2


def test_parse_cover_file_diagnostics():
    with pytest.raises(MultilatError, match="line 2"):
        order.parse_cover_file("a<b\nnonsense\n")
    # labels are stripped; a comment line may hold anything
    assert order.parse_cover_file(' a < b c \n#x<y<"z\n') == (["a", "b c"], [(0, 1)])


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
    brute = L.bruteforce_D()
    assert set(brute) == d
    assert brute == sorted(d)  # listed in order, each pair once
    assert {j: L.kappa_of(j) for j in jis} == kappa
    assert L.is_meet_semidistributive() == (None not in kappa.values())
    partners = [sum((j, m) in up and (m, j) in down for j in jis) for m in mis]
    assert L.is_join_semidistributive() == all(p == 1 for p in partners)
    assert L.is_join_semidistributive() == L.dual().is_meet_semidistributive()
    succ = [[b for a, b in d if a == i] for i in L.elements()]
    assert L.is_bounded() == (L.is_semidistributive() and order.dag_heights(succ)[1] is None)


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


def check_d_star_collapse(L):
    """con(u, w) collapses the prime quotient a/b iff the join irreducible
    of a/b reaches that of u/w in D*, for every pair of prime quotients."""
    row = {j: i for i, j in enumerate(L.join_irreducibles())}
    ji = {(lo, hi): row[L.quotient_to_ji(hi, lo)] for lo, hi in L.cover_pairs()}
    for (w, u), j in ji.items():
        theta = oracle_principal_congruence(L, u, w)
        for (b, a), t in ji.items():
            collapsed = any(a in block and b in block for block in theta)
            assert collapsed == bool(L._d_star[t, j]), (u, w, a, b)


@pytest.mark.parametrize("L", [case for case in SMALL_LATTICES if case.values[0].n <= 30])
def test_d_star_decides_prime_quotient_collapse(L):
    check_d_star_collapse(L)


@given(d_closed_quotients())
@settings(max_examples=40, deadline=None)
def test_d_star_decides_prime_quotient_collapse_on_quotients(L):
    check_d_star_collapse(L)


def check_quotient_to_ji(L):
    """quotient_to_ji(u, w) is the least minimal z with z v w = u, on
    every prime quotient w -< u."""
    for w, u in L.cover_pairs():
        cands = [z for z in L.elements() if L.join(z, w) == u]
        minimal = [z for z in cands if not any(t != z and L.leq_table[t, z] for t in cands)]
        assert L.quotient_to_ji(u, w) == min(minimal), (u, w)


@pytest.mark.parametrize("L", [case for case in SMALL_LATTICES if case.values[0].n <= 30])
def test_quotient_to_ji_matches_its_definition(L):
    check_quotient_to_ji(L)


@given(d_closed_quotients())
@settings(max_examples=40, deadline=None)
def test_quotient_to_ji_matches_its_definition_on_quotients(L):
    check_quotient_to_ji(L)


@pytest.mark.parametrize("L", [case for case in SMALL_LATTICES if case.values[0].n <= 30])
def test_scan_failures_are_the_triples_the_recursion_rejects(L):
    # batches of three x share the scan's buffers, as in sd_holds
    n = L.n
    scan = fl._SdScan(L.join_table, L.meet_table, 3)
    for level in range(4):
        found = []
        for lo in range(0, n, 3):
            found += (lo * n * n + scan.failures(lo, min(lo + 3, n), level)).tolist()
        expected = [(x * n + y) * n + z for x, y, z in itertools.product(range(n), repeat=3)
                    if not oracle_sd_holds_on(L, x, y, z, level)]
        assert found == expected, level


def check_certificate(L, monkeypatch):
    """sd_verdict(n) == sd_holds(n) for n = 0..l+2, with no scan above l
    when L is meet semidistributive and D is acyclic with longest path l,
    and sd_holds(n) against the plain recursion.  Under a scan cap of 0
    the certified levels still answer and every other level is refused."""
    succ = [[b for a, b in L.bruteforce_D() if a == i] for i in L.elements()]
    height, on_cycle = order.dag_heights(succ)
    longest = max(height) if on_cycle is None else None
    certified = L.is_meet_semidistributive() and longest is not None
    top = longest + 2 if longest is not None else 4
    scanned = [L.sd_holds(n) for n in range(top + 1)]
    calls = []
    scan = fl.FiniteLattice.sd_holds
    monkeypatch.setattr(fl.FiniteLattice, "sd_holds",
                        lambda self, n: calls.append(n) or scan(self, n))
    assert [L.sd_verdict(n) for n in range(top + 1)] == scanned
    scans = list(range(longest + 1)) if certified else list(range(top + 1))
    assert calls == scans
    # the reported triple fails, and seeded triples hold unless they come after it
    rng = random.Random(L.n)
    for n, verdict in enumerate(scanned):
        if verdict is not True:
            assert not oracle_sd_holds_on(L, *verdict, n)
        for _ in range(100):
            t = tuple(rng.randrange(L.n) for _ in range(3))
            if verdict is True or t < verdict:
                assert oracle_sd_holds_on(L, *t, n), (n, t)
    monkeypatch.setattr(order, "SD_SCAN_CAP", 0)
    for n in range(top + 1):
        if certified and n > longest:
            assert L.sd_verdict(n) is True
        else:
            with pytest.raises(CapExceeded):
                L.sd_verdict(n)
    assert calls == scans * 2


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
    for call in (L.sd_holds, L.sd_verdict, lambda n: order.sd_scan_level(L.n, L.height, n),
                 lambda n: L.dpath_from_sd_failure(0, 1, 2, n)):
        with pytest.raises(MultilatError, match="n must be >= 0"):
            call(-1)
