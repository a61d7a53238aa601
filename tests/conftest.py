"""Shared brute-force oracles used to cross-check the library.

Everything here is written from first principles (breadth-first search
over rewrite steps, scans over all permutations, direct recursion) so
that agreement with the library is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product

import numpy as np
from hypothesis import strategies as st

from multilat import congruence as cg
from multilat import irreducibles as ir
from multilat import multinomial as mn
from multilat import perm_core as pc
from multilat.errors import MultilatError
from multilat.finite_lattice import FiniteLattice
from multilat.order import sd_sequence


@lru_cache(maxsize=None)
def word_universe(v: mn.MultVector) -> tuple[mn.PathWord, ...]:
    return tuple(mn.enumerate_words(v))


@lru_cache(maxsize=None)
def oracle_leq_pairs(v: mn.MultVector) -> frozenset[tuple[mn.PathWord, mn.PathWord]]:
    """Reflexive-transitive closure of single rewrite steps ab -> ba (a < b)."""
    pairs: set[tuple[mn.PathWord, mn.PathWord]] = set()
    for w in word_universe(v):
        reached = {w}
        frontier = [w]
        while frontier:
            cur = frontier.pop()
            letters = list(cur.letters)
            for p in range(len(letters) - 1):
                if letters[p] < letters[p + 1]:
                    swapped = letters[:]
                    swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
                    nxt = mn.PathWord(v, tuple(swapped))
                    if nxt not in reached:
                        reached.add(nxt)
                        frontier.append(nxt)
        pairs.update((w, u) for u in reached)
    return frozenset(pairs)


def oracle_leq(w: mn.PathWord, u: mn.PathWord) -> bool:
    return (w, u) in oracle_leq_pairs(w.parent)


def _unique_extreme(cands: list, le) -> object:
    out = [c for c in cands if all(le(c, d) for d in cands)]
    assert len(out) == 1, "bound is not unique"
    return out[0]


def oracle_join(w: mn.PathWord, u: mn.PathWord) -> mn.PathWord:
    ubs = [t for t in word_universe(w.parent) if oracle_leq(w, t) and oracle_leq(u, t)]
    return _unique_extreme(ubs, oracle_leq)


def oracle_meet(w: mn.PathWord, u: mn.PathWord) -> mn.PathWord:
    lbs = [t for t in word_universe(w.parent) if oracle_leq(t, w) and oracle_leq(t, u)]
    return _unique_extreme(lbs, lambda a, b: oracle_leq(b, a))


@lru_cache(maxsize=None)
def all_inversion_sets(k: int) -> tuple[pc.InversionSet, ...]:
    return tuple(pc.sequence_inversions(k, s) for s in permutations(range(1, k + 1)))


def oracle_clopen_join(x: pc.InversionSet, y: pc.InversionSet) -> pc.InversionSet:
    ubs = [d for d in all_inversion_sets(x.size) if x <= d and y <= d]
    return _unique_extreme(ubs, lambda a, b: a <= b)


def oracle_clopen_meet(x: pc.InversionSet, y: pc.InversionSet) -> pc.InversionSet:
    lbs = [d for d in all_inversion_sets(x.size) if d <= x and d <= y]
    return _unique_extreme(lbs, lambda a, b: b <= a)


def oracle_sd_holds_on(lattice, x: int, y: int, z: int, n: int) -> bool:
    """SD_n(meet) on one triple by the plain recursive definition."""
    yk, zk = y, z
    for _ in range(n):
        yk, zk = (lattice.join(y, lattice.meet(x, zk)),
                  lattice.join(z, lattice.meet(x, yk)))
    return lattice.meet(x, yk) == lattice.meet(x, lattice.join(y, z))


def oracle_arrows(lattice):
    """(up, down, D, kappa) of a finite lattice, pair by pair from the
    definitions on the order table and the cover lists: j up-arrow m iff
    j is not below m but below its upper cover m*; m down-arrow j iff j is
    not below m but its lower cover j_* is; j D j' iff j != j' and
    j up-arrow m down-arrow j' for some m; kappa(j) is the unique m with
    j up-arrow m down-arrow j, or None."""
    le = lattice.leq_table.tolist()
    n = len(le)
    jis = [x for x in range(n) if len(lattice.lower_covers(x)) == 1]
    mis = [x for x in range(n) if len(lattice.upper_covers(x)) == 1]
    up = {(j, m) for j in jis for m in mis
          if not le[j][m] and le[j][lattice.upper_covers(m)[0]]}
    down = {(m, j) for j in jis for m in mis
            if not le[j][m] and le[lattice.lower_covers(j)[0]][m]}
    d = {(j, k) for j in jis for k in jis
         if j != k and any((j, m) in up and (m, k) in down for m in mis)}
    kappa = {}
    for j in jis:
        both = [m for m in mis if (j, m) in up and (m, j) in down]
        kappa[j] = both[0] if len(both) == 1 else None
    return up, down, d, kappa


def _oracle_generated(lattice, pairs) -> tuple[frozenset[int], ...]:
    """The least congruence collapsing each pair given, as its blocks ordered
    by least element: the pairs closed under transitivity and the
    translations t -> t v s and t -> t ^ s.  A pair from two blocks merges
    them and has its translations queued; a pair inside one block is
    already implied by the merged pairs, whose translations are queued."""
    block = {x: frozenset([x]) for x in lattice.elements()}
    work = list(pairs)
    while work:
        a, b = work.pop()
        if b in block[a]:
            continue
        merged = block[a] | block[b]
        block.update(dict.fromkeys(merged, merged))
        for s in lattice.elements():
            work.append((lattice.join(a, s), lattice.join(b, s)))
            work.append((lattice.meet(a, s), lattice.meet(b, s)))
    return tuple(sorted(set(block.values()), key=min))


def oracle_principal_congruence(lattice, u: int, w: int) -> tuple[frozenset[int], ...]:
    """con(u, w), the least congruence collapsing u and w."""
    return _oracle_generated(lattice, [(u, w)])


def oracle_congruences(lattice) -> set[tuple[frozenset[int], ...]]:
    """Every congruence: the equality and the joins of principal ones, the
    join of two congruences being the congruence their pairs generate."""
    elements = lattice.elements()
    principals = {oracle_principal_congruence(lattice, u, w)
                  for u in elements for w in elements if u < w}
    found = {_oracle_generated(lattice, [])} | principals
    frontier = principals
    while frontier:
        frontier = {_oracle_generated(lattice, [(min(b), x) for theta in (t, p)
                                                for b in theta for x in b])
                    for t in frontier for p in principals} - found
        found |= frontier
    return found


@dataclass(frozen=True)
class Pentagon:
    """Elements b <= a and c with a v c = b v c and a ^ c = b ^ c."""

    lattice: FiniteLattice = field(repr=False)
    a: int
    b: int
    c: int

    @property
    def nondegenerate(self) -> bool:
        return self.a != self.b


def pentagon_search(lattice) -> list[Pentagon]:
    """Every nondegenerate pentagon: b < a and c with a v c = b v c, a ^ c = b ^ c."""
    J, M = lattice.join_table, lattice.meet_table
    tops, bottoms = np.nonzero(lattice.leq_table.T & ~np.eye(lattice.n, dtype=bool))
    return [Pentagon(lattice, a, b, c) for a, b in zip(tops.tolist(), bottoms.tolist())
            for c in np.flatnonzero((J[a] == J[b]) & (M[a] == M[b])).tolist()]


def oracle_distributive(lattice) -> bool:
    """The distributive law x ^ (y v z) = (x ^ y) v (x ^ z) on every
    triple, one x at a time."""
    J, M = lattice.join_table.astype(np.intp), lattice.meet_table.astype(np.intp)
    return all(np.array_equal(M[x][J], J[M[x]][:, M[x]]) for x in lattice.elements())


def _oracle_ji_plans(v: mn.MultVector):
    """Yield (x, plan) for every join irreducible <x>, lexicographic on x:
    each vector of the product [0, v] is built and its plan computed."""
    if v.dimension < 2:
        return
    for x in product(*(range(e + 1) for e in v.entries)):
        plan = ir._plan(v.entries, x, ir.JOIN)
        if plan is not None:
            yield x, plan


def left_move_factor(j: ir.IrrVector, k: ir.IrrVector) -> ir.IrrVector:
    """Factor a left move of width gap >= 2 through a plan one step narrower."""
    if not ir.d_rel(j, k):
        raise MultilatError("factorization requires a D-pair")
    a, b = ir.principal_plan(j)
    e, f = ir.principal_plan(k)
    if f != b:
        raise MultilatError("not a left move: plans do not share the right endpoint")
    if e - a < 2:
        raise MultilatError("nothing to factor: plan widths differ by 1")
    v = j.parent.entries
    y = list(j.x)
    if y[a] == v[a]:  # index a is position a+1 (0-based a)
        y[a] -= 1
    for i in range(1, a + 1):
        y[i - 1] = v[i - 1]
    mid = ir.IrrVector(j.parent, tuple(y), ir.JOIN)
    if ir.principal_plan(mid) != (a + 1, b) or not (ir.d_rel(j, mid) and ir.d_rel(mid, k)):
        raise MultilatError("factorization step failed")
    return mid


def perm_ji_triple(j: ir.IrrVector) -> tuple[int, int, frozenset[int]]:
    """Triple form (a, b, D_a) of a join irreducible of the permutohedron."""
    if any(e != 1 for e in j.parent.entries):
        raise MultilatError("triple form requires v = (1,..,1)")
    a, b = ir.principal_plan(j)
    return (a, b, frozenset(i for i in range(a + 1, b) if j.x[i - 1] == 1))


def oracle_successors(v: tuple[int, ...], x: tuple[int, ...], a: int, b: int):
    """Yield (z, tag) for every <z> with <x> D <z>; (a,b) is the plan of <x>.

    Positions e, f are 1-based like the plans.  A candidate is kept only
    if its plan is exactly (e,f), so each successor is built once.
    """
    n = len(v)
    for e in range(a, b):
        xe = x[e - 1]
        for ze in ((xe,) if e == a else (xe, xe - 1)):
            if not 0 <= ze < v[e - 1]:
                continue
            head = v[:e - 1] + (ze,)  # z = v below e
            for f in range(e + 1, b if e == a else b + 1):  # (a,b) gives x back
                xf = x[f - 1]
                body = head + x[e:f - 1]  # z = x strictly inside (e,f)
                tail = (0,) * (n - f)  # z = 0 above f
                for zf in ((xf,) if f == b else (xf, xf + 1)):
                    if not 0 < zf <= v[f - 1]:
                        continue
                    if e == a:
                        tag = "RA" if zf == xf else "RB"
                    elif f == b:
                        tag = "LA" if ze == xe else "LB"
                    else:
                        tag = "other"
                    yield body + (zf,) + tail, tag


def graph_from_edges(v: mn.MultVector, xs, edges) -> ir.DGraph:
    """The DGraph on the node vectors ``xs`` with the (source, target, tag)
    triples ``edges``, in the successor-list form of ``d_graph``."""
    succ: list[list[int]] = [[] for _ in xs]
    for s, t, tag in sorted(edges):
        succ[s].append(t << 3 | ir.COVER_TAGS.index(tag))
    return ir.DGraph(v, tuple(xs), tuple(succ))


# Every vector of 1-5 entries in 0..3, (1^k) for k <= 10 and vectors of
# zero entries only: 1,364 + 10 + 5 vectors.
ORACLE_VECTORS = ([e for n in range(1, 6) for e in product(range(4), repeat=n)]
                  + [(1,) * k for k in range(1, 11)] + [(0,) * n for n in range(1, 6)])


def oracle_d_edges(v: mn.MultVector):
    """The D-graph's node vectors, lexicographic, and its (source, target,
    tag) edges as node indices, with every successor built as a tuple and
    found by hashing it."""
    ir.check_d_graph_cap(v)
    ji = list(_oracle_ji_plans(v))  # already lexicographic on x
    index = {x: i for i, (x, _) in enumerate(ji)}
    edges = [(si, index[z], tag) for si, (x, (a, b)) in enumerate(ji)
             for z, tag in oracle_successors(v.entries, x, a, b)]
    return [x for x, _ in ji], edges


def oracle_d_graph(v: mn.MultVector) -> ir.DGraph:
    """The D-graph of :func:`oracle_d_edges`; edges sorted by (source, target)."""
    return graph_from_edges(v, *oracle_d_edges(v))


def d_closed_sets(v: mn.MultVector) -> list[cg.JiSet]:
    """All D-closed sets of join irreducibles, i.e. all congruences, as
    JiSets built from the masks of ``congruence.d_closed_masks``."""
    graph, masks = cg.d_closed_masks(v)
    nodes = graph.nodes
    return [cg.JiSet(v, frozenset(nodes[i] for i in cg.mask_members(mask))) for mask in masks]


def oracle_longest_simple_path(g: ir.DGraph) -> int:
    """Longest directed path length (edge count) of the D-graph, read off
    its heights, which raise on a cycle."""
    return max(g.heights(), default=0)


def oracle_sd_fails_on_words(x: mn.PathWord, y: mn.PathWord, z: mn.PathWord, n: int) -> bool:
    """Whether SD_n(meet) fails on (x,y,z) or on (x,z,y), walked on the
    words of L(v) with one walk: swapping y and z swaps the two sequences
    of ``sd_sequence``, so (x,y,z) fails iff x ^ y_n != x ^ (y v z) and
    (x,z,y) fails iff x ^ z_n != x ^ (y v z)."""
    yn, zn = sd_sequence(mn.mjoin, mn.mmeet, x, y, z, n)[-1]
    top = mn.mmeet(x, mn.mjoin(y, z))
    return mn.mmeet(x, yn) != top or mn.mmeet(x, zn) != top


def multinomial_vectors(limit: int, top: int = 6) -> list[tuple[int, ...]]:
    """Every vector of dimension at least 2 with entries in 1..top whose
    L(v) has at most ``limit`` words."""
    out, stack = [], [()]
    while stack:
        v = stack.pop()
        for e in range(1, top + 1):  # the size grows with e and with each new entry
            w = v + (e,)
            if mn.MultVector(w).size() > limit:
                break
            if len(w) > 1:
                out.append(w)
            stack.append(w)
    return sorted(out)


# Small L(v) whose quotients are cheap to build: congruence.quotient
# checks the partition with about 4 N^2 word joins and meets.
QUOTIENT_VECTORS = ("2,1", "1,1,1", "2,2", "3,1", "2,1,1", "1,2,1", "1,1,2",
                    "3,1,1", "2,2,1", "1,1,1,1")


def quotient_lattice(v: mn.MultVector, s: cg.JiSet) -> FiniteLattice:
    """The quotient of L(v) by the congruence of S as a table lattice, built
    from the crossing covers that ``congruence.quotient`` lists, which must
    be exactly the covers of the lattice they generate."""
    labels, covers = cg.quotient(v, s)
    lattice = FiniteLattice.from_covers(covers, labels=labels)
    assert lattice.cover_pairs() == covers
    return lattice


@lru_cache(maxsize=None)
def quotient_by(text: str, members: frozenset[int]):
    """The quotient of L(v) by the D-closed set of the d_graph nodes ``members``."""
    v = mn.parse_vector(text)
    nodes = ir.d_graph(v).nodes
    return quotient_lattice(v, cg.JiSet(v, frozenset(nodes[i] for i in members)))


@st.composite
def d_closed_members(draw):
    """A small L(v), as its vector text, and the D-closure of a random set
    of its join irreducibles, as indices into its d_graph nodes."""
    text = draw(st.sampled_from(QUOTIENT_VECTORS))
    graph = ir.d_graph(mn.parse_vector(text))
    succ = [[t for s, t, _ in graph.edges if s == i] for i in range(len(graph.nodes))]
    stack = sorted(draw(st.sets(st.integers(0, len(graph.nodes) - 1))))
    members: set[int] = set()
    while stack:
        i = stack.pop()
        if i not in members:
            members.add(i)
            stack.extend(succ[i])
    return text, frozenset(members)


def d_closed_quotients():
    """A quotient of a small L(v) by the D-closure of a random set of its
    join irreducibles."""
    return d_closed_members().map(lambda drawn: quotient_by(*drawn))
