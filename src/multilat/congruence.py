"""Congruences of L(v) via D-closed sets of join irreducibles.

A congruence is described by the set S of join irreducibles it does not
collapse; S must be closed under following join-dependency edges.  Two
words are equivalent exactly when they dominate the same members of S.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING

from . import irreducibles, multinomial
from .errors import CapExceeded, MultilatError
from .irreducibles import DGraph, IrrVector, d_graph, ji_word
from .multinomial import MultVector, PathWord, leq, mjoin, mmeet, word_str
from .order import _blocks, _union

if TYPE_CHECKING:
    from .finite_lattice import FiniteLattice


@dataclass(frozen=True)
class JiSet:
    """A D-closed set of join irreducibles of L(v)."""

    parent: MultVector
    members: frozenset[IrrVector]

    def __post_init__(self) -> None:
        for j in self.members:
            if j.parent != self.parent or j.kind != irreducibles.JOIN:
                raise MultilatError("JiSet members must be join irreducibles of the parent")
            if j.degenerate:
                raise MultilatError("JiSet members must be non-degenerate")

    def is_d_closed(self) -> bool:
        return all(k in self.members
                   for j in self.members
                   for k, _ in irreducibles.d_successors(j))

    def __str__(self) -> str:
        return ";".join(str(j) for j in sorted(self.members, key=lambda j: j.x))


def parse_ji_set(v: MultVector, text: str) -> JiSet:
    if text == "-" or not text:
        return JiSet(v, frozenset())
    members = frozenset(
        irreducibles.parse_irr_vector(v, chunk) for chunk in text.split(";"))
    return JiSet(v, members)


@dataclass(frozen=True)
class Partition:
    """A partition of the words of L(v) into blocks."""

    parent: MultVector
    blocks: tuple[frozenset[PathWord], ...]

    def to_json(self) -> str:
        return json.dumps(
            {"v": list(self.parent.entries),
             "blocks": [sorted(word_str(w) for w in block) for block in self.blocks]},
            indent=2)


DEFAULT_JI_CAP = 24
# Set from `classes -S -` (in-process) on a 2-vCPU Xeon, Python 3.11: the
# empty S puts all N words in one block, checked by 4 N^2 word joins and
# meets.  N = 90 (2,2,2) takes 0.8-1.4 s, 140 (3,3,1) 2.1-3.6 s, 210 (3,2,2) 5.1-7.4 s.
CLASSES_CAP = 210
# Set from `congruences` (in-process, JSON reply) on a 2-vCPU Xeon, Python
# 3.11: 22,873 sets (1,4,2) take 0.9 s and 132 MB, 31,409 (1,2,4) 1.7 s and
# 191 MB, 57,808 (1,3,3) 3.9 s and 366 MB, 289,747 (3,1,3) 30 s and 2 GB.
# The cap admits (1,2,4) and refuses (1,3,3); --count has no such cap.
LISTING_CAP = 32_768


def d_closed_masks(v: MultVector) -> tuple[DGraph, list[int]]:
    """The D-graph and its forward-closed node sets, i.e. all congruences,
    refused above LISTING_CAP sets once they are counted.

    A set is a bitmask over ``graph.nodes``, listed by :func:`_closed_masks`.
    """
    graph = _capped_d_graph(v)
    count = _count_closed(graph)
    if count > LISTING_CAP:
        raise CapExceeded(f"{count} congruences exceed the listing cap {LISTING_CAP}")
    return graph, _closed_masks(graph, [range(len(graph.nodes))])[0]


def count_d_closed(v: MultVector) -> int:
    """The number of D-closed sets, i.e. of congruences, without listing them."""
    return _count_closed(_capped_d_graph(v))


def _count_closed(graph: DGraph) -> int:
    """A set is closed iff its part in each weakly connected component of
    the D-graph is, so the count is the product over the components of
    their closed sets, each listed by :func:`_closed_masks`."""
    parent = list(range(len(graph.nodes)))
    for s, t, _ in graph.edges:
        _union(parent, s, t)
    return prod(len(masks) for masks in _closed_masks(graph, _blocks(parent)))


def _capped_d_graph(v: MultVector) -> DGraph:
    """The D-graph, refused above DEFAULT_JI_CAP join irreducibles before it is built."""
    m = irreducibles.count_ji(v)
    if m > DEFAULT_JI_CAP:
        raise CapExceeded(f"{m} join irreducibles exceed cap {DEFAULT_JI_CAP}")
    return d_graph(v)


def _closed_masks(graph: DGraph, groups) -> list[list[int]]:
    """For each group of nodes with no D-edge leaving it, its subsets closed
    under D-successors as bitmasks over ``graph.nodes``.  Nodes are taken
    by increasing height (:meth:`DGraph.heights`, which raises on a cycle),
    so each comes after its direct successors, and a node may join a set
    only once all of them are present."""
    heights = graph.heights()
    needs = [0] * len(graph.nodes)
    for s, t, _ in graph.edges:
        needs[s] |= 1 << t
    out = []
    for group in groups:
        masks = [0]
        for node in sorted(group, key=heights.__getitem__):
            bit, need = 1 << node, needs[node]
            masks.extend([s | bit for s in masks if s & need == need])
        out.append(masks)
    return out


def mask_members(mask: int) -> list[int]:
    """Node indices of a bitmask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def d_closed_sets(v: MultVector) -> list[JiSet]:
    """All D-closed sets of join irreducibles, i.e. all congruences."""
    graph, masks = d_closed_masks(v)
    return [JiSet(v, frozenset(graph.nodes[i] for i in mask_members(mask)))
            for mask in masks]


def congruence_from_S(v: MultVector, s: JiSet) -> Partition:
    """Partition of L(v), refused above CLASSES_CAP words, where words agree
    on their dominated members of S, checked to be compatible with join and meet."""
    if s.parent != v:
        raise MultilatError("JiSet parent mismatch")
    size = v.size()
    if size > CLASSES_CAP:
        raise CapExceeded(f"|L({v})| = {size} exceeds the congruence classes cap {CLASSES_CAP}")
    if not s.is_d_closed():
        raise MultilatError(f"set {{{s}}} is not closed under the join dependency")
    words = list(multinomial.enumerate_words(v))
    member_words = {j: ji_word(j) for j in s.members}
    keyed: dict[frozenset, list[PathWord]] = {}
    for w in words:
        key = frozenset(j for j, jw in member_words.items() if leq(jw, w))
        keyed.setdefault(key, []).append(w)
    partition = Partition(
        v, tuple(sorted((frozenset(b) for b in keyed.values()),
                        key=lambda b: min(b).letters)))
    _verify_congruence(partition, words)
    return partition


def _verify_congruence(p: Partition, words: list[PathWord]) -> None:
    block_id = {w: i for i, block in enumerate(p.blocks) for w in block}
    for block in p.blocks:
        rep, *rest = sorted(block)
        for other in rest:
            for t in words:
                if block_id[mjoin(rep, t)] != block_id[mjoin(other, t)] or \
                   block_id[mmeet(rep, t)] != block_id[mmeet(other, t)]:
                    raise MultilatError(
                        f"relation is not compatible: blocks of {word_str(rep)} and "
                        f"{word_str(other)} split under {word_str(t)}")


def quotient(v: MultVector, s: JiSet) -> FiniteLattice:
    """The quotient lattice on the blocks of congruence_from_S."""
    from .finite_lattice import FiniteLattice

    p = congruence_from_S(v, s)
    block_id = {w: i for i, block in enumerate(p.blocks) for w in block}
    labels = ["{" + ",".join(sorted(word_str(w) for w in block)) + "}"
              for block in p.blocks]
    # The block order is generated by the covers that cross blocks;
    # from_covers closes it and recovers the quotient's covers.
    edges = {(block_id[w], block_id[u])
             for w in block_id for u in multinomial.covers(w)
             if block_id[w] != block_id[u]}
    return FiniteLattice.from_covers(edges, labels=labels)


def check_parikh_connectivity(p: Partition) -> bool:
    """Every block connected under single adjacent-transposition steps.

    Swapping two unequal adjacent letters is an upper or a lower cover,
    so the steps are the ``covers`` edges inside a block, walked both ways.
    """
    for block in p.blocks:
        nbrs: dict[PathWord, list[PathWord]] = {w: [] for w in block}
        for w in block:
            for u in multinomial.covers(w):
                if u in nbrs:
                    nbrs[w].append(u)
                    nbrs[u].append(w)
        start = min(block)
        reached = {start}
        frontier = [start]
        while frontier:
            for u in nbrs[frontier.pop()]:
                if u not in reached:
                    reached.add(u)
                    frontier.append(u)
        if len(reached) != len(block):
            return False
    return True
