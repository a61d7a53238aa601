"""Congruences of L(v) via D-closed sets of join irreducibles.

A congruence is described by the set S of join irreducibles it does not
collapse; S must be closed under following join-dependency edges.  Two
words are equivalent exactly when they dominate the same members of S.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import irreducibles, multinomial
from .errors import CapExceeded, MultilatError
from .finite_lattice import FiniteLattice
from .irreducibles import DGraph, IrrVector, d_graph, ji_word
from .multinomial import MultVector, PathWord, leq, mjoin, mmeet, word_str


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


def d_closed_masks(v: MultVector) -> tuple[DGraph, list[int]]:
    """The D-graph and its forward-closed node sets, i.e. all congruences.

    A set is a bitmask over ``graph.nodes``.  Nodes are taken by
    increasing height (:meth:`DGraph.heights`, which raises on a cycle),
    so each comes after its direct successors, and a node may join a set
    only once all of them are present.
    """
    m = irreducibles.count_ji(v)
    if m > DEFAULT_JI_CAP:
        raise CapExceeded(f"{m} join irreducibles exceed cap {DEFAULT_JI_CAP}")
    graph = d_graph(v)
    needs = [0] * m
    for s, t, _ in graph.edges:
        needs[s] |= 1 << t
    masks = [0]
    for node in sorted(range(m), key=graph.heights().__getitem__):
        bit, need = 1 << node, needs[node]
        masks.extend([s | bit for s in masks if s & need == need])
    return graph, masks


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
